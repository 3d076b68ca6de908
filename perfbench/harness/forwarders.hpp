// Forwarding shims installed through the libraries' own seams, so the
// traced run can time a layer from outside without touching src/:
//
//   * TimedP4Program — loaded with P4Switch::load_program in place of the
//     telemetry DataPlaneProgram; times each ingress() call (the
//     telemetry layer) and forwards it unchanged.
//   * TimedReportSink — installed with ControlPlane::set_sink in front of
//     the original sink (Logstash's TCP input); times each report (the
//     perfSONAR report path) and forwards it unchanged.
//
// Both leave the report stream byte-identical; the harness tests pin it.
#pragma once

#include "controlplane/report.hpp"
#include "harness/measure.hpp"
#include "p4/pipeline.hpp"

namespace perfbench {

class TimedP4Program final : public p4s::p4::P4Program {
 public:
  explicit TimedP4Program(p4s::p4::P4Program& next) : next_(next) {}

  void ingress(p4s::p4::PacketContext& ctx) override {
    const std::int64_t start = now_ns();
    next_.ingress(ctx);
    spans_.add(now_ns() - start);
  }

  const SpanStats& spans() const { return spans_; }

 private:
  p4s::p4::P4Program& next_;
  SpanStats spans_;
};

class TimedReportSink final : public p4s::cp::ReportSink {
 public:
  explicit TimedReportSink(p4s::cp::ReportSink& next) : next_(next) {}

  void on_report(const p4s::util::Json& report) override {
    const std::int64_t start = now_ns();
    next_.on_report(report);
    spans_.add(now_ns() - start);
  }

  const SpanStats& spans() const { return spans_; }

 private:
  p4s::cp::ReportSink& next_;
  SpanStats spans_;
};

}  // namespace perfbench
