// replay_mix — max-speed replay of a captured mirror stream.
//
// Set-up captures a live run at the core bottleneck to pcaps in the work
// directory: an elephant/mice mix with a high mice rate plus a SYN flood
// from >= 4096 spoofed sources, 12 simulated seconds. The fixed work is
// kPasses passes of TraceReplayer::replay_now into a fresh ReplayPipeline
// each, with the NIDS engine, one RTT histogram engine and the shipped
// queue_delay_p99 mpl program installed, reports flowing through Logstash
// into an in-memory archive. The traced run replaces replay_now with the
// harness's own per-frame loop over the same calls.
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "controlplane/histogram_extractor.hpp"
#include "controlplane/quic_rtt_extractor.hpp"
#include "core/monitoring_system.hpp"
#include "harness/common.hpp"
#include "harness/forwarders.hpp"
#include "mpl/compiler.hpp"
#include "psonar/logstash.hpp"
#include "trace/trace_replayer.hpp"

namespace perfbench {

namespace {

using p4s::units::milliseconds;
using p4s::units::seconds;

constexpr int kPasses = 8;
constexpr int kCaptureS = 12;

struct Capture {
  p4s::trace::TraceReplayer trace;
  p4s::trace::ReplayPipeline::Config pipeline;
};

/// The seed moves where things happen, not how much: start times, and so
/// the interleaving of mice, elephants and flood in the captured stream.
struct MixInputs {
  std::int64_t flood_start_ms = 0;
  std::int64_t mix_start_ms = 0;
};

constexpr double kMicePerSecond = 300.0;
constexpr std::uint32_t kSpoofedSources = 4608;
constexpr double kFloodPps = 10'000.0;

MixInputs make_inputs(std::uint64_t seed) {
  SeedRng rng(seed);
  MixInputs in;
  in.flood_start_ms = 2000 + rng.uniform(0, 500);
  in.mix_start_ms = 500 + rng.uniform(0, 200);
  return in;
}

std::string canonical_inputs(std::uint64_t seed, const MixInputs& in) {
  std::ostringstream s;
  s << "replay_mix capture=" << kCaptureS << "s passes=" << kPasses
    << " seed=" << seed << " mice_per_s=" << kMicePerSecond
    << " spoof=" << kSpoofedSources << " flood_pps=" << kFloodPps
    << " flood_start_ms=" << in.flood_start_ms
    << " mix_start_ms=" << in.mix_start_ms
    << " program=queue_delay_p99 nids=on rtt_histogram=on sps=4";
  return s.str();
}

/// The live run whose mirror stream is captured, then loaded back.
Capture capture(const MixInputs& in, std::uint64_t seed,
                const std::string& base) {
  p4s::core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = p4s::units::mbps(250);
  config.seed = seed;
  config.trace.capture = true;
  config.trace.path_base = base;
  p4s::workload::WorkloadSpec mix;
  mix.kind = p4s::workload::WorkloadSpec::Kind::kElephantMice;
  mix.src = "dtn_int";
  mix.dst = "ext0";
  mix.start = milliseconds(in.mix_start_ms);
  mix.duration = seconds(kCaptureS - 1);
  mix.elephants = 2;
  mix.mice_per_second = kMicePerSecond;
  mix.mice_bytes = 64 * 1024;
  p4s::workload::WorkloadSpec flood;
  flood.kind = p4s::workload::WorkloadSpec::Kind::kSynFlood;
  flood.src = "ext1";
  flood.dst = "dtn_int";
  flood.start = milliseconds(in.flood_start_ms);
  flood.duration = seconds(6);
  flood.pps = kFloodPps;
  flood.spoof_count = kSpoofedSources;
  config.workloads = {mix, flood};

  Capture out{p4s::trace::TraceReplayer::from_frames({}), {}};
  {
    p4s::core::MonitoringSystem system(config);
    system.psonar().psconfig().execute(
        "psconfig config-P4 --samples_per_second 4");
    system.start();
    system.run_until(seconds(kCaptureS));
    out.pipeline.control = system.control_plane().config();
  }  // closes the pcaps
  using p4s::trace::TraceCapture;
  out.trace = p4s::trace::TraceReplayer::from_files(
      TraceCapture::port_path(base, p4s::net::MirrorPoint::kIngress),
      TraceCapture::port_path(base, p4s::net::MirrorPoint::kEgress));

  out.pipeline.seed = seed;
  out.pipeline.program.nids = p4s::telemetry::NidsFeatureEngineConfig{};
  p4s::telemetry::HistogramEngineConfig rtt;
  rtt.metric = p4s::telemetry::HistogramEngineConfig::Metric::kRtt;
  out.pipeline.program.histograms = {rtt};
  const std::string program_path =
      std::string(PERFBENCH_PROGRAMS_DIR) + "/queue_delay_p99.mpl.json";
  std::ifstream file(program_path);
  std::stringstream text;
  text << file.rdbuf();
  out.pipeline.programs = {
      p4s::mpl::compile_program_text(text.str(), program_path)};
  return out;
}

/// One pass: a fresh pipeline replaying the whole capture.
struct Pass {
  double run_s = 0.0;
  ArchiveDigest archive;
  std::uint64_t reports = 0;
  std::uint64_t frames = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_heap = 0;
  // Traced passes only.
  SpanStats frame;        // P4Switch::on_mirrored_bytes
  SpanStats parse_self;   // frame minus its telemetry child
  SpanStats timers;       // run_until between frames minus psonar child
  SpanStats telemetry;
  SpanStats psonar;
};

Pass run_pass(const Capture& cap, bool traced, Result& result) {
  Pass pass;
  // Declared before the pipeline so they outlive the pointers it keeps.
  p4s::ps::Archiver archiver;
  p4s::ps::Logstash logstash(archiver);
  p4s::ps::LogstashTcpSink logstash_input(logstash);
  TimedReportSink report_sink(logstash_input);
  std::optional<TimedP4Program> program;

  p4s::trace::ReplayPipeline pipeline(cap.pipeline);
  auto& control = pipeline.control_plane();
  p4s::cp::register_histogram_extractors(control, pipeline.program());
  p4s::cp::register_nids_digest_source(control, pipeline.program());
  control.set_sink(traced ? static_cast<p4s::cp::ReportSink*>(&report_sink)
                          : &logstash_input);
  if (traced) {
    program.emplace(pipeline.program());
    pipeline.p4_switch().load_program(*program);
  }
  control.start();

  auto& sim = pipeline.simulation();
  auto& p4 = pipeline.p4_switch();
  const auto start = Clock::now();
  if (!traced) {
    cap.trace.replay_now(sim, p4);
  } else {
    // The same calls replay_now makes, each timed.
    for (const auto& f : cap.trace.frames()) {
      if (f.ts > sim.now()) {
        nested_span(nullptr, pass.timers, report_sink.spans(),
                    [&] { sim.run_until(f.ts); });
      }
      nested_span(&pass.frame, pass.parse_self, program->spans(), [&] {
        p4.on_mirrored_bytes(f.bytes, f.point, f.orig_len);
      });
    }
  }
  pass.run_s = seconds_since(start);

  pass.frames = p4.processed_pkts() + p4.parse_errors();
  pass.parse_errors = p4.parse_errors();
  pass.reports = control.reports_emitted();
  pass.events = sim.events().executed_events();
  pass.peak_heap = sim.events().peak_pending_events();
  pass.archive = digest_archive(archiver);
  if (traced) {
    pass.telemetry = program->spans();
    pass.psonar = report_sink.spans();
  }

  const std::uint64_t fed = cap.trace.frames().size();
  result.check(pass.frames == fed,
               "replay: fed " + std::to_string(fed) + " frames, switch saw " +
                   std::to_string(pass.frames));
  check_exactly_once(pass.reports, pass.archive.docs, result);
  return pass;
}

}  // namespace

Result run_replay_mix(const Options& options) {
  Result result;
  const MixInputs inputs = make_inputs(options.seed);
  result.info["config_hash"] =
      config_hash(canonical_inputs(options.seed, inputs));

  // Set-up: capture + load, sampled three times (each capture writes its
  // own pcaps; the last one is replayed).
  std::vector<double> setup_s;
  std::unique_ptr<Capture> cap;
  for (int i = 0; i < 3; ++i) {
    const std::string base =
        options.workdir + "/replay_mix-" + std::to_string(i);
    const auto start = Clock::now();
    cap = std::make_unique<Capture>(capture(inputs, options.seed, base));
    setup_s.push_back(seconds_since(start));
    result.check(!cap->trace.frames().empty(), "replay: empty capture");
    std::filesystem::remove(base + ".ingress.pcap");
    std::filesystem::remove(base + ".egress.pcap");
  }
  const auto stats = cap->trace.analyze();
  result.info["trace_frames"] = std::to_string(stats.frames);

  // Pass times: run_s is kPasses times their median, so a slow stretch of
  // the shared machine costs the passes it overlaps, not a whole
  // repetition.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::uint64_t digest = 0;
  Pass traced_pass;
  RepBudget budget(options.seconds, options.trace ? 2 : 1);
  while (budget.more()) {
    const bool traced = options.trace && budget.reps() % 2 == 1;
    double rep_s = 0.0;
    for (int p = 0; p < kPasses; ++p) {
      Pass pass = run_pass(*cap, traced, result);
      rep_s += pass.run_s;
      (traced ? traced_s : plain_s).push_back(pass.run_s);
      if (digest == 0) digest = pass.archive.digest;
      result.check(pass.archive.digest == digest,
                   "replay: report digest " + hex64(pass.archive.digest) +
                       " != " + hex64(digest));
      if (traced && p == 0) traced_pass = pass;
    }
    budget.done(rep_s);
  }
  result.info["reps"] = std::to_string(budget.reps());
  result.info["report_digest"] = hex64(digest);

  if (options.trace) {
    auto& L = result.layers;
    const auto count = [](std::uint64_t v) {
      return Metric{static_cast<double>(v), "count"};
    };
    const Pass& t = traced_pass;
    const double pass_s = median(traced_s);
    L["sim.events"] = count(t.events);
    L["sim.peak_heap"] = count(t.peak_heap);
    L["p4.frames"] = count(t.frames);
    L["p4.parse_errors"] = count(t.parse_errors);
    L["p4.frame_ns"] = {t.frame.mean_ns(), "ns"};
    L["p4.parse_self_ns"] = {t.parse_self.mean_ns(), "ns"};
    L["telemetry.ingress_p50_ns"] = {t.telemetry.quantile_ns(0.50), "ns"};
    L["telemetry.ingress_p99_ns"] = {t.telemetry.quantile_ns(0.99), "ns"};
    L["telemetry.busy_s"] = {t.telemetry.sum_s(), "s"};
    L["telemetry.share"] = {t.telemetry.sum_s() / t.run_s, "ratio"};
    L["cp.reports"] = count(t.reports);
    L["cp.timers_s"] = {t.timers.sum_s(), "s"};
    L["psonar.report_ns"] = {t.psonar.mean_ns(), "ns"};
    L["psonar.busy_s"] = {t.psonar.sum_s(), "s"};
    L["psonar.docs"] = count(t.archive.docs);
    L["trace.run_s"] = {pass_s, "s"};
    L["trace.overhead_s"] = {pass_s - median(plain_s), "s"};
    return result;
  }
  result.e2e["setup_s"] = {median(setup_s), "s"};
  result.e2e["run_s"] = {kPasses * median(plain_s), "s"};
  return result;
}

}  // namespace perfbench
