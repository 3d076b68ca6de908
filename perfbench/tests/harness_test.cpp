// Tests of the benchmark harness itself: the percentile rule, open-loop
// timing, span self-time arithmetic, and that the forwarding shims the
// traced run installs leave the report stream byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/monitoring_system.hpp"
#include "harness/common.hpp"
#include "harness/forwarders.hpp"
#include "harness/measure.hpp"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

// ---- percentile rule ------------------------------------------------------

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_TRUE(tail_resolved(1000, 99));
  EXPECT_FALSE(tail_resolved(999, 99));
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_TRUE(tail_resolved(20, 50));
  EXPECT_FALSE(tail_resolved(19, 50));
  EXPECT_FALSE(tail_resolved(0, 99));
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(nearest_rank(v, 50), 500);
  EXPECT_EQ(nearest_rank(v, 99), 990);
  EXPECT_EQ(nearest_rank(v, 100), 1000);
  // Exactly ten samples lie above the reported p99.
  EXPECT_EQ(v.end() - std::upper_bound(v.begin(), v.end(),
                                       nearest_rank(v, 99)),
            10);
  EXPECT_EQ(nearest_rank({7.0}, 99), 7.0);
}

TEST(PercentileRule, TooFewSamplesFailTheRun) {
  Latencies lat;
  lat.latest_ms.assign(999, 1.0);
  lat.recent_ms.assign(1000, 1.0);
  lat.term_ms.assign(1000, 1.0);
  lat.aggregate_ms.assign(1000, 1.0);
  lat.append_ms.assign(1000, 1.0);
  Result result;
  add_latency_metrics(lat, result);
  EXPECT_EQ(result.failed, 1u);
  lat.latest_ms.push_back(1.0);
  Result ok;
  add_latency_metrics(lat, ok);
  EXPECT_TRUE(ok.correct());
  EXPECT_EQ(ok.layers.count("latest_p99_ms"), 1u);
  EXPECT_EQ(ok.layers.count("append_p50_ms"), 0u);  // appends report p99 only
}

// ---- open-loop timing ------------------------------------------------------

TEST(OpenLoop, ScheduleIsFixedRate) {
  const auto t0 = Clock::now();
  const OpenLoopSchedule s(t0, milliseconds(2));
  EXPECT_EQ(s.due(0), t0);
  EXPECT_EQ(s.due(5), t0 + milliseconds(10));
}

TEST(OpenLoop, LatencyCountsFromScheduledSendTime) {
  // A single FIFO server: op 0 stalls it for 50 ms, the rest take 1 ms.
  // Ops keep arriving every millisecond regardless (open loop).
  const auto t0 = Clock::time_point{};
  const OpenLoopSchedule s(t0, milliseconds(1));
  std::vector<OpenLoopOp> ops;
  auto server_free = t0;
  for (int i = 0; i < 10; ++i) {
    OpenLoopOp op;
    op.due = s.due(i);
    op.sent = op.due;
    const auto start = std::max(server_free, op.sent);
    op.done = start + milliseconds(i == 0 ? 50 : 1);
    server_free = op.done;
    ops.push_back(op);
  }
  EXPECT_DOUBLE_EQ(ops[0].latency_ms(), 50.0);
  // Op 1 was due at 1 ms and finished at 51 ms: it waited behind the
  // stall, and that wait is part of its latency. So does every later op,
  // although each one's own service took 1 ms.
  for (int i = 1; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(ops[i].latency_ms(), 50.0) << i;
    EXPECT_DOUBLE_EQ(ops[i].lateness_ms(), 0.0);
  }
}

TEST(OpenLoop, GeneratorLatenessIsChargedNotHidden) {
  // The generator itself ran 5 ms late: the op is still timed from its
  // due time, and the lateness is reported separately.
  OpenLoopOp op;
  op.due = Clock::time_point{} + milliseconds(100);
  op.sent = op.due + milliseconds(5);
  op.done = op.sent + milliseconds(2);
  EXPECT_DOUBLE_EQ(op.lateness_ms(), 5.0);
  EXPECT_DOUBLE_EQ(op.latency_ms(), 7.0);
}

TEST(OpenLoop, WaitUntilNeverReturnsEarly) {
  for (int i = 0; i < 5; ++i) {
    const auto target = Clock::now() + std::chrono::microseconds(300 * i);
    wait_until(target);
    EXPECT_GE(Clock::now(), target);
  }
}

// ---- span arithmetic -------------------------------------------------------

TEST(SpanSelfTime, ParentIsChargedOnlyItsSelfTime) {
  SpanStats total;
  SpanStats self;
  SpanStats children;
  children.add(5'000);  // recorded before: not part of this span
  nested_span(&total, self, children, [&] {
    children.add(30'000);  // a child span nested in the call
    children.add(20'000);
  });
  ASSERT_EQ(total.count(), 1u);
  EXPECT_EQ(self.sum_ns(), total.sum_ns() - 50'000);
}

TEST(SpanSelfTime, SelfTimesAddUpToTheParentSpans) {
  // Two sibling parent layers around one shared child layer (the replay
  // loop's frame and timer spans): self times plus the child's total make
  // up the parents' total.
  SpanStats frames, frame_self, timers_self, children;
  for (int i = 0; i < 100; ++i) {
    nested_span(&frames, frame_self, children, [&] { children.add(700); });
    nested_span(nullptr, timers_self, children, [&] {});
  }
  EXPECT_EQ(frames.sum_ns(), frame_self.sum_ns() + 100 * 700);
  EXPECT_EQ(timers_self.count(), 100u);
  EXPECT_GE(timers_self.sum_ns(), 0);
}

TEST(SpanStats, CountsSumsAndMerges) {
  SpanStats a;
  SpanStats b;
  for (int i = 1; i <= 100; ++i) a.add(i * 1000);
  b.add(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 101u);
  EXPECT_EQ(a.sum_ns(), 5050 * 1000 + 500);
  EXPECT_NEAR(a.quantile_ns(0.5), 50000, 50000 * 0.02);
}

// ---- accounting ------------------------------------------------------------

TEST(Accounting, ExactlyOnceCountsEveryMissingOrExtraDocument) {
  Result r;
  check_exactly_once(10, 10, r);
  EXPECT_EQ(r.attempted, 10u);
  EXPECT_TRUE(r.correct());
  check_exactly_once(10, 7, r);
  check_exactly_once(10, 12, r);
  EXPECT_EQ(r.attempted, 30u);
  EXPECT_EQ(r.failed, 5u);
}

TEST(Accounting, RepBudgetHonoursTheMinimum) {
  RepBudget budget(0.0, 2);
  EXPECT_TRUE(budget.more());
  budget.done(1.0);
  EXPECT_TRUE(budget.more());
  budget.done(1.0);
  EXPECT_FALSE(budget.more());
}

// ---- forwarder identity ----------------------------------------------------

struct RunDigest {
  ArchiveDigest archive;
  std::uint64_t reports = 0;
  std::uint64_t telemetry_calls = 0;
  std::uint64_t sink_calls = 0;
};

/// A short two-site run; with `forward`, every site's program and the
/// report sink are wrapped by the timing shims.
RunDigest short_run(bool forward, std::size_t parallel) {
  p4s::core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = p4s::units::mbps(50);
  config.parallel = parallel;
  for (const auto tap : {p4s::core::TapPoint::kCoreBottleneck,
                         p4s::core::TapPoint::kWanExt0}) {
    p4s::core::MonitoredSwitchConfig site;
    site.id = p4s::core::to_string(tap);
    site.tap = tap;
    config.switches.push_back(site);
  }
  // The shims outlive the system that points at them.
  std::optional<TimedReportSink> sink;
  std::vector<std::unique_ptr<TimedP4Program>> programs;
  p4s::core::MonitoringSystem system(config);
  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 4");
  system.start();
  system.add_transfer(0).start_at(p4s::units::milliseconds(100));
  system.add_transfer(1).start_at(p4s::units::milliseconds(700));

  if (forward) {
    sink.emplace(*system.control_plane().sink());
    for (const auto& site : system.monitored_switches()) {
      site->control_plane().set_sink(&*sink);
      programs.push_back(std::make_unique<TimedP4Program>(site->program()));
      site->p4_switch().load_program(*programs.back());
    }
  }
  for (int s = 1; s <= 3; ++s) system.run_until(p4s::units::seconds(s));

  RunDigest out;
  out.archive = digest_archive(system.psonar().archiver());
  out.reports = system.fabric_stats().reports_emitted;
  for (const auto& p : programs) out.telemetry_calls += p->spans().count();
  out.sink_calls = sink ? sink->spans().count() : 0;
  return out;
}

TEST(Forwarders, LeaveTheReportDigestByteIdentical) {
  const RunDigest plain = short_run(false, 1);
  const RunDigest timed = short_run(true, 1);
  ASSERT_GT(plain.reports, 0u);
  EXPECT_EQ(plain.archive.digest, timed.archive.digest);
  EXPECT_EQ(plain.archive.docs, timed.archive.docs);
  EXPECT_EQ(timed.sink_calls, timed.reports);
  EXPECT_GT(timed.telemetry_calls, 0u);
}

TEST(Forwarders, ByteIdenticalOnTheShardedFabricToo) {
  // Worker threads call the program shims; each site owns its own.
  const RunDigest serial = short_run(false, 1);
  const RunDigest timed = short_run(true, 2);
  EXPECT_EQ(serial.archive.digest, timed.archive.digest);
  EXPECT_EQ(timed.sink_calls, timed.reports);
}

}  // namespace
}  // namespace perfbench
