// The benchmark's metric names and units — the contract BENCHMARK.json
// publishes. Every plain run reports every end-to-end metric; every
// traced run reports every per-layer metric, 0 where the layer takes no
// part in the workload (see perfbench/README.md for the map).
#pragma once

#include <stdexcept>

#include "harness/result.hpp"

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
};

inline constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MB"},
};

inline constexpr MetricName kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.peak_heap", "count"},
    {"sim.self_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"net.mirrored", "count"},
    {"net.serialize_hit_ratio", "ratio"},
    {"net.bottleneck_drops", "count"},
    {"net.queue_peak_bytes", "bytes"},
    {"tcp.segments", "count"},
    {"tcp.retransmits", "count"},
    {"tcp.rto_fired", "count"},
    {"p4.frames", "count"},
    {"p4.parse_errors", "count"},
    {"p4.frame_ns", "ns"},
    {"p4.parse_self_ns", "ns"},
    {"telemetry.ingress_p50_ns", "ns"},
    {"telemetry.ingress_p99_ns", "ns"},
    {"telemetry.busy_s", "s"},
    {"telemetry.share", "ratio"},
    {"cp.reports", "count"},
    {"cp.timers_s", "s"},
    {"psonar.report_ns", "ns"},
    {"psonar.busy_s", "s"},
    {"psonar.docs", "count"},
    {"fabric.barrier_waits", "count"},
    {"fabric.blocked_pushes", "count"},
    {"fabric.main_events", "count"},
    {"fabric.serial_run_s", "s"},
    {"fabric.parallel_speedup", "ratio"},
    {"store.append_ns", "ns"},
    {"store.maintain_ms", "ms"},
    {"store.cache_hit_ratio", "ratio"},
    {"store.segments_scanned_per_scan", "count"},
    {"store.postings_rows_seeked", "count"},
    {"store.gc_pending", "count"},
    {"latest_p50_ms", "ms"},
    {"latest_p99_ms", "ms"},
    {"recent_p50_ms", "ms"},
    {"recent_p99_ms", "ms"},
    {"term_p50_ms", "ms"},
    {"term_p99_ms", "ms"},
    {"aggregate_p50_ms", "ms"},
    {"aggregate_p99_ms", "ms"},
    {"append_p99_ms", "ms"},
    {"load.query_lateness_p99_ms", "ms"},
    {"load.append_lateness_p99_ms", "ms"},
    {"trace.run_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Check that a plain run produced every end-to-end metric (a missing
/// one is a harness bug) and give a traced run's layers that took no
/// part a 0.
inline void complete_metrics(bool traced, Result& result) {
  if (traced) {
    for (const auto& m : kPerLayer) {
      if (!result.layers.count(m.name)) result.layers[m.name] = {0.0, m.unit};
    }
    return;
  }
  for (const auto& m : kEndToEnd) {
    if (!result.e2e.count(m.name)) {
      result.check(false, std::string("metric ") + m.name + " not measured");
      result.e2e[m.name] = {0.0, m.unit};
    }
  }
}

}  // namespace perfbench
