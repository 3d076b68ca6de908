// Live simulation workloads (fig9, fabric16): build a MonitoringSystem,
// run a fixed simulated horizon in one-second run_until slices, check the
// outputs, and — in the traced run — time the telemetry and report layers
// through the forwarding shims.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/monitoring_system.hpp"
#include "harness/common.hpp"
#include "harness/result.hpp"

namespace perfbench {

struct LiveSpec {
  p4s::core::MonitoringSystemConfig config;
  std::vector<std::string> psconfig;  // pSConfig commands
  /// fig9 starts the control plane before configuring it (the Fig. 9
  /// bench's order); fabric_scaling configures first.
  bool psconfig_before_start = true;
  std::function<void(p4s::core::MonitoringSystem&)> add_traffic;
  int horizon_s = 1;
};

/// The whole workload: set-up sampled kSetupSamples times first (plain
/// runs), repetitions within the budget, digest repeatability, e2e (plain) or
/// per-layer (traced) metrics. With `serial_reference`, one untimed
/// repetition of that spec runs first and pins the digest every measured
/// repetition must reproduce; its run time gives the parallel speedup.
Result run_live_workload(const LiveSpec& spec, const Options& options,
                         const std::string& canonical_config,
                         const LiveSpec* serial_reference = nullptr);

/// Set-up is milliseconds for a live workload; sample it this often.
inline constexpr std::size_t kSetupSamples = 31;

}  // namespace perfbench
