// fig9 — the paper's Fig. 9 run: three CUBIC transfers at 50/75/100 ms
// over a 250 Mbps bottleneck, the third joining at 45 s; 90 simulated
// seconds, 1 sample/s reports into the in-memory archive, serial fabric.
// The seed jitters the start times (up to 200 ms, and the join by up to
// 500 ms), so each seed is its own run of the same experiment.
#include "harness/live.hpp"

namespace perfbench {

Result run_fig9(const Options& options) {
  using p4s::units::milliseconds;
  using p4s::units::seconds;
  SeedRng rng(options.seed);
  const std::int64_t start_ms[3] = {1000 + rng.uniform(0, 200),
                                    1000 + rng.uniform(0, 200),
                                    45000 + rng.uniform(0, 500)};

  LiveSpec spec;
  spec.config.topology.bottleneck_bps = p4s::units::mbps(250);
  spec.config.topology.core_buffer_bytes = p4s::units::bdp_bytes(
      spec.config.topology.bottleneck_bps, milliseconds(50));
  spec.config.seed = options.seed;
  spec.config.parallel = 1;
  spec.psconfig = {"psconfig config-P4 --samples_per_second 1"};
  spec.psconfig_before_start = true;
  spec.horizon_s = 90;
  spec.add_traffic = [start_ms](p4s::core::MonitoringSystem& system) {
    for (int ext = 0; ext < 3; ++ext) {
      system.add_transfer(ext).start_at(milliseconds(start_ms[ext]));
    }
  };

  std::string canonical = "fig9 bottleneck=250Mbps buffer=bdp50ms sps=1 "
                          "horizon=90s parallel=1 seed=" +
                          std::to_string(options.seed) + " starts_ms=";
  for (const auto ms : start_ms) canonical += std::to_string(ms) + ",";
  return run_live_workload(spec, options, canonical);
}

}  // namespace perfbench
