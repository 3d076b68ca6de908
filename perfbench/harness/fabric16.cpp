// fabric16 — the fabric_scaling multi-site mix over 16 monitored
// switches (the four TAP points, four sites each): three core-bottleneck
// transfers plus three inter-site transfers the WAN switch routes
// directly; 4 samples/s reports, 8 simulated seconds, run by the sharded
// runtime with 3 workers. The seed jitters the transfer start times by
// up to 100 ms. One serial (parallel = 1) run of the same inputs comes
// first and pins the report digest every sharded repetition must match.
#include <array>
#include <utility>

#include "harness/live.hpp"

namespace perfbench {

namespace {

constexpr int kSwitches = 16;
constexpr std::size_t kWorkers = 3;
constexpr int kHorizonS = 8;

LiveSpec fabric_spec(std::uint64_t seed, std::size_t parallel,
                     std::string* canonical) {
  using p4s::units::milliseconds;
  using p4s::units::seconds;
  static constexpr p4s::core::TapPoint kTaps[] = {
      p4s::core::TapPoint::kCoreBottleneck, p4s::core::TapPoint::kWanExt0,
      p4s::core::TapPoint::kWanExt1, p4s::core::TapPoint::kWanExt2};
  SeedRng rng(seed);
  std::array<std::int64_t, 6> start_ms{};
  for (int i = 0; i < 3; ++i) start_ms[i] = 1000 + 200 * i + rng.uniform(0, 100);
  for (int i = 0; i < 3; ++i) start_ms[3 + i] = 1000 + 100 * i + rng.uniform(0, 100);

  LiveSpec spec;
  spec.config.topology.bottleneck_bps = p4s::units::mbps(200);
  spec.config.topology.access_bps = p4s::units::mbps(200);
  spec.config.seed = seed;
  spec.config.parallel = parallel;
  for (int i = 0; i < kSwitches; ++i) {
    p4s::core::MonitoredSwitchConfig site;
    site.id = "site-" + std::to_string(i);
    site.tap = kTaps[i % 4];
    spec.config.switches.push_back(site);
  }
  spec.psconfig = {"psconfig config-P4 --samples_per_second 4"};
  spec.psconfig_before_start = false;
  spec.horizon_s = kHorizonS;
  spec.add_traffic = [start_ms](p4s::core::MonitoringSystem& system) {
    const auto stop = seconds(kHorizonS - 1);
    for (int ext = 0; ext < 3; ++ext) {
      auto& flow = system.add_transfer(ext);
      flow.start_at(milliseconds(start_ms[ext]));
      flow.stop_at(stop);
    }
    auto& topology = system.topology();
    const std::pair<int, int> site_pairs[] = {{0, 1}, {1, 2}, {2, 0}};
    for (int i = 0; i < 3; ++i) {
      const auto [src, dst] = site_pairs[i];
      auto& flow = system.add_flow(*topology.dtn_ext[src],
                                   *topology.dtn_ext[dst]);
      flow.start_at(milliseconds(start_ms[3 + i]));
      flow.stop_at(stop);
    }
  };
  if (canonical != nullptr) {
    *canonical = "fabric16 switches=16 bottleneck=200Mbps access=200Mbps "
                 "sps=4 horizon=8s seed=" + std::to_string(seed) +
                 " starts_ms=";
    for (const auto ms : start_ms) *canonical += std::to_string(ms) + ",";
  }
  return spec;
}

}  // namespace

Result run_fabric16(const Options& options) {
  std::string canonical;
  const LiveSpec parallel = fabric_spec(options.seed, kWorkers, &canonical);
  canonical += " parallel=" + std::to_string(kWorkers);
  // The serial run pins the digest: the sharded runtime must reproduce
  // it byte for byte.
  const LiveSpec serial = fabric_spec(options.seed, 1, nullptr);
  return run_live_workload(parallel, options, canonical, &serial);
}

}  // namespace perfbench
