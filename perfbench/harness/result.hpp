// What one benchmark invocation runs and what it reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget of the run, host seconds.
  double seconds = 10.0;
  /// Traced run: per-layer spans on, per-layer metrics reported.
  bool trace = false;
  /// Scratch directory for stores and captures (created and removed by
  /// the caller).
  std::string workdir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One workload's outcome. `e2e` holds the end-to-end metrics of a plain
/// run, `layers` the per-layer metrics of a traced run, `extra` figures
/// printed and written beside them but outside the BENCHMARK.json
/// contract (archive_serve's batch query rate); `info` carries provenance and
/// diagnostics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> info;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  bool correct() const { return failed == 0; }
};

Result run_fig9(const Options& options);
Result run_fabric16(const Options& options);
Result run_replay_mix(const Options& options);
Result run_archive_serve(const Options& options);

}  // namespace perfbench
