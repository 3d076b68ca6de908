// Pieces shared by the workloads: seeded input generation, the repetition
// budget, the archive checks and digest, and the latency figures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/measure.hpp"
#include "harness/result.hpp"
#include "psonar/archiver.hpp"

namespace perfbench {

/// splitmix64: the benchmark's input generator. Workload inputs are a
/// pure function of --seed.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo));
  }

 private:
  std::uint64_t state_;
};

/// Hex FNV-1a of a canonical config text (provenance's config hash).
std::string config_hash(const std::string& canonical);

/// Decides how many repetitions of a workload's fixed work fit in the
/// run's budget: at least `min_reps`, then more while another one (at
/// the median pace so far) still ends inside the budget.
class RepBudget {
 public:
  RepBudget(double budget_s, int min_reps)
      : budget_s_(budget_s), min_reps_(min_reps), start_(Clock::now()) {}
  bool more() const;
  void done(double rep_s) { reps_s_.push_back(rep_s); }
  int reps() const { return static_cast<int>(reps_s_.size()); }

 private:
  double budget_s_;
  int min_reps_;
  Clock::time_point start_;
  std::vector<double> reps_s_;
};

/// The p4sonar-* indices of an archive: total documents and a digest of
/// every document in index-name then insertion order.
struct ArchiveDigest {
  std::uint64_t docs = 0;
  std::uint64_t digest = 0;
};
ArchiveDigest digest_archive(const p4s::ps::Archiver& archiver);

std::string hex64(std::uint64_t v);

/// Exactly once: every emitted report is one archived document. Counts
/// the reports as attempted and each missing or extra document as
/// failed.
void check_exactly_once(std::uint64_t emitted, std::uint64_t archived,
                        Result& result);

/// archive_serve's latency samples, by query kind and for appends.
struct Latencies {
  std::vector<double> latest_ms;
  std::vector<double> recent_ms;
  std::vector<double> term_ms;
  std::vector<double> aggregate_ms;
  std::vector<double> append_ms;
};

/// The index every query kind reads (Report_v2 throughput documents).
inline constexpr const char* kThroughputIndex = "p4sonar-throughput";

/// Fill the latency figures from `lat` into `result.layers`: p50 and p99
/// per query kind, p99 of appends, each over all of the phase's samples.
/// A kind with too few samples for a p99 (the >= 10 beyond rule) fails
/// the run.
void add_latency_metrics(Latencies& lat, Result& result);

}  // namespace perfbench
