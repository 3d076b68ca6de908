// Measurement primitives of the benchmark harness: host clock, span
// accumulators with self-time arithmetic, the percentile rule, open-loop
// timing and the report-stream digest. Everything here is measured from
// outside the system: spans wrap calls into the libraries' public
// functions, nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sketch/ddsketch.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One layer's spans, aggregated in memory: a count, a sum and a
/// DDSketch of the durations (ns). Not thread-safe: one accumulator per
/// thread or per fabric site, merged after a barrier.
class SpanStats {
 public:
  void add(std::int64_t ns) {
    ++count_;
    sum_ns_ += ns;
    sketch_.add(static_cast<double>(ns));
  }
  void merge(const SpanStats& other) {
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    sketch_.merge(other.sketch_);
  }

  std::uint64_t count() const { return count_; }
  std::int64_t sum_ns() const { return sum_ns_; }
  double sum_s() const { return static_cast<double>(sum_ns_) * 1e-9; }
  double mean_ns() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_ns_) /
                             static_cast<double>(count_);
  }
  double quantile_ns(double q) const { return sketch_.quantile(q); }

 private:
  std::uint64_t count_ = 0;
  std::int64_t sum_ns_ = 0;
  p4s::sketch::DdSketch sketch_;
};

/// Time `call` as one span of a parent layer whose child layer records
/// its own spans into `children`, nested inside the call on this thread.
/// The span goes to `total` (when given) and its self time — the span
/// minus what `children` grew by during the call — to `self`.
template <typename Call>
void nested_span(SpanStats* total, SpanStats& self, const SpanStats& children,
                 Call&& call) {
  const std::int64_t before = children.sum_ns();
  const std::int64_t start = now_ns();
  call();
  const std::int64_t span = now_ns() - start;
  if (total != nullptr) total->add(span);
  self.add(span - (children.sum_ns() - before));
}

/// Nearest-rank percentile: the smallest sample with at least `percent`
/// per cent of the samples at or below it. `sorted` must be ascending
/// and non-empty.
double nearest_rank(const std::vector<double>& sorted, int percent);

/// Samples strictly above the nearest-rank `percent` percentile of `n`.
std::size_t samples_beyond(std::size_t n, int percent);

/// The percentile rule: a tail percentile is reported only with at least
/// ten samples beyond it (p99 needs n >= 1000).
inline bool tail_resolved(std::size_t n, int percent) {
  return samples_beyond(n, percent) >= 10;
}

/// One operation of an open-loop stream. Operation i is *due* at the
/// schedule's start + i * period whether or not earlier operations have
/// finished; `sent` is when the generator actually sent it and `done`
/// when its result was observed.
struct OpenLoopOp {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;

  /// Latency as the caller experiences it: from the scheduled send time,
  /// so a stall also charges every operation queued behind it.
  double latency_ms() const {
    return std::chrono::duration<double, std::milli>(done - due).count();
  }
  /// How late the generator itself ran.
  double lateness_ms() const {
    return std::chrono::duration<double, std::milli>(sent - due).count();
  }
};

/// Fixed-rate schedule: op i is due at start + i * period.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, std::chrono::nanoseconds period)
      : start_(start), period_(period) {}
  Clock::time_point due(std::uint64_t i) const {
    return start_ + period_ * static_cast<std::int64_t>(i);
  }
  std::chrono::nanoseconds period() const { return period_; }

 private:
  Clock::time_point start_;
  std::chrono::nanoseconds period_;
};

/// Wait until `t`: sleep while far away, spin for the last stretch so the
/// send time is not at the mercy of timer slack.
void wait_until(Clock::time_point t);

/// 64-bit FNV-1a, the report-stream digest.
class Fnv64 {
 public:
  void update(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Median of a sample set (0 when empty).
double median(std::vector<double> values);

}  // namespace perfbench
