#include "harness/measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <thread>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, int percent) {
  // Nearest rank: the ceil(percent * n / 100)-th smallest sample.
  const std::size_t rank =
      (static_cast<std::size_t>(percent) * n + 99) / 100;
  return n - rank;
}

double nearest_rank(const std::vector<double>& sorted, int percent) {
  const std::size_t n = sorted.size();
  std::size_t rank = (static_cast<std::size_t>(percent) * n + 99) / 100;
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

void wait_until(Clock::time_point t) {
  constexpr auto kSpin = std::chrono::microseconds(150);
  const auto now = Clock::now();
  if (t - now > kSpin) std::this_thread::sleep_until(t - kSpin);
  while (Clock::now() < t) {
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

}  // namespace perfbench
