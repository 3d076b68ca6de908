#include "harness/common.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using p4s::ps::Archiver;
using p4s::util::Json;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string config_hash(const std::string& canonical) {
  Fnv64 h;
  h.update(canonical);
  return hex64(h.value());
}

bool RepBudget::more() const {
  if (reps() < min_reps_) return true;
  const double pace = median(reps_s_);
  return seconds_since(start_) + pace <= budget_s_;
}

void check_exactly_once(std::uint64_t emitted, std::uint64_t archived,
                        Result& result) {
  result.attempted += emitted;
  if (archived == emitted) return;
  result.failed += archived > emitted ? archived - emitted : emitted - archived;
  result.failures.push_back("emitted " + std::to_string(emitted) +
                            " reports, archived " + std::to_string(archived));
}

ArchiveDigest digest_archive(const Archiver& archiver) {
  ArchiveDigest out;
  Fnv64 h;
  for (const std::string& index : archiver.indices()) {
    if (index.rfind("p4sonar-", 0) != 0) continue;
    h.update(index);
    archiver.for_each(index, {}, [&](const Json& doc) {
      h.update(doc.dump());
      h.update("\n");
      ++out.docs;
      return true;
    });
  }
  out.digest = h.value();
  return out;
}

namespace {

void percentile_pair(std::vector<double>& samples, const std::string& kind,
                     bool with_p50, Result& result) {
  result.check(tail_resolved(samples.size(), 99),
               kind + ": " + std::to_string(samples.size()) +
                   " samples, too few for p99");
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  result.layers[kind + "_p99_ms"] = {nearest_rank(samples, 99), "ms"};
  if (with_p50) {
    result.layers[kind + "_p50_ms"] = {nearest_rank(samples, 50), "ms"};
  }
  result.info[kind + "_samples"] = std::to_string(samples.size());
}

}  // namespace

void add_latency_metrics(Latencies& lat, Result& result) {
  percentile_pair(lat.latest_ms, "latest", true, result);
  percentile_pair(lat.recent_ms, "recent", true, result);
  percentile_pair(lat.term_ms, "term", true, result);
  percentile_pair(lat.aggregate_ms, "aggregate", true, result);
  percentile_pair(lat.append_ms, "append", false, result);
}

}  // namespace perfbench
