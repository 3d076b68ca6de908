// perfbench — run one benchmark workload and print its metrics.
//
//   perfbench --workload <fig9|fabric16|replay_mix|archive_serve>
//             --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--out <result.json>]
//
// Prints one line per metric ("name value unit"), a provenance line, and
// as its last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics of a plain run, or the per-layer metrics of a
// traced run. Exits 0 when every output check passed, 1 when one failed,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness/catalog.hpp"
#include "harness/measure.hpp"
#include "harness/provenance.hpp"
#include "harness/result.hpp"
#include "util/json.hpp"

using namespace perfbench;
using p4s::util::Json;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--out <file>]\n",
               why);
  return 2;
}

Json metrics_json(const std::map<std::string, Metric>& metrics) {
  Json out = Json::object();
  for (const auto& [name, m] : metrics) {
    Json entry = Json::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    out[name] = entry;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string out_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || options.seconds <= 0) {
        return usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return usage("--seed <n> is required");
  if (options.workdir.empty()) return usage("--workdir <dir> is required");

  Result result;
  try {
    std::filesystem::create_directories(options.workdir);
    if (options.workload == "fig9") {
      result = run_fig9(options);
    } else if (options.workload == "fabric16") {
      result = run_fabric16(options);
    } else if (options.workload == "replay_mix") {
      result = run_replay_mix(options);
    } else if (options.workload == "archive_serve") {
      result = run_archive_serve(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  result.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  complete_metrics(options.trace, result);

  // Human-readable lines first, then provenance, then the result line.
  const auto& shown = options.trace ? result.layers : result.e2e;
  const std::map<std::string, Metric>* printed[] = {&shown, &result.extra};
  for (const auto* metrics : printed) {
    for (const auto& [name, m] : *metrics) {
      std::printf("%-28s %.9g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  const double error_ratio =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::printf("%-28s %.9g ratio (%llu failed / %llu attempted)\n",
              "error_ratio", error_ratio,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const auto& line : result.failures) {
    std::printf("FAILED CHECK: %s\n", line.c_str());
  }
  Json prov = provenance(options, result);
  std::printf("provenance %s\n", prov.dump().c_str());

  if (!out_path.empty()) {
    Json doc = Json::object();
    doc["provenance"] = prov;
    doc["correct"] = result.correct();
    doc["attempted"] = static_cast<std::int64_t>(result.attempted);
    doc["failed"] = static_cast<std::int64_t>(result.failed);
    doc["error_ratio"] = error_ratio;
    doc["e2e"] = metrics_json(result.e2e);
    doc["layers"] = metrics_json(result.layers);
    doc["extra"] = metrics_json(result.extra);
    Json failures = Json(p4s::util::JsonArray{});
    for (const auto& line : result.failures) {
      failures.as_array().push_back(Json(line));
    }
    doc["failures"] = failures;
    std::ofstream(out_path) << doc.dump(2) << "\n";
  }

  Json last = Json::object();
  last["correct"] = result.correct() && result.attempted > 0;
  last["attempted"] = static_cast<std::int64_t>(
      result.attempted > 0 ? result.attempted : 1);
  last["failed"] = static_cast<std::int64_t>(result.failed);
  last["metrics"] = metrics_json(shown);
  std::printf("%s\n", last.dump().c_str());
  std::fflush(stdout);
  return result.correct() && result.attempted > 0 ? 0 : 1;
}
