#include "harness/provenance.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace perfbench {

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// The CPU's brand string from CPUID leaves 0x80000002..4 (no file read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002 + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof(regs));
  }
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

p4s::util::Json provenance(const Options& options, const Result& result) {
  p4s::util::Json p = p4s::util::Json::object();
  p["workload"] = options.workload;
  p["seed"] = static_cast<std::int64_t>(options.seed);
  p["seconds"] = options.seconds;
  p["trace"] = options.trace;
  p["git_commit"] = env_or("PERFBENCH_GIT_COMMIT", "unknown");
  p["source_hash"] = env_or("PERFBENCH_SOURCE_HASH", "unknown");
#if defined(__clang__)
  p["compiler"] = std::string("clang ") + __VERSION__;
#else
  p["compiler"] = std::string("gcc ") + __VERSION__;
#endif
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  p["cpu_model"] = cpu_model();
  for (const auto& [key, value] : result.info) p[key] = value;
  return p;
}

}  // namespace perfbench
