// Provenance stamped on every result: what produced the numbers.
#pragma once

#include "harness/result.hpp"
#include "util/json.hpp"

namespace perfbench {

/// seed, workload, config hash, source identity (git commit and source
/// digest, passed in by run.py through PERFBENCH_GIT_COMMIT and
/// PERFBENCH_SOURCE_HASH), compiler, build type, nproc and CPU model.
p4s::util::Json provenance(const Options& options, const Result& result);

}  // namespace perfbench
