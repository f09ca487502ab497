#pragma once
// Layer replay: a single-threaded re-enactment of representative rounds of a
// workload through the library's public layer functions (prune split/build,
// local_train, codec, compressor, shard aggregation, RL selection,
// evaluation), each call wrapped in a span. Yields the per-layer metrics.

#include <cstdint>
#include <map>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs the replay for `w` on `env` and adds its per-layer metrics (name ->
/// value) to `metrics`. Every span goes to `rec`. Returns an empty string, or
/// the output check the replay failed (shard folds merged at the root must
/// equal the single-shard aggregate bit for bit).
std::string layer_replay(const Workload& w, const afl::ExperimentEnv& env, std::uint64_t seed,
                  Recorder& rec, std::map<std::string, double>& metrics);

/// Unit of a per-layer metric, from its name's suffix.
std::string layer_metric_unit(const std::string& name);

}  // namespace perfbench
