#pragma once
// The benchmark's workloads (README.md says why each exists) and the
// end-to-end figures read off one run's RunResult.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  afl::ExperimentConfig exp;  // task, model, partition, fleet, local SGD
  bool lazy = false;          // clients via make_federated_lazy, not make_federated
  std::size_t eval_every = 1; // 0 = evaluate only after the last round
  afl::net::NetConfig net;
  afl::async::AsyncConfig async;
  afl::hier::HierConfig hier;
  afl::pop::PopConfig pop;
};

/// Full-model accuracy every workload's eval curve must reach (chance is
/// 0.1); tta_s times its first crossing.
inline constexpr double kTargetAccuracy = 0.2;

/// The workload called `name`, or null.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// The workload's synthetic task, drawn from a fixed seed.
std::shared_ptr<const afl::SyntheticTask> make_task(const Workload& w);
/// The FederatedConfig build_env partitions the task with.
afl::FederatedConfig federated_config(const Workload& w);

/// Builds the environment (task, partition, devices, pool) for `seed` and
/// sets every FlRunConfig field explicitly, so no AFL_* variable can change
/// what runs. This is the timed set-up.
afl::ExperimentEnv build_env(const Workload& w, std::uint64_t seed, std::size_t threads);

/// End-to-end figures of one run.
struct RunFigures {
  double wall_s = 0.0;
  double tta_s = 0.0;      // interpolated; < 0 when the target was never reached
  std::size_t rounds = 0;  // rounds, or async flushes
  double samples = 0.0;    // committed client training samples
  std::size_t dispatched = 0;
  std::size_t failed = 0;
  double uplink_mb = 0.0;
  double best_acc = 0.0;
  std::vector<double> round_s;  // RoundMetrics::round_seconds
};

RunFigures figures(const Workload& w, const afl::ExperimentEnv& env,
                   const afl::RunResult& r, double wall_s);

/// FNV-1a digest of everything a run computes that is not a wall-clock time:
/// the eval curve, level accuracies, comm counters, failed trainings, uplink
/// bytes and simulated time.
std::uint64_t digest(const afl::RunResult& r);

/// Empty when the run passes its output checks, else the first failure.
std::string check_outputs(const Workload& w, const afl::RunResult& r);

}  // namespace perfbench
