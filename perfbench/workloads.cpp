#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "arch/zoo.hpp"

namespace perfbench {
namespace {

using afl::ExperimentConfig;

// Every workload's fleet has devices that sometimes do not answer
// (availability < 1), the failure Algorithm 1 punishes through the RL
// resource table, so dispatch_fail_share is never 0.
ExperimentConfig base_config() {
  ExperimentConfig c;
  c.task = afl::TaskKind::kCifar10Like;
  c.model = afl::ModelKind::kMiniVgg;
  c.partition = afl::Partition::kIid;
  c.alpha = 0.6;
  c.proportions = afl::TierProportions{0.4, 0.3, 0.3};
  c.pool_p = 3;
  c.lr = 0.05;
  c.momentum = 0.5;
  c.capacity_jitter = 0.0;
  c.availability = 0.9;
  return c;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "sync-eval";
    w.exp = base_config();
    w.exp.image_hw = 12;
    w.exp.num_clients = 20;
    w.exp.clients_per_round = 5;
    w.exp.samples_per_client = 40;
    w.exp.test_samples = 400;
    w.exp.rounds = 6;
    w.exp.local_epochs = 5;
    w.exp.batch_size = 10;
    w.eval_every = 1;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "sync-train";
    w.exp = base_config();
    w.exp.partition = afl::Partition::kDirichlet;
    w.exp.image_hw = 12;
    w.exp.num_clients = 24;
    w.exp.clients_per_round = 6;
    w.exp.samples_per_client = 100;
    w.exp.test_samples = 500;
    w.exp.rounds = 10;
    w.exp.local_epochs = 2;
    w.exp.batch_size = 10;
    w.eval_every = 0;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "async-net";
    w.exp = base_config();
    w.exp.image_hw = 8;
    w.exp.num_clients = 40;
    w.exp.clients_per_round = 5;
    w.exp.samples_per_client = 40;
    w.exp.test_samples = 400;
    w.exp.rounds = 40;
    w.exp.local_epochs = 2;
    w.exp.batch_size = 10;
    w.eval_every = 5;
    w.async.enabled = true;
    w.async.buffer_size = 5;
    w.async.concurrency = 10;
    w.async.staleness_alpha = 0.5;
    w.async.max_staleness = 0;
    w.async.failure_timeout_s = 0.5;
    w.async.max_reuploads = 1;
    w.async.reupload_backoff_s = 0.1;
    w.net.enabled = true;
    w.net.codec = afl::net::Codec::kFp32;
    w.net.uplink_codec = afl::net::Codec::kTopK10;
    w.net.channel.bandwidth_bytes_per_s = 4e6 / 8.0;
    w.net.channel.latency_s = 0.02;
    w.net.channel.loss_prob = 0.05;
    w.net.max_retries = 2;
    w.net.backoff_base_s = 0.05;
    w.net.backoff_cap_s = 1.0;
    w.net.round_deadline_s = 0.0;
    w.net.compute_s_per_kparam = 0.001;
    w.pop.enabled = true;
    w.pop.active_frac = 0.75;
    w.pop.rotate_every = 4;
    w.pop.rotate_frac = 0.25;
    w.pop.dark_prob = 0.0;
    w.pop.dark_len = 1;
    w.pop.channels = true;
    w.pop.bw_spread = 1.0;
    w.pop.latency_spread = 1.0;
    w.pop.loss_max = 0.15;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "hier-scale";
    w.exp = base_config();
    w.lazy = true;
    w.exp.image_hw = 8;
    w.exp.num_clients = 100000;
    w.exp.clients_per_round = 32;
    w.exp.samples_per_client = 10;
    w.exp.test_samples = 500;
    w.exp.rounds = 20;
    w.exp.local_epochs = 3;
    w.exp.batch_size = 5;
    w.eval_every = 0;
    w.hier.enabled = true;
    w.hier.shards = 8;
    w.hier.sync_every = 1;
    out.push_back(w);
  }
  return out;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

// The synthetic task (the "dataset") and the run's own randomness (model
// init, selection, SGD order, availability draws) are fixed per workload;
// --seed draws the federation: which samples each client holds and the
// device fleet. At this miniature scale the learning curve's take-off round
// swings by several rounds between model inits, which would bury every
// timing in seed noise; fixing the init the way a benchmark fixes its
// dataset and starting checkpoint keeps tta_s and best_acc comparable
// across seeds (README.md).
constexpr std::uint64_t kTaskSeed = 7;
constexpr std::uint64_t kRunSeed = 3;

// make_env's construction with the seeds split as above; lazy workloads
// keep client shards ungenerated (make_federated_lazy) and store only the
// test set and the device fleet.
afl::ExperimentEnv make_seeded_env(const Workload& w, std::uint64_t seed) {
  using namespace afl;
  const ExperimentConfig& config = w.exp;
  ExperimentEnv env;
  env.config = config;
  env.config.seed = seed;
  std::shared_ptr<const SyntheticTask> task = make_task(w);
  env.spec = mini_vgg(task->config().num_classes, task->config().channels, task->config().hw);
  env.pool_config = PoolConfig::defaults_for(env.spec, config.pool_p);
  const FederatedConfig fed = federated_config(w);
  Rng rng(seed);
  env.data = w.lazy ? make_federated_lazy(std::move(task), fed, seed)
                    : make_federated(*task, fed, rng);
  const ModelPool pool(env.spec, env.pool_config);
  env.devices = make_devices(pool, config.num_clients, config.proportions, rng,
                             config.capacity_jitter);
  for (DeviceSim& d : env.devices) d.availability = config.availability;
  env.scalefl_budgets = {tier_capacity(pool, DeviceTier::kStrong),
                         tier_capacity(pool, DeviceTier::kMedium),
                         tier_capacity(pool, DeviceTier::kWeak)};
  return env;
}

void mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

void mix_u64(std::uint64_t& h, std::uint64_t v) { mix(h, &v, sizeof v); }

void mix_f64(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix_u64(h, bits);
}

}  // namespace

std::shared_ptr<const afl::SyntheticTask> make_task(const Workload& w) {
  afl::Rng rng(kTaskSeed);
  return std::make_shared<const afl::SyntheticTask>(
      afl::SyntheticConfig::cifar10_like(w.exp.image_hw), rng);
}

afl::FederatedConfig federated_config(const Workload& w) {
  afl::FederatedConfig fed;
  fed.num_clients = w.exp.num_clients;
  fed.samples_per_client = w.exp.samples_per_client;
  fed.test_samples = w.exp.test_samples;
  fed.partition = w.exp.partition;
  fed.alpha = w.exp.alpha;
  return fed;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.push_back(w.name);
  return names;
}

afl::ExperimentEnv build_env(const Workload& w, std::uint64_t seed, std::size_t threads) {
  afl::ExperimentEnv env = make_seeded_env(w, seed);
  const ExperimentConfig& cfg = w.exp;

  afl::FlRunConfig& run = env.run;
  run.rounds = cfg.rounds;
  run.clients_per_round = cfg.clients_per_round;
  run.local.epochs = cfg.local_epochs;
  run.local.batch_size = cfg.batch_size;
  run.local.lr = cfg.lr;
  run.local.momentum = cfg.momentum;
  run.local.distill_weight = 0.0;
  run.local.distill_temperature = 2.0;
  run.seed = kRunSeed;
  run.eval_every = w.eval_every;
  run.eval_batch = 256;
  run.threads = threads;
  run.net = w.net;
  run.async = w.async;
  run.hier = w.hier;
  run.pop = w.pop;
  run.snapshot_path = std::string();
  run.snapshot_every = 1;
  run.stop_after_round = 0;
  run.resume_from = std::string();
  return env;
}

RunFigures figures(const Workload& w, const afl::ExperimentEnv& env,
                   const afl::RunResult& r, double wall_s) {
  RunFigures f;
  f.wall_s = wall_s;
  f.rounds = r.round_metrics.size();
  f.best_acc = r.best_full_acc();
  std::size_t ok = 0;
  // Cumulative round wall time at each round's end; the eval curve's
  // crossing of the target is interpolated between evaluation points,
  // starting from chance accuracy at time 0.
  std::vector<double> end_s;
  double t = 0.0;
  for (const afl::RoundMetrics& m : r.round_metrics) {
    t += m.round_seconds;
    end_s.push_back(t);
    f.round_s.push_back(m.round_seconds);
    ok += m.clients_ok;
    f.failed += m.clients_failed;
  }
  f.dispatched = ok + f.failed;
  f.samples = static_cast<double>(ok) * static_cast<double>(w.exp.samples_per_client) *
              static_cast<double>(w.exp.local_epochs);
  f.uplink_mb = env.run.net && env.run.net->enabled
                    ? static_cast<double>(r.comm.bytes_returned()) / 1e6
                    : static_cast<double>(r.comm.params_returned()) * 4.0 / 1e6;
  f.tta_s = -1.0;
  double prev_t = 0.0;
  double prev_acc = 1.0 / static_cast<double>(env.data.num_classes);
  for (const afl::RoundRecord& rec : r.curve) {
    if (rec.round == 0 || rec.round > end_s.size()) continue;
    const double at = end_s[rec.round - 1];
    if (rec.full_acc >= kTargetAccuracy) {
      const double span = rec.full_acc - prev_acc;
      const double frac = span > 0.0 ? (kTargetAccuracy - prev_acc) / span : 1.0;
      f.tta_s = prev_t + std::clamp(frac, 0.0, 1.0) * (at - prev_t);
      break;
    }
    prev_t = at;
    prev_acc = rec.full_acc;
  }
  return f;
}

std::uint64_t digest(const afl::RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  mix(h, r.algorithm.data(), r.algorithm.size());
  for (const afl::RoundRecord& rec : r.curve) {
    mix_u64(h, rec.round);
    mix_f64(h, rec.full_acc);
    mix_f64(h, rec.avg_acc);
    mix_f64(h, rec.comm_waste);
    mix_f64(h, rec.round_waste);
  }
  for (const auto& [label, acc] : r.level_acc) {
    mix(h, label.data(), label.size());
    mix_f64(h, acc);
  }
  mix_f64(h, r.final_full_acc);
  mix_f64(h, r.final_avg_acc);
  mix_u64(h, r.comm.params_sent());
  mix_u64(h, r.comm.params_returned());
  mix_u64(h, r.comm.bytes_sent());
  mix_u64(h, r.comm.bytes_returned());
  mix_u64(h, r.comm.retransmits());
  mix_u64(h, r.comm.stragglers());
  mix_u64(h, r.comm.drops());
  mix_u64(h, r.failed_trainings);
  mix_f64(h, r.sim_seconds);
  for (const afl::RoundMetrics& m : r.round_metrics) {
    mix_u64(h, m.clients_ok);
    mix_u64(h, m.clients_failed);
    mix_u64(h, m.bytes_returned);
  }
  return h;
}

std::string check_outputs(const Workload& w, const afl::RunResult& r) {
  if (r.curve.empty()) return "empty eval curve";
  if (r.round_metrics.size() != w.exp.rounds) return "wrong number of rounds";
  for (const afl::RoundRecord& rec : r.curve) {
    if (!std::isfinite(rec.full_acc) || !std::isfinite(rec.avg_acc) ||
        !std::isfinite(rec.comm_waste) || !std::isfinite(rec.round_waste)) {
      return "non-finite value on the eval curve at round " + std::to_string(rec.round);
    }
  }
  if (r.best_full_acc() < kTargetAccuracy) {
    return "best accuracy " + std::to_string(r.best_full_acc()) + " below the target " +
           std::to_string(kTargetAccuracy);
  }
  return {};
}

}  // namespace perfbench
