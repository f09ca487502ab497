// Shard-count invariance of the hierarchical engine (docs/HIERARCHY.md):
// with sync_every == 1 the HierEngine must produce a RunResult bit-identical
// to the flat RoundEngine for ANY shard count and ANY thread count — planning
// is shared code, per-client training streams are shard-independent, and the
// fixed-point coverage masses make the root merge independent of how updates
// were grouped into shards. Exercised both transportless and over a lossy,
// deadline-bounded channel. With sync_every > 1 shard models legitimately
// diverge between syncs; there the invariant is thread-count determinism and
// run reproducibility.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "hier/config.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace afl {
namespace {

/// The afl.trace.v2 lifecycle records of a trace file, with the wall-clock
/// ts_ms envelope stripped — everything after it is virtual-clock data and
/// part of the byte-identity determinism contract.
std::vector<std::string> lifecycle_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"lifecycle\"") == std::string::npos) continue;
    lines.push_back(line.substr(line.find("\"kind\"")));
  }
  return lines;
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.num_clients = 12;
  cfg.clients_per_round = 6;
  cfg.samples_per_client = 12;
  cfg.test_samples = 48;
  cfg.image_hw = 8;
  cfg.rounds = 4;
  cfg.local_epochs = 1;
  cfg.batch_size = 12;
  cfg.eval_every = 1;
  // Exercise the stochastic paths: capacity jitter and dropouts draw from the
  // round RNG, so a planning-order divergence between engines would show here.
  cfg.capacity_jitter = 0.25;
  cfg.availability = 0.8;
  return cfg;
}

net::NetConfig lossy_net() {
  net::NetConfig net;
  net.enabled = true;
  net.codec = net::Codec::kInt8;
  net.channel.bandwidth_bytes_per_s = 4096.0;
  net.channel.latency_s = 0.01;
  net.channel.loss_prob = 0.25;
  net.max_retries = 2;
  net.backoff_base_s = 0.01;
  net.backoff_cap_s = 0.05;
  net.round_deadline_s = 60.0;
  net.compute_s_per_kparam = 0.5;
  return net;
}

RunResult run_flat(const ExperimentEnv& env, std::size_t threads, bool lossy) {
  ExperimentEnv copy = env;
  copy.run.threads = threads;
  if (lossy) copy.run.net = lossy_net();
  return run_algorithm(Algorithm::kAdaptiveFl, copy);
}

RunResult run_hier(const ExperimentEnv& env, std::size_t threads, bool lossy,
                   std::size_t shards, std::size_t sync_every = 1) {
  ExperimentEnv copy = env;
  copy.run.threads = threads;
  if (lossy) copy.run.net = lossy_net();
  hier::HierConfig hier;
  hier.enabled = true;
  hier.shards = shards;
  hier.sync_every = sync_every;
  copy.run.hier = hier;
  return run_algorithm(Algorithm::kAdaptiveFl, copy);
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.failed_trainings, b.failed_trainings);
  EXPECT_EQ(a.comm.params_sent(), b.comm.params_sent());
  EXPECT_EQ(a.comm.params_returned(), b.comm.params_returned());
  EXPECT_EQ(a.comm.bytes_sent(), b.comm.bytes_sent());
  EXPECT_EQ(a.comm.bytes_returned(), b.comm.bytes_returned());
  EXPECT_EQ(a.comm.retransmits(), b.comm.retransmits());
  EXPECT_EQ(a.comm.stragglers(), b.comm.stragglers());
  EXPECT_EQ(a.comm.drops(), b.comm.drops());
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].round, b.curve[i].round);
    // Bit-identical, not approximately equal: the merge is exact integer
    // arithmetic on fixed-point coverage masses.
    EXPECT_EQ(a.curve[i].full_acc, b.curve[i].full_acc) << "round " << i;
    EXPECT_EQ(a.curve[i].avg_acc, b.curve[i].avg_acc) << "round " << i;
    EXPECT_EQ(a.curve[i].comm_waste, b.curve[i].comm_waste) << "round " << i;
    EXPECT_EQ(a.curve[i].round_waste, b.curve[i].round_waste) << "round " << i;
  }
  EXPECT_EQ(a.level_acc, b.level_acc);
  EXPECT_EQ(a.final_full_acc, b.final_full_acc);
  EXPECT_EQ(a.final_avg_acc, b.final_avg_acc);
}

TEST(HierDeterminism, LockstepMatchesFlatEngineAnyShardCount) {
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult flat = run_flat(env, 1, /*lossy=*/false);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const RunResult hier = run_hier(env, 1, /*lossy=*/false, shards);
    expect_identical(flat, hier);
  }
  EXPECT_GT(flat.comm.params_returned(), 0u);  // runs actually trained
}

TEST(HierDeterminism, LockstepMatchesFlatEngineAnyThreadCount) {
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult flat = run_flat(env, 1, /*lossy=*/false);
  expect_identical(flat, run_hier(env, 8, /*lossy=*/false, 2));
  expect_identical(flat, run_hier(env, 8, /*lossy=*/false, 8));
}

TEST(HierDeterminism, LockstepMatchesFlatEngineOverLossyChannel) {
  // The strictest form of the contract: byte, retransmit, and straggler
  // counters plus the simulated clock must all survive sharding, because the
  // per-(round, client) transport sessions carry over unchanged and every
  // round is a sync barrier.
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult flat = run_flat(env, 1, /*lossy=*/true);
  for (std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    const RunResult hier = run_hier(env, 8, /*lossy=*/true, shards);
    expect_identical(flat, hier);
    EXPECT_EQ(flat.sim_seconds, hier.sim_seconds);
  }
  EXPECT_GT(flat.comm.retransmits(), 0u);  // p=0.25 loss must retransmit
  EXPECT_GT(flat.sim_seconds, 0.0);
}

TEST(HierDeterminism, DivergentModeDeterministicAcrossThreadCounts) {
  // sync_every > 1: shard models drift between syncs so the result need not
  // (and does not) match the flat engine — but it must still be independent
  // of the thread count and reproducible run to run.
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult serial = run_hier(env, 1, /*lossy=*/true, 2, /*sync_every=*/3);
  const RunResult parallel = run_hier(env, 8, /*lossy=*/true, 2, /*sync_every=*/3);
  expect_identical(serial, parallel);
  expect_identical(serial, run_hier(env, 4, /*lossy=*/true, 2, /*sync_every=*/3));
  EXPECT_GT(serial.comm.params_returned(), 0u);
}

TEST(HierDeterminism, DivergentModeEvalsOnlyAtSyncRounds) {
  // rounds=4, sync_every=3 -> syncs at rounds 3 and 4; with eval_every=1 the
  // curve must hold exactly those two points (a stale root global is never
  // evaluated).
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult r = run_hier(env, 2, /*lossy=*/false, 2, /*sync_every=*/3);
  ASSERT_EQ(r.curve.size(), 2u);
  EXPECT_EQ(r.curve[0].round, 3u);
  EXPECT_EQ(r.curve[1].round, 4u);
}

TEST(HierDeterminism, LifecycleTraceIdenticalAcrossThreadCounts) {
  // At a fixed shard count the lifecycle stream — shard tags, edge-clock
  // phases, and root barrier records included — must be byte-identical at any
  // AFL_THREADS setting. (Across shard counts records legitimately differ:
  // shard tags and per-shard commit windows encode the topology.)
  const ExperimentEnv env = make_env(tiny_config());
  for (std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    const std::string p1 = ::testing::TempDir() + "hier_lc_s" +
                           std::to_string(shards) + "_t1.jsonl";
    const std::string p8 = ::testing::TempDir() + "hier_lc_s" +
                           std::to_string(shards) + "_t8.jsonl";
    obs::set_trace_path(p1);
    run_hier(env, 1, /*lossy=*/true, shards);
    obs::set_trace_path(p8);
    run_hier(env, 8, /*lossy=*/true, shards);
    obs::set_trace_path("");
    const std::vector<std::string> a = lifecycle_lines(p1);
    const std::vector<std::string> b = lifecycle_lines(p8);
    ASSERT_FALSE(a.empty()) << "shards " << shards;
    ASSERT_EQ(a.size(), b.size()) << "shards " << shards;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "shards " << shards << " record " << i;
    }
  }
}

TEST(HierDeterminism, NegativeEnvCountsAreRejected) {
  // Clamping to 0 (which resolves to 1) would hide a mistyped knob.
  for (const char* name : {"AFL_HIER_SHARDS", "AFL_HIER_SYNC_EVERY"}) {
    SCOPED_TRACE(name);
    ::setenv(name, "-3", 1);
    try {
      hier::HierConfig::from_env();
      ADD_FAILURE() << name << "=-3 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    ::unsetenv(name);
  }
}

TEST(HierDeterminism, AsyncAndHierAreMutuallyExclusive) {
  ExperimentEnv env = make_env(tiny_config());
  hier::HierConfig hier;
  hier.enabled = true;
  env.run.hier = hier;
  async::AsyncConfig async_cfg;
  async_cfg.enabled = true;
  env.run.async = async_cfg;
  EXPECT_THROW(run_algorithm(Algorithm::kAdaptiveFl, env),
               std::invalid_argument);
}

}  // namespace
}  // namespace afl
