// Flat single-aggregator AdaptiveFL vs the hierarchical multi-aggregator
// topology (docs/HIERARCHY.md) on one seeded smoke environment, all three runs
// over the same simulated fp16 transport:
//
//   run 0  flat RoundEngine (the baseline)
//   run 1  hier, 2 shards, sync_every 1  — must be BIT-IDENTICAL to run 0
//   run 2  hier, 2 shards, sync_every 3  — edges diverge locally, merge at syncs
//
// The lockstep run demonstrates the engine's core contract: coverage-mass
// partials (fl/shard_aggregator.hpp) make the root merge exactly equal to the
// flat aggregation, so sharding is a pure scale-out knob. This example checks
// that invariance on every curve point and every comm counter and exits 1 on
// the first mismatch. The sync_every=3 run shows the relaxed mode: fewer
// root merges, locally-evolving edge models, evals only at sync rounds.
//
// Writes a three-run trace whose hier dispatches carry shard tags:
//
//   ./hier_scaleout trace.jsonl
//   afl-insight summary trace.jsonl     # per-shard breakdown on runs 1 and 2
//   afl-insight diff trace.jsonl trace.jsonl --base-run 0 --cand-run 1
//
// tests/hier_scaleout_check.cmake drives exactly this as a CI gate.
//
//   ./hier_scaleout [trace.jsonl] [rounds]

#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace {

/// Exact comparison of two runs; prints one line per mismatching field.
/// Bit-identical means ==, not "close": the shard merge is integer
/// fixed-point, so even the last ulp must agree.
bool identical(const afl::RunResult& a, const afl::RunResult& b) {
  bool ok = true;
  auto check = [&](const char* what, double x, double y) {
    if (x != y) {
      std::printf("  MISMATCH %s: %.17g vs %.17g\n", what, x, y);
      ok = false;
    }
  };
  check("final_full_acc", a.final_full_acc, b.final_full_acc);
  check("final_avg_acc", a.final_avg_acc, b.final_avg_acc);
  check("sim_seconds", a.sim_seconds, b.sim_seconds);
  check("params_sent", double(a.comm.params_sent()), double(b.comm.params_sent()));
  check("params_returned", double(a.comm.params_returned()),
        double(b.comm.params_returned()));
  check("bytes_sent", double(a.comm.bytes_sent()), double(b.comm.bytes_sent()));
  check("bytes_returned", double(a.comm.bytes_returned()),
        double(b.comm.bytes_returned()));
  check("retransmits", double(a.comm.retransmits()), double(b.comm.retransmits()));
  check("stragglers", double(a.comm.stragglers()), double(b.comm.stragglers()));
  if (a.curve.size() != b.curve.size()) {
    std::printf("  MISMATCH curve length: %zu vs %zu\n", a.curve.size(),
                b.curve.size());
    return false;
  }
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    check("curve.full_acc", a.curve[i].full_acc, b.curve[i].full_acc);
    check("curve.avg_acc", a.curve[i].avg_acc, b.curve[i].avg_acc);
    check("curve.round", double(a.curve[i].round), double(b.curve[i].round));
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace afl;

  const char* trace_path = argc > 1 ? argv[1] : "hier_scaleout_trace.jsonl";
  const std::size_t rounds =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 12;
  obs::set_trace_path(trace_path);

  // Seeded smoke environment: 24 tiered devices, 8 per cohort, miniature VGG
  // on an 8x8 CIFAR-10 analogue. eval_every 3 lines up with sync_every 3, so
  // the divergent run evaluates on the same cadence as the others.
  ExperimentConfig cfg;
  cfg.num_clients = 24;
  cfg.clients_per_round = 8;
  cfg.samples_per_client = 25;
  cfg.test_samples = 100;
  cfg.image_hw = 8;
  cfg.rounds = rounds;
  cfg.local_epochs = 2;
  cfg.batch_size = 25;
  cfg.eval_every = 3;
  ExperimentEnv env = make_env(cfg);

  // One transport for all three runs: fp16 frames on a bandwidth-limited
  // link plus a deterministic compute charge, so the simulated clock and the
  // per-shard byte columns in the trace are non-trivial.
  net::NetConfig net;
  net.enabled = true;
  net.codec = net::Codec::kFp16;
  net.channel.bandwidth_bytes_per_s = 256 * 1024.0;
  net.channel.latency_s = 0.02;
  net.compute_s_per_kparam = 0.1;
  env.run.net = net;

  hier::HierConfig off;  // explicit, so AFL_HIER in the environment can't flip run 0
  env.run.hier = off;
  const RunResult flat = run_algorithm(Algorithm::kAdaptiveFl, env);

  hier::HierConfig lockstep;
  lockstep.enabled = true;
  lockstep.shards = 2;
  lockstep.sync_every = 1;
  env.run.hier = lockstep;
  const RunResult hier1 = run_algorithm(Algorithm::kAdaptiveFl, env);

  hier::HierConfig relaxed = lockstep;
  relaxed.sync_every = 3;
  env.run.hier = relaxed;
  const RunResult hier3 = run_algorithm(Algorithm::kAdaptiveFl, env);

  Table t({"engine", "final full (%)", "best full (%)", "sim seconds",
           "params sent", "evals"});
  const char* labels[] = {"flat (1 aggregator)", "hier 2 shards sync=1",
                          "hier 2 shards sync=3"};
  const RunResult* runs[] = {&flat, &hier1, &hier3};
  for (int i = 0; i < 3; ++i) {
    const RunResult* r = runs[i];
    t.add_row({labels[i], Table::fmt_pct(r->final_full_acc),
               Table::fmt_pct(r->best_full_acc()), Table::fmt(r->sim_seconds, 2),
               std::to_string(r->comm.params_sent()),
               std::to_string(r->curve.size())});
  }
  std::printf("%s\n", t.to_markdown().c_str());

  Table tta({"acc threshold", "flat sim s", "hier sync=1", "hier sync=3"});
  for (const TimeToAcc& f : flat.time_to_acc) {
    std::string cells[2] = {"-", "-"};
    const RunResult* hier_runs[] = {&hier1, &hier3};
    for (int i = 0; i < 2; ++i) {
      for (const TimeToAcc& h : hier_runs[i]->time_to_acc) {
        if (h.accuracy == f.accuracy) cells[i] = Table::fmt(h.sim_seconds, 2);
      }
    }
    tta.add_row({Table::fmt(f.accuracy, 2), Table::fmt(f.sim_seconds, 2),
                 cells[0], cells[1]});
  }
  std::printf("simulated time to accuracy:\n%s\n", tta.to_markdown().c_str());

  std::printf("shard invariance (flat vs hier sync_every=1): ");
  const bool invariant = identical(flat, hier1);
  std::printf("%s\n", invariant ? "BIT-IDENTICAL" : "BROKEN");
  std::printf("trace written to %s — try `afl-insight summary %s`\n",
              trace_path, trace_path);
  return invariant ? 0 : 1;
}
