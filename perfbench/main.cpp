// afl_perfbench: the repository benchmark's measuring program (README.md).
//
//   afl_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--threads T] [--spans-out PATH]
//
// --trace 0 repeats the workload with tracing off for --seconds, checks every
// run's outputs, and prints the end-to-end metrics. --trace 1 makes the
// traced run instead: an engine pass, a 1-thread baseline and the layer
// replay, and prints the per-layer metrics. Either way the last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is 1 when any output check failed and 2 on bad usage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/rss.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::RunFigures;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::size_t threads = 2;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "afl_perfbench: %s\nworkloads:", why.c_str());
  for (const std::string& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr,
               "\nusage: afl_perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--threads T] [--spans-out PATH]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--threads") {
      a.threads = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) usage("bad value for " + flag);
  }
  if (perfbench::find_workload(a.workload) == nullptr) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.threads == 0) usage("--threads must be positive");
  return a;
}

// Every FlRunConfig field is set explicitly (workloads.cpp); what remains
// environment-driven inside the library is cleared here, so stray AFL_*
// variables cannot change what is measured, and the compressor's knobs are
// pinned to their documented defaults.
void insulate_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("AFL_", 0) == 0 || kv.rfind("ADAPTIVEFL_", 0) == 0) {
      names.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("AFL_COMPRESS_EF", "1", 1);
  setenv("AFL_COMPRESS_DECAY", "1", 1);
  setenv("AFL_COMPRESS_DROP_DEPARTED", "1", 1);
  afl::set_log_threshold(afl::LogLevel::kWarn);  // silences the run summary
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "afl_perfbench: check failed: %s\n", what.c_str());
  }
};

/// Runs the workload once, applies the output checks, and records the digest.
struct Run {
  afl::RunResult result;
  RunFigures fig;
  std::uint64_t digest = 0;
};

Run run_checked(const Workload& w, const afl::ExperimentEnv& env, Outcome& out) {
  Run run;
  ++out.attempted;
  afl::Stopwatch watch;
  try {
    run.result = afl::run_algorithm(afl::Algorithm::kAdaptiveFl, env);
  } catch (const std::exception& e) {
    out.fail(std::string("run threw: ") + e.what());
    return run;
  }
  const double wall = watch.seconds();
  run.fig = perfbench::figures(w, env, run.result, wall);
  run.digest = perfbench::digest(run.result);
  const std::string why = perfbench::check_outputs(w, run.result);
  if (!why.empty()) out.fail(why);
  return run;
}

void check_digests(const std::vector<Run>& runs, const Run& single, Outcome& out) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].digest != runs[0].digest) {
      out.fail("repetition " + std::to_string(i) + " digest differs from repetition 0");
    }
  }
  if (!runs.empty() && single.digest != runs[0].digest) {
    out.fail("1-thread run digest differs from the multi-thread runs");
  }
}

void print_result(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// The round-time tail is the highest of these percentiles that leaves at
// least kTailBeyond rounds above it in the guaranteed minimum sample
// (kMinReps runs), falling back to the median when none does. Taking it from
// the guaranteed sample keeps the percentile a workload reports independent
// of how many extra repetitions a fast host fitted in.
constexpr double kTailLadder[] = {0.99, 0.95, 0.9, 0.8, 0.75};
constexpr std::size_t kTailBeyond = 10;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kSetupReps = 21;

double tail_quantile(std::size_t min_samples) {
  for (double q : kTailLadder) {
    if (static_cast<double>(min_samples) * (1.0 - q) >= static_cast<double>(kTailBeyond)) return q;
  }
  return 0.5;
}

int untraced(const Args& a, const Workload& w) {
  Outcome out;
  std::vector<double> setup_s;
  afl::ExperimentEnv env;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    afl::Stopwatch watch;
    env = perfbench::build_env(w, a.seed, a.threads);
    setup_s.push_back(watch.seconds());
  }

  // The 1-thread run goes first: besides being the digest reference, it
  // takes the process's one-time start-up costs out of the timed
  // repetitions. The first multi-threaded repetition is still slower than
  // the rest; the median over at least kMinReps absorbs it.
  env.run.threads = 1;
  const Run single = run_checked(w, env, out);
  env.run.threads = a.threads;
  std::vector<Run> runs;
  afl::Stopwatch window;
  while (runs.size() < kMinReps || window.seconds() < a.seconds) {
    runs.push_back(run_checked(w, env, out));
  }
  check_digests(runs, single, out);

  std::vector<double> tta, rps, sps, round_s;
  for (const Run& r : runs) {
    if (r.fig.rounds == 0) continue;  // the run threw; already counted as failed
    tta.push_back(r.fig.tta_s);
    rps.push_back(static_cast<double>(r.fig.rounds) / r.fig.wall_s);
    sps.push_back(r.fig.samples / r.fig.wall_s);
    round_s.insert(round_s.end(), r.fig.round_s.begin(), r.fig.round_s.end());
  }
  const RunFigures& f = runs.front().fig;
  const double q = tail_quantile(kMinReps * w.exp.rounds);
  const afl::obs::RssSample rss = afl::obs::read_rss();
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"rounds_per_s", median(rps), "1/s"},
      {"round_p50_s", percentile(round_s, 0.5), "s"},
      {"round_tail_s", percentile(round_s, q), "s"},
      {"samples_per_s", median(sps), "1/s"},
      {"peak_rss_mb", static_cast<double>(rss.peak_bytes) / (1024.0 * 1024.0), "MB"},
      {"dispatch_fail_share",
       f.dispatched ? static_cast<double>(f.failed) / static_cast<double>(f.dispatched) : 0.0,
       "fraction"},
      {"uplink_mb", f.uplink_mb, "MB"},
  };
  std::printf("workload %s seed %llu threads %zu: %zu runs in %.2f s (after 1 single-thread run), "
              "%zu rounds pooled, round_tail_s = p%.0f\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), a.threads, runs.size(),
              window.seconds(), round_s.size(), q * 100.0);
  std::printf("  run wall s: 1-thread %.3f, %zu-thread", single.fig.wall_s, a.threads);
  for (const Run& r : runs) std::printf(" %.3f", r.fig.wall_s);
  std::printf("\n  eval curve (round:full_acc):");
  for (const afl::RoundRecord& rec : runs.front().result.curve) {
    std::printf(" %zu:%.3f", rec.round, rec.full_acc);
  }
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Learning-curve figures: checked, printed, but not in the result object,
  // because the curve's take-off round varies with the federation seed by
  // more than any bound the benchmark may set (README.md).
  std::printf("  %-22s %14.6g s (target full-model accuracy %.2f)\n", "tta_s", median(tta),
              perfbench::kTargetAccuracy);
  std::printf("  %-22s %14.6g fraction\n", "best_acc", f.best_acc);
  print_result(out, metrics);
  return out.failed == 0 ? 0 : 1;
}

int traced(const Args& a, const Workload& w) {
  Outcome out;
  afl::ExperimentEnv env = perfbench::build_env(w, a.seed, a.threads);

  // The 1-thread baseline runs first. The first multi-threaded run of a
  // process is consistently slower than the next ones, so one run at the
  // configured thread count warms up before the untraced reference that the
  // engine pass's tracing overhead is measured against.
  env.run.threads = 1;
  const Run single = run_checked(w, env, out);
  env.run.threads = a.threads;
  const Run warm = run_checked(w, env, out);
  const Run reference = run_checked(w, env, out);
  perfbench::Recorder rec;
  std::map<std::string, double> m;
  Run pass;
  {
    perfbench::Scope s(rec, "engine.run");
    pass = run_checked(w, env, out);
  }
  check_digests({warm, reference, pass}, single, out);

  double eval = 0.0, client_train = 0.0, aggregate = 0.0, train_wall = 0.0;
  std::size_t ok = 0, dispatched = 0;
  for (const afl::RoundMetrics& r : pass.result.round_metrics) {
    eval += r.eval_seconds;
    client_train += r.train_seconds;
    aggregate += r.aggregate_seconds;
    train_wall += std::max(0.0, r.round_seconds - r.eval_seconds - r.aggregate_seconds);
    ok += r.clients_ok;
    dispatched += r.clients_ok + r.clients_failed;
  }
  m["engine.eval_s"] = eval;
  m["engine.train_wall_s"] = train_wall;
  m["engine.client_train_s"] = client_train;
  m["engine.aggregate_s"] = aggregate;
  m["engine.parallel_eff"] =
      train_wall > 0.0 ? client_train / (static_cast<double>(a.threads) * train_wall) : 0.0;
  m["engine.thread_speedup"] = single.fig.wall_s / pass.fig.wall_s;
  m["engine.single_thread_wall_s"] = single.fig.wall_s;
  m["engine.useful_ratio"] =
      dispatched ? static_cast<double>(ok) / static_cast<double>(dispatched) : 0.0;
  m["engine.trace_overhead"] = pass.fig.wall_s / reference.fig.wall_s - 1.0;

  {
    perfbench::Scope s(rec, "replay");
    const std::string why = perfbench::layer_replay(w, env, a.seed, rec, m);
    if (!why.empty()) out.fail(why);
  }
  const auto totals = rec.totals();
  double replay_wall = 0.0, covered = 0.0;
  for (const auto& [name, t] : totals) {
    if (name == "replay") replay_wall = t.total_s;
    else if (name.rfind("replay.", 0) != 0 && name != "engine.run") covered += t.self_s;
  }
  m["replay.coverage"] = replay_wall > 0.0 ? covered / replay_wall : 0.0;
  if (!a.spans_out.empty()) rec.write_jsonl(a.spans_out);

  std::printf("workload %s seed %llu threads %zu: traced run\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), a.threads);
  std::printf("  engine pass %.4f s, untraced reference %.4f s (overhead %+.2f%%), "
              "1-thread baseline %.4f s\n",
              pass.fig.wall_s, reference.fig.wall_s, 100.0 * m["engine.trace_overhead"],
              single.fig.wall_s);
  std::printf("  %-28s %8s %12s %12s\n", "span", "calls", "self s", "total s");
  for (const auto& [name, t] : totals) {
    std::printf("  %-28s %8zu %12.6f %12.6f\n", name.c_str(), t.calls, t.self_s, t.total_s);
  }
  // Each replay metric is named after its span plus a unit suffix; the
  // engine.* metrics come from the engine pass's rounds.
  std::vector<Metric> metrics;
  std::printf("  %-28s %14s %-8s %8s %12s\n", "metric", "value", "unit", "calls", "self s");
  for (const auto& [name, value] : m) {
    const std::string unit = perfbench::layer_metric_unit(name);
    metrics.push_back({name, value, unit});
    std::size_t calls = 0;
    double self_s = 0.0;
    if (name.rfind("engine.", 0) == 0) {
      calls = pass.result.round_metrics.size();
      self_s = unit == "s" ? value : 0.0;
    } else {
      for (const char* suffix : {"_s", ".gflops", ".gbps", "_mbps"}) {
        const std::string sfx = suffix;
        if (name.size() <= sfx.size() ||
            name.compare(name.size() - sfx.size(), sfx.size(), sfx) != 0) {
          continue;
        }
        const auto it = totals.find(name.substr(0, name.size() - sfx.size()));
        if (it != totals.end()) {
          calls = it->second.calls;
          self_s = it->second.self_s;
        }
        break;
      }
    }
    std::printf("  %-28s %14.6g %-8s %8zu %12.6f\n", name.c_str(), value, unit.c_str(), calls,
                self_s);
  }
  print_result(out, metrics);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  insulate_environment();
  const Workload& w = *perfbench::find_workload(args.workload);
  try {
    return args.trace ? traced(args, w) : untraced(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afl_perfbench: %s\n", e.what());
    return 1;
  }
}
