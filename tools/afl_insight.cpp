// afl-insight — offline analysis of AFL_TRACE_JSONL files and persisted
// benchmark snapshots.
//
//   afl-insight summary <trace>            per-run phase/time breakdown
//   afl-insight bytes <trace>              bytes-vs-accuracy view per run
//   afl-insight clients <trace> [--run N]  per-client drill-down
//   afl-insight rounds  <trace> [N]        slowest-N rounds
//   afl-insight timeline <trace>           simulated time-to-accuracy curves
//   afl-insight validate <trace>           lifecycle completeness check
//   afl-insight critical-path <trace>      virtual-clock blame breakdown
//   afl-insight export-chrome <trace>      Chrome trace_event / Perfetto JSON
//   afl-insight diff <a> <b> [thresholds]  run-vs-run regression check
//   afl-insight bench show <snap|dir>      render BENCH_*.json snapshots
//   afl-insight bench diff <base> <cand>   snapshot-vs-snapshot perf gate
//
// A trace may contain several runs (one process running several algorithms);
// records are segmented at `run_start` headers. clients/rounds/diff operate
// on the last run unless --run selects another. `summary` adds a per-shard
// client/byte/straggler breakdown when a run's dispatch records carry the
// shard tags of hierarchical runs (docs/HIERARCHY.md), and exits 1 on a run
// mixing shard-tagged and untagged dispatches (corrupt/interleaved trace). `diff` compares final
// accuracy, round p95 wall time, and total dispatched params of the last run
// in each file (--base-run / --cand-run select others, so one two-run trace
// can diff against itself) and exits 2 when the candidate regresses past the
// thresholds
// (--max-acc-drop, --max-time-ratio, --max-comm-ratio, --max-bytes-ratio —
// the last applies only when the baseline trace carries wire-byte columns —
// plus --max-uplink-bytes-ratio, off by default, gating bytes_returned alone:
// with a ratio below 1 it *demands* uplink savings, which is how the
// compression CI job certifies sparse codecs, see docs/COMPRESSION.md),
// which makes it usable as a CI perf gate. `validate` checks every
// afl.trace.v2 lifecycle record stream for completeness (each dispatch has a
// select phase, exactly one terminal outcome, and time-ordered phases) and
// exits 1 on orphan or out-of-order phases — the CI sanity gate on the
// lifecycle emitters. `critical-path` reconstructs the causal chain that
// determined the run's final simulated instant (obs/critpath.hpp) and prints
// per-phase / per-shard / top-client blame tables. `export-chrome` converts
// lifecycle records into Chrome trace_event JSON (one process per run, one
// track per client) loadable in Perfetto / chrome://tracing (--out writes to
// a file, default stdout). With --tta-acc the diff also
// compares the simulated seconds each run needed to first reach that
// accuracy (from eval_point events; see docs/ASYNC.md) and gates the
// candidate at --max-tta-ratio times the baseline. `timeline` prints the
// (virtual_time, accuracy) evaluation curve of every run side by side plus a
// time-to-threshold table — the sync-vs-async comparison of the paper's
// wall-clock plots. `bench show|diff` consume the afl.bench.v1 snapshots the
// bench binaries write (--out / AFL_BENCH_JSON, see docs/PROFILING.md);
// `bench diff` compares per-section wall time (--max-time-ratio) and cycle
// counts (--max-cycles-ratio) and is the CI benchmark gate. Both accept a
// snapshot file or a directory of BENCH_*.json files (diff matches them by
// file name).
//
// Exit codes: 0 ok, 1 data/schema error, 2 regression, 64 usage error
// (unknown command, missing argument, or nonexistent input file).

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "util/table.hpp"

namespace {

using afl::Table;
using Record = std::map<std::string, std::string>;

// Understood trace schemas. v2 added `lifecycle` records, v3 the population
// `churn` records plus departed/went_dark dispatch outcomes (see
// docs/OBSERVABILITY.md); each version is a pure superset of its
// predecessor, so all load identically — newer-record-aware commands just
// find no such records in older traces.
constexpr const char* kSchemas[] = {"afl.trace.v1", "afl.trace.v2",
                                    "afl.trace.v3"};
constexpr const char* kBenchSchema = "afl.bench.v1";

bool schema_supported(const std::string& schema) {
  for (const char* s : kSchemas) {
    if (schema == s) return true;
  }
  return false;
}

// EX_USAGE: the caller got the command line wrong (unknown command, missing
// argument, nonexistent input file) — distinct from 1 (the file exists but
// its content is broken) and 2 (a genuine regression).
constexpr int kExitUsage = 64;

double num(const Record& r, const std::string& key, double fallback = 0.0) {
  const auto it = r.find(key);
  return it == r.end() ? fallback : afl::obs::json_raw_number(it->second, fallback);
}

std::string str(const Record& r, const std::string& key,
                const std::string& fallback = "") {
  const auto it = r.find(key);
  return it == r.end() ? fallback : afl::obs::json_raw_string(it->second, fallback);
}

bool is_kind(const Record& r, const char* kind) { return str(r, "kind") == kind; }

/// One run segment: everything from a run_start header (absent in pre-v1
/// traces) up to the next one.
struct Run {
  Record header;  // empty when the trace predates run_start
  std::vector<Record> events;

  bool has_header() const { return !header.empty(); }
  std::string label() const {
    if (!has_header()) return "(unlabeled)";
    return str(header, "algo", "?") + " seed=" +
           std::to_string(static_cast<long long>(num(header, "seed"))) +
           " threads=" + std::to_string(static_cast<long long>(num(header, "threads")));
  }
};

struct TraceFile {
  std::string path;
  std::vector<Run> runs;
};

/// 0 on success, kExitUsage when the file cannot be opened, 1 when it opens
/// but its content is not a valid trace.
int load_trace(const std::string& path, TraceFile& out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "afl-insight: cannot open %s\n", path.c_str());
    return kExitUsage;
  }
  out.path = path;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Record rec = afl::obs::json_object_fields(line);
    if (rec.empty()) {
      std::fprintf(stderr, "afl-insight: %s:%zu is not a JSON object\n",
                   path.c_str(), lineno);
      return 1;
    }
    if (is_kind(rec, "run_start")) {
      const std::string schema = str(rec, "schema");
      if (!schema_supported(schema)) {
        std::fprintf(stderr,
                     "afl-insight: %s declares trace schema \"%s\" but this "
                     "tool understands \"%s\" through \"%s\"\n",
                     path.c_str(), schema.c_str(), kSchemas[0],
                     kSchemas[sizeof(kSchemas) / sizeof(kSchemas[0]) - 1]);
        return 1;
      }
      Run run;
      run.header = std::move(rec);
      out.runs.push_back(std::move(run));
      continue;
    }
    if (out.runs.empty()) out.runs.push_back({});  // headerless prefix
    out.runs.back().events.push_back(std::move(rec));
  }
  if (out.runs.empty()) {
    std::fprintf(stderr, "afl-insight: %s contains no records\n", path.c_str());
    return 1;
  }
  return 0;
}

const Run* pick_run(const TraceFile& file, int index) {
  if (index < 0) return &file.runs.back();
  if (static_cast<std::size_t>(index) >= file.runs.size()) {
    std::fprintf(stderr, "afl-insight: %s has %zu run(s); --run %d is out of range\n",
                 file.path.c_str(), file.runs.size(), index);
    return nullptr;
  }
  return &file.runs[static_cast<std::size_t>(index)];
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

/// Headline numbers of one run, shared by summary and diff.
struct RunStats {
  std::size_t rounds = 0;
  double total_round_ms = 0.0;
  double train_ms = 0.0, aggregate_ms = 0.0, eval_ms = 0.0;
  double p95_round_ms = 0.0;
  double final_acc = 0.0;
  bool has_acc = false;
  double params_sent = 0.0, params_returned = 0.0;
  // Byte-layer totals; present only on transport-backed runs (net traces
  // carry bytes_* columns on round / run_end events, see docs/NET.md).
  bool has_bytes = false;
  double bytes_sent = 0.0, bytes_returned = 0.0;
  double retransmits = 0.0, stragglers = 0.0;
  std::string codec;  // run_start header; empty on transportless runs
  // Uplink codec when it diverges from the shared codec — the sparsifying
  // compression subsystem (docs/COMPRESSION.md) writes the column on
  // run_start/run_end only for split-direction transports.
  std::string uplink_codec;
  std::map<std::string, std::size_t> kind_counts;
  std::map<std::string, std::size_t> dispatch_outcomes;

  // Population churn rollup (afl.trace.v3 `churn` records, docs/POPULATION.md).
  bool has_churn = false;
  double joins = 0.0, departures = 0.0, dark_rounds = 0.0;
  double last_active = 0.0;

  // Per-shard rollup; populated only when dispatch records carry the "shard"
  // tag written by hierarchical runs (docs/HIERARCHY.md). Within one
  // run the engine either tags every dispatch or none, so a run mixing tagged
  // and untagged dispatches is bad data (two traces interleaved into one
  // segment) — summary refuses it via mixed_shard_tags().
  struct ShardAgg {
    std::set<long long> clients;  // distinct clients this shard served
    std::size_t dispatches = 0, ok = 0, stragglers = 0;
    double bytes_down = 0.0, bytes_up = 0.0;  // 0 on transportless runs
  };
  std::map<long long, ShardAgg> shards;
  std::size_t untagged_dispatches = 0;

  bool mixed_shard_tags() const {
    return !shards.empty() && untagged_dispatches > 0;
  }

  std::size_t deadline_missed() const {
    const auto it = dispatch_outcomes.find("deadline");
    return it == dispatch_outcomes.end() ? 0 : it->second;
  }
};

RunStats run_stats(const Run& run) {
  RunStats s;
  s.codec = str(run.header, "codec");
  s.uplink_codec = str(run.header, "uplink_codec");
  std::vector<double> round_ms;
  bool has_run_end = false;
  for (const Record& r : run.events) {
    const std::string kind = str(r, "kind");
    s.kind_counts[kind]++;
    if (kind == "round") {
      ++s.rounds;
      round_ms.push_back(num(r, "dur_ms"));
      s.total_round_ms += num(r, "dur_ms");
      s.train_ms += num(r, "train_ms");
      s.aggregate_ms += num(r, "aggregate_ms");
      s.eval_ms += num(r, "eval_ms");
      if (!has_run_end) {
        s.params_sent += num(r, "params_sent");
        s.params_returned += num(r, "params_returned");
        if (r.count("bytes_sent") != 0) {
          s.has_bytes = true;
          s.bytes_sent += num(r, "bytes_sent");
          s.bytes_returned += num(r, "bytes_returned");
          s.retransmits += num(r, "retransmits");
          s.stragglers += num(r, "stragglers");
        }
      }
    } else if (kind == "dispatch") {
      const std::string outcome = str(r, "outcome", "?");
      s.dispatch_outcomes[outcome]++;
      if (r.count("shard") != 0) {
        RunStats::ShardAgg& shard =
            s.shards[static_cast<long long>(num(r, "shard"))];
        ++shard.dispatches;
        shard.clients.insert(static_cast<long long>(num(r, "client", -1)));
        if (outcome == "ok") ++shard.ok;
        if (outcome == "deadline") ++shard.stragglers;
        shard.bytes_down += num(r, "bytes_down");
        shard.bytes_up += num(r, "bytes_up");
      } else {
        ++s.untagged_dispatches;
      }
    } else if (kind == "churn") {
      s.has_churn = true;
      s.joins += num(r, "joins");
      s.departures += num(r, "departures");
      s.dark_rounds += num(r, "dark");
      s.last_active = num(r, "active");
    } else if (kind == "evaluate" && !has_run_end) {
      s.final_acc = num(r, "accuracy");
      s.has_acc = true;
    } else if (kind == "run_end") {
      // Authoritative totals when the run completed cleanly.
      has_run_end = true;
      s.final_acc = num(r, "full_acc");
      s.has_acc = true;
      s.params_sent = num(r, "params_sent");
      s.params_returned = num(r, "params_returned");
      if (r.count("bytes_sent") != 0) {
        s.has_bytes = true;
        s.bytes_sent = num(r, "bytes_sent");
        s.bytes_returned = num(r, "bytes_returned");
        s.retransmits = num(r, "retransmits");
        s.stragglers = num(r, "stragglers");
      }
      if (r.count("uplink_codec") != 0) {
        s.uplink_codec = str(r, "uplink_codec");
      }
    }
  }
  s.p95_round_ms = percentile(round_ms, 95.0);
  return s;
}

int cmd_summary(const TraceFile& file) {
  for (std::size_t i = 0; i < file.runs.size(); ++i) {
    const Run& run = file.runs[i];
    const RunStats s = run_stats(run);
    if (s.mixed_shard_tags()) {
      std::fprintf(stderr,
                   "afl-insight: %s run %zu mixes shard-tagged and untagged "
                   "dispatch records (%zu shard(s), %zu untagged dispatch(es))"
                   " — one run cannot come from both engines; trace is "
                   "corrupt\n",
                   file.path.c_str(), i, s.shards.size(),
                   s.untagged_dispatches);
      return 1;
    }
    std::printf("run %zu: %s\n", i, run.label().c_str());
    Table t({"metric", "value"});
    t.add_row({"rounds", std::to_string(s.rounds)});
    t.add_row({"round wall ms (total)", Table::fmt(s.total_round_ms, 1)});
    t.add_row({"round wall ms (p95)", Table::fmt(s.p95_round_ms, 1)});
    const double other =
        s.total_round_ms - s.train_ms - s.aggregate_ms - s.eval_ms;
    auto phase = [&](const char* name, double ms) {
      const double pct = s.total_round_ms > 0 ? 100.0 * ms / s.total_round_ms : 0.0;
      t.add_row({name, Table::fmt(ms, 1) + " (" + Table::fmt(pct, 1) + "%)"});
    };
    phase("  local train ms", s.train_ms);
    phase("  aggregate ms", s.aggregate_ms);
    phase("  evaluate ms", s.eval_ms);
    phase("  other ms", other);
    t.add_row({"final full acc", s.has_acc ? Table::fmt(s.final_acc, 4) : "n/a"});
    t.add_row({"params sent", Table::fmt(s.params_sent, 0)});
    t.add_row({"params returned", Table::fmt(s.params_returned, 0)});
    if (s.has_bytes) {
      const std::string codec = s.codec.empty() ? "?" : s.codec;
      const std::string up_codec =
          s.uplink_codec.empty() ? codec : s.uplink_codec;
      t.add_row({"bytes sent [" + codec + "]", Table::fmt(s.bytes_sent, 0)});
      t.add_row(
          {"bytes returned [" + up_codec + "]", Table::fmt(s.bytes_returned, 0)});
      if (!s.uplink_codec.empty() && s.bytes_returned > 0 &&
          s.params_returned > 0) {
        // Uplink compression ratio vs a dense fp32 uplink of the same
        // committed parameter volume (4 bytes/param). Retransmitted frames
        // count against the wire side, so the ratio is end-to-end honest.
        t.add_row({"uplink compression vs fp32",
                   Table::fmt(s.params_returned * 4.0 / s.bytes_returned, 2) +
                       "x"});
      }
      t.add_row({"retransmits", Table::fmt(s.retransmits, 0)});
      t.add_row({"stragglers (deadline)", Table::fmt(s.stragglers, 0)});
      t.add_row({"deadline-missed clients",
                 std::to_string(s.deadline_missed())});
    }
    if (s.has_churn) {
      // Population columns (afl.trace.v3): fleet size and churn knobs come
      // from the run_start header; join/departure/dark totals from the
      // per-round churn records.
      t.add_row({"pop clients", Table::fmt(num(run.header, "pop_clients"), 0)});
      t.add_row({"pop active (last round)", Table::fmt(s.last_active, 0)});
      t.add_row({"pop joins", Table::fmt(s.joins, 0)});
      t.add_row({"pop departures", Table::fmt(s.departures, 0)});
      t.add_row({"pop dark client-rounds", Table::fmt(s.dark_rounds, 0)});
      if (run.header.count("pop_bw_min") != 0) {
        const double bw_min = num(run.header, "pop_bw_min");
        const double bw_max = num(run.header, "pop_bw_max");
        t.add_row({"pop channel bw spread",
                   Table::fmt(bw_min, 0) + " - " + Table::fmt(bw_max, 0) +
                       " B/s"});
      }
    }
    std::printf("%s", t.to_markdown().c_str());
    std::string kinds;
    for (const auto& [kind, count] : s.kind_counts) {
      kinds += kind + "=" + std::to_string(count) + " ";
    }
    std::printf("events: %s\n", kinds.c_str());
    if (!s.dispatch_outcomes.empty()) {
      std::string outcomes;
      for (const auto& [outcome, count] : s.dispatch_outcomes) {
        outcomes += outcome + "=" + std::to_string(count) + " ";
      }
      std::printf("dispatch outcomes: %s\n", outcomes.c_str());
    }
    if (!s.shards.empty()) {
      std::printf("per-shard breakdown (hierarchical run):\n");
      Table st({"shard", "clients", "dispatches", "ok", "stragglers",
                "bytes down", "bytes up"});
      for (const auto& [id, agg] : s.shards) {
        st.add_row({std::to_string(id), std::to_string(agg.clients.size()),
                    std::to_string(agg.dispatches), std::to_string(agg.ok),
                    std::to_string(agg.stragglers),
                    Table::fmt(agg.bytes_down, 0),
                    Table::fmt(agg.bytes_up, 0)});
      }
      std::printf("%s", st.to_markdown().c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// Bytes-vs-accuracy view across all runs in one trace: what each codec pair
/// paid on the wire for the accuracy it reached (docs/COMPRESSION.md). The
/// per-run best full accuracy comes from the eval_point curve (falling back
/// to run_end), so async runs whose final flush dips are compared fairly.
int cmd_bytes(const TraceFile& file) {
  Table t({"run", "algo", "codec", "uplink", "bytes down", "bytes up",
           "up vs fp32", "best acc"});
  bool any_bytes = false;
  for (std::size_t i = 0; i < file.runs.size(); ++i) {
    const Run& run = file.runs[i];
    const RunStats s = run_stats(run);
    double best_acc = s.final_acc;
    bool has_acc = s.has_acc;
    for (const Record& r : run.events) {
      if (!is_kind(r, "eval_point")) continue;
      const double acc = num(r, "full_acc");
      if (!has_acc || acc > best_acc) best_acc = acc;
      has_acc = true;
    }
    if (s.has_bytes) any_bytes = true;
    const std::string codec = s.codec.empty() ? "-" : s.codec;
    const std::string uplink = s.uplink_codec.empty() ? codec : s.uplink_codec;
    const bool ratio_known = !s.uplink_codec.empty() && s.bytes_returned > 0 &&
                             s.params_returned > 0;
    t.add_row({std::to_string(i), str(run.header, "algo", "?"), codec, uplink,
               s.has_bytes ? Table::fmt(s.bytes_sent, 0) : "-",
               s.has_bytes ? Table::fmt(s.bytes_returned, 0) : "-",
               ratio_known
                   ? Table::fmt(s.params_returned * 4.0 / s.bytes_returned, 2) +
                         "x"
                   : "-",
               has_acc ? Table::fmt(best_acc, 4) : "n/a"});
  }
  std::printf("bytes vs accuracy:\n%s", t.to_markdown().c_str());
  if (!any_bytes) {
    std::printf("(no wire-byte columns — all runs ran the identity "
                "transport; set AFL_NET_* to get byte accounting)\n");
  }
  return 0;
}

int cmd_clients(const TraceFile& file, int run_index) {
  const Run* run = pick_run(file, run_index);
  if (run == nullptr) return 1;
  struct ClientAgg {
    std::size_t dispatches = 0, ok = 0, no_response = 0, adapt_failed = 0;
    std::size_t lost = 0, deadline = 0;  // transport frame loss / stragglers
    double params_sent = 0.0, params_back = 0.0;
    std::vector<double> train_ms;
  };
  std::map<long long, ClientAgg> clients;
  for (const Record& r : run->events) {
    if (!is_kind(r, "dispatch")) continue;
    ClientAgg& c = clients[static_cast<long long>(num(r, "client", -1))];
    ++c.dispatches;
    c.params_sent += num(r, "params");
    const std::string outcome = str(r, "outcome");
    if (outcome == "ok") {
      ++c.ok;
      c.params_back += num(r, "params_back");
      c.train_ms.push_back(num(r, "train_ms"));
    } else if (outcome == "no_response") {
      ++c.no_response;
    } else if (outcome == "lost_downlink" || outcome == "lost_uplink") {
      ++c.lost;
    } else if (outcome == "deadline") {
      ++c.deadline;
    } else {
      ++c.adapt_failed;
    }
  }
  if (clients.empty()) {
    std::fprintf(stderr, "afl-insight: no dispatch events in %s (run %s)\n",
                 file.path.c_str(), run->label().c_str());
    return 1;
  }
  std::printf("clients of run: %s\n", run->label().c_str());
  Table t({"client", "dispatches", "ok", "no_resp", "no_fit", "lost", "late",
           "train p50 ms", "train p95 ms", "params sent", "params back"});
  for (const auto& [id, c] : clients) {
    t.add_row({std::to_string(id), std::to_string(c.dispatches),
               std::to_string(c.ok), std::to_string(c.no_response),
               std::to_string(c.adapt_failed), std::to_string(c.lost),
               std::to_string(c.deadline),
               Table::fmt(percentile(c.train_ms, 50.0), 2),
               Table::fmt(percentile(c.train_ms, 95.0), 2),
               Table::fmt(c.params_sent, 0), Table::fmt(c.params_back, 0)});
  }
  std::printf("%s", t.to_markdown().c_str());
  return 0;
}

int cmd_rounds(const TraceFile& file, int run_index, std::size_t top_n) {
  const Run* run = pick_run(file, run_index);
  if (run == nullptr) return 1;
  std::vector<const Record*> rounds;
  for (const Record& r : run->events) {
    if (is_kind(r, "round")) rounds.push_back(&r);
  }
  if (rounds.empty()) {
    std::fprintf(stderr, "afl-insight: no round events in %s (run %s)\n",
                 file.path.c_str(), run->label().c_str());
    return 1;
  }
  std::stable_sort(rounds.begin(), rounds.end(),
                   [](const Record* a, const Record* b) {
                     return num(*a, "dur_ms") > num(*b, "dur_ms");
                   });
  if (rounds.size() > top_n) rounds.resize(top_n);
  std::printf("slowest %zu round(s) of run: %s\n", rounds.size(),
              run->label().c_str());
  Table t({"round", "dur ms", "train ms", "aggregate ms", "eval ms", "ok",
           "failed", "waste"});
  for (const Record* r : rounds) {
    t.add_row({Table::fmt(num(*r, "round"), 0), Table::fmt(num(*r, "dur_ms"), 1),
               Table::fmt(num(*r, "train_ms"), 1),
               Table::fmt(num(*r, "aggregate_ms"), 1),
               Table::fmt(num(*r, "eval_ms"), 1),
               Table::fmt(num(*r, "clients_ok"), 0),
               Table::fmt(num(*r, "clients_failed"), 0),
               Table::fmt(num(*r, "round_waste"), 3)});
  }
  std::printf("%s", t.to_markdown().c_str());
  return 0;
}

/// One evaluation sample on the simulated clock. Sync runs emit eval_point
/// at round boundaries, async runs at buffer flushes; virtual_time is the
/// cumulative simulated seconds in both cases, so curves are comparable.
struct EvalPoint {
  double round = 0.0;
  double virtual_time = 0.0;
  double full_acc = 0.0;
  double avg_acc = 0.0;
};

std::vector<EvalPoint> eval_points(const Run& run) {
  std::vector<EvalPoint> points;
  for (const Record& r : run.events) {
    if (!is_kind(r, "eval_point")) continue;
    points.push_back({num(r, "round"), num(r, "virtual_time"),
                      num(r, "full_acc"), num(r, "avg_acc")});
  }
  return points;
}

/// Simulated seconds until the run first evaluated at or above `target`;
/// negative when it never did (or the run carries no eval_point events).
double time_to_accuracy(const std::vector<EvalPoint>& points, double target) {
  for (const EvalPoint& p : points) {
    if (p.full_acc >= target) return p.virtual_time;
  }
  return -1.0;
}

int cmd_timeline(const TraceFile& file, int run_index) {
  std::vector<std::size_t> selected;
  if (run_index >= 0) {
    if (pick_run(file, run_index) == nullptr) return 1;
    selected.push_back(static_cast<std::size_t>(run_index));
  } else {
    for (std::size_t i = 0; i < file.runs.size(); ++i) selected.push_back(i);
  }

  bool any_points = false;
  for (const std::size_t i : selected) {
    const Run& run = file.runs[i];
    const std::vector<EvalPoint> points = eval_points(run);
    std::printf("run %zu: %s\n", i, run.label().c_str());
    if (points.empty()) {
      std::printf("  (no eval_point events — run predates the simulated "
                  "clock or the transport was off)\n\n");
      continue;
    }
    any_points = true;
    Table t({"round", "virtual time s", "full acc", "avg client acc"});
    for (const EvalPoint& p : points) {
      t.add_row({Table::fmt(p.round, 0), Table::fmt(p.virtual_time, 3),
                 Table::fmt(p.full_acc, 4), Table::fmt(p.avg_acc, 4)});
    }
    std::printf("%s\n", t.to_markdown().c_str());
  }
  if (!any_points) {
    std::fprintf(stderr, "afl-insight: no eval_point events in %s\n",
                 file.path.c_str());
    return 1;
  }

  // Cross-run comparison: simulated seconds to each accuracy threshold.
  // "-" marks a threshold the run never reached.
  static constexpr double kThresholds[] = {0.1, 0.15, 0.2, 0.3, 0.4,
                                           0.5, 0.6,  0.7, 0.8, 0.9};
  std::vector<std::string> header{"acc threshold"};
  for (const std::size_t i : selected) {
    header.push_back("run " + std::to_string(i) + " (s)");
  }
  Table t(header);
  for (const double target : kThresholds) {
    std::vector<std::string> row{Table::fmt(target, 2)};
    bool reached = false;
    for (const std::size_t i : selected) {
      const double tta = time_to_accuracy(eval_points(file.runs[i]), target);
      row.push_back(tta < 0 ? "-" : Table::fmt(tta, 3));
      reached = reached || tta >= 0;
    }
    if (reached) t.add_row(row);
  }
  std::printf("simulated time to accuracy:\n%s", t.to_markdown().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// afl.trace.v2 lifecycle records (engine/lifecycle.hpp, obs/critpath.hpp).

std::vector<afl::obs::LifecycleRecord> lifecycle_records(const Run& run) {
  std::vector<afl::obs::LifecycleRecord> records;
  for (const Record& r : run.events) {
    if (auto rec = afl::obs::parse_lifecycle(r)) records.push_back(*rec);
  }
  return records;
}

/// The run's final simulated instant: run_end's sim_seconds when present,
/// else the last eval_point's virtual_time, else 0 (auto-derive downstream).
double run_anchor(const Run& run) {
  double anchor = 0.0;
  for (const Record& r : run.events) {
    if (is_kind(r, "eval_point")) {
      anchor = std::max(anchor, num(r, "virtual_time"));
    } else if (is_kind(r, "run_end")) {
      const double s = num(r, "sim_seconds");
      if (s > 0.0) anchor = std::max(anchor, s);
    }
  }
  return anchor;
}

/// Lifecycle completeness check. Every dispatch must carry a select phase,
/// exactly one terminal outcome, and time-ordered phases; violations exit 1.
/// Runs without lifecycle records (v1 traces, transportless runs) pass with a
/// note — the gate targets emitters that do write lifecycles.
int cmd_validate(const TraceFile& file) {
  int errors = 0;
  const auto fail = [&](std::size_t run, long long dispatch, const char* what) {
    std::fprintf(stderr, "afl-insight: %s run %zu dispatch %lld: %s\n",
                 file.path.c_str(), run, dispatch, what);
    ++errors;
  };
  for (std::size_t i = 0; i < file.runs.size(); ++i) {
    const std::vector<afl::obs::LifecycleRecord> records =
        lifecycle_records(file.runs[i]);
    if (records.empty()) {
      std::printf("run %zu: %s — no lifecycle records (pre-v2 or "
                  "transportless run)\n",
                  i, file.runs[i].label().c_str());
      continue;
    }
    struct Group {
      bool select = false;
      std::size_t terminals = 0;
      double select_t0 = 0.0, min_t0 = 0.0;
      std::size_t phases = 0;
    };
    std::map<long long, Group> groups;
    for (const afl::obs::LifecycleRecord& r : records) {
      if (r.t1 < r.t0) fail(i, r.dispatch, "phase ends before it starts");
      if (r.dispatch < 0) {
        // Dispatch-less hierarchy barrier records; only ordering applies.
        if (r.level != "root") fail(i, r.dispatch, "dispatch-less record "
                                    "without level=root");
        continue;
      }
      Group& g = groups[r.dispatch];
      if (g.phases == 0) g.min_t0 = r.t0;
      ++g.phases;
      g.min_t0 = std::min(g.min_t0, r.t0);
      if (r.phase == "select") {
        g.select = true;
        g.select_t0 = r.t0;
      }
      if (!r.outcome.empty()) ++g.terminals;
    }
    std::size_t ok = 0;
    for (const auto& [dispatch, g] : groups) {
      bool good = true;
      if (!g.select) {
        fail(i, dispatch, "orphan phases: no select record");
        good = false;
      }
      if (g.terminals == 0) {
        fail(i, dispatch, "incomplete lifecycle: no terminal outcome");
        good = false;
      } else if (g.terminals > 1) {
        fail(i, dispatch, "multiple terminal outcomes");
        good = false;
      }
      if (g.select && g.min_t0 < g.select_t0) {
        fail(i, dispatch, "phase starts before its select instant");
        good = false;
      }
      if (good) ++ok;
    }
    std::printf("run %zu: %s — %zu lifecycle record(s), %zu dispatch(es), "
                "%zu complete\n",
                i, file.runs[i].label().c_str(), records.size(), groups.size(),
                ok);
  }
  if (errors > 0) {
    std::fprintf(stderr, "afl-insight: %d lifecycle violation(s)\n", errors);
    return 1;
  }
  std::printf("lifecycles ok\n");
  return 0;
}

int cmd_critical_path(const TraceFile& file, int run_index, std::size_t top_k) {
  const Run* run = pick_run(file, run_index);
  if (run == nullptr) return 1;
  const std::vector<afl::obs::LifecycleRecord> records = lifecycle_records(*run);
  if (records.empty()) {
    std::fprintf(stderr,
                 "afl-insight: no lifecycle records in %s (run %s) — "
                 "critical-path needs an afl.trace.v2 trace from a "
                 "transport-backed or async run\n",
                 file.path.c_str(), run->label().c_str());
    return 1;
  }
  const afl::obs::CriticalPathResult cp =
      afl::obs::critical_path(records, run_anchor(*run));

  std::printf("critical path of run: %s\n", run->label().c_str());
  std::printf("final simulated time: %.3f s | attributed %.3f s (%.1f%%) | "
              "unattributed %.3f s\n",
              cp.total, cp.attributed,
              cp.total > 0 ? 100.0 * cp.attributed / cp.total : 0.0,
              cp.unattributed);

  // by_phase descending — the headline "where did the time go" table.
  std::vector<std::pair<std::string, double>> phases(cp.by_phase.begin(),
                                                     cp.by_phase.end());
  std::stable_sort(phases.begin(), phases.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  Table t({"phase", "seconds", "% of run"});
  for (const auto& [phase, seconds] : phases) {
    t.add_row({phase, Table::fmt(seconds, 3),
               Table::fmt(cp.total > 0 ? 100.0 * seconds / cp.total : 0.0, 1)});
  }
  std::printf("%s", t.to_markdown().c_str());

  // Shard table only when the run carried shard tags (hierarchical run).
  bool tagged = false;
  for (const auto& [shard, seconds] : cp.by_shard) tagged |= shard >= 0;
  if (tagged) {
    Table st({"shard", "seconds on path", "% of run"});
    for (const auto& [shard, seconds] : cp.by_shard) {
      st.add_row({shard < 0 ? std::string("(untagged)") : std::to_string(shard),
                  Table::fmt(seconds, 3),
                  Table::fmt(cp.total > 0 ? 100.0 * seconds / cp.total : 0.0, 1)});
    }
    std::printf("per-shard blame:\n%s", st.to_markdown().c_str());
  }

  std::vector<std::pair<long long, double>> clients(cp.by_client.begin(),
                                                    cp.by_client.end());
  std::stable_sort(clients.begin(), clients.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (clients.size() > top_k) clients.resize(top_k);
  if (!clients.empty()) {
    Table ct({"client", "seconds on path", "% of run"});
    for (const auto& [client, seconds] : clients) {
      ct.add_row({std::to_string(client), Table::fmt(seconds, 3),
                  Table::fmt(cp.total > 0 ? 100.0 * seconds / cp.total : 0.0, 1)});
    }
    std::printf("top %zu client(s) on the path:\n%s", clients.size(),
                ct.to_markdown().c_str());
  }
  return 0;
}

/// Converts lifecycle records to Chrome trace_event JSON: pid = run index,
/// tid = client (root barrier records on a dedicated track), ts/dur in
/// microseconds of the virtual clock. Loadable in Perfetto / chrome://tracing.
int cmd_export_chrome(const TraceFile& file, const std::string& out_path) {
  constexpr long long kRootTid = 1000000;  // past any real client id
  std::string json = "{\"traceEvents\":[";
  bool first = true;
  bool any = false;
  const auto emit = [&](const std::string& event) {
    if (!first) json += ',';
    first = false;
    json += event;
  };
  char buf[256];
  for (std::size_t i = 0; i < file.runs.size(); ++i) {
    const std::vector<afl::obs::LifecycleRecord> records =
        lifecycle_records(file.runs[i]);
    if (records.empty()) continue;
    any = true;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                  "\"args\":{\"name\":\"run %zu: %s\"}}",
                  i, i,
                  afl::obs::json_escape(file.runs[i].label()).c_str());
    emit(buf);
    std::set<long long> tids;
    for (const afl::obs::LifecycleRecord& r : records) {
      const long long tid = r.dispatch < 0 ? kRootTid : r.client;
      if (tids.insert(tid).second) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,"
                      "\"tid\":%lld,\"args\":{\"name\":\"%s\"}}",
                      i, tid,
                      tid == kRootTid
                          ? "root barrier"
                          : ("client " + std::to_string(tid)).c_str());
        emit(buf);
      }
      const double ts_us = r.t0 * 1e6;
      const double dur_us = (r.t1 - r.t0) * 1e6;
      std::string args = "{\"dispatch\":" + std::to_string(r.dispatch) +
                         ",\"round\":" + std::to_string(r.round);
      if (r.shard >= 0) args += ",\"shard\":" + std::to_string(r.shard);
      if (r.attempts > 0) args += ",\"attempts\":" + std::to_string(r.attempts);
      if (r.bytes > 0) args += ",\"bytes\":" + std::to_string(r.bytes);
      if (!r.outcome.empty()) {
        args += ",\"outcome\":\"" + afl::obs::json_escape(r.outcome) + "\"";
      }
      args += '}';
      if (dur_us > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"lifecycle\",\"ph\":\"X\","
                      "\"pid\":%zu,\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":",
                      afl::obs::json_escape(r.phase).c_str(), i, tid, ts_us,
                      dur_us);
      } else {
        // Instant markers for the zero-length select/commit/drop points.
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"cat\":\"lifecycle\",\"ph\":\"i\","
                      "\"s\":\"t\",\"pid\":%zu,\"tid\":%lld,\"ts\":%.3f,"
                      "\"args\":",
                      afl::obs::json_escape(r.phase).c_str(), i, tid, ts_us);
      }
      emit(buf + args + "}");
    }
  }
  json += "],\"displayTimeUnit\":\"ms\"}";
  if (!any) {
    std::fprintf(stderr,
                 "afl-insight: no lifecycle records in %s — nothing to "
                 "export\n",
                 file.path.c_str());
    return 1;
  }
  if (out_path.empty() || out_path == "-") {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "afl-insight: cannot write %s\n", out_path.c_str());
    return kExitUsage;
  }
  out << json << '\n';
  out.close();
  std::printf("wrote %zu trace event bytes to %s\n", json.size() + 1,
              out_path.c_str());
  return 0;
}

int cmd_diff(const TraceFile& base, const TraceFile& cand, int base_run,
             int cand_run, double max_acc_drop, double max_time_ratio,
             double max_comm_ratio, double max_bytes_ratio,
             double max_uplink_bytes_ratio, double tta_acc,
             double max_tta_ratio, bool acc_best) {
  const Run* a = pick_run(base, base_run);
  const Run* b = pick_run(cand, cand_run);
  if (a == nullptr || b == nullptr) return 1;
  if (a->has_header() != b->has_header()) {
    std::fprintf(stderr,
                 "afl-insight: cannot diff a headered trace against a "
                 "headerless (pre-v1) one\n");
    return 1;
  }
  const RunStats sa = run_stats(*a);
  const RunStats sb = run_stats(*b);
  const std::vector<EvalPoint> points_a = eval_points(*a);
  const std::vector<EvalPoint> points_b = eval_points(*b);

  // Accuracy gate input: final (run_end) by default, or the best evaluation
  // seen anywhere on the curve with --acc-metric best — the steadier choice
  // for async runs, whose accuracy oscillates between buffer flushes.
  const char* acc_label = acc_best ? "best full acc" : "final full acc";
  double acc_a = sa.final_acc, acc_b = sb.final_acc;
  bool has_acc_a = sa.has_acc, has_acc_b = sb.has_acc;
  if (acc_best) {
    for (const EvalPoint& p : points_a) {
      if (!has_acc_a || p.full_acc > acc_a) acc_a = p.full_acc;
      has_acc_a = true;
    }
    for (const EvalPoint& p : points_b) {
      if (!has_acc_b || p.full_acc > acc_b) acc_b = p.full_acc;
      has_acc_b = true;
    }
  }

  std::printf("baseline : %s (%s)\n", base.path.c_str(), a->label().c_str());
  std::printf("candidate: %s (%s)\n\n", cand.path.c_str(), b->label().c_str());
  Table t({"metric", "baseline", "candidate", "delta"});
  t.add_row({acc_label, has_acc_a ? Table::fmt(acc_a, 4) : "n/a",
             has_acc_b ? Table::fmt(acc_b, 4) : "n/a",
             Table::fmt(acc_b - acc_a, 4)});
  t.add_row({"round p95 ms", Table::fmt(sa.p95_round_ms, 2),
             Table::fmt(sb.p95_round_ms, 2),
             sa.p95_round_ms > 0
                 ? Table::fmt(sb.p95_round_ms / sa.p95_round_ms, 3) + "x"
                 : "n/a"});
  t.add_row({"params sent", Table::fmt(sa.params_sent, 0),
             Table::fmt(sb.params_sent, 0),
             sa.params_sent > 0
                 ? Table::fmt(sb.params_sent / sa.params_sent, 3) + "x"
                 : "n/a"});
  if (sa.has_bytes || sb.has_bytes) {
    const double total_a = sa.bytes_sent + sa.bytes_returned;
    const double total_b = sb.bytes_sent + sb.bytes_returned;
    t.add_row({"bytes on wire", Table::fmt(total_a, 0), Table::fmt(total_b, 0),
               total_a > 0 ? Table::fmt(total_b / total_a, 3) + "x" : "n/a"});
    t.add_row({"uplink bytes", Table::fmt(sa.bytes_returned, 0),
               Table::fmt(sb.bytes_returned, 0),
               sa.bytes_returned > 0
                   ? Table::fmt(sb.bytes_returned / sa.bytes_returned, 3) + "x"
                   : "n/a"});
  }
  double tta_a = -1.0, tta_b = -1.0;
  if (tta_acc > 0) {
    tta_a = time_to_accuracy(points_a, tta_acc);
    tta_b = time_to_accuracy(points_b, tta_acc);
    t.add_row({"sim s to acc " + Table::fmt(tta_acc, 2),
               tta_a < 0 ? "n/a" : Table::fmt(tta_a, 3),
               tta_b < 0 ? "n/a" : Table::fmt(tta_b, 3),
               tta_a > 0 && tta_b >= 0 ? Table::fmt(tta_b / tta_a, 3) + "x"
                                       : "n/a"});
  }
  std::printf("%s\n", t.to_markdown().c_str());

  int regressions = 0;
  if (has_acc_a && has_acc_b && acc_b < acc_a - max_acc_drop) {
    std::printf("REGRESSION: %s dropped %.4f (> %.4f allowed)\n", acc_label,
                acc_a - acc_b, max_acc_drop);
    ++regressions;
  }
  if (sa.p95_round_ms > 0 && sb.p95_round_ms > sa.p95_round_ms * max_time_ratio) {
    std::printf("REGRESSION: round p95 %.2fx baseline (> %.2fx allowed)\n",
                sb.p95_round_ms / sa.p95_round_ms, max_time_ratio);
    ++regressions;
  }
  if (sa.params_sent > 0 && sb.params_sent > sa.params_sent * max_comm_ratio) {
    std::printf("REGRESSION: comm %.2fx baseline (> %.2fx allowed)\n",
                sb.params_sent / sa.params_sent, max_comm_ratio);
    ++regressions;
  }
  // Bytes-on-wire gate: only meaningful when the baseline is a net-backed
  // trace; a candidate that turned the transport on is not a "regression".
  const double bytes_a = sa.bytes_sent + sa.bytes_returned;
  const double bytes_b = sb.bytes_sent + sb.bytes_returned;
  if (sa.has_bytes && bytes_a > 0 && bytes_b > bytes_a * max_bytes_ratio) {
    std::printf("REGRESSION: wire bytes %.2fx baseline (> %.2fx allowed)\n",
                bytes_b / bytes_a, max_bytes_ratio);
    ++regressions;
  }
  // Uplink-only gate, active only when --max-uplink-bytes-ratio was given.
  // The compression CI job uses it with a ratio < 1 to *require* savings:
  // a sparse-uplink candidate must ship at most that fraction of the dense
  // baseline's return bytes (docs/COMPRESSION.md).
  if (max_uplink_bytes_ratio > 0 && sa.has_bytes && sa.bytes_returned > 0 &&
      sb.bytes_returned > sa.bytes_returned * max_uplink_bytes_ratio) {
    std::printf("REGRESSION: uplink bytes %.2fx baseline (> %.2fx allowed)\n",
                sb.bytes_returned / sa.bytes_returned, max_uplink_bytes_ratio);
    ++regressions;
  }
  // Time-to-accuracy gate, active only when --tta-acc was given. Baseline
  // never reaching the target is a usage error (the gate would be vacuous);
  // the candidate never reaching it while the baseline did is a regression.
  if (tta_acc > 0) {
    if (tta_a < 0) {
      std::fprintf(stderr,
                   "afl-insight: baseline never reached accuracy %.2f — "
                   "--tta-acc gate cannot apply\n",
                   tta_acc);
      return 1;
    }
    if (tta_b < 0) {
      std::printf("REGRESSION: candidate never reached accuracy %.2f "
                  "(baseline did at %.3f sim s)\n",
                  tta_acc, tta_a);
      ++regressions;
    } else if (tta_b > tta_a * max_tta_ratio) {
      std::printf(
          "REGRESSION: time-to-acc-%.2f %.2fx baseline (> %.2fx allowed)\n",
          tta_acc, tta_b / tta_a, max_tta_ratio);
      ++regressions;
    }
  }
  if (regressions == 0) {
    std::printf(
        "no regression (acc drop <= %.4f, time <= %.2fx, comm <= %.2fx, "
        "bytes <= %.2fx)\n",
        max_acc_drop, max_time_ratio, max_comm_ratio, max_bytes_ratio);
    return 0;
  }
  return 2;
}

// ---------------------------------------------------------------------------
// Benchmark snapshots (afl.bench.v1, written by the bench binaries — see
// obs/prof/bench_report.hpp and docs/PROFILING.md).

struct BenchSection {
  std::string name;
  double wall_seconds = 0.0;
  std::map<std::string, double> counters;  // cycles, instructions, ipc, ...
  std::map<std::string, double> metrics;   // rounds_per_sec, GFLOP/s, ...
};

struct BenchSnapshot {
  std::string path;
  std::string bench, scale, git;
  std::vector<BenchSection> sections;

  const BenchSection* section(const std::string& name) const {
    for (const BenchSection& s : sections) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

bool is_directory(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/// Sorted BENCH_*.json file names (not paths) inside `dir`.
std::vector<std::string> bench_files_in(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

/// 0 on success, kExitUsage when the file cannot be opened, 1 when it opens
/// but is not a valid afl.bench.v1 snapshot.
int load_bench(const std::string& path, BenchSnapshot& out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "afl-insight: cannot open %s\n", path.c_str());
    return kExitUsage;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const Record doc = afl::obs::json_object_fields(text);
  if (doc.empty()) {
    std::fprintf(stderr, "afl-insight: %s is not a JSON object\n", path.c_str());
    return 1;
  }
  const std::string schema = str(doc, "schema");
  if (schema != kBenchSchema) {
    std::fprintf(stderr,
                 "afl-insight: %s declares bench schema \"%s\" but this tool "
                 "understands \"%s\"\n",
                 path.c_str(), schema.c_str(), kBenchSchema);
    return 1;
  }
  out.path = path;
  out.bench = str(doc, "bench", "?");
  out.scale = str(doc, "scale", "?");
  out.git = str(doc, "git", "?");
  const auto sections_it = doc.find("sections");
  if (sections_it == doc.end()) {
    std::fprintf(stderr, "afl-insight: %s has no sections array\n", path.c_str());
    return 1;
  }
  for (const std::string& item :
       afl::obs::json_array_items(sections_it->second)) {
    const Record rec = afl::obs::json_object_fields(item);
    if (rec.empty()) {
      std::fprintf(stderr, "afl-insight: malformed section in %s\n",
                   path.c_str());
      return 1;
    }
    BenchSection s;
    s.name = str(rec, "name", "?");
    s.wall_seconds = num(rec, "wall_seconds");
    for (const char* key : {"cycles", "instructions", "ipc",
                            "cache_references", "cache_misses",
                            "branch_misses"}) {
      const auto it = rec.find(key);
      if (it != rec.end()) {
        s.counters[key] = afl::obs::json_raw_number(it->second, 0.0);
      }
    }
    const auto metrics_it = rec.find("metrics");
    if (metrics_it != rec.end()) {
      for (const auto& [key, raw] :
           afl::obs::json_object_fields(metrics_it->second)) {
        s.metrics[key] = afl::obs::json_raw_number(raw, 0.0);
      }
    }
    out.sections.push_back(std::move(s));
  }
  return 0;
}

/// Expands a file-or-directory argument into snapshot paths. A directory
/// must contain at least one BENCH_*.json.
int resolve_bench_paths(const std::string& arg, std::vector<std::string>& out) {
  if (!is_directory(arg)) {
    out.push_back(arg);
    return 0;
  }
  const std::vector<std::string> names = bench_files_in(arg);
  if (names.empty()) {
    std::fprintf(stderr, "afl-insight: no BENCH_*.json files in %s\n",
                 arg.c_str());
    return kExitUsage;
  }
  for (const std::string& name : names) {
    out.push_back(arg + (arg.back() == '/' ? "" : "/") + name);
  }
  return 0;
}

int cmd_bench_show(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (const int rc = resolve_bench_paths(arg, paths)) return rc;
  }
  for (const std::string& path : paths) {
    BenchSnapshot snap;
    if (const int rc = load_bench(path, snap)) return rc;
    std::printf("%s: bench %s | scale %s | git %s\n", snap.path.c_str(),
                snap.bench.c_str(), snap.scale.c_str(), snap.git.c_str());
    Table t({"section", "wall s", "cycles", "instr", "ipc", "metrics"});
    for (const BenchSection& s : snap.sections) {
      auto counter = [&](const char* key, int digits) {
        const auto it = s.counters.find(key);
        return it == s.counters.end() ? std::string("-")
                                      : Table::fmt(it->second, digits);
      };
      std::string metrics;
      for (const auto& [key, value] : s.metrics) {
        if (!metrics.empty()) metrics += ' ';
        metrics += key + "=" + Table::fmt(value, 3);
      }
      t.add_row({s.name, Table::fmt(s.wall_seconds, 4), counter("cycles", 0),
                 counter("instructions", 0), counter("ipc", 2), metrics});
    }
    std::printf("%s\n", t.to_markdown().c_str());
  }
  return 0;
}

/// Gates candidate sections against same-named baseline sections. Sections
/// only one side has are reported but never gate — bench section sets evolve.
int cmd_bench_diff(const std::string& base_arg, const std::string& cand_arg,
                   double max_time_ratio, double max_cycles_ratio) {
  std::vector<std::string> base_paths, cand_paths;
  if (const int rc = resolve_bench_paths(base_arg, base_paths)) return rc;
  if (const int rc = resolve_bench_paths(cand_arg, cand_paths)) return rc;

  // Directory mode: pair snapshots by file name, skipping unmatched ones.
  std::vector<std::pair<std::string, std::string>> pairs;
  if (is_directory(base_arg) && is_directory(cand_arg)) {
    for (const std::string& bp : base_paths) {
      const std::string name = bp.substr(bp.rfind('/') + 1);
      for (const std::string& cp : cand_paths) {
        if (cp.substr(cp.rfind('/') + 1) == name) {
          pairs.emplace_back(bp, cp);
          break;
        }
      }
    }
    if (pairs.empty()) {
      std::fprintf(stderr,
                   "afl-insight: no snapshot file names in common between %s "
                   "and %s\n",
                   base_arg.c_str(), cand_arg.c_str());
      return kExitUsage;
    }
  } else if (base_paths.size() == 1 && cand_paths.size() == 1) {
    pairs.emplace_back(base_paths[0], cand_paths[0]);
  } else {
    std::fprintf(stderr,
                 "afl-insight: bench diff takes two files or two "
                 "directories\n");
    return kExitUsage;
  }

  int regressions = 0;
  for (const auto& [base_path, cand_path] : pairs) {
    BenchSnapshot base, cand;
    if (const int rc = load_bench(base_path, base)) return rc;
    if (const int rc = load_bench(cand_path, cand)) return rc;
    std::printf("baseline : %s (git %s)\n", base.path.c_str(), base.git.c_str());
    std::printf("candidate: %s (git %s)\n", cand.path.c_str(), cand.git.c_str());
    if (base.scale != cand.scale) {
      std::printf("note: scale differs (%s vs %s) — ratios may be meaningless\n",
                  base.scale.c_str(), cand.scale.c_str());
    }
    Table t({"section", "base wall s", "cand wall s", "wall", "cycles"});
    for (const BenchSection& b : base.sections) {
      const BenchSection* c = cand.section(b.name);
      if (c == nullptr) {
        t.add_row({b.name, Table::fmt(b.wall_seconds, 4), "(missing)", "-", "-"});
        continue;
      }
      std::string wall = "n/a", cycles = "-";
      if (b.wall_seconds > 0) {
        const double ratio = c->wall_seconds / b.wall_seconds;
        wall = Table::fmt(ratio, 3) + "x";
        if (ratio > max_time_ratio) {
          std::printf("REGRESSION: %s wall %.2fx baseline (> %.2fx allowed)\n",
                      b.name.c_str(), ratio, max_time_ratio);
          ++regressions;
        }
      }
      const auto bc = b.counters.find("cycles");
      const auto cc = c->counters.find("cycles");
      if (bc != b.counters.end() && cc != c->counters.end() &&
          bc->second > 0) {
        const double ratio = cc->second / bc->second;
        cycles = Table::fmt(ratio, 3) + "x";
        if (ratio > max_cycles_ratio) {
          std::printf("REGRESSION: %s cycles %.2fx baseline (> %.2fx allowed)\n",
                      b.name.c_str(), ratio, max_cycles_ratio);
          ++regressions;
        }
      }
      t.add_row({b.name, Table::fmt(b.wall_seconds, 4),
                 Table::fmt(c->wall_seconds, 4), wall, cycles});
    }
    for (const BenchSection& c : cand.sections) {
      if (base.section(c.name) == nullptr) {
        t.add_row({c.name, "(new)", Table::fmt(c.wall_seconds, 4), "-", "-"});
      }
    }
    std::printf("%s\n", t.to_markdown().c_str());
  }
  if (regressions == 0) {
    std::printf("no bench regression (wall <= %.2fx, cycles <= %.2fx)\n",
                max_time_ratio, max_cycles_ratio);
    return 0;
  }
  return 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: afl-insight <command> [args]\n"
               "  summary <trace>                     per-run phase/time breakdown\n"
               "  bytes <trace>                       bytes-vs-accuracy view per run\n"
               "  clients <trace> [--run N]           per-client drill-down\n"
               "  rounds <trace> [N] [--run N]        slowest-N rounds (default 5)\n"
               "  timeline <trace> [--run N]          simulated time-to-accuracy curves\n"
               "  validate <trace>                    lifecycle completeness check (exit 1 on orphans)\n"
               "  critical-path <trace> [--run N]     virtual-clock blame breakdown\n"
               "       [--top K]                      clients shown on the path (5)\n"
               "  export-chrome <trace> [--out FILE]  Chrome trace_event JSON (Perfetto; stdout default)\n"
               "  diff <baseline> <candidate>         regression check (exit 2 on regression)\n"
               "       [--max-acc-drop X]             allowed absolute accuracy drop (0.02)\n"
               "       [--acc-metric final|best]      accuracy gated: run_end vs curve max (final)\n"
               "       [--max-time-ratio X]           allowed round-p95 ratio (1.50)\n"
               "       [--max-comm-ratio X]           allowed params-sent ratio (1.10)\n"
               "       [--max-bytes-ratio X]          allowed wire-bytes ratio (1.10)\n"
               "       [--max-uplink-bytes-ratio X]   allowed uplink-bytes ratio (off; <1 demands savings)\n"
               "       [--tta-acc X]                  gate simulated time to accuracy X (off)\n"
               "       [--max-tta-ratio X]            allowed time-to-acc ratio (1.00)\n"
               "       [--base-run N] [--cand-run N]  run index inside each trace (last)\n"
               "  bench show <snapshot|dir>...        render BENCH_*.json snapshots\n"
               "  bench diff <base> <cand>            snapshot perf gate (exit 2 on regression)\n"
               "       [--max-time-ratio X]           allowed per-section wall ratio (1.50)\n"
               "       [--max-cycles-ratio X]         allowed per-section cycles ratio (1.50)\n"
               "exit codes: 0 ok, 1 bad data, 2 regression, 64 usage error\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];

  if (cmd == "bench") {
    // Own dispatch: positionals are snapshots/directories, not traces.
    const std::string sub = argv[2];
    std::vector<std::string> rest(argv + 3, argv + argc);
    double max_time_ratio = 1.50, max_cycles_ratio = 1.50;
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      if (rest[i] == "--max-time-ratio" && i + 1 < rest.size()) {
        max_time_ratio = std::atof(rest[++i].c_str());
      } else if (rest[i] == "--max-cycles-ratio" && i + 1 < rest.size()) {
        max_cycles_ratio = std::atof(rest[++i].c_str());
      } else if (rest[i].rfind("--", 0) == 0) {
        std::fprintf(stderr, "afl-insight: unknown flag %s\n", rest[i].c_str());
        return usage();
      } else {
        positional.push_back(rest[i]);
      }
    }
    if (sub == "show") {
      if (positional.empty()) return usage();
      return cmd_bench_show(positional);
    }
    if (sub == "diff") {
      if (positional.size() != 2) return usage();
      return cmd_bench_diff(positional[0], positional[1], max_time_ratio,
                            max_cycles_ratio);
    }
    std::fprintf(stderr, "afl-insight: unknown bench subcommand \"%s\"\n",
                 sub.c_str());
    return usage();
  }

  // Common flags/positionals after the command + first path.
  std::vector<std::string> args(argv + 2, argv + argc);
  int run_index = -1;                     // default: last run
  int base_run = -1, cand_run = -1;       // diff-side run selectors
  double max_acc_drop = 0.02, max_time_ratio = 1.50, max_comm_ratio = 1.10;
  double max_bytes_ratio = 1.10;
  double max_uplink_bytes_ratio = 0.0;  // uplink gate off until the flag
  double tta_acc = 0.0, max_tta_ratio = 1.00;  // tta gate off until --tta-acc
  bool acc_best = false;    // diff --acc-metric best
  int top_k = 5;            // critical-path client rows
  std::string out_path;     // export-chrome destination; empty = stdout
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto flag_value = [&](double& out) {
      if (i + 1 >= args.size()) return false;
      out = std::atof(args[++i].c_str());
      return true;
    };
    if (args[i] == "--run") {
      if (i + 1 >= args.size()) return usage();
      run_index = std::atoi(args[++i].c_str());
    } else if (args[i] == "--base-run") {
      if (i + 1 >= args.size()) return usage();
      base_run = std::atoi(args[++i].c_str());
    } else if (args[i] == "--cand-run") {
      if (i + 1 >= args.size()) return usage();
      cand_run = std::atoi(args[++i].c_str());
    } else if (args[i] == "--max-acc-drop") {
      if (!flag_value(max_acc_drop)) return usage();
    } else if (args[i] == "--max-time-ratio") {
      if (!flag_value(max_time_ratio)) return usage();
    } else if (args[i] == "--max-comm-ratio") {
      if (!flag_value(max_comm_ratio)) return usage();
    } else if (args[i] == "--max-bytes-ratio") {
      if (!flag_value(max_bytes_ratio)) return usage();
    } else if (args[i] == "--max-uplink-bytes-ratio") {
      if (!flag_value(max_uplink_bytes_ratio)) return usage();
    } else if (args[i] == "--tta-acc") {
      if (!flag_value(tta_acc)) return usage();
    } else if (args[i] == "--max-tta-ratio") {
      if (!flag_value(max_tta_ratio)) return usage();
    } else if (args[i] == "--acc-metric") {
      if (i + 1 >= args.size()) return usage();
      const std::string metric = args[++i];
      if (metric != "final" && metric != "best") return usage();
      acc_best = metric == "best";
    } else if (args[i] == "--top") {
      if (i + 1 >= args.size()) return usage();
      top_k = std::max(1, std::atoi(args[++i].c_str()));
    } else if (args[i] == "--out") {
      if (i + 1 >= args.size()) return usage();
      out_path = args[++i];
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.empty()) return usage();
  if (cmd != "summary" && cmd != "bytes" && cmd != "clients" &&
      cmd != "rounds" && cmd != "timeline" && cmd != "validate" &&
      cmd != "critical-path" && cmd != "export-chrome" && cmd != "diff") {
    std::fprintf(stderr, "afl-insight: unknown command \"%s\"\n", cmd.c_str());
    return usage();
  }

  TraceFile file;
  if (const int rc = load_trace(positional[0], file)) return rc;

  if (cmd == "summary") return cmd_summary(file);
  if (cmd == "bytes") return cmd_bytes(file);
  if (cmd == "clients") return cmd_clients(file, run_index);
  if (cmd == "rounds") {
    std::size_t top_n = 5;
    if (positional.size() > 1) {
      top_n = static_cast<std::size_t>(std::max(1, std::atoi(positional[1].c_str())));
    }
    return cmd_rounds(file, run_index, top_n);
  }
  if (cmd == "timeline") return cmd_timeline(file, run_index);
  if (cmd == "validate") return cmd_validate(file);
  if (cmd == "critical-path") {
    return cmd_critical_path(file, run_index, static_cast<std::size_t>(top_k));
  }
  if (cmd == "export-chrome") return cmd_export_chrome(file, out_path);
  // diff
  if (positional.size() != 2) return usage();
  TraceFile cand;
  if (const int rc = load_trace(positional[1], cand)) return rc;
  return cmd_diff(file, cand, base_run, cand_run, max_acc_drop,
                  max_time_ratio, max_comm_ratio, max_bytes_ratio,
                  max_uplink_bytes_ratio, tta_acc, max_tta_ratio, acc_best);
}
