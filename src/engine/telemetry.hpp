#pragma once
// Run-level trace / status helpers shared by the synchronous RoundEngine and
// the async engine (src/async/engine.*). Formerly file-local to
// round_engine.cpp; both execution models must emit identical run_start /
// run_end / dispatch records so afl-insight can diff their traces.

#include <cstddef>

#include "engine/lifecycle.hpp"
#include "engine/round_engine.hpp"
#include "engine/run.hpp"
#include "fl/comm.hpp"
#include "net/transport.hpp"

namespace afl::engine {

/// Trace schema label stamped on every run_start header; afl-insight refuses
/// to diff traces whose schemas disagree. v2 adds the dispatch-lifecycle
/// records (engine/lifecycle.hpp); v3 adds per-round `churn` records, the
/// departed/went_dark dispatch outcomes, and population run_start columns
/// (src/pop/, docs/POPULATION.md) — each a pure superset of its predecessor,
/// so older readers keep working on every record kind they know.
inline constexpr const char* kTraceSchema = "afl.trace.v3";

/// Emits the run_start header. `mode` tags non-default execution models
/// (the async engine passes "async", hierarchical RoundEngine runs "hier"); null
/// omits the field so synchronous traces stay byte-identical. `shards` > 0
/// adds the hierarchical topology columns (shards, sync_every).
/// `population`, when non-null, adds the population columns (fleet size,
/// churn knobs, channel spread); null keeps static-fleet traces unchanged.
void trace_run_start(const RunResult& result, const FlRunConfig& config,
                     std::size_t threads, const net::Transport& transport,
                     const char* mode = nullptr, std::size_t shards = 0,
                     std::size_t sync_every = 0,
                     const pop::Population* population = nullptr);

/// Emits a per-round `churn` record (afl.trace.v3) with the population
/// membership deltas, and feeds the afl.pop.* counters. Call once per round
/// (or per async flush window) — only when a population is attached, so
/// static-fleet traces gain no records.
void trace_churn(std::size_t round, const pop::RoundChurn& churn);

/// Emits the run_end summary. Adds a sim_seconds column when the run
/// tracked simulated time (result.sim_seconds > 0).
void trace_run_end(const RunResult& result, const net::Transport& transport);

/// Publishes a RunStatus snapshot to the live status board. `blame`, when
/// non-null and valid, fills the snapshot's critical_path block (the online
/// per-phase attribution from the run's LifecycleTracker).
void publish_run_status(const RunResult& result, std::size_t round,
                        std::size_t total_rounds, double elapsed_seconds,
                        std::size_t threads, bool active,
                        const LifecycleBlame* blame = nullptr);

/// Emits a failed dispatch trace event. `virtual_time` >= 0 adds the async
/// engine's simulated-clock column; negative omits it (synchronous path).
/// `shard` >= 0 tags the record with its aggregation shard (hierarchical
/// engine); negative omits the column so flat-engine traces are unchanged —
/// afl-insight treats runs mixing tagged and untagged dispatches as bad data.
void trace_dispatch_failure(const ClientSlot& slot, const char* outcome,
                            double virtual_time = -1.0, int shard = -1);

/// Byte/retransmit accounting + afl.net.* metrics for one frame transfer.
/// Only ever called with the transport enabled, so the metric instruments are
/// not registered (and the metrics dump is unchanged) on transportless runs.
void record_transfer(CommStats& comm, const net::TransferResult& transfer,
                     bool uplink);

/// Emits an eval_point trace event (the afl-insight `timeline` input): the
/// simulated clock at which the run's evaluation curve reached an accuracy.
void trace_eval_point(std::size_t round, double virtual_time, double full_acc,
                      double avg_acc);

}  // namespace afl::engine
