#include "engine/round_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "compress/compressor.hpp"
#include "engine/lifecycle.hpp"
#include "engine/snapshot.hpp"
#include "engine/telemetry.hpp"
#include "engine/thread_pool.hpp"
#include "fl/shard_aggregator.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/rss.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace afl {

using engine::LifecycleTracker;
using engine::publish_run_status;
using engine::record_transfer;
using engine::trace_dispatch_failure;
using engine::trace_eval_point;
using engine::trace_run_end;
using engine::trace_run_start;

namespace {

/// One aggregator of the round topology. `clock` is the edge's simulated
/// time, advanced by its own slowest client each round (deadline-capped).
/// The fold and the local model exist only in hierarchical runs.
struct Edge {
  double clock = 0.0;
  std::optional<ShardAggregator> fold;
  /// Divergent mode (sync_every > 1): the edge-local model its clients
  /// train on between root syncs.
  ParamSet model;
};

/// S edges, client c owned by edge c % S. A flat run is the single untagged
/// edge aggregating through the policy's commit()/aggregate().
struct Topology {
  HierRoundPolicy* hier = nullptr;  // non-null: hierarchical run
  std::size_t sync_every = 1;
  std::vector<Edge> edges;

  std::size_t shard_of(std::size_t client) const { return client % edges.size(); }
  /// Shard column of traces and lifecycle records: -1 (untagged) when flat.
  int tag(std::size_t shard) const { return hier ? static_cast<int>(shard) : -1; }
  bool divergent() const { return sync_every > 1; }
  /// Run-global simulated time: the furthest edge clock.
  double now() const {
    double t = 0.0;
    for (const Edge& e : edges) t = std::max(t, e.clock);
    return t;
  }
};

/// Planning output of one round: the accepted work slots plus the transport
/// state that must survive into the execute/commit phases.
struct RoundPlan {
  std::vector<ClientSlot> work;
  /// Parallel to `work` when the transport is enabled (the downlink session
  /// clock carries into the uplink); empty on the identity path.
  std::vector<net::Transport::Session> sessions;
  /// Decoded downlink payloads owned here so slot.rx pointers stay stable
  /// across the parallel execute phase.
  std::vector<std::unique_ptr<ParamSet>> rx_store;
  /// Parallel to `work` when the transport is enabled: on-wire bytes of each
  /// slot's delivered downlink frame (per-shard byte attribution).
  std::vector<std::size_t> down_bytes;
  /// (client, session elapsed seconds) of dispatches lost on the downlink:
  /// no work slot survives, but the failed session still advances the clock
  /// of the edge owning the client.
  std::vector<std::pair<std::size_t, double>> failed_downlink_seconds;
  /// Clients whose dispatch found them departed from the fleet (population
  /// churn) — their stale compression residuals are dropped
  /// (docs/COMPRESSION.md).
  std::vector<std::size_t> departed;
};

/// Phase 1 — sequential planning: select / capacity / adapt / dispatch
/// accounting / availability / downlink transport / policy feedback hooks,
/// in slot order. Every round-RNG draw happens here, in the same order for
/// any edge count (select -> capacity -> adapt -> availability), so the
/// cohort, the dispatched models and every failure are independent of how
/// the round is sharded afterwards. When the lifecycle tracker is active,
/// every planned slot gets a sequential dispatch id and its select/downlink
/// phases and early terminal outcomes are recorded on the owning edge's
/// clock.
RoundPlan plan_round(RoundPolicy& policy, const FlRunConfig& config,
                     const std::vector<DeviceSim>* devices,
                     const net::Transport& transport, const Topology& topo,
                     std::size_t round, Rng& rng, RunResult& result,
                     RoundTelemetry& telemetry, LifecycleTracker& lifecycle) {
  RoundPlan plan;
  plan.work.reserve(config.clients_per_round);
  // The global-model version being dispatched.
  const long long version = static_cast<long long>(round) - 1;
  for (std::size_t slot = 0; slot < config.clients_per_round; ++slot) {
    ClientSlot s;
    s.round = round;
    s.slot = slot;
    {
      AFL_PROF_SPAN("engine.select");
      if (!policy.select(s, rng)) break;  // no client available this round
      if (devices) {
        if (s.client >= devices->size()) {
          throw std::logic_error("RoundEngine: policy selected client " +
                                 std::to_string(s.client) + " outside the fleet");
        }
        s.capacity = (*devices)[s.client].capacity(rng);
      } else {
        s.capacity = static_cast<std::size_t>(-1);
      }
    }
    {
      AFL_PROF_SPAN("engine.adapt");
      policy.adapt(s);
    }
    // Unified accounting: the dispatch is on the wire before the server
    // learns anything about the device, so it is recorded up front and
    // becomes pure waste on no-response / no-fit.
    result.comm.record_dispatch(s.params_sent);
    const std::size_t shard = topo.shard_of(s.client);
    const int tag = topo.tag(shard);
    const double lc_base = topo.edges[shard].clock;
    std::size_t lc_id = 0;
    if (lifecycle.active()) {
      lc_id = lifecycle.next_id();
      lifecycle.begin(lc_id, round, s.client, lc_base, tag, version);
    }
    if (devices) {
      // Population churn (src/pop/, docs/POPULATION.md): a departed or dark
      // client is dispatched to (the server cannot know) but never replies.
      // No RNG draw happens for non-present clients, so enabling churn never
      // shifts the streams of the clients that are present.
      const PresenceSchedule::State presence =
          (*devices)[s.client].presence_state(round);
      if (presence != PresenceSchedule::State::kPresent) {
        const char* outcome = presence == PresenceSchedule::State::kAbsent
                                  ? "departed"
                                  : "went_dark";
        if (presence == PresenceSchedule::State::kAbsent) {
          plan.departed.push_back(s.client);
        }
        ++result.failed_trainings;
        telemetry.client_failed();
        trace_dispatch_failure(s, outcome, -1.0, tag);
        lifecycle.drop(lc_id, outcome, lc_base);
        policy.on_no_response(s);
        continue;
      }
    }
    if (devices && !(*devices)[s.client].responds(rng)) {
      ++result.failed_trainings;
      telemetry.client_failed();
      trace_dispatch_failure(s, "no_response", -1.0, tag);
      lifecycle.drop(lc_id, "no_response", lc_base);
      policy.on_no_response(s);
      continue;
    }
    if (!s.trainable) {
      ++result.failed_trainings;
      telemetry.client_failed();
      trace_dispatch_failure(s, "adapt_failed", -1.0, tag);
      lifecycle.drop(lc_id, "adapt_failed", lc_base);
      policy.on_adapt_failure(s);
      continue;
    }
    if (transport.enabled()) {
      // Downlink: the dispatched submodel crosses the simulated channel.
      // Lost frames (all retransmissions exhausted) exclude the client this
      // round exactly like an availability failure. In divergent mode the
      // wire carries the owning edge's local model.
      // The lifecycle tracker is active exactly when the transport is, so
      // lc_id is a real dispatch id here and rides the session to commit.
      net::Transport::Session sess = transport.session(round, s.client);
      sess.set_lifecycle_tags(static_cast<long long>(lc_id), tag, version);
      net::Delivery down = transport.send(
          sess, net::FrameKind::kDispatch,
          topo.divergent()
              ? topo.hier->hier_dispatch_params(s, topo.edges[shard].model)
              : policy.dispatch_params(s),
          s.params_sent);
      record_transfer(result.comm, down.transfer, /*uplink=*/false);
      lifecycle.phase(lc_id, engine::kPhaseDownlink, lc_base,
                      lc_base + sess.elapsed_seconds(), down.transfer.attempts,
                      down.transfer.backoff_seconds, down.transfer.bytes);
      if (!down.transfer.delivered) {
        ++result.failed_trainings;
        result.comm.record_drop();
        obs::metrics().counter("afl.net.drops").inc();
        telemetry.client_failed();
        trace_dispatch_failure(s, "lost_downlink", -1.0, tag);
        lifecycle.drop(lc_id, "lost_downlink", lc_base + sess.elapsed_seconds());
        policy.on_transport_failure(s);
        plan.failed_downlink_seconds.emplace_back(s.client,
                                                  sess.elapsed_seconds());
        continue;
      }
      if (!down.params.empty()) {
        plan.rx_store.push_back(
            std::make_unique<ParamSet>(std::move(down.params)));
        s.rx = plan.rx_store.back().get();
      }
      plan.sessions.push_back(sess);
      plan.down_bytes.push_back(down.transfer.bytes);
    }
    policy.on_accepted(s);
    plan.work.push_back(s);
  }
  return plan;
}

}  // namespace

RoundEngine::RoundEngine(const FlRunConfig& config, const std::vector<DeviceSim>* devices,
                         const pop::Population* population,
                         const hier::HierConfig& hier)
    : config_(config),
      hier_(hier),
      devices_(devices),
      population_(population),
      threads_(config.threads > 0 ? config.threads : ThreadPool::threads_from_env()),
      transport_(config.net ? *config.net : net::NetConfig::from_env(),
                 config.seed) {
  if (hier_.shards == 0) hier_.shards = 1;
  if (hier_.sync_every == 0) hier_.sync_every = 1;
  if (population_ != nullptr && population_->has_channels()) {
    transport_.set_client_channels(population_->channels());
  }
}

RunResult RoundEngine::run(RoundPolicy& policy) {
  Topology topo;
  if (hier_.enabled) {
    topo.hier = dynamic_cast<HierRoundPolicy*>(&policy);
    if (topo.hier == nullptr) {
      throw std::invalid_argument(
          "RoundEngine: " + policy.algorithm_name() +
          " does not implement HierRoundPolicy and cannot run hierarchically");
    }
    topo.sync_every = hier_.sync_every;
  }
  const bool hier = topo.hier != nullptr;
  const bool divergent = topo.divergent();
  topo.edges.resize(hier ? hier_.shards : 1);

  Stopwatch watch;
  RunResult result;
  result.algorithm = policy.algorithm_name();

  obs::ensure_default_http_server();
  trace_run_start(result, config_, threads_, transport_, hier ? "hier" : nullptr,
                  hier ? topo.edges.size() : 0, hier ? topo.sync_every : 0,
                  population_);
  publish_run_status(result, 0, config_.rounds, 0.0, threads_, /*active=*/true);

  ThreadPool pool(threads_);
  obs::metrics().gauge("afl.engine.pool.threads").set(static_cast<double>(pool.size()));
  if (hier) {
    obs::metrics().gauge("afl.hier.shards").set(static_cast<double>(topo.edges.size()));
    obs::metrics().gauge("afl.hier.sync_every").set(static_cast<double>(topo.sync_every));
  }
  static obs::Histogram& queue_hist =
      obs::metrics().histogram("afl.engine.client.queue.seconds");
  static obs::Histogram& train_hist =
      obs::metrics().histogram("afl.engine.client.train.seconds");

  Rng rng(config_.seed);
  policy.init_global(rng);
  if (hier) {
    for (Edge& edge : topo.edges) edge.fold.emplace(topo.hier->hier_global());
  }
  // Root merge window of a hierarchical run: every edge's round partial
  // lands here; a root sync finalizes it against the global. The merge is
  // integer addition, so it is exact and independent of shard count or order.
  ShardPartial window;

  // Dispatch-lifecycle tracing (afl.trace.v2): active only when the run
  // models time, so transportless traces stay byte-identical to v1 builds.
  // Each dispatch's timebase is its owning edge's clock.
  LifecycleTracker lifecycle(transport_.enabled());

  // Sparsifying uplink + error feedback (src/compress/, docs/COMPRESSION.md).
  // Disabled unless the transport's uplink codec is top-k; disabled it is a
  // pure no-op and runs stay byte-identical. Residual rows are per client
  // and each client maps to one edge, so the shard-major commit order cannot
  // perturb the store's state.
  compress::Compressor compressor(transport_, compress::CompressConfig::from_env());

  // Snapshot/resume (docs/POPULATION.md). Resume restores the partial
  // result, round RNG, lifecycle id counter, edge clocks and policy state
  // over the freshly built structure from init_global(), so round k+1 starts
  // bit-identically to the uninterrupted run.
  const engine::SnapshotPlan snap = engine::SnapshotPlan::resolve(config_);
  std::size_t start_round = 1;
  if (snap.resume_enabled()) {
    SnapshotReader reader(snap.resume_from);
    const std::size_t at = engine::read_header(reader, engine::kSyncSnapshotFormat,
                                               config_, result.algorithm);
    engine::read_result(reader, result);
    engine::read_rng(reader, rng);
    lifecycle.set_last_id(reader.u64());
    const std::uint64_t n_edges = reader.u64();
    if (n_edges != topo.edges.size()) {
      throw std::runtime_error(
          "snapshot: shard count mismatch (file has " + std::to_string(n_edges) +
          " edges, run has " + std::to_string(topo.edges.size()) + ")");
    }
    for (Edge& edge : topo.edges) edge.clock = reader.f64();
    if (compressor.enabled()) compressor.restore(reader);
    policy.restore_state(reader);
    reader.expect_end();
    start_round = at + 1;
  }
  // At a sync boundary every edge tracks the freshly synced global.
  const auto sync_edge_models = [&] {
    if (!divergent) return;
    for (Edge& edge : topo.edges) edge.model = topo.hier->hier_global();
  };
  sync_edge_models();

  const auto evaluate = [&](std::size_t round) {
    AFL_PROF_SPAN("engine.evaluate");
    policy.evaluate(round, result);
    result.curve.push_back({round, result.final_full_acc, result.final_avg_acc,
                            result.comm.waste_rate(),
                            result.comm.round_waste_rate()});
  };
  const auto finish = [&](std::size_t round) {
    result.wall_seconds = watch.seconds();
    result.sim_seconds = topo.now();
    publish_run_status(result, round, config_.rounds, result.wall_seconds,
                       threads_, /*active=*/false, &lifecycle.blame());
    trace_run_end(result, transport_);
    return std::move(result);  // every call site returns it straight away
  };

  const double deadline = transport_.config().round_deadline_s;
  for (std::size_t round = start_round; round <= config_.rounds; ++round) {
    // Held in an optional so it can be flushed (destroyed) before the status
    // publish — the telemetry destructor appends this round's metrics record.
    std::optional<RoundTelemetry> telemetry(std::in_place, result, round);
    telemetry->set_net_enabled(transport_.enabled());
    if (population_ != nullptr) {
      engine::trace_churn(round, population_->round_churn(round));
    }
    policy.begin_round(round, rng);

    // Phase 1 (sequential planning). Transport draws use per-(round, client)
    // Sessions, so they never perturb the round RNG.
    RoundPlan plan = plan_round(policy, config_, devices_, transport_, topo,
                                round, rng, result, *telemetry, lifecycle);
    std::vector<ClientSlot>& work = plan.work;
    if (compressor.enabled()) {
      for (const std::size_t client : plan.departed) compressor.on_departed(client);
    }
    // Divergent identity path: train on the owning edge's model by pointing
    // slot.rx at it (execute() splits rx down to back_index).
    if (divergent && !transport_.enabled()) {
      for (ClientSlot& s : work) s.rx = &topo.edges[topo.shard_of(s.client)].model;
    }

    // Phase 2 (parallel execution): per-slot work runs on the pool with a
    // derived RNG that carries no shard word; nothing here touches shared
    // mutable state.
    std::vector<TrainOutcome> outcomes(work.size());
    std::vector<double> queue_seconds(work.size(), 0.0);
    std::vector<double> exec_seconds(work.size(), 0.0);
    Stopwatch exec_watch;
    {
      AFL_PROF_SPAN("engine.train");
      pool.parallel_for(work.size(), [&](std::size_t i) {
        // Worker-thread span: lands on the pool thread's own span stack, so
        // kernel spans nested under it attribute correctly per thread.
        AFL_PROF_SPAN("engine.client_train");
        queue_seconds[i] = exec_watch.seconds();
        Stopwatch item_watch;
        Rng crng = Rng::derive(config_.seed, work[i].round, work[i].client);
        outcomes[i] = policy.execute(work[i], crng);
        exec_seconds[i] = item_watch.seconds();
      });
    }
    const double exec_wall = exec_watch.seconds();

    // Phase 3 (sequential commit): shard-major, slot order within each edge.
    // Uploads, comm accounting, telemetry, traces; each delivered update goes
    // to the policy (flat) or folds into its edge by rvalue (hier).
    double round_elapsed_max = 0.0;  // slowest client across all edges
    for (std::size_t shard = 0; shard < topo.edges.size(); ++shard) {
      Edge& edge = topo.edges[shard];
      const int tag = topo.tag(shard);
      double shard_elapsed = 0.0;  // this edge's slowest client session
      for (std::size_t i = 0; i < work.size(); ++i) {
        const ClientSlot& s = work[i];
        if (topo.shard_of(s.client) != shard) continue;
        std::size_t bytes_up = 0;
        if (transport_.enabled()) {
          // Uplink: the trained update crosses the channel on the same
          // session clock as the downlink, plus a deterministic compute
          // term. Updates lost after all retries, or delivered past the
          // round deadline (stragglers), are never aggregated.
          net::Transport::Session& sess = plan.sessions[i];
          const auto lc_id = static_cast<std::size_t>(sess.dispatch_id());
          const double down_end = sess.elapsed_seconds();
          sess.clock().charge_compute(transport_.compute_seconds(s.params_back));
          const double compute_end = sess.elapsed_seconds();
          ParamSet upref;
          if (compressor.enabled()) {
            // Turn the trained parameters into a masked top-k delta against
            // what this slot imported; the transport's sparse codec ships it.
            upref = policy.upload_reference(s);
            compressor.encode_update(s.client, outcomes[i].params, upref);
          }
          net::Delivery up = transport_.send(sess, net::FrameKind::kReturn,
                                             outcomes[i].params, s.params_back);
          record_transfer(result.comm, up.transfer, /*uplink=*/true);
          const double uplink_end = sess.elapsed_seconds();
          lifecycle.phase(lc_id, engine::kPhaseCompute, edge.clock + down_end,
                          edge.clock + compute_end);
          lifecycle.phase(lc_id, engine::kPhaseUplink, edge.clock + compute_end,
                          edge.clock + uplink_end, up.transfer.attempts,
                          up.transfer.backoff_seconds, up.transfer.bytes);
          shard_elapsed = std::max(shard_elapsed, sess.elapsed_seconds());
          bytes_up = up.transfer.bytes;
          const bool lost = !up.transfer.delivered;
          if (lost || (deadline > 0.0 && sess.elapsed_seconds() > deadline)) {
            const char* outcome = lost ? "lost_uplink" : "deadline";
            ++result.failed_trainings;
            if (lost) {
              result.comm.record_drop();
              obs::metrics().counter("afl.net.drops").inc();
            } else {
              result.comm.record_straggler();
              obs::metrics().counter("afl.net.stragglers").inc();
            }
            telemetry->client_failed();
            trace_dispatch_failure(s, outcome, -1.0, tag);
            lifecycle.drop(lc_id, outcome, edge.clock + uplink_end);
            // Error feedback: the discarded masked delta returns to the
            // client's residual so its mass ships with the next update.
            compressor.reclaim(s.client, outcomes[i].params);
            policy.on_transport_failure(s);
            continue;
          }
          lifecycle.arrived(lc_id, edge.clock + uplink_end);
          if (!up.params.empty()) outcomes[i].params = std::move(up.params);
          compressor.decode_update(outcomes[i].params, upref);
        }
        result.comm.record_return(s.params_back);
        telemetry->add_train_seconds(outcomes[i].stats.seconds);
        telemetry->client_ok();
        queue_hist.record(queue_seconds[i]);
        train_hist.record(exec_seconds[i]);
        if (obs::trace_enabled()) {
          obs::TraceEvent ev("dispatch");
          ev.field("round", static_cast<std::uint64_t>(s.round))
              .field("client", static_cast<std::uint64_t>(s.client))
              .field("sent", static_cast<std::uint64_t>(s.sent_index))
              .field("params", static_cast<std::uint64_t>(s.params_sent))
              .field("outcome", "ok");
          if (hier) ev.field("shard", static_cast<std::uint64_t>(shard));
          ev.field("back", static_cast<std::uint64_t>(s.back_index))
              .field("params_back", static_cast<std::uint64_t>(s.params_back))
              .field("train_ms", outcomes[i].stats.seconds * 1e3)
              .field("dur_ms", exec_seconds[i] * 1e3);
          if (hier && transport_.enabled()) {
            ev.field("bytes_down", static_cast<std::uint64_t>(plan.down_bytes[i]))
                .field("bytes_up", static_cast<std::uint64_t>(bytes_up));
          }
          ev.emit();
        }
        if (hier) {
          edge.fold->add(
              ClientUpdate{std::move(outcomes[i].params), outcomes[i].samples});
        } else {
          policy.commit(s, std::move(outcomes[i]));
        }
      }
      for (const auto& [client, elapsed] : plan.failed_downlink_seconds) {
        if (topo.shard_of(client) == shard) {
          shard_elapsed = std::max(shard_elapsed, elapsed);
        }
      }
      round_elapsed_max = std::max(round_elapsed_max, shard_elapsed);
      if (transport_.enabled()) {
        // The edge's round ends at its own slowest client (deadline-capped:
        // the server stops waiting there); edges progress independently
        // between syncs. That barrier commits the edge's buffered updates.
        edge.clock += deadline > 0.0 ? std::min(deadline, shard_elapsed)
                                     : shard_elapsed;
        lifecycle.commit_window(edge.clock, tag,
                                /*commit_version=*/static_cast<long long>(round));
      }
    }
    if (!work.empty() && exec_wall > 0.0) {
      double busy = 0.0;
      for (double s : exec_seconds) busy += s;
      obs::metrics()
          .gauge("afl.engine.pool.utilization")
          .set(busy / (exec_wall * static_cast<double>(pool.size())));
    }

    // Phase 4 (aggregate, root sync when due): sequential. Between syncs the
    // root global is stale, so evaluation and snapshots wait for a sync
    // round; flat runs sync every round.
    const bool sync_round =
        round % topo.sync_every == 0 || round == config_.rounds;
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch agg_watch;
      if (!hier) {
        policy.aggregate(round);
      } else {
        static obs::Histogram& shard_updates_hist =
            obs::metrics().histogram("afl.hier.shard.round.updates");
        for (Edge& edge : topo.edges) {
          ShardPartial part = edge.fold->take_partial();
          shard_updates_hist.record(static_cast<double>(part.updates));
          if (divergent && part.updates > 0) {
            // Elements the edge's clients did not cover keep its previous
            // local value.
            edge.model = finalize_partial(part, edge.model);
          }
          merge_partials(window, std::move(part));
        }
      }
      if (hier && sync_round) {
        static obs::Histogram& merge_hist =
            obs::metrics().histogram("afl.hier.merge.seconds");
        static obs::Counter& syncs_counter = obs::metrics().counter("afl.hier.syncs");
        Stopwatch merge_watch;
        // Elements no edge covered during the window keep the global value.
        topo.hier->hier_set_global(finalize_partial(window, topo.hier->hier_global()));
        window = ShardPartial{};
        sync_edge_models();
        syncs_counter.inc();
        merge_hist.record(merge_watch.seconds());
        if (transport_.enabled()) {
          // A root sync is a barrier: every edge clock aligns at the maximum.
          const double vmax = topo.now();
          for (std::size_t s = 0; s < topo.edges.size(); ++s) {
            const double before = topo.edges[s].clock;
            if (before < vmax) {
              lifecycle.root_wait(round, static_cast<int>(s), before, vmax);
            }
            topo.edges[s].clock = vmax;
          }
          lifecycle.root_merge(round, vmax);
        }
      }
      telemetry->add_aggregate_seconds(agg_watch.seconds());
    }
    policy.end_round(round, *telemetry);

    if (transport_.enabled()) {
      telemetry->set_sim_time(deadline > 0.0 ? std::min(deadline, round_elapsed_max)
                                             : round_elapsed_max,
                              topo.now());
    }

    if (sync_round && config_.eval_every != 0 &&
        (round % config_.eval_every == 0 || round == config_.rounds)) {
      Stopwatch eval_watch;
      evaluate(round);
      telemetry->add_eval_seconds(eval_watch.seconds());
      if (transport_.enabled()) {
        result.note_time_to_acc(result.final_full_acc, topo.now(), round);
        trace_eval_point(round, topo.now(), result.final_full_acc,
                         result.final_avg_acc);
      }
    }
    telemetry.reset();  // flush this round's metrics record
    if (sync_round) obs::sample_rss();  // same memory cadence as async flushes
    publish_run_status(result, round, config_.rounds, watch.seconds(), threads_,
                       /*active=*/round < config_.rounds, &lifecycle.blame());

    // Snapshots (and stop-after) fire only on sync rounds: between syncs the
    // edges hold un-merged coverage mass the format deliberately omits.
    if (sync_round && snap.due(round)) {
      SnapshotWriter w(snap.snapshot_path);
      engine::write_header(w, engine::kSyncSnapshotFormat, config_,
                           result.algorithm, round);
      engine::write_result(w, result);
      engine::write_rng(w, rng);
      w.u64(lifecycle.last_id());
      w.u64(topo.edges.size());
      for (const Edge& edge : topo.edges) w.f64(edge.clock);
      if (compressor.enabled()) compressor.snapshot(w);
      policy.snapshot_state(w);
      w.finish();
    }
    if (sync_round && snap.stop_after(round)) {
      // Killed-at-round-k semantics: hand back the partial result; a later
      // run resumes from the snapshot and reproduces the full run exactly.
      return finish(round);
    }
  }

  if (result.curve.empty()) evaluate(config_.rounds);
  obs::sample_rss();
  return finish(config_.rounds);
}

}  // namespace afl
