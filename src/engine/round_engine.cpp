#include "engine/round_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "async/aggregator.hpp"
#include "async/virtual_clock.hpp"
#include "compress/compressor.hpp"
#include "engine/lifecycle.hpp"
#include "engine/snapshot.hpp"
#include "engine/telemetry.hpp"
#include "fl/evaluate.hpp"
#include "fl/shard_aggregator.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/rss.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl {

using async::Event;
using async::EventKind;
using engine::LifecycleTracker;
using engine::publish_run_status;
using engine::record_transfer;
using engine::trace_eval_point;
using engine::trace_run_end;
using engine::trace_run_start;

namespace {

/// One aggregator of the round topology. `clock` is the edge's simulated
/// time: advanced by its own slowest client each synchronous round
/// (deadline-capped), or set to the flush instant in async mode. The fold
/// and the local model exist only in hierarchical runs.
struct Edge {
  double clock = 0.0;
  std::optional<ShardAggregator> fold;
  /// Divergent mode (sync_every > 1): the edge-local model its clients
  /// train on between root syncs.
  ParamSet model;
};

/// S edges, client c owned by edge c % S. A flat or async run is the single
/// untagged edge aggregating through the policy's commit()/aggregate().
struct Topology {
  bool hier = false;
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

/// How a dispatch ended without committing (kNone: still on its way, or
/// committed). Serialized as an integer with in-flight async dispatches —
/// append only.
enum class Fail : std::uint8_t {
  kNone,
  kNoResponse,
  kDeparted,  // population churn: client left the fleet (docs/POPULATION.md)
  kWentDark,  // population churn: client temporarily unreachable
  kAdaptFailed,
  kLostDownlink,
  kLostUplink,
  kDeadline,
  kStale,
};

/// The failure-terminal table, indexed by Fail: the trace/lifecycle outcome,
/// the counter the failure feeds, and the policy feedback hook (null: none).
struct Terminal {
  enum class Tally { kNone, kDrop, kStraggler, kStale };
  const char* outcome;
  Tally tally;
  void (RoundPolicy::*hook)(const ClientSlot&);
};
constexpr Terminal kTerminals[] = {
    {"ok", Terminal::Tally::kNone, nullptr},
    {"no_response", Terminal::Tally::kNone, &RoundPolicy::on_no_response},
    {"departed", Terminal::Tally::kNone, &RoundPolicy::on_no_response},
    {"went_dark", Terminal::Tally::kNone, &RoundPolicy::on_no_response},
    {"adapt_failed", Terminal::Tally::kNone, &RoundPolicy::on_adapt_failure},
    {"lost_downlink", Terminal::Tally::kDrop, &RoundPolicy::on_transport_failure},
    {"lost_uplink", Terminal::Tally::kDrop, &RoundPolicy::on_transport_failure},
    {"deadline", Terminal::Tally::kStraggler, &RoundPolicy::on_transport_failure},
    {"stale", Terminal::Tally::kStale, nullptr},
};

/// One dispatch on its way through the pipeline. A synchronous round holds
/// its dispatches in a vector; the async event loop keys in-flight ones by
/// id in a std::map, so training waves iterate in dispatch order.
struct Dispatch {
  ClientSlot slot;
  std::size_t id = 0;  // lifecycle dispatch id (0 when no tracker is active)
  std::size_t shard = 0;
  std::size_t version = 0;  // global version the dispatch was split from
  double t0 = 0.0;          // dispatch instant on the owning edge / event clock
  Fail fail = Fail::kNone;
  net::Transport::Session sess;
  std::unique_ptr<ParamSet> rx;  // decoded downlink payload (slot.rx target)
  std::size_t down_bytes = 0;    // on-wire bytes of the delivered downlink
  std::size_t up_bytes = 0;      // on-wire bytes of every upload attempt
  std::size_t reuploads_left = 0;
  bool trained = false;
  TrainOutcome outcome;
  double queue_s = 0.0;  // wall: wave start -> execute start
  double exec_s = 0.0;   // wall: execute()
  /// Sparse uplink (src/compress/): the reference the masked delta was coded
  /// against, frozen at encode time so async staleness cannot skew decoding.
  std::unique_ptr<ParamSet> upref;
};

/// Appends the leading columns every `dispatch` trace record shares: round,
/// client, sent, params, outcome, and shard when `shard` >= 0 (hierarchical
/// runs only: afl-insight treats a run mixing tagged and untagged dispatches
/// as bad data).
void dispatch_fields(obs::TraceEvent& ev, const ClientSlot& s, const char* outcome,
                     int shard) {
  ev.field("round", static_cast<std::uint64_t>(s.round))
      .field("client", static_cast<std::uint64_t>(s.client))
      .field("sent", static_cast<std::uint64_t>(s.sent_index))
      .field("params", static_cast<std::uint64_t>(s.params_sent))
      .field("outcome", outcome);
  if (shard >= 0) ev.field("shard", static_cast<std::uint64_t>(shard));
}

// ---- In-flight serialization (async snapshots, docs/POPULATION.md) --------
// An async snapshot is cut at a flush boundary, so the aggregation buffer is
// empty but up to `concurrency` dispatches are mid-flight: their slots,
// channel sessions (RNG position + clock), decoded downlinks and — when the
// lazy training wave already ran — trained outcomes all have to survive
// verbatim for the resumed event sequence to be bit-identical.

void write_slot(SnapshotWriter& w, const ClientSlot& s) {
  w.u64(s.round);
  w.u64(s.slot);
  w.u64(s.client);
  w.u64(s.capacity);
  w.u64(s.sent_index);
  w.u64(s.params_sent);
  w.u64(s.trainable ? 1 : 0);
  w.u64(s.back_index);
  w.u64(s.params_back);
}

void read_slot(SnapshotReader& r, ClientSlot& s) {
  s.round = r.u64();
  s.slot = r.u64();
  s.client = r.u64();
  s.capacity = r.u64();
  s.sent_index = r.u64();
  s.params_sent = r.u64();
  s.trainable = r.u64() != 0;
  s.back_index = r.u64();
  s.params_back = r.u64();
}

void write_dispatch(SnapshotWriter& w, const Dispatch& d, bool compress_on) {
  w.u64(d.id);
  write_slot(w, d.slot);
  engine::write_rng(w, d.sess.rng_state());
  w.u64(d.sess.round());
  w.u64(d.sess.client());
  w.f64(d.sess.elapsed_seconds());
  w.u64(d.sess.clock().compute_charged() ? 1 : 0);
  w.u64(d.version);
  w.f64(d.t0);
  w.u64(d.reuploads_left);
  w.u64(static_cast<std::uint64_t>(d.fail));
  w.u64(d.trained ? 1 : 0);
  w.u64(d.rx ? 1 : 0);
  if (d.rx) w.params(*d.rx);
  if (d.trained) {
    w.params(d.outcome.params);
    w.u64(d.outcome.samples);
    w.f64(d.outcome.stats.mean_loss);
    w.u64(d.outcome.stats.samples_seen);
    w.f64(d.outcome.stats.seconds);
  }
  if (compress_on) {
    w.u64(d.upref ? 1 : 0);
    if (d.upref) w.params(*d.upref);
  }
}

Dispatch read_dispatch(SnapshotReader& r, bool compress_on) {
  Dispatch d;
  d.id = static_cast<std::size_t>(r.u64());
  read_slot(r, d.slot);
  const Rng::State st = engine::read_rng(r);
  const std::size_t sess_round = r.u64();
  const std::size_t sess_client = r.u64();
  const double elapsed = r.f64();
  const bool compute_charged = r.u64() != 0;
  d.sess.restore(sess_round, sess_client, st, elapsed, compute_charged);
  d.version = r.u64();
  d.t0 = r.f64();
  d.reuploads_left = r.u64();
  const std::uint64_t fail = r.u64();
  if (fail >= std::size(kTerminals)) {
    throw std::runtime_error("snapshot: in-flight dispatch " + std::to_string(d.id) +
                             " has unknown outcome " + std::to_string(fail));
  }
  d.fail = static_cast<Fail>(fail);
  d.trained = r.u64() != 0;
  d.sess.set_lifecycle_tags(static_cast<long long>(d.id), -1,
                            static_cast<long long>(d.version));
  if (r.u64() != 0) {
    d.rx = std::make_unique<ParamSet>(r.params());
    d.slot.rx = d.rx.get();
  }
  if (d.trained) {
    d.outcome.params = r.params();
    d.outcome.samples = r.u64();
    d.outcome.stats.mean_loss = r.f64();
    d.outcome.stats.samples_seen = r.u64();
    d.outcome.stats.seconds = r.f64();
  }
  if (compress_on && r.u64() != 0) {
    d.upref = std::make_unique<ParamSet>(r.params());
  }
  return d;
}

void require_finite_non_negative(const char* name, double v) {
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string("RoundEngine: async ") + name +
                                " must be finite and >= 0 (got " +
                                std::to_string(v) + ")");
  }
}

}  // namespace

/// One run of the engine: the shared per-dispatch pipeline plus the two
/// loops that drive it (rounds() and events()).
class RoundEngine::Run {
 public:
  Run(const RoundEngine& engine, RoundPolicy& policy);

  /// Synchronous rounds over the edge topology.
  RunResult rounds();
  /// Buffered async: the discrete-event loop.
  RunResult events();

 private:
  // ---- the per-dispatch pipeline -----------------------------------------
  /// Opens a dispatch for the pre-filled slot (round, slot): select ->
  /// capacity -> adapt -> dispatch accounting -> lifecycle begin, then
  /// admit(). nullopt when the policy has no client to offer. A dispatch that
  /// failed on the way comes back with `fail` set; the caller runs its
  /// terminal (sync: now, async: after the failure timeout).
  std::optional<Dispatch> open(ClientSlot s, std::size_t version,
                               std::size_t presence_round);
  /// presence -> availability -> trainable -> downlink -> compute charge.
  /// Every round-RNG draw happens in open(), in the same order in both
  /// modes and for any edge count.
  Fail admit(Dispatch& d, std::size_t presence_round);
  /// Runs execute() for every dispatch of `wave` on the worker pool.
  void train(const std::vector<Dispatch*>& wave);
  /// Uplink starting at `t_start`: encode once (sparse codec), send, and
  /// re-send up to the dispatch's re-upload budget after a backoff. Records
  /// the uplink phase and returns its end instant; sets d.fail when the
  /// frame is lost or delivered past `deadline` (> 0: a straggler).
  double upload(Dispatch& d, double t_start, double deadline);
  /// The failure terminal of d.fail at instant `t`: counters, trace,
  /// lifecycle drop, error-feedback reclaim, policy hook.
  void terminate(Dispatch& d, double t);
  /// The ok terminal at arrival instant `t`: accounting, telemetry (async:
  /// the staleness discount), trace, decode, then the update goes to the
  /// owning edge's fold (hier) or the policy's commit().
  void settle(Dispatch& d, double t);

  // ---- windows (a round, or an async flush window) ------------------------
  void open_window(std::size_t round);
  void evaluate(std::size_t round);
  /// Evaluation when due, the metrics record, status, and the snapshot when
  /// due. Evaluation, RSS sampling and snapshots happen only at sync rounds.
  void close_window(std::size_t round, bool sync_round);
  void sync_edge_models();
  /// Restores a snapshot when resuming; returns its round (0 = fresh start).
  std::size_t resume();
  void write_snapshot(std::size_t round);
  RunResult finish(std::size_t round);
  RunResult complete();

  const RoundEngine& e_;
  RoundPolicy& policy_;
  const bool async_;
  Topology topo_;
  Stopwatch watch_;
  RunResult result_;
  ThreadPool pool_;
  Rng rng_;
  // Dispatch-lifecycle tracing (afl.trace.v2): active only when the run
  // models time (transport or async), so transportless traces stay
  // byte-identical to v1 builds. Its id counter numbers every dispatch.
  LifecycleTracker lifecycle_;
  // Sparsifying uplink + error feedback (src/compress/,
  // docs/COMPRESSION.md). Disabled unless the transport's uplink codec is
  // top-k; disabled it is a pure no-op. Residual rows are per client and a
  // client is never in flight twice, so commit order cannot perturb them.
  compress::Compressor compressor_;
  engine::SnapshotPlan snap_;
  // Held in an optional so it can be flushed (destroyed) before the status
  // publish — the telemetry destructor appends the window's metrics record.
  std::optional<RoundTelemetry> telemetry_;
  // Root merge window of a hierarchical run: every edge's round partial
  // lands here; a root sync finalizes it against the global.
  ShardPartial window_;
  // Async event-loop state.
  async::VirtualClock clock_;
  async::EventQueue queue_;
  async::AsyncAggregator agg_;
  std::map<std::size_t, Dispatch> pending_;
};

RoundEngine::Run::Run(const RoundEngine& engine, RoundPolicy& policy)
    : e_(engine),
      policy_(policy),
      async_(engine.async_.enabled),
      pool_(engine.threads_),
      rng_(engine.config_.seed),
      lifecycle_(async_ || engine.transport_.enabled()),
      compressor_(engine.transport_, compress::CompressConfig::from_env()),
      snap_(engine::SnapshotPlan::resolve(engine.config_)),
      agg_(engine.async_.buffer_size, engine.async_.staleness_alpha,
           engine.async_.max_staleness) {
  topo_.hier = e_.hier_.enabled;
  topo_.sync_every = topo_.hier ? e_.hier_.sync_every : 1;
  topo_.edges.resize(topo_.hier ? e_.hier_.shards : 1);
  result_.algorithm = policy_.algorithm_name() + (async_ ? "+Async" : "");

  obs::ensure_default_http_server();
  trace_run_start(result_, e_.config_, e_.threads_, e_.transport_,
                  topo_.hier ? "hier" : async_ ? "async" : nullptr,
                  topo_.hier ? topo_.edges.size() : 0,
                  topo_.hier ? topo_.sync_every : 0, e_.population_);
  publish_run_status(result_, 0, e_.config_.rounds, 0.0, e_.threads_,
                     /*active=*/true);
  obs::metrics().gauge("afl.engine.pool.threads").set(static_cast<double>(pool_.size()));
  if (topo_.hier) {
    obs::metrics().gauge("afl.hier.shards").set(static_cast<double>(topo_.edges.size()));
    obs::metrics().gauge("afl.hier.sync_every").set(static_cast<double>(topo_.sync_every));
  }

  policy_.init_global(rng_);
  if (topo_.hier) {
    for (Edge& edge : topo_.edges) edge.fold.emplace(policy_.hier_global());
  }
}

std::optional<Dispatch> RoundEngine::Run::open(ClientSlot s, std::size_t version,
                                               std::size_t presence_round) {
  const std::vector<DeviceSim>* devices = e_.devices_;
  {
    AFL_PROF_SPAN("engine.select");
    if (!policy_.select(s, rng_)) return std::nullopt;  // no client available
    if (devices) {
      if (s.client >= devices->size()) {
        throw std::logic_error("RoundEngine: policy selected client " +
                               std::to_string(s.client) + " outside the fleet");
      }
      s.capacity = (*devices)[s.client].capacity(rng_);
    } else {
      s.capacity = static_cast<std::size_t>(-1);
    }
  }
  {
    AFL_PROF_SPAN("engine.adapt");
    policy_.adapt(s);
  }
  // Unified accounting: the dispatch is on the wire before the server
  // learns anything about the device, so it is recorded up front and
  // becomes pure waste on no-response / no-fit.
  result_.comm.record_dispatch(s.params_sent);
  Dispatch d;
  d.slot = s;
  d.shard = topo_.shard_of(s.client);
  d.version = version;
  d.t0 = async_ ? clock_.now() : topo_.edges[d.shard].clock;
  d.reuploads_left = async_ ? e_.async_.max_reuploads : 0;
  if (lifecycle_.active()) {
    d.id = lifecycle_.next_id();
    lifecycle_.begin(d.id, s.round, s.client, d.t0, topo_.tag(d.shard),
                     static_cast<long long>(version));
  }
  d.fail = admit(d, presence_round);
  if (d.fail == Fail::kNone) policy_.on_accepted(d.slot);
  return d;
}

Fail RoundEngine::Run::admit(Dispatch& d, std::size_t presence_round) {
  const ClientSlot& s = d.slot;
  if (e_.devices_) {
    // Population churn (src/pop/, docs/POPULATION.md): a departed or dark
    // client is dispatched to (the server cannot know) but never replies.
    // No RNG draw happens for non-present clients, so enabling churn never
    // shifts the streams of the clients that are present.
    const DeviceSim& device = (*e_.devices_)[s.client];
    switch (device.presence_state(presence_round)) {
      case PresenceSchedule::State::kAbsent:
        // Its stale compression residuals go (docs/COMPRESSION.md).
        compressor_.on_departed(s.client);
        return Fail::kDeparted;
      case PresenceSchedule::State::kDark:
        return Fail::kWentDark;
      case PresenceSchedule::State::kPresent:
        break;
    }
    if (!device.responds(rng_)) return Fail::kNoResponse;
  }
  if (!s.trainable) return Fail::kAdaptFailed;
  if (!e_.transport_.enabled()) {
    // Divergent identity path: train on the owning edge's model
    // (execute() splits rx down to back_index).
    if (topo_.divergent()) d.slot.rx = &topo_.edges[d.shard].model;
    return Fail::kNone;
  }
  // Downlink: the dispatched submodel crosses the simulated channel; in
  // divergent mode the wire carries the owning edge's local model. Lost
  // frames (all retransmissions exhausted) exclude the client exactly like
  // an availability failure.
  const net::Transport& transport = e_.transport_;
  d.sess = transport.session(s.round, s.client);
  d.sess.set_lifecycle_tags(static_cast<long long>(d.id), topo_.tag(d.shard),
                            static_cast<long long>(d.version));
  net::Delivery down = transport.send(
      d.sess, net::FrameKind::kDispatch,
      topo_.divergent() ? policy_.hier_dispatch_params(s, topo_.edges[d.shard].model)
                        : policy_.dispatch_params(s),
      s.params_sent);
  record_transfer(result_.comm, down.transfer, /*uplink=*/false);
  const double down_end = d.t0 + d.sess.elapsed_seconds();
  lifecycle_.phase(d.id, engine::kPhaseDownlink, d.t0, down_end,
                   down.transfer.attempts, down.transfer.backoff_seconds,
                   down.transfer.bytes);
  if (!down.transfer.delivered) return Fail::kLostDownlink;
  d.down_bytes = down.transfer.bytes;
  if (!down.params.empty()) {
    d.rx = std::make_unique<ParamSet>(std::move(down.params));
    d.slot.rx = d.rx.get();
  }
  // Local compute, charged exactly once per dispatch (ClientClock): async
  // re-uploads re-pay transfer only, never the training.
  d.sess.clock().charge_compute(transport.compute_seconds(s.params_back));
  lifecycle_.phase(d.id, engine::kPhaseCompute, down_end,
                   d.t0 + d.sess.elapsed_seconds());
  return Fail::kNone;
}

void RoundEngine::Run::train(const std::vector<Dispatch*>& wave) {
  Stopwatch exec_watch;
  {
    AFL_PROF_SPAN("engine.train");
    pool_.parallel_for(wave.size(), [&](std::size_t i) {
      // Worker-thread span: lands on the pool thread's own span stack, so
      // kernel spans nested under it attribute correctly per thread.
      AFL_PROF_SPAN("engine.client_train");
      Dispatch& d = *wave[i];
      d.queue_s = exec_watch.seconds();
      Stopwatch item_watch;
      Rng crng = Rng::derive(e_.config_.seed, d.slot.round, d.slot.client);
      d.outcome = policy_.execute(d.slot, crng);
      d.exec_s = item_watch.seconds();
      d.trained = true;
    });
  }
  const double exec_wall = exec_watch.seconds();
  if (!wave.empty() && exec_wall > 0.0) {
    double busy = 0.0;
    for (const Dispatch* d : wave) busy += d->exec_s;
    obs::metrics()
        .gauge("afl.engine.pool.utilization")
        .set(busy / (exec_wall * static_cast<double>(pool_.size())));
  }
}

double RoundEngine::Run::upload(Dispatch& d, double t_start, double deadline) {
  if (compressor_.enabled() && !d.upref) {
    // Turn the trained parameters into a masked top-k delta against what
    // this slot imported. Encoded exactly once per dispatch: re-uploads
    // re-ship the same delta, and a resumed dispatch keeps its reference.
    d.upref = std::make_unique<ParamSet>(policy_.upload_reference(d.slot));
    compressor_.encode_update(d.slot.client, d.outcome.params, *d.upref);
  }
  const double compute_end = d.sess.elapsed_seconds();
  std::size_t attempts = 0;
  double backoff_s = 0.0;
  net::Delivery up;
  for (;;) {
    up = e_.transport_.send(d.sess, net::FrameKind::kReturn, d.outcome.params,
                            d.slot.params_back);
    record_transfer(result_.comm, up.transfer, /*uplink=*/true);
    attempts += up.transfer.attempts;
    backoff_s += up.transfer.backoff_seconds;
    d.up_bytes += up.transfer.bytes;
    if (up.transfer.delivered || d.reuploads_left == 0) break;
    // The client still holds its trained update: re-send the frame after a
    // backoff. Transfer time accrues; compute does not.
    --d.reuploads_left;
    d.sess.add_seconds(e_.async_.reupload_backoff_s);
    backoff_s += e_.async_.reupload_backoff_s;
  }
  // Sync phases sit on the owning edge's clock at the dispatch instant; an
  // async upload starts at its event instant.
  const double t_end = async_ ? t_start + (d.sess.elapsed_seconds() - compute_end)
                              : d.t0 + d.sess.elapsed_seconds();
  lifecycle_.phase(d.id, engine::kPhaseUplink, t_start, t_end, attempts, backoff_s,
                   d.up_bytes);
  if (!up.transfer.delivered) {
    d.fail = Fail::kLostUplink;
  } else if (deadline > 0.0 && d.sess.elapsed_seconds() > deadline) {
    d.fail = Fail::kDeadline;
  } else if (!up.params.empty()) {
    d.outcome.params = std::move(up.params);
  }
  return t_end;
}

void RoundEngine::Run::terminate(Dispatch& d, double t) {
  const Terminal& term = kTerminals[static_cast<std::size_t>(d.fail)];
  ++result_.failed_trainings;
  telemetry_->client_failed();
  switch (term.tally) {
    case Terminal::Tally::kNone:
      break;
    case Terminal::Tally::kDrop:
      result_.comm.record_drop();
      obs::metrics().counter("afl.net.drops").inc();
      break;
    case Terminal::Tally::kStraggler:
      result_.comm.record_straggler();
      obs::metrics().counter("afl.net.stragglers").inc();
      break;
    case Terminal::Tally::kStale:
      obs::metrics().counter("afl.async.stale.discards").inc();
      break;
  }
  if (obs::trace_enabled()) {
    obs::TraceEvent ev("dispatch");
    dispatch_fields(ev, d.slot, term.outcome, topo_.tag(d.shard));
    if (async_) ev.field("virtual_time", clock_.now());
    ev.field("dur_ms", 0.0);
    ev.emit();
  }
  lifecycle_.drop(d.id, term.outcome, t);
  // Error feedback: a discarded masked delta returns to the client's
  // residual so its mass ships with the next update.
  if (d.upref) compressor_.reclaim(d.slot.client, d.outcome.params);
  if (term.hook) (policy_.*term.hook)(d.slot);
}

void RoundEngine::Run::settle(Dispatch& d, double t) {
  static obs::Histogram& queue_hist =
      obs::metrics().histogram("afl.engine.client.queue.seconds");
  static obs::Histogram& train_hist =
      obs::metrics().histogram("afl.engine.client.train.seconds");
  const ClientSlot& s = d.slot;
  lifecycle_.arrived(d.id, t);
  result_.comm.record_return(s.params_back);
  telemetry_->add_train_seconds(d.outcome.stats.seconds);
  telemetry_->client_ok();
  queue_hist.record(d.queue_s);
  train_hist.record(d.exec_s);
  std::size_t staleness = 0;
  if (async_) {
    // An update trained on version v and committed at v' weighs
    // 1 / (1 + (v' - v))^alpha.
    staleness = agg_.staleness(d.version);
    d.outcome.weight = agg_.weight_scale(d.version);
    obs::metrics().histogram("afl.async.staleness").record(static_cast<double>(staleness));
  }
  if (obs::trace_enabled()) {
    obs::TraceEvent ev("dispatch");
    dispatch_fields(ev, s, "ok", topo_.tag(d.shard));
    ev.field("back", static_cast<std::uint64_t>(s.back_index))
        .field("params_back", static_cast<std::uint64_t>(s.params_back));
    if (async_) {
      ev.field("virtual_time", clock_.now())
          .field("staleness", static_cast<std::uint64_t>(staleness))
          .field("weight_scale", d.outcome.weight);
    }
    // Sync: wall time of execute(); async: virtual dispatch-to-arrival time.
    ev.field("train_ms", d.outcome.stats.seconds * 1e3)
        .field("dur_ms", (async_ ? clock_.now() - d.t0 : d.exec_s) * 1e3);
    if (topo_.hier && e_.transport_.enabled()) {
      ev.field("bytes_down", static_cast<std::uint64_t>(d.down_bytes))
          .field("bytes_up", static_cast<std::uint64_t>(d.up_bytes));
    }
    ev.emit();
  }
  if (d.upref) compressor_.decode_update(d.outcome.params, *d.upref);
  if (topo_.hier) {
    topo_.edges[d.shard].fold->add(
        ClientUpdate{std::move(d.outcome.params), d.outcome.samples});
  } else {
    policy_.commit(s, std::move(d.outcome));
  }
}

void RoundEngine::Run::open_window(std::size_t round) {
  telemetry_.emplace(result_, round);
  telemetry_->set_net_enabled(e_.transport_.enabled());
  if (e_.population_ != nullptr) {
    engine::trace_churn(round, e_.population_->round_churn(round));
  }
}

void RoundEngine::Run::evaluate(std::size_t round) {
  AFL_PROF_SPAN("engine.evaluate");
  struct Lend {
    RoundPolicy& policy;
    ~Lend() { policy.lend_pool(nullptr); }
  } lend{policy_};
  policy_.lend_pool(&pool_);
  policy_.evaluate(round, result_);
  result_.curve.push_back({round, result_.final_full_acc, result_.final_avg_acc,
                           result_.comm.waste_rate(), result_.comm.round_waste_rate()});
}

void RoundEngine::Run::close_window(std::size_t round, bool sync_round) {
  const FlRunConfig& config = e_.config_;
  if (sync_round && config.eval_every != 0 &&
      (round % config.eval_every == 0 || round == config.rounds)) {
    Stopwatch eval_watch;
    evaluate(round);
    telemetry_->add_eval_seconds(eval_watch.seconds());
    if (lifecycle_.active()) {
      result_.note_time_to_acc(result_.final_full_acc, topo_.now(), round);
      trace_eval_point(round, topo_.now(), result_.final_full_acc,
                       result_.final_avg_acc);
    }
  }
  telemetry_.reset();  // flush this window's metrics record
  if (sync_round) obs::sample_rss();
  publish_run_status(result_, round, config.rounds, watch_.seconds(), e_.threads_,
                     /*active=*/round < config.rounds, &lifecycle_.blame());
  // Snapshots fire only on sync rounds: between root syncs the edges hold
  // un-merged coverage mass the format deliberately omits.
  if (sync_round && snap_.due(round)) write_snapshot(round);
}

void RoundEngine::Run::sync_edge_models() {
  // At a sync boundary every edge tracks the freshly synced global.
  if (!topo_.divergent()) return;
  for (Edge& edge : topo_.edges) edge.model = policy_.hier_global();
}

// Snapshot layout (docs/POPULATION.md): afl.snap.sync.v2 is header, partial
// result, round RNG, lifecycle id counter, edge clocks, [compressor], policy
// state. afl.snap.async.v2 is that same body (one edge, whose clock is the
// last flush instant; the header round is the global version) plus the
// in-flight tail: pending dispatches, queued events, the event sequence.
// Resume restores it over the freshly built structure from init_global(), so
// round k+1 starts bit-identically to the uninterrupted run.

std::size_t RoundEngine::Run::resume() {
  if (!snap_.resume_enabled()) return 0;
  SnapshotReader r(snap_.resume_from);
  const std::size_t at = engine::read_header(
      r, async_ ? engine::kAsyncSnapshotFormat : engine::kSyncSnapshotFormat,
      e_.config_, result_.algorithm);
  engine::read_result(r, result_);
  rng_.set_state(engine::read_rng(r));
  lifecycle_.set_last_id(r.u64());
  const std::uint64_t n_edges = r.u64();
  if (n_edges != topo_.edges.size()) {
    throw std::runtime_error("snapshot: shard count mismatch (file has " +
                             std::to_string(n_edges) + " edges, run has " +
                             std::to_string(topo_.edges.size()) + ")");
  }
  for (Edge& edge : topo_.edges) edge.clock = r.f64();
  if (compressor_.enabled()) compressor_.restore(r);
  policy_.restore_state(r);
  if (async_) {
    clock_.restore(topo_.edges[0].clock);
    agg_.restore(at);
    const std::uint64_t n_pending = r.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      Dispatch d = read_dispatch(r, compressor_.enabled());
      // The client is still in flight: re-mark it busy and reopen its
      // lifecycle record (earlier phases were flushed with the old process;
      // blame attribution restarts, bit-identity of the result does not).
      policy_.set_client_busy(d.slot.client, true);
      lifecycle_.begin(d.id, d.slot.round, d.slot.client, d.t0, /*shard=*/-1,
                       static_cast<long long>(d.version));
      const std::size_t id = d.id;
      pending_.emplace(id, std::move(d));
    }
    std::vector<Event> events(r.u64());
    for (Event& ev : events) {
      ev.time = r.f64();
      ev.dispatch = r.u64();
      ev.client = r.u64();
      ev.seq = r.u64();
      ev.kind = static_cast<EventKind>(r.u64());
    }
    queue_.restore(std::move(events), r.u64());
  }
  r.expect_end();
  return at;
}

void RoundEngine::Run::write_snapshot(std::size_t round) {
  SnapshotWriter w(snap_.snapshot_path);
  engine::write_header(
      w, async_ ? engine::kAsyncSnapshotFormat : engine::kSyncSnapshotFormat,
      e_.config_, result_.algorithm, round);
  engine::write_result(w, result_);
  engine::write_rng(w, rng_.state());
  w.u64(lifecycle_.last_id());
  w.u64(topo_.edges.size());
  for (const Edge& edge : topo_.edges) w.f64(edge.clock);
  if (compressor_.enabled()) compressor_.snapshot(w);
  policy_.snapshot_state(w);
  if (async_) {
    w.u64(pending_.size());
    for (const auto& [id, d] : pending_) {  // std::map: dispatch order
      write_dispatch(w, d, compressor_.enabled());
    }
    // Events serialize in pop order (the comparator's total order), so two
    // snapshots of the same logical state are byte-identical regardless of
    // the live heap layout.
    std::vector<Event> events = queue_.events();
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return async::event_after(b, a); });
    w.u64(events.size());
    for (const Event& ev : events) {
      w.f64(ev.time);
      w.u64(ev.dispatch);
      w.u64(ev.client);
      w.u64(ev.seq);
      w.u64(static_cast<std::uint64_t>(ev.kind));
    }
    w.u64(queue_.next_seq());
  }
  w.finish();
}

RunResult RoundEngine::Run::finish(std::size_t round) {
  telemetry_.reset();
  result_.wall_seconds = watch_.seconds();
  result_.sim_seconds = topo_.now();
  publish_run_status(result_, round, e_.config_.rounds, result_.wall_seconds,
                     e_.threads_, /*active=*/false, &lifecycle_.blame());
  trace_run_end(result_, e_.transport_);
  return std::move(result_);  // every call site returns it straight away
}

RunResult RoundEngine::Run::complete() {
  telemetry_.reset();
  if (result_.curve.empty()) evaluate(e_.config_.rounds);
  obs::sample_rss();
  return finish(e_.config_.rounds);
}

RunResult RoundEngine::Run::rounds() {
  const FlRunConfig& config = e_.config_;
  const std::size_t start_round = resume() + 1;
  sync_edge_models();
  const double deadline = e_.transport_.config().round_deadline_s;
  for (std::size_t round = start_round; round <= config.rounds; ++round) {
    open_window(round);
    policy_.begin_round(round, rng_);

    // Phase 1 (sequential planning): open every slot's dispatch; early
    // failures terminate on the spot. Transport draws use per-(round,
    // client) Sessions, so they never perturb the round RNG.
    std::vector<Dispatch> dispatches;
    dispatches.reserve(config.clients_per_round);
    for (std::size_t slot = 0; slot < config.clients_per_round; ++slot) {
      ClientSlot s;
      s.round = round;
      s.slot = slot;
      std::optional<Dispatch> d = open(s, round - 1, round);
      if (!d) break;
      if (d->fail != Fail::kNone) terminate(*d, d->t0 + d->sess.elapsed_seconds());
      dispatches.push_back(std::move(*d));
    }

    // Phase 2 (parallel execution) of every accepted dispatch; nothing here
    // touches shared mutable state.
    std::vector<Dispatch*> work;
    for (Dispatch& d : dispatches) {
      if (d.fail == Fail::kNone) work.push_back(&d);
    }
    train(work);

    // Phase 3 (sequential commit): shard-major, slot order within each edge.
    // Uploads cross the channel on the downlink's session clock; updates
    // lost after all retries, or delivered past the round deadline
    // (stragglers), are never aggregated.
    double round_elapsed_max = 0.0;  // slowest client across all edges
    for (std::size_t shard = 0; shard < topo_.edges.size(); ++shard) {
      Edge& edge = topo_.edges[shard];
      double shard_elapsed = 0.0;  // this edge's slowest client session
      for (Dispatch& d : dispatches) {
        if (d.shard != shard) continue;
        if (d.fail == Fail::kLostDownlink) {
          // No update, but the failed session still advances the edge clock.
          shard_elapsed = std::max(shard_elapsed, d.sess.elapsed_seconds());
        }
        if (d.fail != Fail::kNone) continue;
        double arrival = d.t0;
        if (e_.transport_.enabled()) {
          arrival = upload(d, d.t0 + d.sess.elapsed_seconds(), deadline);
          shard_elapsed = std::max(shard_elapsed, d.sess.elapsed_seconds());
          if (d.fail != Fail::kNone) {
            terminate(d, arrival);
            continue;
          }
        }
        settle(d, arrival);
      }
      round_elapsed_max = std::max(round_elapsed_max, shard_elapsed);
      if (e_.transport_.enabled()) {
        // The edge's round ends at its own slowest client (deadline-capped:
        // the server stops waiting there); edges progress independently
        // between syncs. That barrier commits the edge's buffered updates.
        edge.clock += deadline > 0.0 ? std::min(deadline, shard_elapsed) : shard_elapsed;
        lifecycle_.commit_window(edge.clock, topo_.tag(shard),
                                 /*commit_version=*/static_cast<long long>(round));
      }
    }

    // Phase 4 (aggregate, root sync when due): sequential. Between syncs the
    // root global is stale, so evaluation and snapshots wait for a sync
    // round; flat runs sync every round.
    const bool sync_round = round % topo_.sync_every == 0 || round == config.rounds;
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch agg_watch;
      if (!topo_.hier) {
        policy_.aggregate(round);
      } else {
        static obs::Histogram& shard_updates_hist =
            obs::metrics().histogram("afl.hier.shard.round.updates");
        for (Edge& edge : topo_.edges) {
          ShardPartial part = edge.fold->take_partial();
          shard_updates_hist.record(static_cast<double>(part.updates));
          if (topo_.divergent() && part.updates > 0) {
            // Elements the edge's clients did not cover keep its previous
            // local value.
            edge.model = finalize_partial(part, edge.model);
          }
          merge_partials(window_, std::move(part));
        }
      }
      if (topo_.hier && sync_round) {
        static obs::Histogram& merge_hist =
            obs::metrics().histogram("afl.hier.merge.seconds");
        static obs::Counter& syncs_counter = obs::metrics().counter("afl.hier.syncs");
        Stopwatch merge_watch;
        // Elements no edge covered during the window keep the global value.
        // The merge is integer addition, so it is exact and independent of
        // shard count or order.
        policy_.hier_set_global(finalize_partial(window_, policy_.hier_global()));
        window_ = ShardPartial{};
        sync_edge_models();
        syncs_counter.inc();
        merge_hist.record(merge_watch.seconds());
        if (e_.transport_.enabled()) {
          // A root sync is a barrier: every edge clock aligns at the maximum.
          const double vmax = topo_.now();
          for (std::size_t s = 0; s < topo_.edges.size(); ++s) {
            const double before = topo_.edges[s].clock;
            if (before < vmax) lifecycle_.root_wait(round, static_cast<int>(s), before, vmax);
            topo_.edges[s].clock = vmax;
          }
          lifecycle_.root_merge(round, vmax);
        }
      }
      telemetry_->add_aggregate_seconds(agg_watch.seconds());
    }
    policy_.end_round(round, *telemetry_);

    if (e_.transport_.enabled()) {
      telemetry_->set_sim_time(
          deadline > 0.0 ? std::min(deadline, round_elapsed_max) : round_elapsed_max,
          topo_.now());
    }
    close_window(round, sync_round);
    if (sync_round && snap_.stop_after(round)) {
      // Killed-at-round-k semantics: hand back the partial result; a later
      // run resumes from the snapshot and reproduces the full run exactly.
      return finish(round);
    }
  }
  return complete();
}

RunResult RoundEngine::Run::events() {
  static obs::Histogram& occupancy_hist =
      obs::metrics().histogram("afl.async.buffer.occupancy");
  obs::Gauge& version_gauge = obs::metrics().gauge("afl.async.version");
  obs::Counter& flush_counter = obs::metrics().counter("afl.async.flushes");
  obs::Counter& dispatch_counter = obs::metrics().counter("afl.async.dispatches");
  obs::metrics().counter("afl.async.stale.discards");  // reads 0, not absent, until a discard
  const FlRunConfig& config = e_.config_;
  const async::AsyncConfig& acfg = e_.async_;

  std::size_t flushes = resume();
  open_window(flushes + 1);

  // One buffer flush: aggregate, commit a new global version, close the
  // window (the async analogue of a round) and open the next one.
  const auto flush = [&] {
    ++flushes;
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch agg_watch;
      policy_.aggregate(flushes);
      telemetry_->add_aggregate_seconds(agg_watch.seconds());
    }
    const std::size_t version = agg_.commit_flush();
    version_gauge.set(static_cast<double>(version));
    flush_counter.inc();
    // The buffer flush is the commit instant of every buffered update:
    // buffer_wait runs from each arrival to here.
    lifecycle_.commit_window(clock_.now(), /*commit_shard=*/-1,
                             static_cast<long long>(version));
    policy_.end_round(flushes, *telemetry_);
    Edge& edge = topo_.edges[0];
    telemetry_->set_sim_time(clock_.now() - edge.clock, clock_.now());
    edge.clock = clock_.now();
    close_window(flushes, /*sync_round=*/true);
    if (flushes < config.rounds && !snap_.stop_after(flushes)) open_window(flushes + 1);
  };

  while (flushes < config.rounds) {
    if (snap_.stop_after(flushes)) return finish(flushes);  // killed at flush k
    // Keep `concurrency` dispatches in flight. Every RNG draw happens here
    // on the engine thread, in event order; a dispatch id doubles as its
    // slot's round key. Churn presence is keyed by the flush window.
    while (pending_.size() < acfg.concurrency) {
      ClientSlot s;
      s.round = lifecycle_.last_id() + 1;
      std::optional<Dispatch> d = open(s, agg_.version(), flushes + 1);
      if (!d) break;  // every free client is in flight
      dispatch_counter.inc();
      // An accepted dispatch starts uploading once downlink + compute are
      // done; a failed one is written off after the failure timeout.
      const double ready = d->t0 + d->sess.elapsed_seconds();
      const bool ok = d->fail == Fail::kNone;
      queue_.push({ok ? ready : ready + acfg.failure_timeout_s, d->id, d->slot.client,
                   0, ok ? EventKind::kUpload : EventKind::kFailure});
      const std::size_t id = d->id;
      pending_.emplace(id, std::move(*d));
    }
    if (queue_.empty()) {
      // Nothing in flight and nothing dispatchable. Flush what the buffer
      // holds; if it is empty too the fleet is exhausted — end the run.
      if (agg_.buffered() == 0) break;
      flush();
      continue;
    }
    const Event ev = queue_.pop();
    if (!clock_.advance_to(ev.time)) {
      throw std::logic_error("RoundEngine: event of dispatch " +
                             std::to_string(ev.dispatch) + " at t=" +
                             std::to_string(ev.time) + " s precedes the clock (" +
                             std::to_string(clock_.now()) + " s)");
    }
    auto it = pending_.find(ev.dispatch);
    if (it == pending_.end()) continue;  // defensive; events map 1:1 to dispatches
    if (ev.kind == EventKind::kUpload) {
      Dispatch& d = it->second;
      if (!d.trained) {
        // Lazily train every accepted, still-untrained dispatch in one wave.
        // Wave membership is a pure function of event order and execute()
        // is pure, so eager-vs-lazy scheduling cannot change any result bit.
        std::vector<Dispatch*> wave;
        for (auto& [id, p] : pending_) {
          if (p.fail == Fail::kNone && !p.trained) wave.push_back(&p);
        }
        train(wave);
      }
      // No deadline: an async upload is late only through staleness.
      const double arrival =
          e_.transport_.enabled() ? upload(d, ev.time, /*deadline=*/0.0) : ev.time;
      const bool lost = d.fail != Fail::kNone;
      queue_.push({lost ? arrival + acfg.failure_timeout_s : arrival, ev.dispatch,
                   ev.client, 0, lost ? EventKind::kFailure : EventKind::kArrival});
      continue;
    }
    // kArrival or kFailure: the dispatch leaves flight.
    Dispatch d = std::move(it->second);
    pending_.erase(it);
    policy_.set_client_busy(d.slot.client, false);
    if (ev.kind == EventKind::kArrival && agg_.too_stale(d.version)) d.fail = Fail::kStale;
    if (d.fail != Fail::kNone) {
      terminate(d, clock_.now());
      continue;
    }
    settle(d, clock_.now());
    agg_.note_buffered();
    occupancy_hist.record(static_cast<double>(agg_.buffered()));
    if (agg_.full()) flush();
  }
  return complete();
}

RoundPolicy::EvalHead::EvalHead(std::string label, Model model, const ParamSet& params)
    : label(std::move(label)), model(std::move(model)) {
  this->model.import_params(params);
}

void RoundPolicy::record_heads(std::vector<EvalHead> heads, const Dataset& test,
                               std::size_t eval_batch, RunResult& result) const {
  std::vector<Model*> models;
  for (EvalHead& h : heads) models.push_back(&h.model);
  const std::vector<EvalResult> evals = evaluate_heads(models, test, eval_batch, eval_pool_);
  double sum = 0.0;
  for (std::size_t h = 0; h < heads.size(); ++h) {
    result.level_acc[heads[h].label] = evals[h].accuracy;
    sum += evals[h].accuracy;
  }
  result.final_full_acc = evals.front().accuracy;
  result.final_avg_acc = sum / static_cast<double>(heads.size());
}

RoundEngine::RoundEngine(const FlRunConfig& config, const std::vector<DeviceSim>* devices,
                         const pop::Population* population,
                         const hier::HierConfig& hier, const async::AsyncConfig& async)
    : config_(config),
      hier_(hier),
      async_(async),
      devices_(devices),
      population_(population),
      threads_(config.threads > 0 ? config.threads : ThreadPool::threads_from_env()),
      transport_(config.net ? *config.net : net::NetConfig::from_env(),
                 config.seed) {
  if (config_.eval_batch == 0) {
    throw std::invalid_argument("RoundEngine: eval_batch must be positive");
  }
  if (hier_.shards == 0) hier_.shards = 1;
  if (hier_.sync_every == 0) hier_.sync_every = 1;
  if (async_.enabled) {
    if (hier_.enabled) {
      throw std::invalid_argument(
          "RoundEngine: async and hierarchical execution are mutually exclusive");
    }
    require_finite_non_negative("staleness_alpha", async_.staleness_alpha);
    require_finite_non_negative("failure_timeout_s", async_.failure_timeout_s);
    require_finite_non_negative("reupload_backoff_s", async_.reupload_backoff_s);
    if (async_.buffer_size == 0) async_.buffer_size = config_.clients_per_round;
    if (async_.buffer_size == 0) async_.buffer_size = 1;
    if (async_.concurrency == 0) async_.concurrency = 2 * async_.buffer_size;
    if (devices_ != nullptr) {
      async_.concurrency = std::min(async_.concurrency, devices_->size());
    }
  }
  if (population_ != nullptr && population_->has_channels()) {
    transport_.set_client_channels(population_->channels());
  }
}

RunResult RoundEngine::run(RoundPolicy& policy) {
  Run run(*this, policy);
  return async_.enabled ? run.events() : run.rounds();
}

}  // namespace afl
