#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "arch/build.hpp"
#include "compress/compressor.hpp"
#include "fl/aggregate.hpp"
#include "fl/evaluate.hpp"
#include "fl/local_train.hpp"
#include "fl/shard_aggregator.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "prune/model_pool.hpp"
#include "rl/selector.hpp"
#include "sim/device.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace perfbench {
namespace {

using namespace afl;

// Rounds the replay re-enacts. Each round dispatches the workload's cohort,
// cycling through the pool entries in order — Algorithm 1 draws the
// dispatched entry uniformly from R, and cycling guarantees every level
// trains at least once whenever cohort * rounds >= pool size.
constexpr std::size_t kReplayRounds = 2;
// Repetitions of each kernel call in the tensor micro-replay.
constexpr std::size_t kKernelReps = 5;
// Layer kinds with per-level nn metrics (Flatten is a reshape and omitted).
const char* const kNnKinds[] = {"conv2d", "relu", "maxpool2d", "linear"};
const char* const kLevels[] = {"L", "M", "S"};

const char* level_tag(Level l) {
  switch (l) {
    case Level::kLarge:
      return "L";
    case Level::kMedium:
      return "M";
    case Level::kSmall:
      return "S";
  }
  return "?";
}

/// One pass over `data` through the model's layers one at a time (forward
/// in train mode, loss, backward), with a span per layer call.
void layer_pass(Model& model, const Dataset& data, std::size_t batch_size,
                const char* level, Recorder& rec, Rng& rng) {
  for (const auto& idx : data.shuffled_batches(batch_size, rng)) {
    const Batch batch = data.make_batch(idx);
    model.zero_grads();
    Tensor x = batch.images;
    for (std::size_t i = 0; i < model.num_layers(); ++i) {
      Layer& layer = model.layer(i);
      Scope s(rec, "nn." + layer.kind() + "." + level + ".fwd");
      x = layer.forward(x, /*train=*/true);
    }
    LossResult loss;
    {
      Scope s(rec, "nn.loss");
      loss = softmax_cross_entropy(x, batch.labels);
    }
    Tensor g = loss.grad;
    for (std::size_t i = model.num_layers(); i-- > 0;) {
      Layer& layer = model.layer(i);
      Scope s(rec, "nn." + layer.kind() + "." + level + ".bwd");
      g = layer.backward(g);
    }
  }
}

struct KernelWork {
  double flops = 0.0;  // per gemm flavour: 2*m*k*n summed
  double bytes = 0.0;  // per transform: image + column bytes summed
};

/// Times the tensor kernels at the shapes one training step of `model`
/// issues for a batch of `batch`: per conv layer, gemm (forward), gemm_bt
/// (weight gradient), gemm_at (input gradient), im2col and col2im; per
/// linear layer, gemm_bt (forward), gemm_at and gemm (backward).
void kernel_replay(Model& model, const Dataset& data, std::size_t batch, Recorder& rec,
                   std::map<std::string, KernelWork>& work) {
  std::vector<std::size_t> idx(std::min(batch, data.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Tensor x = data.make_batch(idx).images;
  const std::size_t n = x.dim(0);
  auto timed_gemm = [&](const char* name, auto fn, std::size_t m, std::size_t k,
                        std::size_t cols) {
    std::vector<float> a(m * k, 0.01f), b(k * cols, 0.02f), c(m * cols);
    for (std::size_t r = 0; r < kKernelReps; ++r) {
      Scope s(rec, std::string("tensor.") + name);
      fn(a.data(), b.data(), c.data(), m, k, cols, false);
    }
    work[name].flops += 2.0 * static_cast<double>(m * k * cols) * kKernelReps;
  };
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    Layer& layer = model.layer(i);
    Tensor y = layer.forward(x, /*train=*/false);
    if (auto* conv = dynamic_cast<Conv2D*>(&layer)) {
      const std::size_t k = conv->weight().dim(2);
      ConvGeom g{x.dim(1), x.dim(2), x.dim(3), k, 1, (k - 1) / 2};
      if (g.out_h() != y.dim(2)) g = ConvGeom{x.dim(1), x.dim(2), x.dim(3), k, 2, (k - 1) / 2};
      if (g.out_h() != y.dim(2) || g.out_w() != y.dim(3)) {
        throw std::runtime_error("kernel replay: cannot infer conv geometry");
      }
      const std::size_t oc = conv->out_channels(), ckk = g.col_rows(), s = g.col_cols();
      const std::size_t wide = n * s, plane = g.channels * g.height * g.width;
      timed_gemm("gemm", gemm, oc, ckk, wide);
      timed_gemm("gemm_bt", gemm_bt, oc, wide, ckk);
      timed_gemm("gemm_at", gemm_at, ckk, oc, wide);
      std::vector<float> cols(ckk * wide);
      std::vector<float> image(n * plane);
      for (std::size_t r = 0; r < kKernelReps; ++r) {
        Scope sc(rec, "tensor.im2col");
        for (std::size_t b = 0; b < n; ++b) {
          im2col_strided(x.data() + b * plane, g, cols.data(), wide, b * s);
        }
      }
      for (std::size_t r = 0; r < kKernelReps; ++r) {
        std::fill(image.begin(), image.end(), 0.0f);
        Scope sc(rec, "tensor.col2im");
        for (std::size_t b = 0; b < n; ++b) {
          col2im_strided(cols.data(), g, image.data() + b * plane, wide, b * s);
        }
      }
      const double moved = 4.0 * static_cast<double>(ckk * wide + n * plane) * kKernelReps;
      work["im2col"].bytes += moved;
      work["col2im"].bytes += moved;
    } else if (dynamic_cast<Linear*>(&layer) != nullptr) {
      const std::size_t in = x.numel() / n, out = y.numel() / n;
      timed_gemm("gemm_bt", gemm_bt, n, in, out);
      timed_gemm("gemm_at", gemm_at, out, n, in);
      timed_gemm("gemm", gemm, n, out, in);
    }
    x = std::move(y);
  }
}

bool bit_equal(const ParamSet& a, const ParamSet& b) {
  if (!same_structure(a, b)) return false;
  for (const auto& [name, t] : a) {
    const Tensor& u = b.at(name);
    if (std::memcmp(t.data(), u.data(), t.numel() * sizeof(float)) != 0) return false;
  }
  return true;
}

}  // namespace

std::string layer_metric_unit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("gflops")) return "GFLOP/s";
  if (ends("gbps")) return "GB/s";
  if (ends("mbps")) return "MB/s";
  if (ends("bytes_per_update")) return "B";
  if (ends("flops_per_sample")) return "FLOP";
  return "ratio";
}

std::string layer_replay(const Workload& w, const ExperimentEnv& env, std::uint64_t seed,
                         Recorder& rec, std::map<std::string, double>& m) {
  std::string problem;
  Rng rng = Rng::derive(seed, 0x7e91a7, 0);
  const FederatedConfig fed = federated_config(w);

  // Set-up parts, each once, as build_env runs them.
  std::shared_ptr<const SyntheticTask> task;
  {
    Scope s(rec, "data.setup_task");
    task = make_task(w);
  }
  Rng setup_rng(seed);
  FederatedDataset lazy;
  {
    Scope s(rec, "data.setup_partition");
    if (w.lazy) {
      lazy = make_federated_lazy(task, fed, seed);
    } else {
      make_federated(*task, fed, setup_rng);
    }
  }
  // Eager workloads replay lazy materialisation at their own shapes.
  if (!w.lazy) lazy = make_federated_lazy(task, fed, seed);
  std::unique_ptr<ModelPool> pool_ptr;
  {
    Scope s(rec, "data.setup_pool");
    pool_ptr = std::make_unique<ModelPool>(env.spec, env.pool_config);
  }
  const ModelPool& pool = *pool_ptr;
  {
    Scope s(rec, "data.setup_devices");
    make_devices(pool, w.exp.num_clients, w.exp.proportions, setup_rng, w.exp.capacity_jitter);
  }

  ClientSelector selector(pool, env.data.num_clients(), SelectionStrategy::kResourceCuriosity);
  net::NetConfig ncfg;
  ncfg.enabled = true;
  ncfg.codec = net::Codec::kFp32;
  ncfg.uplink_codec = net::Codec::kTopK10;
  const net::Transport transport(ncfg, seed);
  compress::Compressor compressor(transport, compress::CompressConfig{});
  const net::Codec uplink = w.net.enabled ? w.net.uplink() : net::Codec::kFp32;

  Rng init(seed + 1);
  ParamSet global = build_full_model(env.spec, &init).export_params();
  std::size_t entry_cursor = 0;
  double flops = 0.0, samples = 0.0;
  double uplink_bytes = 0.0, kept = 0.0, coords = 0.0;
  std::size_t updates_total = 0;
  std::map<std::string, double> codec_dense;  // dense MB through each codec

  for (std::size_t round = 0; round < kReplayRounds; ++round) {
    Scope round_span(rec, "replay.round");
    std::vector<bool> taken(env.data.num_clients(), false);
    std::vector<ClientUpdate> updates;
    for (std::size_t slot = 0; slot < w.exp.clients_per_round; ++slot) {
      Scope client_span(rec, "replay.client");
      const std::size_t entry = entry_cursor++ % pool.size();
      std::optional<std::size_t> client;
      {
        Scope s(rec, "rl.select");
        client = selector.select(entry, taken, rng);
      }
      if (!client) break;
      taken[*client] = true;
      const PoolEntry& e = pool.entry(entry);
      ParamSet sent;
      {
        Scope s(rec, "prune.split");
        sent = pool.split(global, entry);
      }
      Model model;
      {
        Scope s(rec, "prune.build");
        model = pool.build(entry);
      }
      {
        Scope s(rec, "fl.import");
        model.import_params(sent);
      }
      Dataset shard;
      {
        Scope s(rec, "data.materialize");
        shard = lazy.materialize_client(*client);
      }
      const Dataset* stored = env.data.stored_client(*client);
      const Dataset& train_data = stored ? *stored : shard;
      {
        Scope s(rec, std::string("fl.local_train_") + level_tag(e.level));
        Rng crng = Rng::derive(seed, round, *client);
        local_train(model, train_data, env.run.local, crng);
      }
      ParamSet trained;
      {
        Scope s(rec, "fl.export");
        trained = model.export_params();
      }
      flops += 3.0 * static_cast<double>(e.flops) * static_cast<double>(train_data.size());
      samples += static_cast<double>(train_data.size());

      ParamSet masked = trained;
      {
        Scope s(rec, "compress.encode_update");
        compressor.encode_update(*client, masked, sent);
      }
      std::vector<std::uint8_t> wire;
      for (const auto& [name, t] : masked) {
        coords += static_cast<double>(t.numel());
        for (std::size_t i = 0; i < t.numel(); ++i) kept += t.data()[i] != 0.0f ? 1.0 : 0.0;
      }
      for (const net::Codec codec : {net::Codec::kFp32, net::Codec::kTopK10}) {
        const ParamSet& payload = codec == net::Codec::kFp32 ? trained : masked;
        const std::string tag = net::codec_name(codec);
        std::vector<std::pair<std::size_t, std::size_t>> extents;
        wire.clear();
        {
          Scope s(rec, "net." + tag + ".encode");
          for (const auto& [name, t] : payload) {
            const std::size_t at = wire.size();
            extents.emplace_back(at, net::encode_tensor(t, codec, wire));
          }
        }
        {
          Scope s(rec, "net." + tag + ".decode");
          std::size_t i = 0;
          for (const auto& [name, t] : payload) {
            const Tensor back =
                net::decode_tensor(wire.data() + extents[i].first, extents[i].second, t.shape(),
                                   codec, name);
            ++i;
            (void)back;
          }
        }
        double dense = 0.0;
        for (const auto& [name, t] : payload) dense += 4.0 * static_cast<double>(t.numel());
        codec_dense[tag] += dense / 1e6;
        if (codec == uplink) uplink_bytes += static_cast<double>(wire.size());
      }
      ++updates_total;
      updates.push_back({std::move(trained), train_data.size()});
    }

    ParamSet flat;
    {
      Scope s(rec, "fl.hetero_aggregate");
      flat = hetero_aggregate(global, updates);
    }
    std::vector<ShardAggregator> shards;
    // At least two shards, so the merge step always runs.
    const std::size_t n_shards = w.hier.enabled ? std::max<std::size_t>(2, w.hier.shards) : 2;
    for (std::size_t i = 0; i < n_shards; ++i) shards.emplace_back(global);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      Scope s(rec, "hier.fold");
      shards[i % shards.size()].add(std::move(updates[i]));
    }
    ShardPartial root = shards.front().take_partial();
    for (std::size_t i = 1; i < shards.size(); ++i) {
      Scope s(rec, "hier.merge");
      merge_partials(root, shards[i].take_partial());
    }
    {
      Scope s(rec, "hier.finalize");
      global = finalize_partial(root, global);
    }
    if (problem.empty() && !bit_equal(flat, global)) {
      problem = "merged shard folds differ from the single-shard aggregate";
    }
  }

  // Evaluation per head, and the eval forward layer by layer.
  for (Level level : {Level::kLarge, Level::kMedium, Level::kSmall}) {
    const std::size_t h = pool.level_head_index(level);
    Model model = pool.build(h);
    model.import_params(pool.split(global, h));
    {
      Scope s(rec, "fl.evaluate_" + pool.entry(h).label());
      evaluate(model, env.data.test, env.run.eval_batch);
    }
    if (level == Level::kLarge) {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < env.data.test.size(); ++i) {
        idx.push_back(i);
        if (idx.size() == env.run.eval_batch || i + 1 == env.data.test.size()) {
          const Batch b = env.data.test.make_batch(idx);
          Scope s(rec, "nn.eval_fwd");
          model.forward(b.images, /*train=*/false);
          idx.clear();
        }
      }
    }
  }

  // Per-layer forward/backward at each level head, one pass over a client.
  const Dataset probe_shard = lazy.materialize_client(0);
  for (Level level : {Level::kLarge, Level::kMedium, Level::kSmall}) {
    Model model = pool.build(pool.level_head_index(level));
    Scope s(rec, "replay.layers");
    Rng lrng = Rng::derive(seed, 0x1a7e5, static_cast<std::uint64_t>(level));
    layer_pass(model, env.data.stored_client(0) ? *env.data.stored_client(0) : probe_shard,
               w.exp.batch_size, level_tag(level), rec, lrng);
  }

  std::map<std::string, KernelWork> work;
  {
    Model model = pool.build(pool.largest_index());
    Scope s(rec, "replay.kernels");
    kernel_replay(model, env.data.test, w.exp.batch_size, rec, work);
  }

  const auto t = rec.totals();
  auto total = [&](const std::string& name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  for (const char* l : kLevels) {
    m[std::string("fl.local_train_") + l + "_s"] = total(std::string("fl.local_train_") + l);
  }
  for (const char* head : {"L1", "M1", "S1"}) {
    m[std::string("fl.evaluate_") + head + "_s"] = total(std::string("fl.evaluate_") + head);
  }
  m["fl.hetero_aggregate_s"] = total("fl.hetero_aggregate");
  for (const char* kind : kNnKinds) {
    for (const char* l : kLevels) {
      for (const char* dir : {"fwd", "bwd"}) {
        const std::string base = std::string("nn.") + kind + "." + l + "." + dir;
        m[base + "_s"] = total(base);
      }
    }
  }
  m["nn.eval_fwd_s"] = total("nn.eval_fwd");
  for (const char* k : {"gemm", "gemm_at", "gemm_bt"}) {
    const double s = total(std::string("tensor.") + k);
    m[std::string("tensor.") + k + ".gflops"] = s > 0.0 ? work[k].flops / s / 1e9 : 0.0;
  }
  for (const char* k : {"im2col", "col2im"}) {
    const double s = total(std::string("tensor.") + k);
    m[std::string("tensor.") + k + ".gbps"] = s > 0.0 ? work[k].bytes / s / 1e9 : 0.0;
  }
  m["tensor.flops_per_sample"] = samples > 0.0 ? flops / samples : 0.0;
  m["prune.split_s"] = total("prune.split");
  m["prune.build_s"] = total("prune.build");
  m["rl.select_s"] = total("rl.select");
  m["data.materialize_s"] = total("data.materialize");
  for (const char* part : {"task", "partition", "devices", "pool"}) {
    m[std::string("data.setup_") + part + "_s"] = total(std::string("data.setup_") + part);
  }
  m["hier.fold_s"] = total("hier.fold");
  m["hier.merge_s"] = total("hier.merge");
  m["hier.finalize_s"] = total("hier.finalize");
  for (const auto& [tag, mb] : codec_dense) {
    const double enc = total("net." + tag + ".encode"), dec = total("net." + tag + ".decode");
    m["net." + tag + ".encode_mbps"] = enc > 0.0 ? mb / enc : 0.0;
    m["net." + tag + ".decode_mbps"] = dec > 0.0 ? mb / dec : 0.0;
  }
  m["net.bytes_per_update"] = updates_total ? uplink_bytes / static_cast<double>(updates_total) : 0.0;
  m["compress.encode_update_s"] = total("compress.encode_update");
  m["compress.kept_ratio"] = coords > 0.0 ? kept / coords : 0.0;
  return problem;
}

}  // namespace perfbench
