#include "fl/evaluate.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <numeric>
#include <stdexcept>

#include "nn/loss.hpp"
#include "obs/prof/prof.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace afl {
namespace {

bool same_layer(Model& a, Model& b, std::size_t i) {
  if (a.layer_name(i) != b.layer_name(i) || a.layer(i).kind() != b.layer(i).kind()) {
    return false;
  }
  std::vector<ParamRef> pa, pb;
  a.layer(i).collect_params("", pa);
  b.layer(i).collect_params("", pb);
  if (pa.size() != pb.size()) return false;
  for (std::size_t k = 0; k < pa.size(); ++k) {
    const Tensor& x = *pa[k].value;
    const Tensor& y = *pb[k].value;
    if (pa[k].name != pb[k].name || x.shape() != y.shape() ||
        std::memcmp(x.data(), y.data(), x.numel() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

Tensor forward_layers(Model& model, std::size_t from, std::size_t to, Tensor h) {
  for (std::size_t i = from; i < to; ++i) h = model.layer(i).forward(h, /*train=*/false);
  return h;
}

}  // namespace

std::size_t shared_prefix_layers(const std::vector<Model*>& heads) {
  if (heads.empty()) return 0;
  std::size_t depth = heads[0]->num_layers();
  for (const Model* m : heads) depth = std::min(depth, m->num_layers());
  std::size_t prefix = 0;
  for (; prefix < depth; ++prefix) {
    for (std::size_t h = 1; h < heads.size(); ++h) {
      if (!same_layer(*heads[0], *heads[h], prefix)) return prefix;
    }
  }
  return prefix;
}

std::vector<EvalResult> evaluate_heads(const std::vector<Model*>& heads,
                                       const Dataset& data, std::size_t batch_size,
                                       ThreadPool* pool) {
  if (batch_size == 0) {
    throw std::invalid_argument("evaluate: batch_size (eval_batch) must be positive");
  }
  if (heads.empty()) return {};
  static obs::Histogram& hist = obs::metrics().histogram("afl.fl.evaluate.seconds");
  obs::ScopedTimer timer(hist);
  // Records open now so their ts_ms marks the start of the pass.
  std::deque<obs::TraceEvent> records;
  for (std::size_t h = 0; h < heads.size(); ++h) records.emplace_back("evaluate");

  const std::size_t num_heads = heads.size();
  const std::size_t n = data.size();
  const std::size_t chunk = std::min(kEvalChunk, batch_size);
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const std::size_t prefix = shared_prefix_layers(heads);

  // Per-(chunk, head) partials, each written by exactly one chunk task.
  std::vector<std::size_t> correct(chunks * num_heads, 0);
  std::vector<double> loss(chunks * num_heads, 0.0);
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t start = c * chunk;
    std::vector<std::size_t> idx(std::min(chunk, n - start));
    std::iota(idx.begin(), idx.end(), start);
    Batch batch = data.make_batch(idx);
    Tensor shared;
    {
      AFL_PROF_SPAN("fl.evaluate.prefix");
      shared = forward_layers(*heads[0], 0, prefix, std::move(batch.images));
    }
    for (std::size_t h = 0; h < num_heads; ++h) {
      AFL_PROF_SPAN("fl.evaluate.suffix");
      const Tensor logits =
          forward_layers(*heads[h], prefix, heads[h]->num_layers(), shared);
      correct[c * num_heads + h] = count_correct(logits, batch.labels);
      loss[c * num_heads + h] = softmax_cross_entropy(logits, batch.labels).loss *
                                static_cast<double>(idx.size());
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(chunks, run_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) run_chunk(c);
  }

  const double seconds = timer.seconds();
  std::vector<EvalResult> results(num_heads);
  for (std::size_t h = 0; h < num_heads; ++h) {
    EvalResult& r = results[h];
    r.samples = n;
    r.seconds = seconds;
    if (n > 0) {
      std::size_t hits = 0;
      double loss_sum = 0.0;
      for (std::size_t c = 0; c < chunks; ++c) {
        hits += correct[c * num_heads + h];
        loss_sum += loss[c * num_heads + h];
      }
      r.accuracy = static_cast<double>(hits) / static_cast<double>(n);
      r.mean_loss = loss_sum / static_cast<double>(n);
    }
    records[h]
        .field("samples", static_cast<std::uint64_t>(r.samples))
        .field("accuracy", r.accuracy)
        .field("mean_loss", r.mean_loss)
        .field("dur_ms", seconds * 1e3)
        .emit();
  }
  return results;
}

EvalResult evaluate(Model& model, const Dataset& data, std::size_t batch_size) {
  return evaluate_heads({&model}, data, batch_size).front();
}

}  // namespace afl
