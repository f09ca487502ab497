#pragma once
// Model evaluation on a dataset.
//
// evaluate_heads() scores a set of head models (AdaptiveFL's L1/M1/S1
// submodels, a baseline's level models) in one pass over the data. Paper
// §3.2 keeps layers k <= I at full width in every submodel, so the heads'
// leading layers are bitwise equal: the pass runs that shared prefix once per
// chunk of samples and only each head's remaining layers (its suffix) after
// it. Chunks fan out over a ThreadPool; per-(chunk, head) correct counts and
// loss sums are reduced in chunk order on the calling thread, so every result
// is identical for any pool size.

#include <cstddef>
#include <vector>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "util/thread_pool.hpp"

namespace afl {

struct EvalResult {
  double accuracy = 0.0;
  double mean_loss = 0.0;
  std::size_t samples = 0;
  double seconds = 0.0;  // wall time of the evaluation call (all heads)
};

/// Samples per evaluation chunk, capped by the caller's batch size. Small
/// enough that a chunk's im2col columns and activations stay cache-resident,
/// large enough to keep the GEMMs efficient; a chunk is also the unit of
/// parallel work.
inline constexpr std::size_t kEvalChunk = 32;

/// Number of leading layers that are equal across all heads: same layer
/// name, same kind, and parameters equal in names, shapes and bits. The heads
/// must be models of one architecture (build_model of one ArchSpec), whose
/// layer names pin the parameter-free configuration (strides, pooling).
/// A single head's prefix is the whole model.
std::size_t shared_prefix_layers(const std::vector<Model*>& heads);

/// Top-1 accuracy and mean cross-entropy of every head over `data`, in head
/// order, computed in chunks of min(kEvalChunk, batch_size) samples with the
/// shared prefix run once per chunk. With a pool the chunks run on its
/// workers, which share the head models: Layer::forward(x, false) is
/// reentrant (nn/layer.hpp). Must not be called from inside a parallel_for
/// of the same pool. batch_size == 0 throws std::invalid_argument.
///
/// Observability: one afl.fl.evaluate.seconds observation per call, one
/// `evaluate` trace record per head (in head order; dur_ms is the whole
/// call), and fl.evaluate.prefix / fl.evaluate.suffix profiler spans.
std::vector<EvalResult> evaluate_heads(const std::vector<Model*>& heads,
                                       const Dataset& data, std::size_t batch_size,
                                       ThreadPool* pool = nullptr);

/// One model: evaluate_heads({&model}, data, batch_size), inline.
EvalResult evaluate(Model& model, const Dataset& data, std::size_t batch_size = 128);

}  // namespace afl
