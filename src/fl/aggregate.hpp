#pragma once
// Model aggregation.
//
// fedavg_aggregate: classic FedAvg over structurally identical updates.
// hetero_aggregate: the paper's Algorithm 2 — every client tensor is a
// prefix-slice of the corresponding global tensor; each global element is the
// data-size-weighted mean of the client values covering it, and elements no
// client covers keep their previous global value.

#include <vector>

#include "nn/param.hpp"

namespace afl {

struct ClientUpdate {
  ParamSet params;
  std::size_t data_size = 0;  // |d_c|
  /// Multiplier on the data-size weight. 1 (exact identity in the weighted
  /// mean) for synchronous aggregation; async mode passes the
  /// staleness discount 1 / (1 + tau)^alpha (docs/ASYNC.md).
  double weight = 1.0;
};

/// All updates must have the same structure as `global`. Weighted by
/// data_size. Returns the new global parameters.
ParamSet fedavg_aggregate(const ParamSet& global,
                          const std::vector<ClientUpdate>& updates);

/// Algorithm 2. Updates may have any subset of global's parameter names
/// (depth-pruned models omit deep layers entirely) and each present tensor
/// must be a dimension-wise prefix of the global tensor.
ParamSet hetero_aggregate(const ParamSet& global,
                          const std::vector<ClientUpdate>& updates);

}  // namespace afl
