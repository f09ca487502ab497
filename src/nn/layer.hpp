#pragma once
// Layer interface. Activations are rank-4 [N, C, H, W] for spatial layers and
// rank-2 [N, F] for dense layers; N is the batch dimension.

#include <string>
#include <vector>

#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace afl {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. When `train` is true the layer caches whatever
  /// backward() needs; forward(train=true) must be followed by at most one
  /// backward() before the next forward. forward(x, false) must write no
  /// member state: the evaluator (fl/evaluate.hpp) runs it concurrently on
  /// one shared layer.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Appends {prefix + local-name, value, grad} for every parameter.
  virtual void collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
    (void)prefix;
    (void)out;
  }

  virtual std::string kind() const = 0;
};

}  // namespace afl
