// LSTM cell [Hochreiter & Schmidhuber 1997] with manual backward.
//
// MPNN-LSTM stacks two of these over the GCN outputs (§2.1, Fig. 2a). The
// cell is stateless: per-timestep activations live in an explicit Cache so a
// frame's backward pass can walk the timeline in reverse (BPTT). Around the
// GEMMs, forward and backward each do their gate math in one fused row pass
// that writes the Cache tensors directly, bit-identical to composing the
// ops:: calls one by one.
#pragma once

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "kernels/recorder.hpp"
#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace pipad::nn {

class LSTMCell {
 public:
  LSTMCell() = default;
  LSTMCell(int input_dim, int hidden_dim, Rng& rng);

  struct Cache {
    Tensor xh;      ///< [N x (in+hid)] concatenated input.
    Tensor i, f, g, o;  ///< Gate activations.
    Tensor c_prev;
    Tensor c;       ///< New cell state.
    Tensor tanh_c;
  };

  /// Returns (h_new, c_new) and fills the cache.
  std::pair<Tensor, Tensor> forward(const Tensor& x, const Tensor& h_prev,
                                    const Tensor& c_prev, Cache& cache,
                                    kernels::KernelRecorder* rec,
                                    const std::string& tag) const;

  /// Given upstream (dh, dc): accumulates parameter grads, returns
  /// (dx, dh_prev, dc_prev).
  std::tuple<Tensor, Tensor, Tensor> backward(const Cache& cache,
                                              const Tensor& dh,
                                              const Tensor& dc,
                                              kernels::KernelRecorder* rec,
                                              const std::string& tag);

  int input_dim() const { return in_; }
  int hidden_dim() const { return hid_; }
  std::vector<Parameter*> params() { return {&w_, &b_}; }
  Parameter& weight() { return w_; }

 private:
  int in_ = 0;
  int hid_ = 0;
  Parameter w_;  ///< [(in+hid) x 4*hid], gate order i|f|g|o.
  Parameter b_;  ///< [1 x 4*hid].
};

/// Multi-step convenience: run a sequence through the cell, caching every
/// step; backward() consumes per-step output grads in reverse.
class LSTMSequence {
 public:
  explicit LSTMSequence(LSTMCell* cell) : cell_(cell) {}

  /// xs: per-timestep inputs [N x in]. Returns per-timestep hidden states.
  std::vector<Tensor> forward(const std::vector<const Tensor*>& xs,
                              kernels::KernelRecorder* rec,
                              const std::string& tag);

  /// d_hs: per-timestep grads wrt the returned hidden states (may contain
  /// empty tensors for "no grad"). Returns per-timestep dx.
  std::vector<Tensor> backward(const std::vector<Tensor>& d_hs,
                               kernels::KernelRecorder* rec,
                               const std::string& tag);

 private:
  LSTMCell* cell_;
  std::vector<LSTMCell::Cache> caches_;
  int rows_ = 0;
};

}  // namespace pipad::nn
