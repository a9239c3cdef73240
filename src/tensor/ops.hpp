// Tensor operations: GEMM, elementwise maps, the MSE loss, concat/split.
//
// All operations check shapes via PIPAD_CHECK and are deterministic. The
// heavy ops execute as row/element-blocked regions on the process-wide
// common::ComputePool; block layouts never depend on the pool width and
// every output row/element is computed in serial order, so results are
// bit-identical for any --threads value. The order-sensitive mse_loss
// reduction runs serially for the same reason.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>

#include "common/compute_pool.hpp"
#include "tensor/tensor.hpp"

namespace pipad::ops {

/// Run fn(r) for every row r in [0, rows) as one ComputePool region named
/// `name`. The block layout depends on rows and total_work only, so a fn
/// that computes each row on its own gives bit-identical results for any
/// pool width. The ops below and the fused recurrent-cell passes use it.
template <typename F>
inline void par_rows(const char* name, int rows, std::size_t total_work,
                     const F& fn) {
  ComputePool::instance().for_blocks(
      name, static_cast<std::size_t>(rows), total_work,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) fn(static_cast<int>(r));
      });
}

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// trans_a/trans_b select op(X) = X or X^T.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a = false,
          bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

/// Convenience: returns op(A)*op(B).
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// y[r][c] += bias[c] for every row.
void add_bias(Tensor& y, const Tensor& bias);

/// grad_bias[c] = sum_r grad[r][c].
Tensor bias_grad(const Tensor& grad);

// ---- Elementwise ----
void add_inplace(Tensor& a, const Tensor& b, float scale = 1.0f);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  ///< Hadamard product.
void scale_inplace(Tensor& a, float s);

Tensor relu(const Tensor& x);
/// dx = dy where x > 0 else 0.
Tensor relu_grad(const Tensor& dy, const Tensor& x);

Tensor sigmoid(const Tensor& x);
/// dx given y = sigmoid(x): dy * y * (1 - y).
Tensor sigmoid_grad(const Tensor& dy, const Tensor& y);

Tensor tanh(const Tensor& x);
/// dx given y = tanh(x): dy * (1 - y^2).
Tensor tanh_grad(const Tensor& dy, const Tensor& y);

// ---- Scalar forms ----
// The per-element expressions of the activation ops above. The fused
// recurrent-cell passes (nn::LSTMCell, models::TGcn) call these too, so a
// fused element runs the same float operation sequence as the op-by-op
// composition and training stays bit-identical to it.
inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
inline float sigmoid_grad(float dy, float y) { return dy * y * (1.0f - y); }
inline float tanh_grad(float dy, float y) { return dy * (1.0f - y * y); }

// ---- Concatenation along columns (for RNN gate inputs [x, h]) ----
Tensor concat_cols(const Tensor& a, const Tensor& b);
/// Split columns back: (grad wrt a, grad wrt b) with a_cols columns in a.
std::pair<Tensor, Tensor> split_cols(const Tensor& ab, int a_cols);

/// Copy columns [start, start+len) into a new tensor (gate extraction).
Tensor slice_cols(const Tensor& t, int start, int len);
/// dst[:, start:start+len] += src (gate-gradient scatter).
void add_into_cols(Tensor& dst, const Tensor& src, int start);

// ---- Losses ----
/// Mean squared error over all elements; also writes d(loss)/d(pred) into
/// grad if non-null.
float mse_loss(const Tensor& pred, const Tensor& target,
               Tensor* grad = nullptr);

}  // namespace pipad::ops
