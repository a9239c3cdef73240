#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

namespace pipad::ops {

namespace {
// Element-blocked dispatch through the shared ComputePool (par_rows in the
// header is the row-blocked form). Every op here computes each output
// row/element exactly as the serial code would, so results are
// bit-identical for any thread count; only mse_loss, whose rounding depends
// on a cross-row combine order, stays serial.
template <typename F>
inline void par_elems(std::size_t n, const F& fn) {
  ComputePool::instance().for_blocks(n, n, fn);
}
}  // namespace

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a,
          bool trans_b, float alpha, float beta) {
  const int m = trans_a ? a.cols() : a.rows();
  const int k = trans_a ? a.rows() : a.cols();
  const int k2 = trans_b ? b.cols() : b.rows();
  const int n = trans_b ? b.rows() : b.cols();
  PIPAD_CHECK_MSG(k == k2, "gemm inner dims mismatch: " << a.shape_str()
                                                        << (trans_a ? "^T" : "")
                                                        << " * " << b.shape_str()
                                                        << (trans_b ? "^T" : ""));
  PIPAD_CHECK_MSG(c.rows() == m && c.cols() == n,
                  "gemm output shape mismatch: got " << c.shape_str());

  // The inner loop streams rows of op(B), so a transposed B is packed once
  // into a row-major [k x n] copy; op(A) is read one scalar per (i, kk)
  // through its strides. Every mode then runs the same i-k-j loop, and each
  // C element accumulates over kk in ascending order with zero terms
  // skipped — the same sums for every mode and every thread count.
  Tensor packed;
  if (trans_b) {
    packed = Tensor(k, n);
    for (int j = 0; j < n; ++j) {
      const float* src = b.row(j);
      for (int kk = 0; kk < k; ++kk) packed.at(kk, j) = src[kk];
    }
  }
  const Tensor& bk = trans_b ? packed : b;
  const std::size_t a_row = trans_a ? 1 : static_cast<std::size_t>(k);
  const std::size_t a_col = trans_a ? static_cast<std::size_t>(m) : 1;
  const float* pa = a.data();

  const std::size_t work = static_cast<std::size_t>(m) * k * n;
  // Rows of C are independent, so the row-blocked parallel path computes
  // each one in the exact serial order.
  par_rows(m, work, [&](int i) {
    float* crow = c.row(i);
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
    const std::size_t a_i = static_cast<std::size_t>(i) * a_row;
    for (int kk = 0; kk < k; ++kk) {
      const float av = alpha * pa[a_i + static_cast<std::size_t>(kk) * a_col];
      if (av == 0.0f) continue;
      const float* brow = bk.row(kk);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  const int m = trans_a ? a.cols() : a.rows();
  const int n = trans_b ? b.rows() : b.cols();
  // The constructor already zero-fills C, so beta = 1 accumulates onto the
  // same +0.0f start the beta = 0 fill would write.
  Tensor c(m, n);
  gemm(a, b, c, trans_a, trans_b, 1.0f, 1.0f);
  return c;
}

void add_bias(Tensor& y, const Tensor& bias) {
  PIPAD_CHECK_MSG(bias.rows() == 1 && bias.cols() == y.cols(),
                  "bias shape " << bias.shape_str() << " vs y "
                                << y.shape_str());
  const float* b = bias.row(0);
  par_rows(y.rows(), y.size(), [&](int r) {
    float* row = y.row(r);
    for (int c = 0; c < y.cols(); ++c) row[c] += b[c];
  });
}

Tensor bias_grad(const Tensor& grad) {
  Tensor g(1, grad.cols());
  // Columns are independent and each column sums rows in serial order, so
  // the column-blocked parallel path is bit-identical to the serial one.
  par_rows(grad.cols(), grad.size(), [&](int c) {
    float acc = 0.0f;
    for (int r = 0; r < grad.rows(); ++r) acc += grad.at(r, c);
    g.at(0, c) = acc;
  });
  return g;
}

void add_inplace(Tensor& a, const Tensor& b, float scale) {
  PIPAD_CHECK_MSG(a.same_shape(b), "add_inplace shape mismatch "
                                       << a.shape_str() << " vs "
                                       << b.shape_str());
  float* pa = a.data();
  const float* pb = b.data();
  par_elems(a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pa[i] += scale * pb[i];
  });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  add_inplace(c, b, -1.0f);
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  PIPAD_CHECK_MSG(a.same_shape(b), "mul shape mismatch");
  Tensor c(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  par_elems(a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pc[i] = pa[i] * pb[i];
  });
  return c;
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  par_elems(a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pa[i] *= s;
  });
}

Tensor relu(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  const float* px = x.data();
  float* py = y.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) py[i] = px[i] > 0.0f ? px[i] : 0.0f;
  });
  return y;
}

Tensor relu_grad(const Tensor& dy, const Tensor& x) {
  PIPAD_CHECK_MSG(dy.same_shape(x), "relu_grad shape mismatch");
  Tensor dx(x.rows(), x.cols());
  const float* pdy = dy.data();
  const float* px = x.data();
  float* pdx = dx.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      pdx[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
  });
  return dx;
}

Tensor sigmoid(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  const float* px = x.data();
  float* py = y.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      py[i] = sigmoid(px[i]);
  });
  return y;
}

Tensor sigmoid_grad(const Tensor& dy, const Tensor& y) {
  PIPAD_CHECK_MSG(dy.same_shape(y), "sigmoid_grad shape mismatch");
  Tensor dx(y.rows(), y.cols());
  const float* pdy = dy.data();
  const float* py = y.data();
  float* pdx = dx.data();
  par_elems(y.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      pdx[i] = sigmoid_grad(pdy[i], py[i]);
  });
  return dx;
}

Tensor tanh(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  const float* px = x.data();
  float* py = y.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) py[i] = std::tanh(px[i]);
  });
  return y;
}

Tensor tanh_grad(const Tensor& dy, const Tensor& y) {
  PIPAD_CHECK_MSG(dy.same_shape(y), "tanh_grad shape mismatch");
  Tensor dx(y.rows(), y.cols());
  const float* pdy = dy.data();
  const float* py = y.data();
  float* pdx = dx.data();
  par_elems(y.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      pdx[i] = tanh_grad(pdy[i], py[i]);
  });
  return dx;
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  PIPAD_CHECK_MSG(a.rows() == b.rows(), "concat_cols row mismatch");
  Tensor c(a.rows(), a.cols() + b.cols());
  par_rows(a.rows(), c.size(), [&](int r) {
    float* crow = c.row(r);
    std::copy(a.row(r), a.row(r) + a.cols(), crow);
    std::copy(b.row(r), b.row(r) + b.cols(), crow + a.cols());
  });
  return c;
}

std::pair<Tensor, Tensor> split_cols(const Tensor& ab, int a_cols) {
  PIPAD_CHECK_MSG(a_cols >= 0 && a_cols <= ab.cols(), "split_cols bad split");
  Tensor a(ab.rows(), a_cols);
  Tensor b(ab.rows(), ab.cols() - a_cols);
  par_rows(ab.rows(), ab.size(), [&](int r) {
    const float* src = ab.row(r);
    std::copy(src, src + a_cols, a.row(r));
    std::copy(src + a_cols, src + ab.cols(), b.row(r));
  });
  return {std::move(a), std::move(b)};
}

Tensor slice_cols(const Tensor& t, int start, int len) {
  PIPAD_CHECK_MSG(start >= 0 && len >= 0 && start + len <= t.cols(),
                  "slice_cols out of range");
  Tensor out(t.rows(), len);
  par_rows(t.rows(), out.size(), [&](int r) {
    const float* src = t.row(r) + start;
    std::copy(src, src + len, out.row(r));
  });
  return out;
}

void add_into_cols(Tensor& dst, const Tensor& src, int start) {
  PIPAD_CHECK_MSG(dst.rows() == src.rows() &&
                      start + src.cols() <= dst.cols(),
                  "add_into_cols shape mismatch");
  par_rows(dst.rows(), src.size(), [&](int r) {
    float* d = dst.row(r) + start;
    const float* s = src.row(r);
    for (int c = 0; c < src.cols(); ++c) d[c] += s[c];
  });
}

float mse_loss(const Tensor& pred, const Tensor& target, Tensor* grad) {
  PIPAD_CHECK_MSG(pred.same_shape(target), "mse shape mismatch "
                                               << pred.shape_str() << " vs "
                                               << target.shape_str());
  const std::size_t n = pred.size();
  PIPAD_CHECK_MSG(n > 0, "mse on empty tensor");
  // Serial: the double accumulator's rounding depends on summation order,
  // and losses must be bit-identical across thread counts.
  double acc = 0.0;
  if (grad != nullptr && !grad->same_shape(pred)) {
    *grad = Tensor(pred.rows(), pred.cols());
  }
  const float* pp = pred.data();
  const float* pt = target.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pp[i] - pt[i];
    acc += static_cast<double>(d) * d;
    if (grad != nullptr) grad->data()[i] = 2.0f * d / static_cast<float>(n);
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

}  // namespace pipad::ops
