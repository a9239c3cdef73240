#include "nn/lstm.hpp"

#include <cmath>

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::nn {

namespace {
void record(kernels::KernelRecorder* rec, const std::string& name,
            const gpusim::KernelStats& s) {
  if (rec != nullptr) rec->record(name, s);
}
}  // namespace

LSTMCell::LSTMCell(int input_dim, int hidden_dim, Rng& rng)
    : in_(input_dim),
      hid_(hidden_dim),
      w_(Parameter::glorot(input_dim + hidden_dim, 4 * hidden_dim, rng)),
      b_(Parameter::zeros(1, 4 * hidden_dim)) {}

std::pair<Tensor, Tensor> LSTMCell::forward(const Tensor& x,
                                            const Tensor& h_prev,
                                            const Tensor& c_prev,
                                            Cache& cache,
                                            kernels::KernelRecorder* rec,
                                            const std::string& tag) const {
  PIPAD_CHECK_MSG(x.cols() == in_, "LSTM input dim mismatch");
  PIPAD_CHECK_MSG(h_prev.cols() == hid_ && c_prev.cols() == hid_,
                  "LSTM hidden dim mismatch");
  PIPAD_CHECK_MSG(h_prev.rows() == x.rows() && c_prev.rows() == x.rows(),
                  "LSTM state rows mismatch");
  cache.xh = ops::concat_cols(x, h_prev);
  const Tensor gates = ops::matmul(cache.xh, w_.value);
  record(rec, "gemm:" + tag + ".gates",
         kernels::gemm_stats(x.rows(), in_ + hid_, 4 * hid_));

  const int rows = x.rows();
  const int hd = hid_;
  cache.i = Tensor(rows, hd);
  cache.f = Tensor(rows, hd);
  cache.g = Tensor(rows, hd);
  cache.o = Tensor(rows, hd);
  cache.c_prev = c_prev;
  cache.c = Tensor(rows, hd);
  cache.tanh_c = Tensor(rows, hd);
  Tensor h(rows, hd);
  const float* bias = b_.value.row(0);
  // One pass per row: bias add, gate nonlinearities, cell and hidden
  // update. c = f*c_prev + i*g keeps add_inplace's `a + 1.0f * b`. A fused
  // pass quotes its work as the elements it writes (here 7 per h element).
  ops::par_rows(rows, 7 * h.size(), [&](int r) {
    const float* a = gates.row(r);
    const float* cp = c_prev.row(r);
    float* gi = cache.i.row(r);
    float* gf = cache.f.row(r);
    float* gg = cache.g.row(r);
    float* go = cache.o.row(r);
    float* cr = cache.c.row(r);
    float* tc = cache.tanh_c.row(r);
    float* hr = h.row(r);
    for (int j = 0; j < hd; ++j) {
      gi[j] = ops::sigmoid(a[j] + bias[j]);
      gf[j] = ops::sigmoid(a[hd + j] + bias[hd + j]);
      gg[j] = std::tanh(a[2 * hd + j] + bias[2 * hd + j]);
      go[j] = ops::sigmoid(a[3 * hd + j] + bias[3 * hd + j]);
      const float fc = gf[j] * cp[j];
      const float ig = gi[j] * gg[j];
      cr[j] = fc + 1.0f * ig;
      tc[j] = std::tanh(cr[j]);
      hr[j] = go[j] * tc[j];
    }
  });
  record(rec, "ew:" + tag + ".act",
         kernels::elementwise_stats(gates.size(), 1, 6));
  return {std::move(h), cache.c};
}

std::tuple<Tensor, Tensor, Tensor> LSTMCell::backward(
    const Cache& cache, const Tensor& dh, const Tensor& dc,
    kernels::KernelRecorder* rec, const std::string& tag) {
  PIPAD_CHECK_MSG(dh.same_shape(cache.o), "LSTM dh shape "
                                              << dh.shape_str() << " vs "
                                              << cache.o.shape_str());
  PIPAD_CHECK_MSG(dc.empty() || dc.same_shape(dh), "LSTM dc shape mismatch");
  const int rows = dh.rows();
  const int hd = hid_;
  const bool has_dc = !dc.empty();
  Tensor da(rows, 4 * hd);
  Tensor dc_prev(rows, hd);
  // One pass per row: cell-state gradient, gate gradients through the
  // nonlinearities, and the [i|f|g|o] scatter into da. Every da element is
  // written as `0.0f + v`, as add_into_cols into zeros computes it.
  ops::par_rows(rows, da.size() + dc_prev.size(), [&](int r) {
    const float* gi = cache.i.row(r);
    const float* gf = cache.f.row(r);
    const float* gg = cache.g.row(r);
    const float* go = cache.o.row(r);
    const float* cp = cache.c_prev.row(r);
    const float* tc = cache.tanh_c.row(r);
    const float* dhr = dh.row(r);
    const float* dcr = has_dc ? dc.row(r) : nullptr;
    float* dar = da.row(r);
    float* dcp = dc_prev.row(r);
    for (int j = 0; j < hd; ++j) {
      // dc_total = dc + dh * o * (1 - tanh_c^2)
      float dct = ops::tanh_grad(dhr[j] * go[j], tc[j]);
      if (has_dc) dct = dct + 1.0f * dcr[j];
      const float d_o = dhr[j] * tc[j];
      const float d_f = dct * cp[j];
      dcp[j] = dct * gf[j];
      const float d_i = dct * gg[j];
      const float d_g = dct * gi[j];
      dar[j] = 0.0f + ops::sigmoid_grad(d_i, gi[j]);
      dar[hd + j] = 0.0f + ops::sigmoid_grad(d_f, gf[j]);
      dar[2 * hd + j] = 0.0f + ops::tanh_grad(d_g, gg[j]);
      dar[3 * hd + j] = 0.0f + ops::sigmoid_grad(d_o, go[j]);
    }
  });
  record(rec, "ew:" + tag + ".act.bwd",
         kernels::elementwise_stats(da.size(), 2, 8));

  // Parameter grads and input grad.
  ops::gemm(cache.xh, da, w_.grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(b_.grad, ops::bias_grad(da));
  Tensor dxh = ops::matmul(da, w_.value, false, true);
  record(rec, "gemm:" + tag + ".gates.dw",
         kernels::gemm_stats(cache.xh.cols(), cache.xh.rows(), da.cols()));
  record(rec, "gemm:" + tag + ".gates.dx",
         kernels::gemm_stats(da.rows(), da.cols(), cache.xh.cols()));

  auto [dx, dh_prev] = ops::split_cols(dxh, in_);
  return {std::move(dx), std::move(dh_prev), std::move(dc_prev)};
}

std::vector<Tensor> LSTMSequence::forward(
    const std::vector<const Tensor*>& xs, kernels::KernelRecorder* rec,
    const std::string& tag) {
  PIPAD_CHECK(!xs.empty());
  rows_ = xs[0]->rows();
  caches_.assign(xs.size(), {});
  Tensor h = Tensor::zeros(rows_, cell_->hidden_dim());
  Tensor c = Tensor::zeros(rows_, cell_->hidden_dim());
  std::vector<Tensor> hs;
  hs.reserve(xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    auto [h_new, c_new] =
        cell_->forward(*xs[t], h, c, caches_[t], rec, tag);
    h = h_new;
    c = std::move(c_new);
    hs.push_back(std::move(h_new));
  }
  return hs;
}

std::vector<Tensor> LSTMSequence::backward(const std::vector<Tensor>& d_hs,
                                           kernels::KernelRecorder* rec,
                                           const std::string& tag) {
  PIPAD_CHECK(d_hs.size() == caches_.size());
  const int T = static_cast<int>(caches_.size());
  std::vector<Tensor> dxs(T);
  Tensor dh_carry = Tensor::zeros(rows_, cell_->hidden_dim());
  Tensor dc_carry = Tensor::zeros(rows_, cell_->hidden_dim());
  for (int t = T - 1; t >= 0; --t) {
    Tensor dh = dh_carry;
    if (!d_hs[t].empty()) ops::add_inplace(dh, d_hs[t]);
    auto [dx, dh_prev, dc_prev] =
        cell_->backward(caches_[t], dh, dc_carry, rec, tag);
    dxs[t] = std::move(dx);
    dh_carry = std::move(dh_prev);
    dc_carry = std::move(dc_prev);
  }
  return dxs;
}

}  // namespace pipad::nn
