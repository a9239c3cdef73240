#include "models/tgcn.hpp"

#include <cmath>

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::models {

namespace {
void record(kernels::KernelRecorder* rec, const std::string& name,
            const gpusim::KernelStats& s) {
  if (rec != nullptr) rec->record(name, s);
}
}  // namespace

TGcn::TGcn(int in_dim, int hidden_dim, Rng& rng)
    : hid_(hidden_dim),
      gate_z_(in_dim, hidden_dim, rng),
      gate_r_(in_dim, hidden_dim, rng),
      gate_n_(in_dim, hidden_dim, rng),
      hz_(hidden_dim, hidden_dim, rng),
      hr_(hidden_dim, hidden_dim, rng),
      hn_(hidden_dim, hidden_dim, rng),
      head_(hidden_dim, 1, rng) {}

Tensor TGcn::step(const Tensor& uz, const Tensor& ur, const Tensor& un,
                  const Tensor& h_prev, StepCache& cache,
                  kernels::KernelRecorder* rec) {
  const int rows = h_prev.rows();
  const int hd = hid_;
  PIPAD_CHECK_MSG(h_prev.cols() == hd && uz.same_shape(h_prev) &&
                      ur.same_shape(h_prev) && un.same_shape(h_prev),
                  "T-GCN step shape mismatch: h " << h_prev.shape_str()
                                                  << " u " << uz.shape_str());
  cache.h_prev = h_prev;
  const Tensor az = hz_.forward_gemm(h_prev, rec, "rnn.tgcn.hz");
  const Tensor ar = hr_.forward_gemm(h_prev, rec, "rnn.tgcn.hr");

  // Gates: z = σ((h U_z + b_z) + u_z), r likewise, and r ⊙ h_prev. The
  // bias and input adds keep add_bias's and add_inplace's `a + 1.0f * b`.
  // Each fused pass quotes its work as the elements it writes.
  cache.z = Tensor(rows, hd);
  cache.r = Tensor(rows, hd);
  cache.rh = Tensor(rows, hd);
  const float* bz = hz_.bias().value.row(0);
  const float* br = hr_.bias().value.row(0);
  ops::par_rows("elementwise", rows, 3 * cache.z.size(), [&](int i) {
    const float* azr = az.row(i);
    const float* arr = ar.row(i);
    const float* uzr = uz.row(i);
    const float* urr = ur.row(i);
    const float* hp = h_prev.row(i);
    float* z = cache.z.row(i);
    float* r = cache.r.row(i);
    float* rh = cache.rh.row(i);
    for (int j = 0; j < hd; ++j) {
      z[j] = ops::sigmoid((azr[j] + bz[j]) + 1.0f * uzr[j]);
      r[j] = ops::sigmoid((arr[j] + br[j]) + 1.0f * urr[j]);
      rh[j] = r[j] * hp[j];
    }
  });

  const Tensor an = hn_.forward_gemm(cache.rh, rec, "rnn.tgcn.hn");
  // Candidate n = tanh((rh U_n + b_n) + u_n), then h = (1-z)*n + z*h_prev.
  cache.n = Tensor(rows, hd);
  Tensor h(rows, hd);
  const float* bn = hn_.bias().value.row(0);
  ops::par_rows("elementwise", rows, 2 * h.size(), [&](int i) {
    const float* anr = an.row(i);
    const float* unr = un.row(i);
    const float* z = cache.z.row(i);
    const float* hp = h_prev.row(i);
    float* n = cache.n.row(i);
    float* hr = h.row(i);
    for (int j = 0; j < hd; ++j) {
      n[j] = std::tanh((anr[j] + bn[j]) + 1.0f * unr[j]);
      hr[j] = (1.0f - z[j]) * n[j] + z[j] * hp[j];
    }
  });
  record(rec, "ew:rnn.tgcn.act",
         kernels::elementwise_stats(3 * h.size(), 1, 5));
  return h;
}

Tensor TGcn::step_backward(const StepCache& cache, const Tensor& dh,
                           Tensor& d_uz, Tensor& d_ur, Tensor& d_un,
                           kernels::KernelRecorder* rec) {
  PIPAD_CHECK_MSG(dh.same_shape(cache.z), "T-GCN dh shape "
                                              << dh.shape_str() << " vs "
                                              << cache.z.shape_str());
  const int rows = dh.rows();
  const int hd = hid_;
  // h = (1-z)*n + z*h_prev. The differences keep sub's `a + -1.0f * b`.
  // Candidate branch: d_un = dn * tanh'(n); update gate: d_uz = dz * σ'(z).
  d_uz = Tensor(rows, hd);
  d_un = Tensor(rows, hd);
  ops::par_rows("elementwise", rows, 2 * dh.size(), [&](int i) {
    const float* d = dh.row(i);
    const float* z = cache.z.row(i);
    const float* n = cache.n.row(i);
    const float* hp = cache.h_prev.row(i);
    float* duz = d_uz.row(i);
    float* dun = d_un.row(i);
    for (int j = 0; j < hd; ++j) {
      const float dz = d[j] * (hp[j] + -1.0f * n[j]);
      const float dn = d[j] * (1.0f + -1.0f * z[j]);
      dun[j] = ops::tanh_grad(dn, n[j]);
      duz[j] = ops::sigmoid_grad(dz, z[j]);
    }
  });
  const Tensor drh = hn_.backward(cache.rh, d_un, rec, "rnn.tgcn.hn");

  // Reset gate: d_ur = (drh ⊙ h_prev) * σ'(r); dh_prev collects dh ⊙ z and
  // drh ⊙ r here, then the two hidden-transform input grads below.
  d_ur = Tensor(rows, hd);
  Tensor dh_prev(rows, hd);
  ops::par_rows("elementwise", rows, 2 * dh.size(), [&](int i) {
    const float* d = dh.row(i);
    const float* z = cache.z.row(i);
    const float* r = cache.r.row(i);
    const float* hp = cache.h_prev.row(i);
    const float* g = drh.row(i);
    float* dur = d_ur.row(i);
    float* dhp = dh_prev.row(i);
    for (int j = 0; j < hd; ++j) {
      dur[j] = ops::sigmoid_grad(g[j] * hp[j], r[j]);
      const float gr = g[j] * r[j];
      dhp[j] = d[j] * z[j] + 1.0f * gr;
    }
  });
  const Tensor dxz = hz_.backward(cache.h_prev, d_uz, rec, "rnn.tgcn.hz");
  const Tensor dxr = hr_.backward(cache.h_prev, d_ur, rec, "rnn.tgcn.hr");
  ops::par_rows("elementwise", rows, dh_prev.size(), [&](int i) {
    const float* xz = dxz.row(i);
    const float* xr = dxr.row(i);
    float* dhp = dh_prev.row(i);
    for (int j = 0; j < hd; ++j) {
      dhp[j] = (dhp[j] + 1.0f * xz[j]) + 1.0f * xr[j];
    }
  });
  record(rec, "ew:rnn.tgcn.act.bwd",
         kernels::elementwise_stats(6 * dh.size(), 2, 6));
  return dh_prev;
}

float TGcn::train_frame(FrameExecutor& ex,
                        const std::vector<const Tensor*>& xs,
                        const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, true);
}

float TGcn::eval_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                       const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, false);
}

float TGcn::run_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                      const std::vector<const Tensor*>& targets, bool train) {
  PIPAD_CHECK(xs.size() == targets.size() && !xs.empty());
  const int T = static_cast<int>(xs.size());
  auto* rec = ex.recorder();

  // ---- GNN portion: one aggregation feeds all three gate updates ----
  std::vector<Tensor> agg = ex.aggregate(xs, /*layer_id=*/0, "gcn.gates");
  std::vector<const Tensor*> aggp;
  for (const auto& t : agg) aggp.push_back(&t);
  std::vector<Tensor> uz = ex.update(aggp, gate_z_, "gcn.gate_z");
  std::vector<Tensor> ur = ex.update(aggp, gate_r_, "gcn.gate_r");
  std::vector<Tensor> un = ex.update(aggp, gate_n_, "gcn.gate_n");

  // ---- Recurrent chain ----
  const int n_rows = xs[0]->rows();
  std::vector<StepCache> caches(T);
  std::vector<Tensor> hs(T);
  Tensor h = Tensor::zeros(n_rows, hid_);
  for (int t = 0; t < T; ++t) {
    h = step(uz[t], ur[t], un[t], h, caches[t], rec);
    hs[t] = h;
  }

  // ---- Head + loss ----
  std::vector<const Tensor*> hsp;
  for (const auto& t : hs) hsp.push_back(&t);
  std::vector<Tensor> preds = ex.update(hsp, head_, "head.fc");

  std::vector<Tensor> d_preds;
  const float loss = frame_mse_loss(preds, targets, train, d_preds, rec);
  if (!train) return loss;

  // ---- Backward ----
  std::vector<Tensor> d_hs = ex.update_backward(d_preds, hsp, head_, "head.fc");

  std::vector<Tensor> d_uz(T), d_ur(T), d_un(T);
  Tensor carry = Tensor::zeros(n_rows, hid_);
  for (int t = T - 1; t >= 0; --t) {
    Tensor dh = carry;
    if (!d_hs[t].empty()) ops::add_inplace(dh, d_hs[t]);
    carry = step_backward(caches[t], dh, d_uz[t], d_ur[t], d_un[t], rec);
  }

  std::vector<Tensor> d_agg_z =
      ex.update_backward(d_uz, aggp, gate_z_, "gcn.gate_z");
  std::vector<Tensor> d_agg_r =
      ex.update_backward(d_ur, aggp, gate_r_, "gcn.gate_r");
  std::vector<Tensor> d_agg_n =
      ex.update_backward(d_un, aggp, gate_n_, "gcn.gate_n");
  // Gradients would flow to the inputs only through layer-0 aggregation,
  // which terminates at leaves — nothing further to do.
  (void)d_agg_z;
  (void)d_agg_r;
  (void)d_agg_n;
  return loss;
}

std::vector<nn::Parameter*> TGcn::params() {
  std::vector<nn::Parameter*> ps;
  for (auto* l : {&gate_z_, &gate_r_, &gate_n_, &hz_, &hr_, &hn_, &head_}) {
    for (auto* p : l->params()) ps.push_back(p);
  }
  return ps;
}

}  // namespace pipad::models
