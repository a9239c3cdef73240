// NN layer tests: numerical gradient checks for every module's manual
// backward, bitwise checks of the fused recurrent-cell passes, plus
// optimizer behaviour.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common/compute_pool.hpp"
#include "models/tgcn.hpp"
#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

/// Central-difference gradient of scalar_fn wrt one element of t.
float numeric_grad(Tensor& t, int r, int c,
                   const std::function<float()>& scalar_fn,
                   float eps = 1e-3f) {
  const float orig = t.at(r, c);
  t.at(r, c) = orig + eps;
  const float hi = scalar_fn();
  t.at(r, c) = orig - eps;
  const float lo = scalar_fn();
  t.at(r, c) = orig;
  return (hi - lo) / (2.0f * eps);
}

/// Sum-of-outputs loss makes d(loss)/d(out) all-ones.
Tensor ones_like(const Tensor& t) {
  return Tensor::full(t.rows(), t.cols(), 1.0f);
}

TEST(Linear, ForwardMatchesManualMath) {
  Rng rng(1);
  nn::Linear lin(3, 2, rng);
  const Tensor x = Tensor::randn(4, 3, rng);
  const Tensor y = lin.forward(x, nullptr, "t");
  Tensor expect = ops::matmul(x, lin.weight().value);
  ops::add_bias(expect, lin.bias().value);
  EXPECT_LT(testutil::max_abs_diff(y, expect), 1e-6f);
}

TEST(Linear, GradientCheck) {
  Rng rng(2);
  nn::Linear lin(3, 2, rng);
  Tensor x = Tensor::randn(5, 3, rng);
  auto loss = [&] { return testutil::sum(lin.forward(x, nullptr, "t")); };

  const Tensor y = lin.forward(x, nullptr, "t");
  nn::zero_grads(lin.params());
  const Tensor dx = lin.backward(x, ones_like(y), nullptr, "t");

  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(lin.weight().grad.at(r, c),
                  numeric_grad(lin.weight().value, r, c, loss), 2e-2f);
      EXPECT_NEAR(dx.at(r, c), numeric_grad(x, r, c, loss), 2e-2f);
    }
  }
  EXPECT_NEAR(lin.bias().grad.at(0, 0),
              numeric_grad(lin.bias().value, 0, 0, loss), 2e-2f);
}

TEST(LstmCell, GradientCheckAllPaths) {
  Rng rng(3);
  nn::LSTMCell cell(3, 4, rng);
  Tensor x = Tensor::randn(2, 3, rng);
  Tensor h0 = Tensor::randn(2, 4, rng, 0.5f);
  Tensor c0 = Tensor::randn(2, 4, rng, 0.5f);
  auto loss = [&] {
    nn::LSTMCell::Cache cache;
    auto [h, c] = cell.forward(x, h0, c0, cache, nullptr, "t");
    return testutil::sum(h) + 0.5f * testutil::sum(c);
  };

  nn::LSTMCell::Cache cache;
  auto [h, c] = cell.forward(x, h0, c0, cache, nullptr, "t");
  nn::zero_grads(cell.params());
  auto [dx, dh0, dc0] = cell.backward(
      cache, ones_like(h), Tensor::full(2, 4, 0.5f), nullptr, "t");

  // Inputs.
  for (int r = 0; r < 2; ++r) {
    for (int cc = 0; cc < 3; ++cc) {
      EXPECT_NEAR(dx.at(r, cc), numeric_grad(x, r, cc, loss), 2e-2f)
          << "dx(" << r << "," << cc << ")";
    }
    for (int cc = 0; cc < 4; ++cc) {
      EXPECT_NEAR(dh0.at(r, cc), numeric_grad(h0, r, cc, loss), 2e-2f);
      EXPECT_NEAR(dc0.at(r, cc), numeric_grad(c0, r, cc, loss), 2e-2f);
    }
  }
  // A sample of weight entries.
  auto& w = cell.weight();
  for (int r = 0; r < 3; ++r) {
    for (int cc = 0; cc < 4; ++cc) {
      EXPECT_NEAR(w.grad.at(r, cc), numeric_grad(w.value, r, cc, loss),
                  3e-2f)
          << "dW(" << r << "," << cc << ")";
    }
  }
}

TEST(LstmSequence, BpttGradientCheck) {
  Rng rng(4);
  nn::LSTMCell cell(2, 3, rng);
  std::vector<Tensor> xs;
  for (int t = 0; t < 4; ++t) xs.push_back(Tensor::randn(2, 2, rng));
  std::vector<const Tensor*> xp;
  for (auto& x : xs) xp.push_back(&x);

  auto loss = [&] {
    nn::LSTMSequence seq(&cell);
    auto hs = seq.forward(xp, nullptr, "t");
    float s = 0.0f;
    for (auto& h : hs) s += testutil::sum(h);
    return s;
  };

  nn::LSTMSequence seq(&cell);
  auto hs = seq.forward(xp, nullptr, "t");
  nn::zero_grads(cell.params());
  std::vector<Tensor> d_hs;
  for (auto& h : hs) d_hs.push_back(ones_like(h));
  auto dxs = seq.backward(d_hs, nullptr, "t");

  for (int t = 0; t < 4; ++t) {
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        EXPECT_NEAR(dxs[t].at(r, c), numeric_grad(xs[t], r, c, loss), 3e-2f)
            << "t=" << t;
      }
    }
  }
  auto& w = cell.weight();
  EXPECT_NEAR(w.grad.at(0, 0), numeric_grad(w.value, 0, 0, loss), 5e-2f);
  EXPECT_NEAR(w.grad.at(4, 7), numeric_grad(w.value, 4, 7, loss), 5e-2f);
}

TEST(GruCell, GradientCheckAllPaths) {
  Rng rng(5);
  nn::GRUCell cell(3, 4, rng);
  Tensor x = Tensor::randn(2, 3, rng);
  Tensor h0 = Tensor::randn(2, 4, rng, 0.5f);
  auto loss = [&] {
    nn::GRUCell::Cache cache;
    return testutil::sum(cell.forward(x, h0, cache, nullptr, "t"));
  };

  nn::GRUCell::Cache cache;
  Tensor h = cell.forward(x, h0, cache, nullptr, "t");
  nn::zero_grads(cell.params());
  auto [dx, dh0] = cell.backward(cache, ones_like(h), nullptr, "t");

  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(dx.at(r, c), numeric_grad(x, r, c, loss), 2e-2f);
    }
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(dh0.at(r, c), numeric_grad(h0, r, c, loss), 2e-2f);
    }
  }
  auto params = cell.params();
  for (auto* p : params) {
    EXPECT_NEAR(p->grad.at(0, 0), numeric_grad(p->value, 0, 0, loss), 3e-2f);
  }
}

TEST(GruCell, HiddenStateStaysBounded) {
  // GRU output is a convex combination of tanh output and previous state;
  // repeated application from a bounded start must remain bounded.
  Rng rng(6);
  nn::GRUCell cell(2, 3, rng);
  Tensor h = Tensor::zeros(4, 3);
  const Tensor x = Tensor::randn(4, 2, rng);
  for (int i = 0; i < 50; ++i) {
    nn::GRUCell::Cache cache;
    h = cell.forward(x, h, cache, nullptr, "t");
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_LE(std::abs(h.data()[i]), 1.0f + 1e-5f);
  }
}

// ---------- Fused cell passes vs. the op-by-op composition ----------
//
// nn::LSTMCell and models::TGcn run their gate math as fused row passes.
// The reference functions below are the ops:: compositions those passes
// replaced; every output, cache tensor and gradient must match them bit for
// bit, at pool widths 1 and 8.

using testutil::expect_same_bits;

/// randn with exact zeros and negative zeros mixed in, so the fused passes
/// must reproduce signed-zero results (`0.0f + -0.0f` is +0.0f) too.
Tensor spiky(int rows, int cols, Rng& rng) {
  Tensor t = Tensor::randn(rows, cols, rng);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i % 7 == 3) t.data()[i] = 0.0f;
    if (i % 11 == 5) t.data()[i] = -0.0f;
  }
  return t;
}

/// Captures record names in call order.
class NameRecorder final : public kernels::KernelRecorder {
 public:
  void record(const std::string& name, const gpusim::KernelStats&) override {
    names.push_back(name);
  }
  std::vector<std::string> names;
};

/// Runs check() at pool widths 1 and 8 with a low work floor, so the
/// 8-wide run splits even these small passes into several blocks.
void at_widths_1_and_8(const std::function<void()>& check) {
  for (const int width : {1, 8}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    ComputePool::instance().configure(width);
    ComputePool::set_min_block_work(64);
    check();
  }
  ComputePool::set_min_block_work(0);
  ComputePool::instance().configure(0);
}

struct LstmRef {
  Tensor xh, i, f, g, o, c, tanh_c, h;
};

LstmRef ref_lstm_forward(const Tensor& w, const Tensor& b, int hid,
                         const Tensor& x, const Tensor& h_prev,
                         const Tensor& c_prev) {
  LstmRef r;
  r.xh = ops::concat_cols(x, h_prev);
  Tensor gates = ops::matmul(r.xh, w);
  ops::add_bias(gates, b);
  r.i = ops::sigmoid(ops::slice_cols(gates, 0, hid));
  r.f = ops::sigmoid(ops::slice_cols(gates, hid, hid));
  r.g = ops::tanh(ops::slice_cols(gates, 2 * hid, hid));
  r.o = ops::sigmoid(ops::slice_cols(gates, 3 * hid, hid));
  r.c = ops::mul(r.f, c_prev);
  ops::add_inplace(r.c, ops::mul(r.i, r.g));
  r.tanh_c = ops::tanh(r.c);
  r.h = ops::mul(r.o, r.tanh_c);
  return r;
}

/// Returns (dx, dh_prev, dc_prev); accumulates into dw and db.
std::tuple<Tensor, Tensor, Tensor> ref_lstm_backward(
    const Tensor& w, int in, int hid, const LstmRef& r, const Tensor& c_prev,
    const Tensor& dh, const Tensor& dc, Tensor& dw, Tensor& db) {
  Tensor dc_total = ops::tanh_grad(ops::mul(dh, r.o), r.tanh_c);
  if (!dc.empty()) ops::add_inplace(dc_total, dc);
  const Tensor d_o = ops::mul(dh, r.tanh_c);
  const Tensor d_f = ops::mul(dc_total, c_prev);
  Tensor dc_prev = ops::mul(dc_total, r.f);
  const Tensor d_i = ops::mul(dc_total, r.g);
  const Tensor d_g = ops::mul(dc_total, r.i);
  Tensor da(dh.rows(), 4 * hid);
  ops::add_into_cols(da, ops::sigmoid_grad(d_i, r.i), 0);
  ops::add_into_cols(da, ops::sigmoid_grad(d_f, r.f), hid);
  ops::add_into_cols(da, ops::tanh_grad(d_g, r.g), 2 * hid);
  ops::add_into_cols(da, ops::sigmoid_grad(d_o, r.o), 3 * hid);
  ops::gemm(r.xh, da, dw, true, false, 1.0f, 1.0f);
  ops::add_inplace(db, ops::bias_grad(da));
  auto [dx, dh_prev] = ops::split_cols(ops::matmul(da, w, false, true), in);
  return {std::move(dx), std::move(dh_prev), std::move(dc_prev)};
}

void check_fused_lstm_cell(bool with_dc) {
  at_widths_1_and_8([&] {
    constexpr int kRows = 67, kIn = 5, kHid = 6;
    Rng rng(41);
    nn::LSTMCell cell(kIn, kHid, rng);
    for (nn::Parameter* p : cell.params()) {
      p->value = spiky(p->value.rows(), p->value.cols(), rng);
      p->grad = spiky(p->grad.rows(), p->grad.cols(), rng);
    }
    const Tensor x = spiky(kRows, kIn, rng);
    const Tensor h0 = spiky(kRows, kHid, rng);
    const Tensor c0 = spiky(kRows, kHid, rng);
    const Tensor dh = spiky(kRows, kHid, rng);
    const Tensor dc = with_dc ? spiky(kRows, kHid, rng) : Tensor();
    const nn::Parameter& w = *cell.params()[0];
    const nn::Parameter& b = *cell.params()[1];
    Tensor ref_dw = w.grad;
    Tensor ref_db = b.grad;

    NameRecorder rec;
    nn::LSTMCell::Cache cache;
    auto [h, c] = cell.forward(x, h0, c0, cache, &rec, "t");
    const LstmRef ref = ref_lstm_forward(w.value, b.value, kHid, x, h0, c0);
    expect_same_bits(cache.xh, ref.xh, "xh");
    expect_same_bits(cache.i, ref.i, "i");
    expect_same_bits(cache.f, ref.f, "f");
    expect_same_bits(cache.g, ref.g, "g");
    expect_same_bits(cache.o, ref.o, "o");
    expect_same_bits(cache.c_prev, c0, "c_prev");
    expect_same_bits(cache.c, ref.c, "c");
    expect_same_bits(cache.tanh_c, ref.tanh_c, "tanh_c");
    expect_same_bits(h, ref.h, "h");
    expect_same_bits(c, ref.c, "returned c");

    auto [dx, dh0, dc0] = cell.backward(cache, dh, dc, &rec, "t");
    auto [ref_dx, ref_dh0, ref_dc0] = ref_lstm_backward(
        w.value, kIn, kHid, ref, c0, dh, dc, ref_dw, ref_db);
    expect_same_bits(dx, ref_dx, "dx");
    expect_same_bits(dh0, ref_dh0, "dh_prev");
    expect_same_bits(dc0, ref_dc0, "dc_prev");
    expect_same_bits(w.grad, ref_dw, "dW");
    expect_same_bits(b.grad, ref_db, "db");
    EXPECT_EQ(rec.names,
              (std::vector<std::string>{"gemm:t.gates", "ew:t.act",
                                        "ew:t.act.bwd", "gemm:t.gates.dw",
                                        "gemm:t.gates.dx"}));
  });
}

TEST(FusedLstmCell, BitIdenticalToOpCompositionWithoutDc) {
  check_fused_lstm_cell(/*with_dc=*/false);
}

TEST(FusedLstmCell, BitIdenticalToOpCompositionWithDc) {
  check_fused_lstm_cell(/*with_dc=*/true);
}

TEST(FusedTgcnStep, BitIdenticalToOpComposition) {
  at_widths_1_and_8([&] {
    constexpr int kRows = 71, kIn = 3, kHid = 5;
    Rng rng(43);
    models::TGcn model(kIn, kHid, rng);
    auto params = model.params();
    for (nn::Parameter* p : params) {
      p->value = spiky(p->value.rows(), p->value.cols(), rng);
      p->grad = spiky(p->grad.rows(), p->grad.cols(), rng);
    }
    // Reference hidden transforms U_z, U_r, U_n (params 6..11: weight,
    // bias pairs after the three input gates) with the same values/grads.
    std::vector<nn::Linear> u(3, nn::Linear(kHid, kHid, rng));
    for (int l = 0; l < 3; ++l) {
      u[l].weight() = *params[6 + 2 * l];
      u[l].bias() = *params[7 + 2 * l];
    }
    nn::Linear& hz = u[0];
    nn::Linear& hr = u[1];
    nn::Linear& hn = u[2];
    const Tensor uz = spiky(kRows, kHid, rng);
    const Tensor ur = spiky(kRows, kHid, rng);
    const Tensor un = spiky(kRows, kHid, rng);
    const Tensor h0 = spiky(kRows, kHid, rng);
    const Tensor dh = spiky(kRows, kHid, rng);

    NameRecorder rec;
    models::TGcn::StepCache cache;
    const Tensor h = model.step(uz, ur, un, h0, cache, &rec);

    Tensor az = hz.forward(h0, nullptr, "ref");
    ops::add_inplace(az, uz);
    Tensor ar = hr.forward(h0, nullptr, "ref");
    ops::add_inplace(ar, ur);
    const Tensor z = ops::sigmoid(az);
    const Tensor r = ops::sigmoid(ar);
    const Tensor rh = ops::mul(r, h0);
    Tensor an = hn.forward(rh, nullptr, "ref");
    ops::add_inplace(an, un);
    const Tensor n = ops::tanh(an);
    Tensor ref_h(kRows, kHid);
    for (std::size_t i = 0; i < ref_h.size(); ++i) {
      const float zi = z.data()[i];
      ref_h.data()[i] = (1.0f - zi) * n.data()[i] + zi * h0.data()[i];
    }
    expect_same_bits(cache.h_prev, h0, "h_prev");
    expect_same_bits(cache.z, z, "z");
    expect_same_bits(cache.r, r, "r");
    expect_same_bits(cache.rh, rh, "rh");
    expect_same_bits(cache.n, n, "n");
    expect_same_bits(h, ref_h, "h");

    Tensor d_uz, d_ur, d_un;
    const Tensor dh0 = model.step_backward(cache, dh, d_uz, d_ur, d_un, &rec);

    const Tensor dz = ops::mul(dh, ops::sub(h0, n));
    const Tensor dn =
        ops::mul(dh, ops::sub(Tensor::full(kRows, kHid, 1.0f), z));
    Tensor ref_dh0 = ops::mul(dh, z);
    const Tensor dan = ops::tanh_grad(dn, n);
    const Tensor drh = hn.backward(rh, dan, nullptr, "ref");
    const Tensor dr = ops::mul(drh, h0);
    ops::add_inplace(ref_dh0, ops::mul(drh, r));
    const Tensor daz = ops::sigmoid_grad(dz, z);
    const Tensor dar = ops::sigmoid_grad(dr, r);
    ops::add_inplace(ref_dh0, hz.backward(h0, daz, nullptr, "ref"));
    ops::add_inplace(ref_dh0, hr.backward(h0, dar, nullptr, "ref"));
    expect_same_bits(d_uz, daz, "d_uz");
    expect_same_bits(d_ur, dar, "d_ur");
    expect_same_bits(d_un, dan, "d_un");
    expect_same_bits(dh0, ref_dh0, "dh_prev");
    for (int l = 0; l < 3; ++l) {
      const std::string tag = "U" + std::to_string(l);
      expect_same_bits(params[6 + 2 * l]->grad, u[l].weight().grad,
                       tag + " dW");
      expect_same_bits(params[7 + 2 * l]->grad, u[l].bias().grad,
                       tag + " db");
    }
    EXPECT_EQ(rec.names,
              (std::vector<std::string>{
                  "gemm:rnn.tgcn.hz", "gemm:rnn.tgcn.hr", "gemm:rnn.tgcn.hn",
                  "ew:rnn.tgcn.act", "gemm:rnn.tgcn.hn.dw",
                  "gemm:rnn.tgcn.hn.dx", "gemm:rnn.tgcn.hz.dw",
                  "gemm:rnn.tgcn.hz.dx", "gemm:rnn.tgcn.hr.dw",
                  "gemm:rnn.tgcn.hr.dx", "ew:rnn.tgcn.act.bwd"}));
  });
}

TEST(Optim, SgdDescendsQuadratic) {
  nn::Parameter p(Tensor::full(1, 1, 5.0f));
  nn::Sgd sgd(0.1f);
  for (int i = 0; i < 100; ++i) {
    p.grad.at(0, 0) = 2.0f * p.value.at(0, 0);  // d/dx x^2.
    sgd.step({&p});
  }
  EXPECT_NEAR(p.value.at(0, 0), 0.0f, 1e-3f);
}

TEST(Optim, AdamDescendsQuadratic) {
  nn::Parameter p(Tensor::full(1, 1, 5.0f));
  nn::Adam adam(0.1f);
  for (int i = 0; i < 500; ++i) {
    p.grad.at(0, 0) = 2.0f * p.value.at(0, 0);
    adam.step({&p});
  }
  EXPECT_NEAR(p.value.at(0, 0), 0.0f, 1e-2f);
}

TEST(Optim, AdamRejectsChangedParamList) {
  nn::Parameter a(Tensor::zeros(1, 1)), b(Tensor::zeros(1, 1));
  nn::Adam adam;
  adam.step({&a});
  EXPECT_THROW(adam.step({&a, &b}), Error);
}

}  // namespace
}  // namespace pipad
