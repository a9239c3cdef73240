// Model tests: training dynamics, gradient sanity against numerical
// differentiation, and structural invariants of the three DGNNs.
#include <gtest/gtest.h>

#include <algorithm>

#include "models/evolvegcn.hpp"
#include "models/mpnn_lstm.hpp"
#include "models/tgcn.hpp"
#include "nn/optim.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using models::ModelType;

class ModelTrains : public ::testing::TestWithParam<ModelType> {};

TEST_P(ModelTrains, LossDecreasesOverFrames) {
  const auto g = graph::generate(testutil::tiny_config());
  Rng rng(9);
  auto model = models::make_model(GetParam(), g.feat_dim, 8, rng);
  nn::Adam adam(5e-3f);
  auto params = model->params();

  const graph::Frame frame{0, 6};
  testutil::ReferenceExecutor ex(g, frame);
  const auto xs = testutil::frame_features(g, frame);
  const auto ys = testutil::frame_targets(g, frame);

  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 30; ++it) {
    nn::zero_grads(params);
    const float loss = model->train_frame(ex, xs, ys);
    adam.step(params);
    if (it == 0) first = loss;
    last = loss;
    ASSERT_TRUE(std::isfinite(loss)) << "iteration " << it;
  }
  EXPECT_LT(last, first * 0.9f)
      << models::model_type_name(GetParam()) << " failed to learn";
}

TEST_P(ModelTrains, EvalMatchesTrainForwardLoss) {
  const auto g = graph::generate(testutil::tiny_config());
  Rng rng(10);
  auto model = models::make_model(GetParam(), g.feat_dim, 8, rng);
  const graph::Frame frame{1, 5};
  testutil::ReferenceExecutor ex(g, frame);
  const auto xs = testutil::frame_features(g, frame);
  const auto ys = testutil::frame_targets(g, frame);
  nn::zero_grads(model->params());
  const float eval = model->eval_frame(ex, xs, ys);
  const float train = model->train_frame(ex, xs, ys);
  EXPECT_NEAR(eval, train, 1e-5f);
}

TEST_P(ModelTrains, GradientsAreNonZeroEverywhere) {
  // Every parameter must participate in the loss (catches detached paths).
  const auto g = graph::generate(testutil::tiny_config());
  Rng rng(11);
  auto model = models::make_model(GetParam(), g.feat_dim, 8, rng);
  const graph::Frame frame{0, 6};
  testutil::ReferenceExecutor ex(g, frame);
  nn::zero_grads(model->params());
  model->train_frame(ex, testutil::frame_features(g, frame),
                     testutil::frame_targets(g, frame));
  int zero_params = 0;
  for (auto* p : model->params()) {
    const auto& g = p->grad.storage();
    if (std::all_of(g.begin(), g.end(), [](float v) { return v == 0.0f; })) {
      ++zero_params;
    }
  }
  EXPECT_EQ(zero_params, 0);
}

TEST_P(ModelTrains, NumericalGradientSpotCheck) {
  // Perturb one weight entry and compare the loss delta against the
  // analytic gradient (end-to-end through aggregation, RNN and head).
  const auto g = graph::generate(testutil::tiny_config(24, 6, 2));
  Rng rng(12);
  auto model = models::make_model(GetParam(), g.feat_dim, 4, rng);
  const graph::Frame frame{0, 4};
  testutil::ReferenceExecutor ex(g, frame);
  const auto xs = testutil::frame_features(g, frame);
  const auto ys = testutil::frame_targets(g, frame);

  auto params = model->params();
  nn::zero_grads(params);
  model->train_frame(ex, xs, ys);

  nn::Parameter* p = params.front();
  const float analytic = p->grad.at(0, 0);
  const float eps = 1e-2f;
  const float orig = p->value.at(0, 0);
  p->value.at(0, 0) = orig + eps;
  const float hi = model->eval_frame(ex, xs, ys);
  p->value.at(0, 0) = orig - eps;
  const float lo = model->eval_frame(ex, xs, ys);
  p->value.at(0, 0) = orig;
  const float numeric = (hi - lo) / (2.0f * eps);
  EXPECT_NEAR(analytic, numeric,
              std::max(2e-2f, std::abs(numeric) * 0.15f))
      << models::model_type_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelTrains,
                         ::testing::Values(ModelType::MpnnLstm,
                                           ModelType::EvolveGcn,
                                           ModelType::TGcn, ModelType::Gcn),
                         [](const auto& info) {
                           std::string n = models::model_type_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(ModelStructure, AggLayerCounts) {
  Rng rng(13);
  EXPECT_EQ(models::make_model(ModelType::MpnnLstm, 2, 4, rng)
                ->num_agg_layers(), 2);
  EXPECT_EQ(models::make_model(ModelType::EvolveGcn, 2, 4, rng)
                ->num_agg_layers(), 2);
  EXPECT_EQ(models::make_model(ModelType::TGcn, 2, 4, rng)->num_agg_layers(),
            1);
  EXPECT_EQ(models::make_model(ModelType::Gcn, 2, 4, rng)->num_agg_layers(),
            2);
}

TEST(ModelStructure, OnlyEvolveGcnEvolvesWeights) {
  Rng rng(14);
  EXPECT_FALSE(
      models::make_model(ModelType::MpnnLstm, 2, 4, rng)->weights_evolve());
  EXPECT_TRUE(
      models::make_model(ModelType::EvolveGcn, 2, 4, rng)->weights_evolve());
  EXPECT_FALSE(
      models::make_model(ModelType::TGcn, 2, 4, rng)->weights_evolve());
  EXPECT_FALSE(
      models::make_model(ModelType::Gcn, 2, 4, rng)->weights_evolve());
}

TEST(ModelStructure, HiddenDimRuleMatchesPaper) {
  EXPECT_EQ(models::default_hidden_dim(2), 6);
  EXPECT_EQ(models::default_hidden_dim(16), 32);
}

TEST(ModelStructure, DeterministicInitAcrossRuns) {
  Rng rng1(42), rng2(42);
  auto m1 = models::make_model(ModelType::MpnnLstm, 3, 8, rng1);
  auto m2 = models::make_model(ModelType::MpnnLstm, 3, 8, rng2);
  auto p1 = m1->params(), p2 = m2->params();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(testutil::max_abs_diff(p1[i]->value, p2[i]->value), 0.0f);
  }
}

}  // namespace
}  // namespace pipad
