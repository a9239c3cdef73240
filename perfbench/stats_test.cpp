// Tests of the benchmark runner's own helpers (stats.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

}  // namespace

TEST(Percentile, NearestRank) {
  const auto v = one_to(10);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
  EXPECT_DOUBLE_EQ(percentile(v, 91), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailRule, PicksHighestPercentileWithTenBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
  Tail t = tail_percentile(one_to(100));
  EXPECT_DOUBLE_EQ(t.pct, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);

  // 99 samples: p90 is rank 90 with 9 beyond, so the rule falls to p75.
  t = tail_percentile(one_to(99));
  EXPECT_DOUBLE_EQ(t.pct, 75.0);
  EXPECT_EQ(t.beyond, 99u - 75u);

  // 1000 samples: p99 has 10 beyond, p99.9 only 1.
  t = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailRule, TooFewSamplesFallsBackToMedianAndSaysSo) {
  const Tail t = tail_percentile(one_to(12));
  EXPECT_DOUBLE_EQ(t.pct, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 6.0);
  EXPECT_EQ(t.samples, 12u);
  EXPECT_LT(t.beyond, 10u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Geomean, Values) {
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({1.0, -2.0}), 0.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Root [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] sticks out:
  // covered = [1, 6] + [8, 10] = 7, so root self = 3.
  std::vector<Span> s = {
      {"root", 0, 10, -1, ""}, {"a", 1, 4, 0, ""},
      {"b", 3, 6, 0, ""},      {"c", 8, 12, 0, ""},
      {"a.child", 2, 3, 1, ""},
  };
  const auto self = self_times(s);
  ASSERT_EQ(self.size(), s.size());
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);  // [1,4] minus its child [2,3].
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, NestedAndDisjointChildren) {
  std::vector<Span> s = {
      {"root", 0, 10, -1, ""}, {"a", 0, 2, 0, ""}, {"b", 5, 7, 0, ""},
      {"c", 5.5, 6.5, 0, ""},  // Inside b.
  };
  EXPECT_DOUBLE_EQ(self_times(s)[0], 6.0);
}

TEST(Tracer, ScopesNestAndNullTracerRecordsNothing) {
  Tracer t;
  {
    Scope outer(&t, "outer");
    Scope inner(&t, "inner", "req-1");
  }
  { Scope none(nullptr, "ignored"); }
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].req, "req-1");
  EXPECT_LE(spans[1].end, spans[0].end);
  EXPECT_EQ(t.current(), -1);
}
