// Pins the benchmark's own arithmetic: percentile ranks and the
// ten-beyond-p99 rule, seeded draw determinism, and span self time.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.5), 50);
  EXPECT_EQ(quantile(v, 0.99), 99);
  EXPECT_EQ(quantile(v, 1.0), 100);
  EXPECT_EQ(quantile({7.0}, 0.99), 7);
  EXPECT_EQ(rank_index(1000, 0.99), 989u);  // rank 990 of 1000
  EXPECT_EQ(rank_index(3, 0.5), 1u);        // rank 2 of 3
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentiles, TenBeyondP99) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(tail_is_resolved(1000, 0.99));
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(tail_is_resolved(999, 0.99));
  EXPECT_FALSE(tail_is_resolved(100, 0.99));
  EXPECT_TRUE(tail_is_resolved(20000, 0.99));
  EXPECT_EQ(samples_beyond(0, 0.99), 0u);
}

TEST(Draws, SameSeedSameStream) {
  Rng a(42), b(42), c(43);
  std::vector<std::uint64_t> xa, xb, xc;
  for (int i = 0; i < 64; ++i) {
    xa.push_back(a.next());
    xb.push_back(b.next());
    xc.push_back(c.next());
  }
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
  // Pinned: the first SplitMix64 output for seed 0.
  EXPECT_EQ(Rng(0).next(), 0xe220a8397b1dcdafULL);
  EXPECT_NE(stream_seed(7, 0), stream_seed(7, 1));
  EXPECT_EQ(stream_seed(7, 3), stream_seed(7, 3));
}

TEST(Draws, ZipfAndPermutationAreDeterministicAndSkewed) {
  const Zipf zipf(50, 1.0);
  Rng a(9), b(9);
  std::vector<std::size_t> counts(50, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t x = zipf.draw(a);
    ASSERT_EQ(x, zipf.draw(b));
    ASSERT_LT(x, 50u);
    ++counts[x];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  // Rank 0 carries 1/H(50) ~ 22.2% of the mass.
  EXPECT_NEAR(static_cast<double>(counts[0]) / 20000.0, 0.222, 0.015);

  Rng p(5), q(5);
  const std::vector<std::size_t> order = permutation(10, p);
  EXPECT_EQ(order, permutation(10, q));
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Spans, SelfTimeOnAHandBuiltTree) {
  // root [0,100]
  //   a [10,40]          a's child x [20,30]
  //   b [35,60]          (overlaps a: [35,40] counted once for root)
  //   c [90,120]         (clipped to the root at 100)
  // d [200,210] (a second root with no children)
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1}, {"a", 10, 40, 0, 1}, {"b", 35, 60, 0, 1},
      {"c", 90, 120, 0, 1},    {"x", 20, 30, 1, 1}, {"d", 200, 210, -1, 2},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (60 - 10) - (100 - 90));  // 40
  EXPECT_EQ(self[1], 30 - 10);                        // 20
  EXPECT_EQ(self[2], 25);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 10);

  spans.push_back({"a", 300, 305, 5, 2});  // a second "a" under d
  const std::map<std::string, LayerTime> layers = by_name(spans);
  EXPECT_EQ(layers.at("a").calls, 2);
  EXPECT_EQ(layers.at("a").self_ns, 20 + 5);
  EXPECT_EQ(layers.at("d").self_ns, 10);  // child outside its interval
  EXPECT_EQ(layers.at("root").self_ns, 40);
}

TEST(Quality, FrontierGeomean) {
  std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>> points;
  points["K"] = {{4, 1000}, {16, 500}, {64, 100}};
  // budgets 8, 16, 32, 64 -> 1000, 500, 500, 100
  EXPECT_NEAR(frontier_geomean(points), std::pow(1000.0 * 500 * 500 * 100, 0.25), 1e-6);
  points["L"] = {{10, 50}};  // budget 8 fits nothing: skipped
  EXPECT_NEAR(frontier_geomean(points),
              std::pow(1000.0 * 500 * 500 * 100 * 50 * 50 * 50, 1.0 / 7), 1e-6);
  EXPECT_EQ(digest("abc"), digest("abc"));
  EXPECT_NE(digest("abc"), digest("abd"));
}

}  // namespace
}  // namespace perfbench
