// The two non-DP allocator families (DESIGN.md §11):
//  * LS-RA: weighted linear scan over scalar live intervals — structural
//    interval construction, frontier slices byte-identical to per-budget
//    runs, and quality within 2% of the greedy family's best at budget 64
//    (of the certified optimum on every kernel but the worked example);
//  * BB-RA: branch-and-bound certification — certifies the worked example
//    and every built-in kernel, never beats (nor loses to) the DP on the
//    serial objective, agrees with brute-force enumeration on tiny budgets,
//    and degrades to the DP incumbent when the node budget runs out;
// plus the pinned gap-to-optimal table: the exact steady access count of
// every legacy heuristic at budget 64 against the BB-RA certified optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/bnb_optimal.h"
#include "core/linear_scan.h"
#include "core/optimal.h"
#include "core/registry.h"
#include "kernels/kernels.h"
#include "support/rng.h"
#include "random_kernel.h"

namespace srra {
namespace {

std::int64_t steady_accesses(const RefModel& m, const Allocation& a) {
  std::int64_t total = 0;
  for (int g = 0; g < m.group_count(); ++g) {
    total += m.accesses(g, a.at(g), CountMode::kSteady);
  }
  return total;
}

TEST(LinearScan, IntervalsAreStructural) {
  const RefModel m(kernels::paper_example());
  const std::vector<LiveInterval> intervals = scalar_live_intervals(m);
  EXPECT_FALSE(intervals.empty());
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const LiveInterval& iv = intervals[i];
    EXPECT_LE(iv.start, iv.end);
    EXPECT_EQ(iv.need, m.beta_full(iv.group) - 1);
    EXPECT_GT(iv.need, 0);  // groups without reuse never enter the scan
    if (i > 0) {
      EXPECT_LE(intervals[i - 1].start, iv.start);
    }
  }
}

TEST(LinearScan, ValidOnAllKernelsAcrossBudgets) {
  for (const auto& nk : kernels::all_kernels()) {
    const RefModel m(nk.kernel.clone());
    const std::vector<std::int64_t> budgets{m.group_count(), 8, 64, 256};
    for (const std::int64_t budget : budgets) {
      if (budget < m.group_count()) continue;
      const Allocation a = allocate_linear_scan(m, budget);
      EXPECT_NO_THROW(a.validate(m)) << nk.name << " budget " << budget;
      EXPECT_EQ(a.algorithm, "LS-RA");
    }
  }
}

TEST(LinearScan, FrontierSlicesMatchSingleBudgetRuns) {
  for (const auto& nk : kernels::all_kernels()) {
    const RefModel m(nk.kernel.clone());
    const std::int64_t max_budget = 96;
    const AllocationFrontier frontier = allocate_linear_scan_frontier(m, max_budget);
    for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
      const Allocation sliced = frontier.at(b);
      const Allocation direct = allocate_linear_scan(m, b);
      EXPECT_EQ(sliced.regs, direct.regs) << nk.name << " budget " << b;
      EXPECT_EQ(sliced.algorithm, direct.algorithm);
      EXPECT_EQ(sliced.budget, direct.budget);
    }
  }
}

TEST(LinearScan, FrontierSlicesMatchOnFuzzedKernels) {
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_seed() + static_cast<std::uint64_t>(i) * 52361 + 7;
    Rng rng(seed);
    const RefModel m(srra::testing::random_kernel(rng));
    const std::int64_t max_budget = m.group_count() + rng.uniform(1, 24);
    SCOPED_TRACE("fuzz instance " + std::to_string(i) +
                 " — replay with SRRA_FUZZ_SEED=" + std::to_string(seed));
    const AllocationFrontier frontier = allocate_linear_scan_frontier(m, max_budget);
    for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
      EXPECT_EQ(frontier.at(b).regs, allocate_linear_scan(m, b).regs) << "budget " << b;
    }
  }
}

TEST(BnbOptimal, CertifiesAllBuiltinKernels) {
  for (const auto& nk : kernels::builtin_kernels()) {
    const RefModel m(nk.kernel.clone());
    ASSERT_LE(m.group_count(), 8) << nk.name;  // the certification size class
    const BnbResult r = allocate_bnb_certified(m, 64);
    EXPECT_TRUE(r.certified) << nk.name;
    EXPECT_EQ(r.allocation.algorithm, "BB-RA");
    EXPECT_NO_THROW(r.allocation.validate(m)) << nk.name;
    EXPECT_EQ(r.accesses, steady_accesses(m, r.allocation)) << nk.name;
    EXPECT_LE(r.lower_bound, r.accesses) << nk.name;

    // Certified optimum never loses to the DP on the DP's own objective —
    // and the DP being exact for the separable objective, never wins
    // either. The certificate is that the search *proved* it.
    const std::int64_t dp = steady_accesses(m, allocate_optimal_dp(m, 64));
    EXPECT_EQ(r.accesses, dp) << nk.name;
  }
}

// Independent witness for the search: exhaustive enumeration of every
// feasible assignment at a small budget must agree with the certified
// optimum — this checks the staircase restriction and the bound, not just
// that the search reproduces its own seed.
std::int64_t brute_force_optimum(const RefModel& m, std::int64_t budget) {
  const int groups = m.group_count();
  std::vector<std::int64_t> regs(static_cast<std::size_t>(groups), 1);
  std::int64_t best = -1;
  const std::function<void(int, std::int64_t)> enumerate = [&](int g,
                                                               std::int64_t left) {
    if (g == groups) {
      std::int64_t total = 0;
      for (int i = 0; i < groups; ++i) {
        total += m.accesses(i, regs[static_cast<std::size_t>(i)], CountMode::kSteady);
      }
      if (best < 0 || total < best) best = total;
      return;
    }
    const std::int64_t cap =
        std::min(m.beta_full(g), left - (groups - g - 1));
    for (std::int64_t n = 1; n <= cap; ++n) {
      regs[static_cast<std::size_t>(g)] = n;
      enumerate(g + 1, left - n);
    }
  };
  enumerate(0, budget);
  return best;
}

TEST(BnbOptimal, MatchesBruteForceOnSmallBudgets) {
  for (const auto& nk : kernels::all_kernels()) {
    const RefModel m(nk.kernel.clone());
    const std::int64_t budget = m.group_count() + 5;
    const BnbResult r = allocate_bnb_certified(m, budget);
    EXPECT_TRUE(r.certified) << nk.name;
    EXPECT_EQ(r.accesses, brute_force_optimum(m, budget)) << nk.name;
  }
}

TEST(BnbOptimal, FrontierSlicesMatchSingleBudgetRuns) {
  const RefModel m(kernels::paper_example());
  const std::int64_t max_budget = 80;
  const AllocationFrontier frontier = allocate_bnb_frontier(m, max_budget);
  for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
    const Allocation direct = allocate_bnb(m, b);
    EXPECT_EQ(frontier.at(b).regs, direct.regs) << "budget " << b;
    EXPECT_EQ(frontier.at(b).algorithm, direct.algorithm);
  }
}

TEST(BnbOptimal, NodeBudgetDegradesToDpIncumbent) {
  const RefModel m(kernels::paper_example());
  BnbOptions options;
  options.max_nodes = 0;  // abort before the first node expands
  const BnbResult r = allocate_bnb_certified(m, 64, options);
  EXPECT_FALSE(r.certified);
  const Allocation dp = allocate_optimal_dp(m, 64);
  EXPECT_EQ(r.allocation.regs, dp.regs);  // seed survives the abort intact
  EXPECT_EQ(r.accesses, steady_accesses(m, dp));
}

// The pinned gap-to-optimal table (ROADMAP item 1): exact steady access
// counts at budget 64 for every allocator against the BB-RA certified
// optimum. An allocator change that moves any of these numbers is a
// behavior change and must update this table deliberately.
struct GapRow {
  std::int64_t optimum;  // BB-RA == DP-RA, certified
  std::int64_t feasibility;
  std::int64_t fr;
  std::int64_t pr;
  std::int64_t cpa;
  std::int64_t knapsack;
  std::int64_t linear_scan;
};

TEST(GapToOptimal, PinnedAtBudget64) {
  const std::map<std::string, GapRow> pinned = {
      //                optimum   feas     FR-RA    PR-RA    CPA-RA   KS-RA    LS-RA
      {"example",  GapRow{2396,   4800,    3600,    3120,    2928,    3600,    3120}},
      {"FIR",      GapRow{2047,   65536,   32768,   2047,    2047,    32768,   2047}},
      {"Dec-FIR",  GapRow{16896,  32768,   32768,   16896,   17660,   32768,   16896}},
      {"IMI",      GapRow{24072,  24576,   24576,   24080,   24072,   24576,   24080}},
      {"MAT",      GapRow{3344,   8192,    4096,    3344,    3344,    4096,    3344}},
      {"PAT",      GapRow{1985,   63552,   31776,   1985,    1985,    31776,   1985}},
      {"BIC",      GapRow{214377, 415872,  415872,  214434,  223953,  415872,  214434}},
      {"CONV2D",   GapRow{12096,  73728,   36864,   12096,   12096,   36864,   12096}},
      {"MATVEC",   GapRow{1024,   2048,    1024,    1024,    1024,    1024,    1024}},
  };

  for (const auto& nk : kernels::builtin_kernels()) {
    ASSERT_TRUE(pinned.count(nk.name)) << nk.name << " missing from the gap table";
    const GapRow& row = pinned.at(nk.name);
    const RefModel m(nk.kernel.clone());

    const BnbResult optimum = allocate_bnb_certified(m, 64);
    ASSERT_TRUE(optimum.certified) << nk.name;
    EXPECT_EQ(optimum.accesses, row.optimum) << nk.name;

    const auto measured = [&](Algorithm alg) {
      return steady_accesses(m, allocate(alg, m, 64));
    };
    EXPECT_EQ(measured(Algorithm::kFeasibility), row.feasibility) << nk.name;
    EXPECT_EQ(measured(Algorithm::kFrRa), row.fr) << nk.name;
    EXPECT_EQ(measured(Algorithm::kPrRa), row.pr) << nk.name;
    EXPECT_EQ(measured(Algorithm::kCpaRa), row.cpa) << nk.name;
    EXPECT_EQ(measured(Algorithm::kKnapsack), row.knapsack) << nk.name;
    EXPECT_EQ(measured(Algorithm::kOptimalDp), row.optimum) << nk.name;  // DP is exact
    EXPECT_EQ(measured(Algorithm::kLinearScan), row.linear_scan) << nk.name;

    // The headline property: LS-RA lands within 2% of the greedy family's
    // best on every kernel, and within 2% of the certified optimum on every
    // kernel but the worked example, where the whole greedy family sits
    // ~30% off the serial optimum by design (the gap CPA-RA closes).
    const std::int64_t greedy = std::min(row.fr, row.pr);
    EXPECT_LE(static_cast<double>(row.linear_scan - greedy), 0.02 * static_cast<double>(greedy))
        << nk.name;
    if (nk.name != "example") {
      EXPECT_LE(static_cast<double>(row.linear_scan - row.optimum),
                0.02 * static_cast<double>(row.optimum))
          << nk.name;
    }
  }
}

}  // namespace
}  // namespace srra
