// All-budget frontier and access-curve tests (DESIGN.md §9):
//  * frontier[b] is byte-identical to the per-budget allocator at b for
//    every algorithm, on built-in kernels and on fuzzed random kernels
//    (the frontier evaluates once at the top budget; the per-budget calls
//    evaluate at b — so this pins the monotone-prefix property the slices
//    rely on),
//  * AccessCurve slots agree with the memoized count/strategy path and
//    clamp correctly past saturation,
//  * the DSE engine's frontier evaluation produces byte-identical reports
//    to the per-point oracle for any lane count,
//  * the collapsed cycle model stays bit-identical to the full-walk oracle
//    on the deep built-in kernels (the nested level collapse is exercised
//    hardest by BIC's 4-deep nest).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/curve.h"
#include "support/error.h"
#include "core/frontier.h"
#include "dse/report.h"
#include "kernels/kernels.h"
#include "random_kernel.h"
#include "sched/cycle_model.h"
#include "support/rng.h"

namespace srra {
namespace {

using srra::testing::random_kernel;

void expect_frontier_matches(const RefModel& model, std::int64_t max_budget,
                             const std::string& label) {
  for (const Algorithm algorithm : all_algorithms()) {
    const AllocationFrontier frontier = allocate_frontier(algorithm, model, max_budget);
    EXPECT_EQ(frontier.min_budget, model.group_count());
    EXPECT_EQ(frontier.max_budget, max_budget);
    ASSERT_EQ(frontier.index.size(),
              static_cast<std::size_t>(max_budget - frontier.min_budget) + 1);
    for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
      const Allocation sliced = frontier.at(b);
      const Allocation direct = allocate(algorithm, model, b);
      EXPECT_EQ(sliced.regs, direct.regs)
          << label << " " << algorithm_name(algorithm) << " at budget " << b
          << ": frontier " << sliced.distribution() << " vs direct "
          << direct.distribution();
      EXPECT_EQ(sliced.budget, b);
      EXPECT_EQ(sliced.algorithm, direct.algorithm);
      EXPECT_NO_THROW(sliced.validate(model));
    }
  }
}

TEST(Frontier, MatchesPerBudgetOnBuiltinKernels) {
  expect_frontier_matches(RefModel(kernels::paper_example()), 80, "example");
  for (const kernels::NamedKernel& nk : kernels::table1_kernels()) {
    expect_frontier_matches(RefModel(nk.kernel.clone()), 128, nk.name);
  }
}

TEST(Frontier, StepsAreDeduplicatedBreakpoints) {
  const RefModel model(kernels::paper_example());
  const AllocationFrontier frontier = allocate_fr_frontier(model, 128);
  // FR-RA is all-or-nothing per reference: far fewer breakpoints than
  // budgets, and consecutive steps must differ.
  EXPECT_LT(frontier.steps.size(), frontier.index.size());
  for (std::size_t s = 1; s < frontier.steps.size(); ++s) {
    EXPECT_NE(frontier.steps[s].regs, frontier.steps[s - 1].regs);
  }
  // Every step is stamped with the first budget it appears at.
  for (std::size_t b = 0; b < frontier.index.size(); ++b) {
    const Allocation& step = frontier.steps[static_cast<std::size_t>(frontier.index[b])];
    EXPECT_LE(step.budget, frontier.min_budget + static_cast<std::int64_t>(b));
  }
}

TEST(Frontier, AtThrowsOutsideRange) {
  const RefModel model(kernels::paper_example());
  const AllocationFrontier frontier = allocate_fr_frontier(model, 64);
  EXPECT_THROW(frontier.at(model.group_count() - 1), Error);
  EXPECT_THROW(frontier.at(65), Error);
  EXPECT_NO_THROW(frontier.at(model.group_count()));
  EXPECT_NO_THROW(frontier.at(64));
}

TEST(Frontier, BuildBelowFeasibilityThrows) {
  const RefModel model(kernels::paper_example());
  EXPECT_THROW(allocate_fr_frontier(model, model.group_count() - 1), Error);
}

TEST(AccessCurve, MatchesMemoizedCountsAndStrategies) {
  const RefModel model(kernels::paper_example());
  const AccessCurve& curve = model.access_curve(48);
  // A second, independent model answers through the memo path only.
  const RefModel oracle(kernels::paper_example());
  for (int g = 0; g < model.group_count(); ++g) {
    ASSERT_GE(curve.cap(g), 0);
    for (std::int64_t r = 0; r <= curve.cap(g); ++r) {
      EXPECT_EQ(curve.steady(g, r), oracle.accesses(g, r, CountMode::kSteady))
          << "group " << g << " regs " << r;
      EXPECT_EQ(curve.total(g, r), oracle.accesses(g, r, CountMode::kTotal))
          << "group " << g << " regs " << r;
      const RefStrategy expect = oracle.strategy(g, r);
      const RefStrategy got = curve.strategy(g, r);
      EXPECT_EQ(got.carry_level, expect.carry_level) << "group " << g << " regs " << r;
      EXPECT_EQ(got.held_limit, expect.held_limit) << "group " << g << " regs " << r;
    }
  }
}

TEST(AccessCurve, ClampsPastSaturation) {
  const RefModel model(kernels::paper_example());
  // Build a curve that tabulates every group to saturation.
  std::int64_t top = 0;
  for (int g = 0; g < model.group_count(); ++g) top = std::max(top, model.beta_full(g));
  const AccessCurve& curve = model.access_curve(top + 8);
  const RefModel oracle(kernels::paper_example());
  for (int g = 0; g < model.group_count(); ++g) {
    EXPECT_TRUE(curve.covers(g, curve.cap(g) + 1000));
    EXPECT_EQ(curve.steady(g, curve.cap(g) + 1000),
              oracle.accesses(g, curve.cap(g) + 1000, CountMode::kSteady));
    EXPECT_FALSE(curve.covers(g, -1));
  }
}

TEST(AccessCurve, GrowsAndServesAccessesLockFree) {
  const RefModel model(kernels::paper_example());
  const AccessCurve& small = model.access_curve(8);
  EXPECT_GE(small.max_regs(), 8);
  // Growing publishes a larger table; the old reference stays valid.
  const AccessCurve& big = model.access_curve(32);
  EXPECT_GE(big.max_regs(), 32);
  EXPECT_EQ(small.steady(0, 2), big.steady(0, 2));
  // accesses() now answers covered queries from the published curve.
  EXPECT_EQ(model.accesses(0, 2, CountMode::kSteady), big.steady(0, 2));
}

TEST(Frontier, FuzzedKernelsMatchPerBudget) {
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    Rng rng(fuzz_seed() + static_cast<std::uint64_t>(i) * 104729 + 11);
    const RefModel model(random_kernel(rng));
    const std::int64_t max_budget = model.group_count() + rng.uniform(1, 24);
    SCOPED_TRACE("fuzz instance " + std::to_string(i) + " — replay with SRRA_FUZZ_SEED=" +
                 std::to_string(fuzz_seed() + static_cast<std::uint64_t>(i) * 104729 + 11));
    expect_frontier_matches(model, max_budget, "fuzz");
  }
}

TEST(Frontier, ExploreFrontierMatchesPerPointOracle) {
  const auto run = [](bool frontier, int jobs) {
    dse::AxisSpec axes;
    axes.kernels.push_back({"example", kernels::paper_example()});
    auto table1 = kernels::table1_kernels();
    axes.kernels.push_back({table1[0].name, std::move(table1[0].kernel)});
    axes.algorithms = all_algorithms();
    axes.budgets = {2, 8, 16, 33, 64};  // 2 is infeasible for both kernels
    axes.fetch_modes = {true, false};
    dse::ExploreOptions options;
    options.jobs = jobs;
    options.frontier = frontier;
    std::ostringstream out;
    dse::write_points_report(out, dse::explore(std::move(axes), options), dse::Format::kCsv);
    return out.str();
  };
  const std::string frontier_j1 = run(true, 1);
  EXPECT_EQ(frontier_j1, run(false, 1));  // frontier == per-point oracle
  EXPECT_EQ(frontier_j1, run(true, 4));   // and independent of lane count
  EXPECT_EQ(frontier_j1, run(false, 4));
}

TEST(CycleModel, CollapsedMatchesFullWalkOnDeepKernels) {
  // The nested level collapse must stay bit-identical to the full
  // iteration-space walk; BIC (4-deep) and IMI (3-deep) exercise the
  // recursive levels hardest.
  for (auto& nk : kernels::table1_kernels()) {
    const RefModel model(nk.kernel.clone());
    for (const Algorithm algorithm : {Algorithm::kPrRa, Algorithm::kCpaRa}) {
      const Allocation a = allocate(algorithm, model, 48);
      CycleOptions collapsed;
      CycleOptions full;
      full.full_iteration_walk = true;
      const CycleReport c = estimate_cycles(model, a, collapsed);
      const CycleReport f = estimate_cycles(model, a, full);
      EXPECT_EQ(c.mem_cycles, f.mem_cycles) << nk.name << " " << algorithm_name(algorithm);
      EXPECT_EQ(c.exec_cycles, f.exec_cycles) << nk.name << " " << algorithm_name(algorithm);
      EXPECT_EQ(c.ram_accesses, f.ram_accesses) << nk.name << " " << algorithm_name(algorithm);
      EXPECT_EQ(c.iterations, f.iterations) << nk.name << " " << algorithm_name(algorithm);
    }
  }
}

}  // namespace
}  // namespace srra
