// Equivalence suite for the periodic collapse (DESIGN.md §8): the collapsed
// access counters and cycle reports must be bit-identical to the full
// iteration-space oracles on every built-in kernel and across randomized
// kernels, budgets, strategies and model knobs. Deterministic by default;
// SRRA_FUZZ_SEED / SRRA_FUZZ_ITERS override the base seed and instance
// count exactly as in test_fuzz, and every failure carries the replay
// recipe.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/periodic.h"
#include "analysis/walker.h"
#include "core/registry.h"
#include "kernels/kernels.h"
#include "random_kernel.h"
#include "sched/cycle_model.h"
#include "support/rng.h"

namespace srra {
namespace {

using srra::testing::random_kernel;

void expect_counts_equal(const GroupCounts& collapsed, const GroupCounts& oracle,
                         const std::string& context) {
  EXPECT_EQ(collapsed.miss_reads, oracle.miss_reads) << context;
  EXPECT_EQ(collapsed.miss_writes, oracle.miss_writes) << context;
  EXPECT_EQ(collapsed.fills, oracle.fills) << context;
  EXPECT_EQ(collapsed.steady_fills, oracle.steady_fills) << context;
  EXPECT_EQ(collapsed.flushes, oracle.flushes) << context;
  EXPECT_EQ(collapsed.steady_flushes, oracle.steady_flushes) << context;
  EXPECT_EQ(collapsed.reg_hits, oracle.reg_hits) << context;
  EXPECT_EQ(collapsed.reg_writes, oracle.reg_writes) << context;
  EXPECT_EQ(collapsed.forwards, oracle.forwards) << context;
}

void expect_reports_equal(const CycleReport& collapsed, const CycleReport& oracle,
                          const std::string& context) {
  EXPECT_EQ(collapsed.mem_cycles, oracle.mem_cycles) << context;
  EXPECT_EQ(collapsed.ram_accesses, oracle.ram_accesses) << context;
  EXPECT_EQ(collapsed.exec_cycles, oracle.exec_cycles) << context;
  EXPECT_EQ(collapsed.iterations, oracle.iterations) << context;
}

// Every window size at every carrying level, up to min(beta + 1, 64) —
// the nested collapse's inert-tail rule fires once a partial window fills,
// at any size — plus beta - 1, beta and beta + 3 beyond that cap.
std::vector<RefStrategy> candidate_strategies(const ReuseInfo& info) {
  std::vector<RefStrategy> candidates;
  candidates.push_back(RefStrategy{});  // no holding
  for (const CarryLevel& cl : info.levels) {
    const std::int64_t cap = std::min<std::int64_t>(cl.beta + 1, 64);
    for (std::int64_t held = 1; held <= cap; ++held) {
      candidates.push_back(RefStrategy{cl.level, held});
    }
    for (const std::int64_t held : {cl.beta - 1, cl.beta, cl.beta + 3}) {
      if (held > cap) candidates.push_back(RefStrategy{cl.level, held});
    }
  }
  return candidates;
}

void check_kernel_counts(const Kernel& kernel, const std::string& name) {
  const auto groups = collect_ref_groups(kernel);
  const auto reuse = analyze_all_reuse(kernel, groups);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    // Fixed-strategy equivalence: collapsed vs full walk for every
    // candidate window shape.
    for (const RefStrategy& strategy : candidate_strategies(reuse[g])) {
      std::ostringstream context;
      context << name << " group " << groups[g].display << " carry "
              << strategy.carry_level << " held " << strategy.held_limit;
      expect_counts_equal(count_group_accesses_collapsed(kernel, groups[g], strategy),
                          count_group_accesses_full(kernel, groups[g], strategy),
                          context.str());
    }
    // End-to-end equivalence through strategy selection at a register
    // ladder, under both counting paths.
    ModelOptions oracle;
    oracle.full_walk_oracle = true;
    for (const std::int64_t regs :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
          reuse[g].beta_full() - 1, reuse[g].beta_full(), reuse[g].beta_full() + 5}) {
      if (regs < 0) continue;
      std::ostringstream context;
      context << name << " group " << groups[g].display << " regs " << regs;
      const RefStrategy fast = select_strategy(kernel, groups[g], reuse[g], regs);
      const RefStrategy slow = select_strategy(kernel, groups[g], reuse[g], regs, oracle);
      EXPECT_EQ(fast.carry_level, slow.carry_level) << context.str();
      EXPECT_EQ(fast.held_limit, slow.held_limit) << context.str();
      expect_counts_equal(count_group_accesses(kernel, groups[g], reuse[g], regs),
                          count_group_accesses(kernel, groups[g], reuse[g], regs, oracle),
                          context.str());
    }
  }
}

void check_kernel_cycles(Kernel kernel, const std::string& name) {
  const RefModel model(std::move(kernel));
  for (const bool fetch : {true, false}) {
    for (const bool fsm : {true, false}) {
      for (const std::int64_t budget :
           {static_cast<std::int64_t>(model.group_count()), std::int64_t{8},
            std::int64_t{64}}) {
        if (budget < model.group_count()) continue;
        for (const Algorithm alg :
             {Algorithm::kFeasibility, Algorithm::kFrRa, Algorithm::kCpaRa,
              Algorithm::kOptimalDp}) {
          const Allocation a = allocate(alg, model, budget);
          CycleOptions collapsed;
          collapsed.concurrent_operand_fetch = fetch;
          collapsed.fsm_serial_memory = fsm;
          CycleOptions full = collapsed;
          full.full_iteration_walk = true;
          std::ostringstream context;
          context << name << " " << algorithm_name(alg) << " budget " << budget
                  << (fetch ? " concurrent" : " serial") << (fsm ? " fsm" : " overlap");
          expect_reports_equal(estimate_cycles(model, a, collapsed),
                               estimate_cycles(model, a, full), context.str());
        }
      }
    }
  }
}

TEST(Periodic, CountsMatchOracleOnBuiltinKernels) {
  check_kernel_counts(kernels::paper_example(), "example");
  for (kernels::NamedKernel& nk : kernels::all_kernels()) {
    check_kernel_counts(nk.kernel, nk.name);
  }
}

TEST(Periodic, CycleReportsMatchFullWalkOnBuiltinKernels) {
  check_kernel_cycles(kernels::paper_example(), "example");
  for (kernels::NamedKernel& nk : kernels::all_kernels()) {
    check_kernel_cycles(std::move(nk.kernel), nk.name);
  }
}

TEST(Periodic, MemoizedReportIsStableAndSaturationSharesEntries) {
  const RefModel model(kernels::fir());
  const Allocation a = allocate(Algorithm::kFrRa, model, 64);
  const CycleReport first = estimate_cycles(model, a);
  const CycleReport second = estimate_cycles(model, a);
  expect_reports_equal(second, first, "repeat call");

  // Saturated budgets pick the same strategies, so the report must be
  // identical whether it came from the memo or a fresh walk.
  const Allocation bigger = allocate(Algorithm::kFrRa, model, 128);
  CycleOptions full;
  full.full_iteration_walk = true;
  expect_reports_equal(estimate_cycles(model, bigger),
                       estimate_cycles(model, bigger, full), "saturated budget");
}

class PeriodicFuzz : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const {
    return fuzz_seed() + static_cast<std::uint64_t>(GetParam());
  }

  std::string replay_hint() const {
    std::ostringstream os;
    os << "fuzz seed " << seed() << " — replay with SRRA_FUZZ_SEED=" << seed()
       << " SRRA_FUZZ_ITERS=1 ./test_periodic";
    return os.str();
  }
};

TEST_P(PeriodicFuzz, CountsMatchOracle) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 48611 + 11);
  const Kernel kernel = random_kernel(rng);
  check_kernel_counts(kernel, "fuzz");
}

TEST_P(PeriodicFuzz, CycleReportsMatchFullWalk) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 75979 + 13);
  check_kernel_cycles(random_kernel(rng), "fuzz");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeriodicFuzz, ::testing::Range(0, fuzz_iters()));

}  // namespace
}  // namespace srra
