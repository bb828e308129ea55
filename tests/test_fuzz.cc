// Randomized property tests: generate random affine loop kernels and check
// the system-wide invariants on each —
//  * the machine simulator matches the golden interpreter bit-for-bit under
//    every allocator,
//  * analytic walker counts equal machine counts,
//  * allocations are structurally valid at random budgets,
//  * access counts never increase with more registers,
//  * print -> parse round-trips.
//
// Deterministic by default: each property derives its Rng from a fixed base
// seed plus the instance index, so CI runs are reproducible. Override the
// base seed with SRRA_FUZZ_SEED and the instance count with SRRA_FUZZ_ITERS;
// every failure message carries the replay recipe.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/walker.h"
#include "core/registry.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/transform.h"
#include "random_kernel.h"
#include "sched/cycle_model.h"
#include "sim/interp.h"
#include "sim/machine.h"
#include "support/rng.h"
#include "support/str.h"

namespace srra {
namespace {

using srra::testing::random_kernel;

class Fuzz : public ::testing::TestWithParam<int> {
 protected:
  /// Effective seed of this instance: SRRA_FUZZ_SEED (default 0) + index.
  std::uint64_t seed() const {
    return fuzz_seed() + static_cast<std::uint64_t>(GetParam());
  }

  /// Replay recipe attached to every assertion via SCOPED_TRACE.
  std::string replay_hint() const {
    std::ostringstream os;
    os << "fuzz seed " << seed() << " — replay with SRRA_FUZZ_SEED=" << seed()
       << " SRRA_FUZZ_ITERS=1 ./test_fuzz";
    return os.str();
  }
};

TEST_P(Fuzz, MachineMatchesInterpreterUnderAllAllocators) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 7919 + 1);
  const RefModel model(random_kernel(rng));
  const std::int64_t budget =
      model.group_count() + rng.uniform(0, 40);
  for (Algorithm alg : {Algorithm::kFeasibility, Algorithm::kFrRa, Algorithm::kPrRa,
                        Algorithm::kCpaRa, Algorithm::kKnapsack}) {
    const Allocation a = allocate(alg, model, budget);
    a.validate(model);
    const VerifyResult r = verify_allocation(model, a, rng.next());
    EXPECT_TRUE(r.ok) << "seed " << seed() << " algorithm " << algorithm_name(alg)
                      << "\n" << kernel_to_string(model.kernel());
  }
}

TEST_P(Fuzz, WalkerCountsMatchMachineCounts) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 104729 + 3);
  const RefModel model(random_kernel(rng));
  const Allocation a = allocate(Algorithm::kPrRa, model, model.group_count() + 20);
  ArrayStore store(model.kernel());
  store.randomize(seed());
  const MachineReport machine = run_machine(model, a, store);
  const auto counts = simulate_accesses(model.kernel(), model.groups(), model.reuse(), a.regs);
  std::int64_t walker_ram = 0;
  std::int64_t walker_steady = 0;
  for (const auto& c : counts) {
    walker_ram += c.total();
    walker_steady += c.steady_total();
  }
  EXPECT_EQ(machine.ram_total(), walker_ram) << kernel_to_string(model.kernel());
  EXPECT_EQ(machine.steady_ram_accesses, walker_steady);
}

TEST_P(Fuzz, AccessCountsMonotoneInRegisters) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 1299709 + 5);
  const RefModel model(random_kernel(rng));
  for (int g = 0; g < model.group_count(); ++g) {
    std::int64_t prev = model.accesses(g, 0, CountMode::kSteady);
    for (std::int64_t n : {1, 2, 3, 5, 9, 17, 33}) {
      const std::int64_t cur = model.accesses(g, n, CountMode::kSteady);
      EXPECT_LE(cur, prev) << "group " << g << " regs " << n << "\n"
                           << kernel_to_string(model.kernel());
      prev = cur;
    }
  }
}

// Random legal transform sequences (ir/transform.h) preserve semantics, and
// the machine simulator still matches the golden interpreter bit-for-bit on
// the rewritten nests under every allocator.
TEST_P(Fuzz, TransformedKernelMachineMatchesInterpreter) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 319993 + 11);
  const Kernel base = random_kernel(rng);
  const std::vector<LoopTransform> sequence = testing::random_transforms(rng, base);
  const PeeledNest nest =
      apply_peeled(base, srra::span<const LoopTransform>(sequence.data(), sequence.size()));

  // Semantics: the rewritten nest — main piece, then every peeled
  // remainder epilogue in order — computes bit-identical array contents.
  ArrayStore reference(base);
  reference.randomize(seed());
  interpret(base, reference);
  ArrayStore rewritten(nest.main);
  rewritten.randomize(seed());
  interpret(nest.main, rewritten);
  for (const Kernel& epilogue : nest.epilogues) interpret(epilogue, rewritten);
  EXPECT_TRUE(rewritten.equals(reference))
      << "sequence " << to_string(srra::span<const LoopTransform>(sequence.data(),
                                                                  sequence.size()))
      << "\n" << kernel_to_string(nest.main);

  // Machine-vs-interpreter bit equality under every allocator (the main
  // piece; epilogues are plain untransformed sub-ranges).
  const RefModel model(nest.main.clone());
  const std::int64_t budget = model.group_count() + rng.uniform(0, 40);
  for (Algorithm alg : {Algorithm::kFeasibility, Algorithm::kFrRa, Algorithm::kPrRa,
                        Algorithm::kCpaRa, Algorithm::kKnapsack}) {
    const Allocation a = allocate(alg, model, budget);
    a.validate(model);
    const VerifyResult r = verify_allocation(model, a, rng.next());
    EXPECT_TRUE(r.ok) << "seed " << seed() << " algorithm " << algorithm_name(alg)
                      << " sequence "
                      << to_string(srra::span<const LoopTransform>(sequence.data(),
                                                                   sequence.size()))
                      << "\n" << kernel_to_string(model.kernel());
  }
}

// The periodic collapse (analysis/periodic.h) stays exact on the deeper
// nests tiling creates and on unroll-jammed bodies: collapsed counts equal
// the full-walk oracle for every group and register count.
TEST_P(Fuzz, TransformedKernelCollapsedCountsMatchOracle) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 57637 + 13);
  const Kernel base = random_kernel(rng);
  const std::vector<LoopTransform> sequence = testing::random_transforms(rng, base);
  const Kernel kernel = std::move(
      apply_peeled(base, srra::span<const LoopTransform>(sequence.data(), sequence.size()))
          .main);

  const std::vector<RefGroup> groups = collect_ref_groups(kernel);
  const std::vector<ReuseInfo> reuse = analyze_all_reuse(kernel, groups);
  ModelOptions oracle;
  oracle.full_walk_oracle = true;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::int64_t regs : {1, 2, 3, 5, 9, 17}) {
      const GroupCounts fast = count_group_accesses(kernel, groups[g], reuse[g], regs);
      const GroupCounts full =
          count_group_accesses(kernel, groups[g], reuse[g], regs, oracle);
      const auto context = [&] {
        return cat("group ", g, " regs ", regs, " sequence ",
                   to_string(srra::span<const LoopTransform>(sequence.data(),
                                                             sequence.size())),
                   "\n", kernel_to_string(kernel));
      };
      EXPECT_EQ(fast.miss_reads, full.miss_reads) << context();
      EXPECT_EQ(fast.miss_writes, full.miss_writes) << context();
      EXPECT_EQ(fast.fills, full.fills) << context();
      EXPECT_EQ(fast.steady_fills, full.steady_fills) << context();
      EXPECT_EQ(fast.flushes, full.flushes) << context();
      EXPECT_EQ(fast.steady_flushes, full.steady_flushes) << context();
      EXPECT_EQ(fast.reg_hits, full.reg_hits) << context();
      EXPECT_EQ(fast.reg_writes, full.reg_writes) << context();
      EXPECT_EQ(fast.forwards, full.forwards) << context();
    }
  }
}

// The collapsed cycle model (DESIGN.md §8) stays bit-identical to its
// full-iteration-walk oracle on transformed kernels too.
TEST_P(Fuzz, TransformedKernelCycleReportMatchesFullWalk) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 92821 + 17);
  const Kernel base = random_kernel(rng);
  const std::vector<LoopTransform> sequence = testing::random_transforms(rng, base);
  const RefModel model(std::move(
      apply_peeled(base, srra::span<const LoopTransform>(sequence.data(), sequence.size()))
          .main));
  const Allocation a =
      allocate(Algorithm::kPrRa, model, model.group_count() + rng.uniform(0, 20));
  CycleOptions collapsed;
  CycleOptions oracle;
  oracle.full_iteration_walk = true;
  const CycleReport fast = estimate_cycles(model, a, collapsed);
  const CycleReport full = estimate_cycles(model, a, oracle);
  const auto context = [&] {
    return cat("sequence ",
               to_string(srra::span<const LoopTransform>(sequence.data(), sequence.size())),
               "\n", kernel_to_string(model.kernel()));
  };
  EXPECT_EQ(fast.mem_cycles, full.mem_cycles) << context();
  EXPECT_EQ(fast.ram_accesses, full.ram_accesses) << context();
  EXPECT_EQ(fast.exec_cycles, full.exec_cycles) << context();
  EXPECT_EQ(fast.iterations, full.iterations) << context();
}

// The paper's three allocators under both fetch modes on a transformed
// kernel: the default path (per-group counters minus the overlap walk of
// the coupled groups) against the full iteration-space walk.
TEST_P(Fuzz, TransformedKernelCycleReportsMatchFullWalkUnderPaperAllocators) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 37447 + 23);
  const Kernel base = random_kernel(rng);
  const std::vector<LoopTransform> sequence = testing::random_transforms(rng, base);
  const RefModel model(std::move(
      apply_peeled(base, srra::span<const LoopTransform>(sequence.data(), sequence.size()))
          .main));
  const std::int64_t budget = model.group_count() + rng.uniform(0, 20);
  const auto context = [&] {
    return cat("sequence ",
               to_string(srra::span<const LoopTransform>(sequence.data(), sequence.size())),
               " budget ", budget, "\n", kernel_to_string(model.kernel()));
  };
  for (const Algorithm alg : {Algorithm::kFrRa, Algorithm::kPrRa, Algorithm::kCpaRa}) {
    const Allocation a = allocate(alg, model, budget);
    for (const bool concurrent : {true, false}) {
      SCOPED_TRACE(cat(algorithm_name(alg), concurrent ? " concurrent" : " serial"));
      CycleOptions fast;
      fast.concurrent_operand_fetch = concurrent;
      CycleOptions oracle = fast;
      oracle.full_iteration_walk = true;
      const CycleReport got = estimate_cycles(model, a, fast);
      const CycleReport want = estimate_cycles(model, a, oracle);
      EXPECT_EQ(got.mem_cycles, want.mem_cycles) << context();
      EXPECT_EQ(got.ram_accesses, want.ram_accesses) << context();
      EXPECT_EQ(got.exec_cycles, want.exec_cycles) << context();
      EXPECT_EQ(got.iterations, want.iterations) << context();
    }
  }
}

TEST_P(Fuzz, PrintParseRoundTrip) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 15485863 + 7);
  const Kernel k = random_kernel(rng);
  const std::string printed = kernel_to_string(k);
  const Kernel reparsed = parse_kernel(printed);
  EXPECT_EQ(printed, kernel_to_string(reparsed)) << printed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(0, fuzz_iters()));

}  // namespace
}  // namespace srra
