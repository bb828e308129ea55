// The headline reproduction test: the cycle model must reproduce the
// paper's Figure 2(c) memory-cycle numbers for all three allocators —
// FR-RA 1800, PR-RA 1560, CPA-RA 1184 cycles per steady outer iteration —
// and Texec must rank the variants the same way. The decomposition tests
// pin the default path to the per-group counters minus the concurrent-fetch
// overlap (DESIGN.md §6) on every builtin kernel and two variants of each.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "core/cpa_ra.h"
#include "core/frontier.h"
#include "core/registry.h"
#include "ir/parser.h"
#include "ir/transform.h"
#include "kernels/kernels.h"
#include "sched/cycle_model.h"
#include "sched/schedule.h"
#include "support/str.h"

namespace srra {
namespace {

double tmem_per_outer(const RefModel& m, const Allocation& a, bool concurrent = true) {
  CycleOptions options;
  options.concurrent_operand_fetch = concurrent;
  const CycleReport r = estimate_cycles(m, a, options);
  return r.mem_cycles_per_outer(m.kernel().loop(0).trip_count());
}

TEST(CycleModel, Figure2cFrRa1800) {
  const RefModel m(kernels::paper_example());
  EXPECT_DOUBLE_EQ(tmem_per_outer(m, allocate_fr(m, 64)), 1800.0);
}

TEST(CycleModel, Figure2cPrRa1560) {
  const RefModel m(kernels::paper_example());
  EXPECT_DOUBLE_EQ(tmem_per_outer(m, allocate_pr(m, 64)), 1560.0);
}

TEST(CycleModel, Figure2cCpaRa1184) {
  const RefModel m(kernels::paper_example());
  EXPECT_DOUBLE_EQ(tmem_per_outer(m, allocate_cpa(m, 64)), 1184.0);
}

TEST(CycleModel, SerialAccountingAblation) {
  const RefModel m(kernels::paper_example());
  // Without operand concurrency CPA-RA costs 1464 (280 + 584 + 600); the
  // greedy variants have no concurrent pair, so they are unchanged.
  EXPECT_DOUBLE_EQ(tmem_per_outer(m, allocate_cpa(m, 64), /*concurrent=*/false), 1464.0);
  EXPECT_DOUBLE_EQ(tmem_per_outer(m, allocate_fr(m, 64), /*concurrent=*/false), 1800.0);
  EXPECT_DOUBLE_EQ(tmem_per_outer(m, allocate_pr(m, 64), /*concurrent=*/false), 1560.0);
}

TEST(CycleModel, CpaBeatsGreedyOnExecCycles) {
  const RefModel m(kernels::paper_example());
  const CycleReport fr = estimate_cycles(m, allocate_fr(m, 64));
  const CycleReport pr = estimate_cycles(m, allocate_pr(m, 64));
  const CycleReport cpa = estimate_cycles(m, allocate_cpa(m, 64));
  EXPECT_LT(pr.exec_cycles, fr.exec_cycles);
  EXPECT_LT(cpa.exec_cycles, pr.exec_cycles);
}

TEST(CycleModel, FeasibilityIsWorstCase) {
  const RefModel m(kernels::paper_example());
  const CycleReport base = estimate_cycles(m, feasibility_allocation(m, 64));
  for (Algorithm alg : paper_variants()) {
    const CycleReport r = estimate_cycles(m, allocate(alg, m, 64));
    EXPECT_LE(r.mem_cycles, base.mem_cycles) << algorithm_name(alg);
    EXPECT_LE(r.exec_cycles, base.exec_cycles) << algorithm_name(alg);
  }
}

TEST(CycleModel, IterationCountMatchesKernel) {
  const RefModel m(kernels::paper_example());
  const CycleReport r = estimate_cycles(m, allocate_fr(m, 64));
  EXPECT_EQ(r.iterations, m.kernel().iteration_count());
}

TEST(CycleModel, ExecIncludesComputeAndOverhead) {
  const RefModel m(kernels::paper_example());
  const CycleReport r = estimate_cycles(m, allocate_cpa(m, 64));
  // Even with all memory in registers the two chained multiplies (2 + 2)
  // plus overhead put a floor under the per-iteration cycles.
  EXPECT_GE(r.exec_cycles, r.iterations * 5);
  EXPECT_GT(r.exec_cycles, r.mem_cycles);
}

TEST(CycleModel, MoreRegistersNeverIncreaseTmem) {
  const RefModel m(kernels::fir());
  double prev = std::numeric_limits<double>::max();
  for (std::int64_t budget : {3, 8, 16, 32, 48, 64, 80}) {
    const Allocation a = allocate_pr(m, budget);
    const double t = tmem_per_outer(m, a);
    EXPECT_LE(t, prev) << "budget " << budget;
    prev = t;
  }
}

TEST(CycleModel, OverlappedScheduleAblationIsFaster) {
  // The idealized overlapped datapath hides stores behind computation, so
  // it can only be faster than the paper-faithful serial FSM.
  const RefModel m(kernels::paper_example());
  const Allocation a = allocate_fr(m, 64);
  CycleOptions fsm;
  CycleOptions overlapped;
  overlapped.fsm_serial_memory = false;
  EXPECT_LT(estimate_cycles(m, a, overlapped).exec_cycles,
            estimate_cycles(m, a, fsm).exec_cycles);
}

TEST(Schedule, PortConflictSerializes) {
  // Two reads from the same array must serialize; from different arrays
  // they overlap.
  const RefModel same(parse_kernel(R"(
    kernel same {
      array x[10];
      array o[8];
      for i in 0..8 { o[i] = x[i] + x[i + 2]; }
    }
  )"));
  const RefModel diff(parse_kernel(R"(
    kernel diff {
      array x[8];
      array y[8];
      array o[8];
      for i in 0..8 { o[i] = x[i] + y[i]; }
    }
  )"));
  const CycleReport rs = estimate_cycles(same, feasibility_allocation(same, 8));
  const CycleReport rd = estimate_cycles(diff, feasibility_allocation(diff, 8));
  // same: x reads serialize (2) + add (1) + write (1) + overhead; diff: reads
  // overlap (1) + add + write + overhead.
  EXPECT_EQ(rd.exec_cycles / rd.iterations, 4);
  EXPECT_EQ(rs.exec_cycles / rs.iterations, 5);
}

TEST(Schedule, WriteOverlapsDependentChainInOverlappedMode) {
  // In the overlapped ablation, d's RAM write proceeds in parallel with op2
  // feeding from the forwarded value: the store does not extend the chain.
  const RefModel m(kernels::paper_example());
  CycleOptions overlapped;
  overlapped.fsm_serial_memory = false;
  const CycleReport fr = estimate_cycles(m, allocate_fr(m, 64), overlapped);
  // b read (1) -> mul (2) -> mul (2) -> e write (1) = 6, plus overhead 1;
  // the d write overlaps the second multiply.
  EXPECT_EQ(fr.exec_cycles / fr.iterations, 7);
}

TEST(Schedule, FsmSerialIterationLength) {
  // Paper-faithful FSM: compute critical path (mul+mul = 4) + memory cycles
  // (3 for FR) + overhead (1) = 8 per iteration.
  const RefModel m(kernels::paper_example());
  const CycleReport fr = estimate_cycles(m, allocate_fr(m, 64));
  EXPECT_EQ(fr.exec_cycles / fr.iterations, 8);
}

// Groups with a read feeding an op that also reads a different array: the
// only groups whose reads concurrent fetch can hide.
std::vector<bool> coupled_groups(const RefModel& m, const Dfg& dfg) {
  std::map<int, std::vector<int>> groups_of_op;
  std::map<int, std::vector<int>> arrays_of_op;
  for (const RefGroup& g : m.groups()) {
    for (const RefOccurrence& occ : g.occurrences) {
      const int op = occ.is_write ? -1 : dfg.consumer_op(occ.order);
      if (op < 0) continue;
      groups_of_op[op].push_back(g.id);
      arrays_of_op[op].push_back(g.access.array_id);
    }
  }
  std::vector<bool> coupled(m.groups().size(), false);
  for (const auto& [op, arrays] : arrays_of_op) {
    if (std::adjacent_find(arrays.begin(), arrays.end(), std::not_equal_to<int>()) ==
        arrays.end()) {
      continue;  // every read of the op hits one array
    }
    for (const int g : groups_of_op[op]) coupled[static_cast<std::size_t>(g)] = true;
  }
  return coupled;
}

// The decomposition cases: every builtin kernel and its legal t(0,8) and
// uj(d-1,2) variants, each visited as a fresh model with its FR/PR/CPA
// allocations at budgets 8:64:8.
template <typename Visit>
void for_each_decomposition_case(Visit&& visit) {
  for (kernels::NamedKernel& nk : kernels::builtin_kernels()) {
    std::vector<std::pair<std::string, Kernel>> variants;
    const int depth = nk.kernel.depth();
    for (const LoopTransform& t :
         {LoopTransform::tile(0, 8), LoopTransform::unroll_jam(depth - 1, 2)}) {
      const srra::span<const LoopTransform> seq(&t, 1);
      if (auto nest = apply_if_safe(nk.kernel, seq)) {
        variants.emplace_back(cat(nk.name, " ", to_string(seq)), std::move(nest->main));
      }
    }
    variants.emplace_back(nk.name, std::move(nk.kernel));
    for (auto& [name, kernel] : variants) {
      const RefModel m(std::move(kernel));
      std::vector<std::pair<std::string, Allocation>> cases;
      for (const Algorithm alg : {Algorithm::kFrRa, Algorithm::kPrRa, Algorithm::kCpaRa}) {
        for (std::int64_t budget = 8; budget <= 64; budget += 8) {
          if (budget < m.group_count()) continue;
          cases.emplace_back(cat(name, " ", algorithm_name(alg), " budget ", budget),
                             allocate(alg, m, budget));
        }
      }
      visit(m, cases);
    }
  }
}

// The default path (serial FSM) is the per-group counters minus the
// concurrent-fetch overlap (DESIGN.md §6). Both fetch modes report the
// steady RAM count; serial fetch must equal the closed forms, and
// concurrent fetch may only hide reads.
TEST(CycleModel, DefaultPathIsGroupCountersMinusOverlap) {
  std::int64_t cases = 0;
  std::int64_t holding_overlaps = 0;
  for_each_decomposition_case([&](const RefModel& m, const auto& allocations) {
    const Dfg dfg = Dfg::build(m.kernel(), m.groups());
    const std::vector<bool> coupled = coupled_groups(m, dfg);
    std::vector<int> arrays;
    for (const RefGroup& g : m.groups()) arrays.push_back(g.access.array_id);
    CycleOptions serial;
    serial.concurrent_operand_fetch = false;
    const LatencyModel& lat = serial.latency;
    IterationProfile compute_only;
    compute_only.ram_access.assign(static_cast<std::size_t>(dfg.node_count()), false);
    const std::int64_t compute = schedule_iteration(dfg, compute_only, arrays, lat);

    for (const auto& [context, a] : allocations) {
      std::int64_t reads = 0;
      std::int64_t writes = 0;
      std::int64_t steady = 0;
      bool coupled_holds = false;
      for (int g = 0; g < m.group_count(); ++g) {
        const std::int64_t regs = a.regs[static_cast<std::size_t>(g)];
        const GroupCounts& c = m.counts(g, regs);
        reads += c.miss_reads + c.steady_fills;
        writes += c.miss_writes + c.steady_flushes;
        steady += m.accesses(g, regs, CountMode::kSteady);
        coupled_holds = coupled_holds ||
                        (coupled[static_cast<std::size_t>(g)] && m.strategy(g, regs).holds());
      }
      const CycleReport s = estimate_cycles(m, a, serial);
      EXPECT_EQ(s.ram_accesses, steady) << context;
      EXPECT_EQ(s.mem_cycles, lat.mem_read * reads + lat.mem_write * writes) << context;
      EXPECT_EQ(s.exec_cycles, s.iterations * (compute + serial.loop_overhead) + s.mem_cycles)
          << context;

      const CycleReport c = estimate_cycles(m, a);
      EXPECT_EQ(c.ram_accesses, steady) << context;
      EXPECT_EQ(c.exec_cycles - c.mem_cycles, s.exec_cycles - s.mem_cycles) << context;
      EXPECT_LE(c.mem_cycles, s.mem_cycles) << context;
      if (c.mem_cycles < s.mem_cycles && coupled_holds) ++holding_overlaps;
      ++cases;
    }
  });
  EXPECT_GT(cases, 300);
  // Not vacuous: some case hides reads while a coupled group holds, so the
  // overlap walk's window state mattered.
  EXPECT_GT(holding_overlaps, 0);
}

// Concurrent fetch on the same cases against the full iteration-space walk,
// one walk per distinct strategy vector (the report is a function of the
// strategies). The walks over BIC's 207,936 iterations dominate, so the
// sanitizer CI job leaves this one to the Release ctest.
TEST(CycleModel, ConcurrentFetchMatchesFullWalkOnBuiltinVariants) {
  for_each_decomposition_case([&](const RefModel& m, const auto& allocations) {
    std::map<std::vector<std::int64_t>, CycleReport> full_walks;
    for (const auto& [context, a] : allocations) {
      const CycleReport c = estimate_cycles(m, a);
      std::vector<std::int64_t> key;
      for (const RefStrategy& s : m.strategies(a.regs)) {
        key.push_back(s.carry_level);
        key.push_back(s.held_limit);
      }
      auto full = full_walks.find(key);
      if (full == full_walks.end()) {
        CycleOptions oracle;
        oracle.full_iteration_walk = true;
        full = full_walks.emplace(key, estimate_cycles(m, a, oracle)).first;
      }
      EXPECT_EQ(c.mem_cycles, full->second.mem_cycles) << context;
      EXPECT_EQ(c.ram_accesses, full->second.ram_accesses) << context;
      EXPECT_EQ(c.exec_cycles, full->second.exec_cycles) << context;
      EXPECT_EQ(c.iterations, full->second.iterations) << context;
    }
  });
}

}  // namespace
}  // namespace srra
