// Linear-scan register allocation over scalar-replaced live ranges
// (DESIGN.md §11). Each reference group with exploitable reuse becomes one
// weighted live interval — first-touch to last-use evaluation rank within
// one steady-state iteration of the loop body, weight beta_full - 1 — and
// a single sorted scan with an active set decides which groups hold their
// full reuse window:
//
//  * intervals are visited in ascending start rank;
//  * intervals whose lifetime ended before the current start expire out of
//    the active set (their registers stay committed — the assignment is
//    static over the steady state — but they leave eviction candidacy);
//  * when the current interval does not fit the remaining budget, active
//    holders whose next use lies *beyond* the current interval's end are
//    evicted furthest-next-use-first, but only when the freed registers
//    actually let the current interval fit (the weighted generalization of
//    Poletto/Sarkar spill-furthest);
//  * leftover registers are poured into the spilled intervals in spill
//    order, capped at beta_full (partial windows still cut accesses).
//
// The scan needs only the reuse analysis (occurrence ranks + beta_full) —
// no access counting, no benefit metric — so one allocation is O(G log G)
// after the model's structural analysis, a fraction of both the greedy
// allocators (which pay the access-count passes behind bc_ratio) and the
// O(G*B^2) DP. Quality sits within a few percent of the greedy allocators
// on the paper kernels (pinned in tests/test_allocators.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "core/allocation.h"
#include "core/frontier.h"

namespace srra {

/// One scalar-replaced live range: a reference group with exploitable reuse,
/// spanning its first-touch to last-use evaluation ranks within one
/// steady-state iteration of the loop body.
struct LiveInterval {
  int group = 0;           ///< reference group id
  int start = 0;           ///< evaluation rank of the first touch
  int end = 0;             ///< evaluation rank of the last use
  std::int64_t need = 0;   ///< holding registers beyond the latch (beta_full - 1)
};

/// The live intervals the scan runs over: one per group with beta_full > 1,
/// sorted by (start, end, group). Groups without exploitable reuse never
/// enter the scan — their feasibility register is unconditional.
std::vector<LiveInterval> scalar_live_intervals(const RefModel& model);

/// Linear-scan allocation for one budget (algorithm name "LS-RA").
Allocation allocate_linear_scan(const RefModel& model, std::int64_t budget);

/// LS-RA for every budget from one interval plan: each budget is an
/// O(G log G) scan replay, byte-identical to allocate_linear_scan at that
/// budget (pinned in tests/test_frontier.cc and tests/test_allocators.cc).
AllocationFrontier allocate_linear_scan_frontier(const RefModel& model,
                                                 std::int64_t max_budget);

}  // namespace srra
