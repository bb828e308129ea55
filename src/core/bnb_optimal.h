// Branch-and-bound certified-optimal allocation (DESIGN.md §11), in the
// spirit of the combinatorial-allocation survey (Castañeda Lozano &
// Schulte): exhaustive search over per-group register counts for the DP
// objective — minimize the total steady-state RAM access count subject to
// sum n_g <= budget, 1 <= n_g <= beta_full(g) — with admissible pruning, a
// deterministic node budget and an explicit `certified` flag.
//
// Search space: per group only the *staircase* counts matter — n = 1 plus
// every n where steady_accesses(g, n) strictly improves on all smaller
// counts. Any assignment maps to a staircase assignment with no more
// registers and no more accesses (replace n_g by the largest staircase
// count <= n_g), so the staircase optimum is the true optimum; the search
// proves it rather than assuming the DP's recurrence is right.
//
// Bound: at a node with groups g..G-1 open and e extra registers left, each
// open group independently could take at most 1 + e registers, so
// sum_g min_{n <= 1+e} steady(g, n) is a lower bound on any completion
// (the budget-sharing constraint is relaxed away). Nodes whose fixed cost
// plus bound cannot beat the incumbent are cut.
//
// Incumbent: the DP-RA allocation, so the search starts one admissible
// upper bound deep and the result is never worse than DP-RA. When the
// search exhausts the space within the node budget the result carries
// certified = true: it is the per-budget optimum of the serial access
// metric, the denominator of every heuristic's pinned gap-to-optimal
// (tests/test_allocators.cc). On the paper-scale kernels (depth <= 3,
// <= 8 groups) certification completes in well under the default budgets.
#pragma once

#include <cstdint>

#include "core/allocation.h"
#include "core/frontier.h"

namespace srra {

/// Search budget. A node count, never wall-clock time, so the result is
/// deterministic: same inputs, same result, byte-identical across --jobs.
struct BnbOptions {
  std::int64_t max_nodes = std::int64_t{1} << 20;  ///< expanded-node cap
};

/// Outcome of one branch-and-bound run.
struct BnbResult {
  Allocation allocation;         ///< best assignment found (never worse than DP-RA)
  std::int64_t accesses = 0;     ///< steady accesses of `allocation`
  std::int64_t lower_bound = 0;  ///< root relaxation of the objective
  std::int64_t nodes = 0;        ///< nodes expanded
  bool certified = false;        ///< search exhausted: `allocation` is optimal
};

/// Branch-and-bound search for one budget, with certification detail.
BnbResult allocate_bnb_certified(const RefModel& model, std::int64_t budget,
                                 const BnbOptions& options = {});

/// Registry entry point (algorithm name "BB-RA"): the certified search's
/// allocation, degrading gracefully to the DP-RA incumbent when the node
/// budget runs out first.
Allocation allocate_bnb(const RefModel& model, std::int64_t budget);

/// BB-RA for every budget: one shared DP frontier seeds the per-budget
/// incumbents (slices are byte-identical to standalone DP runs), then each
/// budget runs the same bounded search as allocate_bnb.
AllocationFrontier allocate_bnb_frontier(const RefModel& model, std::int64_t max_budget,
                                         const BnbOptions& options = {});

}  // namespace srra
