// Analytic transform-space pruning (DESIGN.md §13): guided enumeration of
// the loop-transform axis that derives, for every candidate transform
// sequence, a *sound lower bound curve* on (registers, execution cycles)
// directly from the affine access matrices — no iteration-space walk, no
// RefModel construction — and skips materializing and evaluating any
// candidate whose whole curve is strictly dominated by an already-measured
// design point of the same kernel.
//
// The candidates are the tree enumerate_space filters (dse/candidate_tree.h),
// walked over their abstract state: per reference group, the per-level
// linearized element shift (analysis/reuse.h access_shift_profile), which
// interchange permutes, tiling splits (tile level shifts by size x the old
// stride, point level keeps it) and unroll-and-jam scales — so walking the
// whole tree costs microseconds per candidate instead of a kernel rewrite
// plus a full analysis. Only bound-surviving candidates are materialized
// and legality-checked (ir/transform.h apply_if_safe), deduplicated by
// structural hash, and evaluated in waves through the ordinary dse/explore
// engine — one explore call per round, which holds the next wave of every
// kernel (each kernel still prunes against its own measurements only).
//
// Soundness of the bound (why pruning cannot change the Pareto frontier):
//
//  * Floor. In the paper-faithful FSM cycle model every iteration costs
//    loop_overhead + compute critical path + that iteration's memory
//    cycles, so exec_cycles >= iterations x (overhead + L0) summed over the
//    nest pieces, where L0 is the empty-memory-profile schedule length of
//    the *source* body — a lower bound for every rewrite because tiling and
//    interchange keep the body and unroll-and-jam replicates it (a DFG that
//    contains the source body as a subgraph cannot schedule shorter).
//  * Memory corner. A group whose element moves at the (effective)
//    innermost level cannot hold anything with one register under the
//    default window model (no carrying level fits: the inner footprint is
//    >= the innermost trip), so each such group pays at least one steady
//    RAM access per iteration while it owns a single register. With total
//    register count r and G groups, at most r - G groups own more than one.
//  * Savings ramp. Extra registers on one group eliminate its per-iteration
//    charge no faster than one save per register per d iterations, where d
//    is a lower bound on the group's element-reuse distance solved from the
//    shift profile (deepest invariant level's inner trip product, or the
//    minimal pairwise cancellation of two moving levels); a small slack
//    per min-trip absorbs the peeled window-boundary accounting. The bound
//    curve relaxes the integer allocation to the continuous greedy optimum,
//    which only lowers it.
//
// A candidate is pruned only when some measured point beats its curve
// *strictly* at every register count it could realize, so a pruned
// candidate cannot tie, let alone enter, the registers-vs-cycles frontier:
// guided and exhaustive sweeps produce identical frontiers at equal caps
// (pinned in tests/test_prune.cc). Candidate counts stay honest through
// SpaceStats — generated = pruned + evaluated, never a silent cap.
#pragma once

#include <cstdint>
#include <vector>

#include "dse/explore.h"
#include "dse/space.h"

namespace srra::dse {

/// Guided-search knobs.
struct PruneOptions {
  /// Candidates materialized and evaluated per wave; measured results of
  /// each wave feed the pruning pool of the next. Fixed (not adaptive) so
  /// runs are deterministic.
  int wave = 16;
  /// Hard cap on evaluated variants per kernel after pruning; candidates
  /// past it count as pruned. 0 = unlimited — the identity mode whose
  /// frontier provably equals the exhaustive sweep's.
  int max_evaluated_per_kernel = 0;
};

/// One candidate's analytic lower-bound curve: a convex, non-increasing
/// step-down from the memory-bound corner at `min_regs` to the compute
/// floor. Exposed for the soundness fuzz suite (tests/test_prune.cc).
struct BoundCurve {
  std::int64_t min_regs = 1;      ///< abstract feasibility floor (group count)
  std::int64_t floor_cycles = 0;  ///< iterations x (overhead + L0), all pieces

  /// One charged reference group of the main piece.
  struct Item {
    double read_rate = 0;   ///< per-iteration read cycles while un-held
    double write_rate = 0;  ///< per-iteration write cycles while un-held
    int array = 0;          ///< RAM block (reads of one block serialize)
    double distance = 0;    ///< reuse-distance lower bound, iterations; <= 0 = none
    double steady = 1;      ///< charged fraction after boundary slack
  };
  std::vector<Item> items;
  std::int64_t main_iterations = 0;

  /// Lower bound on exec_cycles of any feasible design of the candidate
  /// whose allocation totals `regs` registers (clamped to >= min_regs).
  /// Requires finalize() — bound_curve() and the guided search call it;
  /// hand-built curves must call it after filling `items`.
  std::int64_t at(std::int64_t regs) const;

  /// Precomputes the per-array greedy ramps at() walks. at() is called many
  /// times per curve (once per measured staircase range during dominance
  /// checks), so the sort-by-slope happens here, once, allocation-free at
  /// query time.
  void finalize();

 private:
  struct Ramp {
    double slope = 0;  ///< per-iteration cycles one extra register removes
    double cap = 0;    ///< registers that exhaust this item's charge
  };
  struct ArrayPool {
    double total = 0;  ///< per-iteration charge with minimal registers
    std::vector<Ramp> ramps;  ///< slope-descending
  };
  std::vector<ArrayPool> pools_;
};

/// Analytic bound for an explicit transform sequence on `kernel`, computed
/// without materializing the rewrite. Exposed for the soundness suite;
/// explore_guided derives the same curves while walking the tree.
/// `cycles` supplies the latency model and overhead; when fsm_serial_memory
/// is off the curve degrades to the compute floor (memory overlaps).
BoundCurve bound_curve(const Kernel& kernel, srra::span<const LoopTransform> transforms,
                       const CycleOptions& cycles);

/// Guided counterpart of explore(enumerate_space(axes), options): walks the
/// same candidate tree per kernel, scores every candidate by its bound
/// curve, and evaluates waves of the most promising survivors, pruning
/// candidates strictly dominated by measured points of the same kernel.
/// Wave r of every kernel is evaluated in one explore call; the result
/// lists each kernel's waves in turn, exactly as if the kernels were
/// searched one after another (DESIGN.md §13).
/// Stats land in result.space.stats (generated = pruned + evaluated).
/// Explicit illegal sequences throw exactly like enumerate_space, before
/// any kernel is evaluated.
ExploreResult explore_guided(AxisSpec axes, const ExploreOptions& options,
                             const PruneOptions& prune = {});

}  // namespace srra::dse
