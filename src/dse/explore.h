// Design-space evaluation (DESIGN.md §7). Every SpacePoint runs through
// the full driver pipeline; points of one variant share a single RefModel,
// so the analysis stage (grouping, reuse, access-count cache) is computed
// once per (kernel, transform sequence) and amortized over every fetch
// mode, algorithm and budget.
//
// Parallelism runs on a fixed ThreadPool, in one parallel_for over
// contiguous shards of each variant's point list (variants are split
// further when there are more lanes than variants, so single-kernel sweeps
// still fill the pool), claimed longest variant first. All shards of a
// variant share one thread-safe RefModel, built by the first shard to run
// and freed by the last to finish, so the analysis is computed once per
// variant for any lane count and lives only while the variant runs.
// Workers claim shard indices from a shared counter and write each point
// result into its preallocated slot (results[point.index]), so the merged
// ExploreResult is identical for any --jobs value — the
// byte-identical-reports guarantee.
#pragma once

#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "dse/space.h"

namespace srra::dse {

/// Engine knobs.
struct ExploreOptions {
  /// Evaluation lanes (1 = sequential; <= 0 = hardware concurrency).
  int jobs = 1;
  /// Collapse each (variant, algorithm) budget axis into one
  /// AllocationFrontier evaluation shared across fetch modes and budgets
  /// (core/frontier.h), with per-budget allocations sliced out of it. When
  /// false every point runs its own allocator call — the per-point oracle
  /// the frontier path is byte-identical to (tested in test_frontier.cc).
  bool frontier = true;
  /// Base pipeline configuration; `budget` and
  /// `cycles.concurrent_operand_fetch` are overridden per point.
  PipelineOptions pipeline;
};

/// Outcome of one point. Points whose budget cannot even cover the
/// feasibility assignment (one register per reference group) are reported
/// infeasible rather than aborting the sweep.
struct PointResult {
  bool feasible = false;
  std::string error;   ///< diagnostic when infeasible
  DesignPoint design;  ///< valid only when feasible
};

/// The evaluated space: results[i] corresponds to space.points[i].
struct ExploreResult {
  EnumeratedSpace space;
  std::vector<PointResult> results;

  const Variant& variant_of(const SpacePoint& point) const {
    return space.variants[static_cast<std::size_t>(point.variant)];
  }
};

/// Evaluates every point of `space`. Deterministic for any `options.jobs`.
ExploreResult explore(EnumeratedSpace space, const ExploreOptions& options = {});

/// Convenience: enumerate + explore.
inline ExploreResult explore(AxisSpec axes, const ExploreOptions& options = {}) {
  return explore(enumerate_space(std::move(axes)), options);
}

}  // namespace srra::dse
