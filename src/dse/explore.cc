#include "dse/explore.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>

#include "core/frontier.h"
#include "support/error.h"
#include "support/thread_pool.h"

namespace srra::dse {

namespace {

// Lazily built allocation frontiers of one nest piece, one per algorithm —
// shared by every shard and fetch mode of the variant, built at most once
// under std::call_once (the result is a deterministic function of the
// model, so reports cannot depend on which lane built it).
struct PieceFrontiers {
  std::array<std::once_flag, kAlgorithmCount> once;
  std::array<std::unique_ptr<AllocationFrontier>, kAlgorithmCount> frontiers;
};

// The analysis of one variant, alive only while its shards run: the first
// shard to start builds it under `built`, the last one to finish frees it.
// One shared RefModel per nest piece (main first, then the peeled
// epilogues — most variants have exactly one piece): the model caches
// (strategy selections with their counts, cycle-model memo) are
// thread-safe, so every shard reuses the same analysis instead of redoing
// grouping, reuse and counting. Results cannot depend on sharing or on
// which lane builds: every cached value is a deterministic function of its
// key, so reports stay byte-identical for any --jobs.
struct VariantState {
  std::once_flag built;
  std::vector<std::unique_ptr<RefModel>> models;
  std::vector<PieceFrontiers> pieces;  ///< one per model
  int min_feasible = 0;                ///< max group count over the pieces
  std::int64_t max_budget = -1;        ///< largest feasible budget of the variant
  std::atomic<std::size_t> shards_left{0};
};

}  // namespace

ExploreResult explore(EnumeratedSpace space, const ExploreOptions& options) {
  ExploreResult result;
  result.results.resize(space.points.size());
  const std::vector<std::vector<int>> groups = space.points_by_variant();
  std::vector<VariantState> states(space.variants.size());

  // Work units are contiguous shards of one variant's point list. One
  // shard per variant suffices when there are at least as many variants as
  // lanes; otherwise every variant is split so a single-kernel sweep still
  // fills the pool.
  struct Unit {
    int variant;
    std::size_t begin;
    std::size_t end;
  };
  const std::size_t lanes =
      static_cast<std::size_t>(ThreadPool::clamp_jobs(options.jobs));
  const std::size_t shards =
      space.variants.empty() ? 1 : std::max<std::size_t>(1, lanes / space.variants.size());
  std::vector<Unit> units;
  std::vector<std::int64_t> iterations(space.variants.size());
  for (const Variant& variant : space.variants) {
    const auto v = static_cast<std::size_t>(variant.index);
    const std::size_t n = groups[v].size();
    const std::size_t chunks = std::min(shards, std::max<std::size_t>(n, 1));
    for (std::size_t c = 0; c < chunks; ++c) {
      const Unit unit{variant.index, n * c / chunks, n * (c + 1) / chunks};
      if (unit.begin < unit.end) {
        units.push_back(unit);
        ++states[v].shards_left;
      }
    }
    iterations[v] = variant.kernel.iteration_count();
    for (const Kernel& epilogue : variant.epilogues) iterations[v] += epilogue.iteration_count();
  }
  // Longest first: the variants with the most iterations to walk start
  // before the short ones, so no lane is left finishing a large tiled
  // variant while the others idle. Ties keep enumeration order. Only when
  // a unit runs changes; every point still lands in its own slot.
  std::stable_sort(units.begin(), units.end(), [&](const Unit& a, const Unit& b) {
    return iterations[static_cast<std::size_t>(a.variant)] >
           iterations[static_cast<std::size_t>(b.variant)];
  });

  // The whole budget axis of one (variant, algorithm) collapses into one
  // frontier evaluation per piece; per-budget allocations are slices of it.
  // A peeled variant is feasible only when every piece is, so budgets below
  // the widest piece's feasibility point keep the per-point path and its
  // diagnostics.
  ThreadPool pool(options.jobs);
  pool.parallel_for(static_cast<std::int64_t>(units.size()), [&](std::int64_t u) {
    const Unit& unit = units[static_cast<std::size_t>(u)];
    const Variant& variant = space.variants[static_cast<std::size_t>(unit.variant)];
    VariantState& vs = states[static_cast<std::size_t>(unit.variant)];
    const std::vector<int>& indices = groups[static_cast<std::size_t>(unit.variant)];
    std::call_once(vs.built, [&] {
      vs.models.push_back(std::make_unique<RefModel>(variant.kernel.clone()));
      for (const Kernel& epilogue : variant.epilogues) {
        vs.models.push_back(std::make_unique<RefModel>(epilogue.clone()));
      }
      vs.pieces = std::vector<PieceFrontiers>(vs.models.size());
      for (const auto& model : vs.models) {
        vs.min_feasible = std::max(vs.min_feasible, model->group_count());
      }
      for (const int i : indices) {
        const std::int64_t budget = space.points[static_cast<std::size_t>(i)].budget;
        if (budget >= vs.min_feasible) vs.max_budget = std::max(vs.max_budget, budget);
      }
    });
    for (std::size_t i = unit.begin; i < unit.end; ++i) {
      const SpacePoint& point = space.points[static_cast<std::size_t>(indices[i])];
      PointResult& out = result.results[static_cast<std::size_t>(point.index)];
      PipelineOptions pipeline = options.pipeline;
      pipeline.budget = point.budget;
      pipeline.cycles.concurrent_operand_fetch = point.concurrent_fetch;
      try {
        const auto a = static_cast<std::size_t>(point.algorithm);
        std::vector<DesignPoint> pieces;
        pieces.reserve(vs.models.size());
        if (options.frontier && point.budget >= vs.min_feasible) {
          for (std::size_t p = 0; p < vs.models.size(); ++p) {
            const RefModel& model = *vs.models[p];
            PieceFrontiers& pf = vs.pieces[p];
            std::call_once(pf.once[a], [&] {
              pf.frontiers[a] = std::make_unique<AllocationFrontier>(
                  allocate_frontier(point.algorithm, model, vs.max_budget));
            });
            // (call_once rethrows build failures with the flag unset, so a
            // set pointer is guaranteed here; the feasibility guard above
            // makes such failures impossible in the first place.)
            pieces.push_back(evaluate_design(model, point.algorithm,
                                             pf.frontiers[a]->at(point.budget), pipeline));
          }
        } else {
          for (const auto& model : vs.models) {
            pieces.push_back(run_pipeline(*model, point.algorithm, pipeline));
          }
        }
        out.design = combine_pieces(std::move(pieces));
        out.feasible = true;
      } catch (const Error& e) {
        out.error = e.message();
      }
    }
    // Every other shard's use of the analysis happens before the last
    // shard's decrement, so the last one may free it.
    if (--vs.shards_left == 0) {
      vs.pieces.clear();
      vs.models.clear();
    }
  });

  result.space = std::move(space);
  return result;
}

}  // namespace srra::dse
