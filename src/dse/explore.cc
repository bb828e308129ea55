#include "dse/explore.h"

#include <algorithm>
#include <array>
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

struct VariantFrontiers {
  std::int64_t max_budget = -1;  ///< largest feasible budget of the variant
  int min_feasible = 0;          ///< max group count over the variant's pieces
  std::vector<PieceFrontiers> pieces;  ///< main first, epilogues after
};

}  // namespace

ExploreResult explore(EnumeratedSpace space, const ExploreOptions& options) {
  ExploreResult result;
  result.results.resize(space.points.size());
  const std::vector<std::vector<int>> groups = space.points_by_variant();

  ThreadPool pool(options.jobs);

  // One shared RefModel per nest piece of every variant (main first, then
  // the peeled epilogues — most variants have exactly one piece): the model
  // caches (strategy selections with their counts, cycle-model memo) are
  // thread-safe, so every shard of the variant reuses the same analysis
  // instead of redoing grouping, reuse and counting per shard. Results
  // cannot depend on sharing: every cached value is a deterministic
  // function of its key, so reports stay byte-identical for any --jobs.
  // The models are built on the pool too, each into its variant's own
  // preallocated slot.
  std::vector<std::vector<std::unique_ptr<RefModel>>> models(space.variants.size());
  pool.parallel_for(static_cast<std::int64_t>(space.variants.size()), [&](std::int64_t v) {
    const Variant& variant = space.variants[static_cast<std::size_t>(v)];
    std::vector<std::unique_ptr<RefModel>>& pieces = models[static_cast<std::size_t>(v)];
    pieces.push_back(std::make_unique<RefModel>(variant.kernel.clone()));
    for (const Kernel& epilogue : variant.epilogues) {
      pieces.push_back(std::make_unique<RefModel>(epilogue.clone()));
    }
  });

  // The whole budget axis of one (variant, algorithm) collapses into one
  // frontier evaluation per piece; per-budget allocations are slices of it.
  // A peeled variant is feasible only when every piece is, so budgets below
  // the widest piece's feasibility point keep the per-point path and its
  // diagnostics.
  std::vector<VariantFrontiers> frontiers(space.variants.size());
  for (const Variant& variant : space.variants) {
    VariantFrontiers& vf = frontiers[static_cast<std::size_t>(variant.index)];
    const auto& pieces = models[static_cast<std::size_t>(variant.index)];
    vf.pieces = std::vector<PieceFrontiers>(pieces.size());
    for (const auto& model : pieces) {
      vf.min_feasible = std::max(vf.min_feasible, model->group_count());
    }
  }
  for (const SpacePoint& point : space.points) {
    VariantFrontiers& vf = frontiers[static_cast<std::size_t>(point.variant)];
    if (point.budget >= vf.min_feasible) vf.max_budget = std::max(vf.max_budget, point.budget);
  }

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
  for (const Variant& variant : space.variants) {
    const std::size_t n = groups[static_cast<std::size_t>(variant.index)].size();
    const std::size_t chunks = std::min(shards, std::max<std::size_t>(n, 1));
    for (std::size_t c = 0; c < chunks; ++c) {
      const Unit unit{variant.index, n * c / chunks, n * (c + 1) / chunks};
      if (unit.begin < unit.end) units.push_back(unit);
    }
  }

  pool.parallel_for(static_cast<std::int64_t>(units.size()), [&](std::int64_t u) {
    const Unit& unit = units[static_cast<std::size_t>(u)];
    const auto& piece_models = models[static_cast<std::size_t>(unit.variant)];
    VariantFrontiers& vf = frontiers[static_cast<std::size_t>(unit.variant)];
    const std::vector<int>& indices = groups[static_cast<std::size_t>(unit.variant)];
    for (std::size_t i = unit.begin; i < unit.end; ++i) {
      const SpacePoint& point = space.points[static_cast<std::size_t>(indices[i])];
      PointResult& out = result.results[static_cast<std::size_t>(point.index)];
      PipelineOptions pipeline = options.pipeline;
      pipeline.budget = point.budget;
      pipeline.cycles.concurrent_operand_fetch = point.concurrent_fetch;
      try {
        const auto a = static_cast<std::size_t>(point.algorithm);
        std::vector<DesignPoint> pieces;
        pieces.reserve(piece_models.size());
        if (options.frontier && point.budget >= vf.min_feasible) {
          for (std::size_t p = 0; p < piece_models.size(); ++p) {
            const RefModel& model = *piece_models[p];
            PieceFrontiers& pf = vf.pieces[p];
            std::call_once(pf.once[a], [&] {
              pf.frontiers[a] = std::make_unique<AllocationFrontier>(
                  allocate_frontier(point.algorithm, model, vf.max_budget));
            });
            // (call_once rethrows build failures with the flag unset, so a
            // set pointer is guaranteed here; the feasibility guard above
            // makes such failures impossible in the first place.)
            pieces.push_back(evaluate_design(model, point.algorithm,
                                             pf.frontiers[a]->at(point.budget), pipeline));
          }
        } else {
          for (const auto& model : piece_models) {
            pieces.push_back(run_pipeline(*model, point.algorithm, pipeline));
          }
        }
        out.design = combine_pieces(std::move(pieces));
        out.feasible = true;
      } catch (const Error& e) {
        out.error = e.what();
      }
    }
  });

  result.space = std::move(space);
  return result;
}

}  // namespace srra::dse
