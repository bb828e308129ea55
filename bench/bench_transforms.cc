// Extension E (DESIGN.md §3, §10, §13): loop transforms x allocator.
// Interchange moves the reuse-carrying levels, tiling shrinks reuse windows
// until they fit a small register budget, and unroll-and-jam turns
// cross-iteration reuse into same-iteration forwarding; all three change
// every allocator's decisions. All enumerated variants compute bit-identical
// results (verified in test_transform.cc / test_fuzz.cc).
//
// The closing section drives the analytic bound-guided search
// (src/dse/prune.h) over a transform space two orders of magnitude larger
// than the exhaustive sweep this bench used to run — tile-on-tile stacks,
// eight tile sizes, three unroll factors — while evaluating only a capped
// number of bound-surviving candidates per kernel, so the wall time stays in
// the old envelope (pinned by tests/golden/bench_transforms_baseline.json +
// tools/perf_guard.sh in CI). The bench *fails* (nonzero exit) if the space
// shrinks below 100x the old 64-variant cap, so the coverage claim in the
// README cannot silently rot.
#include <algorithm>
#include <iostream>

#include "dse/prune.h"
#include "dse/report.h"
#include "kernels/kernels.h"
#include "support/str.h"
#include "support/table.h"

namespace {

using namespace srra;

// 100x the seed sweep's 64-variant cap: the floor the guided search must
// generate (abstract candidates, counted by SpaceStats) per kernel.
constexpr std::int64_t kGeneratedFloor = 6400;

struct EvalPoint {
  std::string label;
  std::string algorithm;
  std::int64_t budget = 0;
  std::int64_t regs = 0;
  std::int64_t exec_cycles = 0;
  bool transformed = false;  ///< sequence contains a tile or unroll-and-jam
};

bool is_transformed(const dse::Variant& variant) {
  for (const LoopTransform& t : variant.transforms) {
    if (t.kind != TransformKind::kInterchange) return true;
  }
  return false;
}

std::vector<EvalPoint> collect(const dse::ExploreResult& result) {
  std::vector<EvalPoint> points;
  for (const dse::SpacePoint& point : result.space.points) {
    const dse::PointResult& r = result.results[static_cast<std::size_t>(point.index)];
    if (!r.feasible) continue;
    const dse::Variant& variant = result.variant_of(point);
    points.push_back({variant.label(), algorithm_name(point.algorithm), point.budget,
                      r.design.allocation.total(), r.design.cycles.exec_cycles,
                      is_transformed(variant)});
  }
  return points;
}

// p dominates q on (registers, exec cycles): <= in both, < in at least one.
bool dominates(const EvalPoint& p, const EvalPoint& q) {
  return p.regs <= q.regs && p.exec_cycles <= q.exec_cycles &&
         (p.regs < q.regs || p.exec_cycles < q.exec_cycles);
}

void interchange_block(const std::string& title, dse::AxisSpec axes) {
  axes.transforms.interchange = true;
  dse::ExploreOptions options;
  options.jobs = 0;  // all cores
  const dse::ExploreResult result = dse::explore(std::move(axes), options);

  Table table({"Loop order", "Algorithm", "Distribution", "Exec cycles", "Tmem"});
  int last_variant = 0;
  for (const dse::SpacePoint& point : result.space.points) {
    const dse::PointResult& r = result.results[static_cast<std::size_t>(point.index)];
    if (!r.feasible) continue;
    if (point.variant != last_variant) table.add_separator();
    last_variant = point.variant;
    table.add_row({result.variant_of(point).label(), algorithm_name(point.algorithm),
                   r.design.allocation.distribution(),
                   with_commas(r.design.cycles.exec_cycles),
                   with_commas(r.design.cycles.mem_cycles)});
  }
  table.add_separator();
  std::cout << title << "\n";
  table.render(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "Loop transforms x allocator (DSE TransformSpec axis)\n\n";

  {
    dse::AxisSpec axes;
    axes.kernels.push_back({"MAT", kernels::mat()});
    interchange_block("MAT (c[i][j] += a[i][k] * b[k][j]) — interchange, budget 64",
                      std::move(axes));
  }
  {
    dse::AxisSpec axes;
    axes.kernels.push_back({"example", kernels::paper_example()});
    interchange_block("Worked example (Figure 1) — interchange, budget 64",
                      std::move(axes));
  }

  // Guided tile/unroll sweep over the Table-1 kernels. Per kernel: the best
  // untiled point comes from an exhaustive interchange-only sweep (a handful
  // of variants), the best transformed point from the bound-guided search
  // over the full tile-on-tile x unroll cross product, evaluating at most
  // kEvalCap bound-surviving candidates. The last column is the headline
  // claim pinned by test_dse.cc: does some transformed point dominate, for
  // *every* untiled loop order, that order's best point?
  constexpr int kEvalCap = 16;
  std::cout << "Guided tile/unroll sweep — analytic bound pruning (DESIGN.md §13)\n"
            << "space: interchange x 23 tile sizes (2..32) stacked 2 deep x "
               "unroll {2,3,4,6,8}; budgets 8,16,32,64; eval cap "
            << kEvalCap << "/kernel\n";
  Table sweep_table({"Kernel", "Generated", "Pruned: bound", "cap", "illegal/dup",
                     "Evaluated", "Best untiled",
                     "Regs", "Exec cycles", "Best transformed", "Regs", "Exec cycles",
                     "Dominates every untiled order"});
  std::int64_t total_generated = 0;
  std::int64_t total_evaluated = 0;
  bool coverage_ok = true;
  for (kernels::NamedKernel& nk : kernels::table1_kernels()) {
    dse::ExploreOptions options;
    options.jobs = 0;  // all cores

    dse::AxisSpec untiled_axes;
    untiled_axes.kernels.push_back({nk.name, nk.kernel.clone()});
    untiled_axes.budgets = {8, 16, 32, 64};
    untiled_axes.transforms.interchange = true;
    const std::vector<EvalPoint> untiled =
        collect(dse::explore(std::move(untiled_axes), options));

    dse::AxisSpec axes;
    axes.kernels.push_back({nk.name, std::move(nk.kernel)});
    axes.budgets = {8, 16, 32, 64};
    axes.transforms.interchange = true;
    axes.transforms.tile_sizes = {2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13,
                                  14, 15, 16, 18, 20, 22, 24, 26, 28, 30, 32};
    axes.transforms.tile_depth = 2;
    axes.transforms.unroll_factors = {2, 3, 4, 6, 8};
    dse::PruneOptions prune;
    prune.wave = 8;
    prune.max_evaluated_per_kernel = kEvalCap;
    const dse::ExploreResult guided = dse::explore_guided(std::move(axes), options, prune);
    const dse::SpaceStats& stats = guided.space.stats;
    total_generated += stats.variants_generated;
    total_evaluated += stats.variants_evaluated;
    if (stats.variants_generated < kGeneratedFloor) coverage_ok = false;
    const std::vector<EvalPoint> points = collect(guided);

    const auto better = [](const EvalPoint& a, const EvalPoint& b) {
      return a.exec_cycles != b.exec_cycles ? a.exec_cycles < b.exec_cycles
                                            : a.regs < b.regs;
    };
    const EvalPoint* best_untiled = nullptr;
    std::vector<const EvalPoint*> best_per_untiled_label;  // one per loop order
    for (const EvalPoint& p : untiled) {
      if (p.transformed) continue;
      if (best_untiled == nullptr || better(p, *best_untiled)) best_untiled = &p;
      auto it = std::find_if(best_per_untiled_label.begin(), best_per_untiled_label.end(),
                             [&](const EvalPoint* q) { return q->label == p.label; });
      if (it == best_per_untiled_label.end()) {
        best_per_untiled_label.push_back(&p);
      } else if (better(p, **it)) {
        *it = &p;
      }
    }
    const EvalPoint* best_transformed = nullptr;
    for (const EvalPoint& p : points) {
      if (!p.transformed) continue;
      if (best_transformed == nullptr || better(p, *best_transformed)) best_transformed = &p;
    }
    if (best_untiled == nullptr || best_transformed == nullptr) continue;

    bool dominates_every_order = false;
    for (const EvalPoint& p : points) {
      if (!p.transformed) continue;
      bool all = true;
      for (const EvalPoint* q : best_per_untiled_label) {
        if (!dominates(p, *q)) {
          all = false;
          break;
        }
      }
      if (all) {
        dominates_every_order = true;
        break;
      }
    }
    sweep_table.add_row({nk.name, std::to_string(stats.variants_generated),
                         std::to_string(stats.pruned_by_bound),
                         std::to_string(stats.pruned_by_cap),
                         std::to_string(stats.pruned_illegal_or_duplicate),
                         std::to_string(stats.variants_evaluated), best_untiled->label,
                         std::to_string(best_untiled->regs),
                         with_commas(best_untiled->exec_cycles), best_transformed->label,
                         std::to_string(best_transformed->regs),
                         with_commas(best_transformed->exec_cycles),
                         dominates_every_order ? "yes" : "no"});
  }
  sweep_table.render(std::cout);
  std::cout << "\nGuided totals: generated " << total_generated << ", evaluated "
            << total_evaluated << " (floor " << kGeneratedFloor << "/kernel)\n";
  if (!coverage_ok) {
    std::cerr << "FAIL: a kernel generated fewer than " << kGeneratedFloor
              << " candidates — the 100x coverage claim no longer holds\n";
    return 1;
  }
  return 0;
}
