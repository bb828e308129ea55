// Analytic transform-space pruning (dse/prune.h, DESIGN.md §13):
//  * frontier identity — at an unlimited evaluation cap the guided search
//    produces exactly the registers-vs-cycles frontier of the exhaustive
//    sweep, on the builtin kernels and on random ones,
//  * bound soundness — bound_curve() never exceeds the measured exec
//    cycles of any feasible design point of the same candidate, at that
//    point's realized register count (the property pruning rests on),
//  * curve shape — at() is non-increasing in registers and never dips
//    below the compute floor,
//  * stats stay an exact partition (generated = pruned + evaluated, and
//    pruned = bound + cap + illegal-or-duplicate), with and without a
//    per-kernel evaluation cap,
//  * rounds keep kernels independent — a multi-kernel search, whose waves
//    run one round per explore call, equals its kernels' single-kernel
//    searches one after another, for any lane count and kernel order,
//  * the sweep-spec parsers reject trailing garbage ("8x") instead of
//    silently truncating — pinned here because the guided bench leans on
//    hand-typed size lists,
//  * the candidate tree both sweeps walk (dse/candidate_tree.h) — its
//    abstract state matches every legal candidate's materialized nest, and
//    its superset legality never drops a step is_safe accepts.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "dse/candidate_tree.h"
#include "dse/pareto.h"
#include "dse/prune.h"
#include "ir/parser.h"
#include "kernels/kernels.h"
#include "random_kernel.h"
#include "support/error.h"
#include "support/rng.h"

namespace srra {
namespace {

using dse::AxisSpec;
using dse::BoundCurve;
using dse::ExploreOptions;
using dse::ExploreResult;
using dse::Frontier;
using dse::PointResult;
using dse::PruneOptions;
using dse::SpacePoint;
using srra::testing::random_kernel;

// The moderate transform space the identity tests sweep: interchange plus
// a couple of tile sizes and unroll factors — large enough that the guided
// search actually prunes, small enough for an exhaustive reference run.
AxisSpec spec_for(const std::string& name, Kernel kernel) {
  AxisSpec axes;
  axes.kernels.push_back({name, std::move(kernel)});
  axes.budgets = {8, 64};
  axes.transforms.interchange = true;
  axes.transforms.tile_sizes = {4, 8};
  axes.transforms.unroll_factors = {2, 4};
  return axes;
}

// (registers, exec cycles) coordinates of one frontier, sorted — frontiers
// are compared as coordinate sets because guided and exhaustive enumerate
// candidates in different orders (point indices differ).
std::vector<std::pair<std::int64_t, std::int64_t>> coords(const ExploreResult& result,
                                                          const Frontier& frontier) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const int index : frontier.points) {
    const PointResult& r = result.results[static_cast<std::size_t>(index)];
    out.emplace_back(r.design.allocation.total(), r.design.cycles.exec_cycles);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_identical_frontiers(const std::string& name, const Kernel& kernel) {
  SCOPED_TRACE(name);
  ExploreOptions options;
  const ExploreResult exhaustive = dse::explore(spec_for(name, kernel.clone()), options);
  const ExploreResult guided =
      dse::explore_guided(spec_for(name, kernel.clone()), options);
  EXPECT_EQ(coords(exhaustive, dse::registers_vs_cycles(exhaustive, name)),
            coords(guided, dse::registers_vs_cycles(guided, name)));
}

TEST(Prune, GuidedFrontierMatchesExhaustiveOnBuiltins) {
  expect_identical_frontiers("example", kernels::paper_example());
  expect_identical_frontiers("mat", kernels::mat());
  expect_identical_frontiers("dec_fir", kernels::dec_fir());
  expect_identical_frontiers("matvec", kernels::matvec());
}

// Every feasible measured point must sit on or above its candidate's bound
// curve at the point's realized register total. This is the exact property
// strict-dominance pruning relies on: if it held only approximately, a
// pruned candidate could have beaten the frontier.
void expect_bounds_sound(const std::string& name, const Kernel& base) {
  SCOPED_TRACE(name);
  ExploreOptions options;
  const ExploreResult result = dse::explore(spec_for(name, base.clone()), options);
  int checked = 0;
  for (const SpacePoint& point : result.space.points) {
    const PointResult& r = result.results[static_cast<std::size_t>(point.index)];
    if (!r.feasible) continue;
    const BoundCurve curve = dse::bound_curve(
        base, result.variant_of(point).transforms, options.pipeline.cycles);
    EXPECT_LE(curve.at(r.design.allocation.total()), r.design.cycles.exec_cycles)
        << result.variant_of(point).label() << " budget " << point.budget;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(Prune, BoundNeverExceedsMeasuredCyclesOnBuiltins) {
  expect_bounds_sound("example", kernels::paper_example());
  expect_bounds_sound("mat", kernels::mat());
}

TEST(Prune, CurveIsMonotoneAndAboveFloor) {
  const Kernel mat = kernels::mat();
  const std::vector<LoopTransform> seqs[] = {
      {},
      {LoopTransform::tile(0, 4)},
      {LoopTransform::tile(2, 4), LoopTransform::unroll_jam(0, 2)},
      {LoopTransform::interchange({2, 0, 1})},
  };
  const CycleOptions cycles;  // pipeline defaults: serial memory, overhead on
  for (const auto& seq : seqs) {
    const BoundCurve curve = dse::bound_curve(mat, seq, cycles);
    EXPECT_GE(curve.min_regs, 1);
    EXPECT_GT(curve.floor_cycles, 0);
    std::int64_t prev = curve.at(1);  // below min_regs: clamped, still defined
    for (std::int64_t regs = curve.min_regs; regs <= curve.min_regs + 40; ++regs) {
      const std::int64_t b = curve.at(regs);
      EXPECT_LE(b, prev) << "regs " << regs;
      EXPECT_GE(b, curve.floor_cycles) << "regs " << regs;
      prev = b;
    }
  }
}

TEST(Prune, StatsPartitionExactlyWithAndWithoutCap) {
  ExploreOptions options;
  {
    const ExploreResult r = dse::explore_guided(spec_for("mat", kernels::mat()), options);
    const dse::SpaceStats& s = r.space.stats;
    EXPECT_EQ(s.variants_generated, s.variants_pruned + s.variants_evaluated);
    EXPECT_EQ(s.variants_pruned,
              s.pruned_by_bound + s.pruned_by_cap + s.pruned_illegal_or_duplicate);
    EXPECT_EQ(s.variants_evaluated, static_cast<std::int64_t>(r.space.variants.size()));
    EXPECT_GT(s.pruned_by_bound, 0);  // the space is big enough that some prune
    EXPECT_EQ(s.pruned_by_cap, 0);
  }
  {
    PruneOptions prune;
    prune.max_evaluated_per_kernel = 3;
    const ExploreResult r =
        dse::explore_guided(spec_for("mat", kernels::mat()), options, prune);
    const dse::SpaceStats& s = r.space.stats;
    EXPECT_EQ(s.variants_generated, s.variants_pruned + s.variants_evaluated);
    EXPECT_EQ(s.variants_pruned,
              s.pruned_by_bound + s.pruned_by_cap + s.pruned_illegal_or_duplicate);
    EXPECT_EQ(s.variants_evaluated, 3);
    EXPECT_EQ(r.space.variants.size(), 3u);
    EXPECT_GT(s.pruned_by_cap, 0);
  }
}

// Coverage: on a two-deep tile space (23 sizes from 2 to 32, unroll
// {2,3,4,6,8}) every Table-1 kernel generates at least 6,400 candidates,
// 100x the 64-variant cap of the exhaustive sweep the guided search
// replaced, while a cap of 16 keeps what it evaluates small.
TEST(Prune, GeneratesAHundredfoldSpacePerTable1Kernel) {
  ExploreOptions options;
  PruneOptions prune;
  prune.wave = 8;
  prune.max_evaluated_per_kernel = 16;
  for (kernels::NamedKernel& nk : kernels::table1_kernels()) {
    AxisSpec axes;
    axes.kernels.push_back({nk.name, std::move(nk.kernel)});
    axes.budgets = {8, 16, 32, 64};
    axes.transforms.interchange = true;
    axes.transforms.tile_sizes = {2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13,
                                  14, 15, 16, 18, 20, 22, 24, 26, 28, 30, 32};
    axes.transforms.tile_depth = 2;
    axes.transforms.unroll_factors = {2, 3, 4, 6, 8};
    const dse::SpaceStats s =
        dse::explore_guided(std::move(axes), options, prune).space.stats;
    EXPECT_GE(s.variants_generated, 6400) << nk.name;
    EXPECT_LE(s.variants_evaluated, 16) << nk.name;
  }
}

// ---- Rounds across kernels ----
//
// explore_guided evaluates wave r of every kernel in one explore call, then
// reorders the result kernel-major. Each kernel's pruning must still read
// only its own measured points, so a multi-kernel search must equal the
// concatenation of its kernels' single-kernel searches: the same variants,
// points, results and stats, for any lane count.

void expect_same_result(const PointResult& a, const PointResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.error, b.error);
  const DesignPoint& x = a.design;
  const DesignPoint& y = b.design;
  EXPECT_EQ(x.algorithm, y.algorithm);
  EXPECT_EQ(x.allocation.algorithm, y.allocation.algorithm);
  EXPECT_EQ(x.allocation.budget, y.allocation.budget);
  EXPECT_EQ(x.allocation.regs, y.allocation.regs);
  EXPECT_EQ(x.cycles.mem_cycles, y.cycles.mem_cycles);
  EXPECT_EQ(x.cycles.ram_accesses, y.cycles.ram_accesses);
  EXPECT_EQ(x.cycles.exec_cycles, y.cycles.exec_cycles);
  EXPECT_EQ(x.cycles.iterations, y.cycles.iterations);
  EXPECT_EQ(x.hw.registers, y.hw.registers);
  EXPECT_EQ(x.hw.flip_flops, y.hw.flip_flops);
  EXPECT_EQ(x.hw.luts, y.hw.luts);
  EXPECT_EQ(x.hw.slices, y.hw.slices);
  EXPECT_EQ(x.hw.occupancy, y.hw.occupancy);
  EXPECT_EQ(x.hw.block_rams, y.hw.block_rams);
  EXPECT_EQ(x.hw.fsm_states, y.hw.fsm_states);
  EXPECT_EQ(x.hw.clock_ns, y.hw.clock_ns);
}

void expect_concatenation(const ExploreResult& whole,
                          const std::vector<const ExploreResult*>& parts) {
  std::size_t v = 0;
  std::size_t p = 0;
  dse::SpaceStats sum;
  for (const ExploreResult* part_ptr : parts) {
    const ExploreResult& part = *part_ptr;
    const int variant_offset = static_cast<int>(v);
    for (const dse::Variant& variant : part.space.variants) {
      ASSERT_LT(v, whole.space.variants.size());
      const dse::Variant& w = whole.space.variants[v];
      EXPECT_EQ(w.index, static_cast<int>(v));
      EXPECT_EQ(w.kernel_name, variant.kernel_name);
      EXPECT_EQ(w.label(), variant.label()) << "variant " << v;
      ++v;
    }
    for (const SpacePoint& point : part.space.points) {
      ASSERT_LT(p, whole.space.points.size());
      const SpacePoint& w = whole.space.points[p];
      EXPECT_EQ(w.index, static_cast<int>(p));
      EXPECT_EQ(w.variant, point.variant + variant_offset) << "point " << p;
      EXPECT_EQ(w.algorithm, point.algorithm);
      EXPECT_EQ(w.budget, point.budget);
      EXPECT_EQ(w.concurrent_fetch, point.concurrent_fetch);
      SCOPED_TRACE(::testing::Message() << "point " << p);
      expect_same_result(whole.results[p],
                         part.results[static_cast<std::size_t>(point.index)]);
      ++p;
    }
    const dse::SpaceStats& s = part.space.stats;
    sum.variants_generated += s.variants_generated;
    sum.variants_pruned += s.variants_pruned;
    sum.variants_evaluated += s.variants_evaluated;
    sum.pruned_by_bound += s.pruned_by_bound;
    sum.pruned_by_cap += s.pruned_by_cap;
    sum.pruned_illegal_or_duplicate += s.pruned_illegal_or_duplicate;
  }
  EXPECT_EQ(v, whole.space.variants.size());
  EXPECT_EQ(p, whole.space.points.size());
  EXPECT_EQ(whole.results.size(), whole.space.points.size());
  const dse::SpaceStats& s = whole.space.stats;
  EXPECT_EQ(s.variants_generated, sum.variants_generated);
  EXPECT_EQ(s.variants_pruned, sum.variants_pruned);
  EXPECT_EQ(s.variants_evaluated, sum.variants_evaluated);
  EXPECT_EQ(s.pruned_by_bound, sum.pruned_by_bound);
  EXPECT_EQ(s.pruned_by_cap, sum.pruned_by_cap);
  EXPECT_EQ(s.pruned_illegal_or_duplicate, sum.pruned_illegal_or_duplicate);
}

AxisSpec rounds_spec(const std::vector<const kernels::NamedKernel*>& list) {
  AxisSpec axes;
  for (const kernels::NamedKernel* nk : list) {
    axes.kernels.push_back({nk->name, nk->kernel.clone()});
  }
  axes.budgets = {16, 64};
  axes.transforms.interchange = true;
  axes.transforms.tile_sizes = {3, 8};
  axes.transforms.unroll_factors = {2};
  return axes;
}

TEST(Prune, RoundsKeepKernelsIndependent) {
  std::vector<kernels::NamedKernel> named;
  named.push_back({"MAT", "", kernels::mat()});
  named.push_back({"FIR", "", kernels::fir()});
  named.push_back({"Dec-FIR", "", kernels::dec_fir()});
  // The default wave, and a small one so that every kernel runs several
  // rounds and the kernels run out in different rounds.
  for (const int wave : {16, 4}) {
    PruneOptions prune;
    prune.wave = wave;
    std::vector<ExploreResult> alone;
    for (const kernels::NamedKernel& nk : named) {
      alone.push_back(dse::explore_guided(rounds_spec({&nk}), ExploreOptions{}, prune));
    }
    for (const bool reversed : {false, true}) {
      std::vector<const kernels::NamedKernel*> order;
      std::vector<const ExploreResult*> parts;
      for (std::size_t k = 0; k < named.size(); ++k) {
        const std::size_t i = reversed ? named.size() - 1 - k : k;
        order.push_back(&named[i]);
        parts.push_back(&alone[i]);
      }
      for (const int jobs : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "wave " << wave << (reversed ? " reversed" : "") << " jobs " << jobs);
        ExploreOptions options;
        options.jobs = jobs;
        expect_concatenation(dse::explore_guided(rounds_spec(order), options, prune), parts);
      }
    }
  }
}

// Every kernel's tree is walked before anything is evaluated, so an illegal
// explicit sequence on a later kernel throws the message it throws alone.
TEST(Prune, IllegalSequenceOnLaterKernelThrowsItsOwnMessage) {
  const kernels::NamedKernel fir{"FIR", "", kernels::fir()};
  // Not reorder-safe: x[i] carries a dependence across i.
  const kernels::NamedKernel scan{"scan", "", parse_kernel(R"(
    kernel scan {
      array x[8]; array y[8][6];
      for i in 0..8 { for j in 0..6 { x[i] = x[i] * 2 + y[i][j]; } }
    }
  )")};
  const auto axes = [](const std::vector<const kernels::NamedKernel*>& list) {
    AxisSpec spec = rounds_spec(list);
    spec.transforms.sequences = {{LoopTransform::interchange({1, 0})}};
    return spec;
  };
  const auto message = [](AxisSpec spec) {
    try {
      dse::explore_guided(std::move(spec), ExploreOptions{});
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const std::string alone = message(axes({&scan}));
  EXPECT_NE(alone.find("transform sequence 'i(1,0)' is illegal for kernel scan"),
            std::string::npos)
      << alone;
  EXPECT_EQ(message(axes({&fir, &scan})), alone);
  EXPECT_EQ(message(axes({&fir, &fir, &scan})), alone);
}

// The spec parsers already rejected trailing garbage before the guided
// sweep landed; these pins keep "8x" from ever quietly becoming 8.
TEST(Prune, SweepSpecParsersRejectTrailingGarbage) {
  EXPECT_THROW(dse::parse_budget_spec("8x"), Error);
  EXPECT_THROW(dse::parse_budget_spec("4:8x"), Error);
  EXPECT_THROW(dse::parse_budget_spec("16,32q,64"), Error);
  EXPECT_THROW(dse::parse_budget_spec(""), Error);
  EXPECT_THROW(dse::parse_size_list("4x", "--tiles"), Error);
  EXPECT_THROW(dse::parse_size_list("2,x4", "--unroll"), Error);
  EXPECT_EQ(dse::parse_budget_spec(" 8 , 16 "), (std::vector<std::int64_t>{8, 16}));
  EXPECT_EQ(dse::parse_size_list("4,8", "--tiles"), (std::vector<std::int64_t>{4, 8}));
}

// ---- The candidate tree ----
//
// Both sweeps rest on the walk: the guided search bounds a candidate from
// its abstract state, and enumerate_space keeps exactly the candidates
// apply_if_safe accepts. So every accepted candidate's abstract trips (and
// peeled epilogue sizes) must equal its materialized nest's, and every next
// step the grammar allows from it — a tile while layers remain and no
// unroll yet, or an unroll — that is_safe accepts must be visited too.

dse::TransformSpec tree_spec(int tile_depth) {
  dse::TransformSpec spec;
  spec.interchange = true;
  spec.tile_sizes = {2, 3, 4};
  spec.tile_depth = tile_depth;
  spec.unroll_factors = {2, 3};
  return spec;
}

struct TreeCounts {
  int visited = 0;
  int rejected = 0;  ///< visited candidates apply_if_safe refused
};

void check_tree(const Kernel& kernel, const dse::TransformSpec& spec, TreeCounts& counts) {
  struct Visit {
    std::vector<LoopTransform> sequence;
    dse::AbsState state;
  };
  std::vector<Visit> visits;
  std::set<std::string> visited;
  dse::walk_candidates(kernel, "tree", spec,
                       [&](const dse::AbsState& state,
                           const std::vector<LoopTransform>& sequence) {
    visits.push_back({sequence, state});
    visited.insert(to_string(sequence));
  });
  counts.visited += static_cast<int>(visits.size());
  for (const Visit& v : visits) {
    const std::optional<PeeledNest> nest = apply_if_safe(kernel, v.sequence);
    if (!nest) {
      ++counts.rejected;
      continue;
    }
    const std::string at = to_string(v.sequence);
    EXPECT_EQ(v.state.trips, nest->main.trip_counts()) << at;
    std::vector<std::int64_t> epilogue_iterations;
    for (const Kernel& e : nest->epilogues) epilogue_iterations.push_back(e.iteration_count());
    EXPECT_EQ(v.state.epilogue_iterations, epilogue_iterations) << at;

    const auto count = [&](TransformKind kind) {
      return std::count_if(v.sequence.begin(), v.sequence.end(),
                           [&](const LoopTransform& t) { return t.kind == kind; });
    };
    if (count(TransformKind::kUnrollJam) > 0) continue;
    std::vector<LoopTransform> steps;
    for (int level = 0; level < nest->main.depth(); ++level) {
      if (count(TransformKind::kTile) < spec.tile_depth) {
        for (const std::int64_t size : spec.tile_sizes) {
          if (size < nest->main.loop(level).trip_count()) {
            steps.push_back(LoopTransform::tile(level, size));
          }
        }
      }
      for (const std::int64_t factor : spec.unroll_factors) {
        steps.push_back(LoopTransform::unroll_jam(level, factor));
      }
    }
    for (const LoopTransform& step : steps) {
      if (!is_safe(nest->main, step)) continue;
      std::vector<LoopTransform> next = v.sequence;
      next.push_back(step);
      EXPECT_EQ(visited.count(to_string(next)), 1u) << at << " + " << to_string(step);
    }
  }
}

TEST(Prune, CandidateTreeStateAndSupersetHoldOnBuiltins) {
  std::vector<kernels::NamedKernel> cases = kernels::builtin_kernels();
  // Every builtin is reorder-safe, so add a kernel that is not: its inner
  // peeled tiles and outer unroll-and-jams are in the superset only.
  cases.push_back({"scan", "", parse_kernel(R"(
    kernel scan {
      array x[8]; array y[8][6];
      for i in 0..8 { for j in 0..6 { x[i] = x[i] * 2 + y[i][j]; } }
    }
  )")});
  TreeCounts counts;
  for (const kernels::NamedKernel& k : cases) {
    SCOPED_TRACE(k.name);
    for (const int depth : {1, 2}) check_tree(k.kernel, tree_spec(depth), counts);
  }
  EXPECT_GT(counts.rejected, 0);
  EXPECT_GT(counts.visited, 2 * counts.rejected);
}

class PruneFuzz : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const {
    return fuzz_seed() + static_cast<std::uint64_t>(GetParam());
  }
  std::string replay_hint() const {
    std::ostringstream os;
    os << "fuzz seed " << seed() << " — replay with SRRA_FUZZ_SEED=" << seed()
       << " SRRA_FUZZ_ITERS=1 ./test_prune";
    return os.str();
  }
  // Smaller than spec_for: two explores per instance, 24 instances.
  AxisSpec fuzz_spec(Kernel kernel) const {
    AxisSpec axes;
    axes.kernels.push_back({"fuzz", std::move(kernel)});
    axes.budgets = {8, 32};
    axes.transforms.interchange = true;
    axes.transforms.tile_sizes = {2, 3};
    axes.transforms.unroll_factors = {2};
    return axes;
  }
};

TEST_P(PruneFuzz, GuidedFrontierMatchesExhaustive) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 6271 + 5);
  const Kernel base = random_kernel(rng);
  ExploreOptions options;
  const ExploreResult exhaustive = dse::explore(fuzz_spec(base.clone()), options);
  const ExploreResult guided = dse::explore_guided(fuzz_spec(base.clone()), options);
  EXPECT_EQ(coords(exhaustive, dse::registers_vs_cycles(exhaustive, "fuzz")),
            coords(guided, dse::registers_vs_cycles(guided, "fuzz")));
}

TEST_P(PruneFuzz, BoundNeverExceedsMeasuredCycles) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 104729 + 11);
  const Kernel base = random_kernel(rng);
  ExploreOptions options;
  const ExploreResult result = dse::explore(fuzz_spec(base.clone()), options);
  for (const SpacePoint& point : result.space.points) {
    const PointResult& r = result.results[static_cast<std::size_t>(point.index)];
    if (!r.feasible) continue;
    const BoundCurve curve = dse::bound_curve(
        base, result.variant_of(point).transforms, options.pipeline.cycles);
    EXPECT_LE(curve.at(r.design.allocation.total()), r.design.cycles.exec_cycles)
        << result.variant_of(point).label() << " budget " << point.budget;
  }
}

TEST_P(PruneFuzz, RoundsKeepKernelsIndependent) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 3571 + 7);
  const Kernel a = random_kernel(rng);
  const Kernel b = random_kernel(rng);
  AxisSpec both = fuzz_spec(a.clone());
  both.kernels.front().name = "a";
  both.kernels.push_back({"b", b.clone()});
  AxisSpec only_a = fuzz_spec(a.clone());
  only_a.kernels.front().name = "a";
  AxisSpec only_b = fuzz_spec(b.clone());
  only_b.kernels.front().name = "b";
  PruneOptions prune;
  prune.wave = 4;
  ExploreOptions options;
  options.jobs = 2;
  const ExploreResult part_a = dse::explore_guided(std::move(only_a), options, prune);
  const ExploreResult part_b = dse::explore_guided(std::move(only_b), options, prune);
  expect_concatenation(dse::explore_guided(std::move(both), options, prune),
                       {&part_a, &part_b});
}

TEST_P(PruneFuzz, CandidateTreeStateAndSupersetHold) {
  SCOPED_TRACE(replay_hint());
  Rng rng(seed() * 7919 + 3);
  const Kernel base = random_kernel(rng);
  TreeCounts counts;
  for (const int depth : {1, 2}) check_tree(base, tree_spec(depth), counts);
  EXPECT_GT(counts.visited, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneFuzz, ::testing::Range(0, fuzz_iters()));

}  // namespace
}  // namespace srra
