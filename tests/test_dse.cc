// DSE subsystem tests (DESIGN.md §7): budget-spec parsing, space
// enumeration, Pareto dominance on hand-built point sets, engine
// determinism across thread counts (byte-identical reports), the fixed
// thread pool, the JSON writer, and the driver's shared-model sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <sstream>
#include <vector>

#include "dse/report.h"
#include "ir/parser.h"
#include "kernels/kernels.h"
#include "support/error.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace {

using namespace srra;
using namespace srra::dse;

// ---- Budget specs ----

TEST(BudgetSpec, SingleAndList) {
  EXPECT_EQ(parse_budget_spec("64"), (std::vector<std::int64_t>{64}));
  EXPECT_EQ(parse_budget_spec("8,16,64"), (std::vector<std::int64_t>{8, 16, 64}));
  EXPECT_EQ(parse_budget_spec("64,8,64"), (std::vector<std::int64_t>{8, 64}));
}

TEST(BudgetSpec, DoublingLadder) {
  EXPECT_EQ(parse_budget_spec("8:128"),
            (std::vector<std::int64_t>{8, 16, 32, 64, 128}));
  EXPECT_EQ(parse_budget_spec("16:64"), (std::vector<std::int64_t>{16, 32, 64}));
  // hi is appended when the ladder overshoots it.
  EXPECT_EQ(parse_budget_spec("16:50"), (std::vector<std::int64_t>{16, 32, 50}));
}

TEST(BudgetSpec, ArithmeticStep) {
  EXPECT_EQ(parse_budget_spec("8:24:8"), (std::vector<std::int64_t>{8, 16, 24}));
  EXPECT_EQ(parse_budget_spec("10:25:10"), (std::vector<std::int64_t>{10, 20, 25}));
}

TEST(BudgetSpec, Malformed) {
  EXPECT_THROW(parse_budget_spec(""), Error);
  EXPECT_THROW(parse_budget_spec("abc"), Error);
  EXPECT_THROW(parse_budget_spec("0"), Error);
  EXPECT_THROW(parse_budget_spec("-8"), Error);
  EXPECT_THROW(parse_budget_spec("64:8"), Error);
  EXPECT_THROW(parse_budget_spec("8:64:0"), Error);
  EXPECT_THROW(parse_budget_spec("8:64:8:2"), Error);
  // Overflow-sized input must raise srra::Error, not std::out_of_range,
  // and the doubling ladder must never be asked to double past int64.
  EXPECT_THROW(parse_budget_spec("99999999999999999999"), Error);
  EXPECT_THROW(parse_budget_spec("2000000"), Error);
  EXPECT_THROW(parse_budget_spec("8:99999999999999999999"), Error);
}

// ---- Space enumeration ----

AxisSpec example_axes() {
  AxisSpec axes;
  axes.kernels.push_back({"example", kernels::paper_example()});
  return axes;
}

TEST(Space, CrossProductCounts) {
  AxisSpec axes = example_axes();
  axes.kernels.push_back({"FIR", kernels::fir()});
  axes.budgets = {16, 64};
  axes.fetch_modes = {true, false};
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  ASSERT_EQ(space.variants.size(), 2u);
  // 2 variants x 2 fetch x 3 algorithms x 2 budgets.
  ASSERT_EQ(space.points.size(), 24u);
  for (const SpacePoint& point : space.points) {
    EXPECT_EQ(point.index, space.points[static_cast<std::size_t>(point.index)].index);
  }
}

TEST(Space, InterchangeEnumeratesSourceOrderFirst) {
  AxisSpec axes = example_axes();
  axes.transforms.interchange = true;
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  ASSERT_EQ(space.variants.size(), 6u);  // 3! orders of the safe example nest
  EXPECT_EQ(space.variants.front().order, "(i,j,k)");
  // Every variant keeps the kernel name; orders are distinct.
  for (const Variant& variant : space.variants) {
    EXPECT_EQ(variant.kernel_name, "example");
  }
}

TEST(Space, DeepNestsKeepSourceOrder) {
  AxisSpec axes;
  axes.kernels.push_back({"BIC", kernels::bic()});  // depth 4 > cap
  axes.transforms.interchange = true;
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  EXPECT_EQ(space.variants.size(), 1u);
}

TEST(Space, EmptyAxisThrows) {
  EXPECT_THROW(enumerate_space(AxisSpec{}), Error);
  AxisSpec axes = example_axes();
  axes.budgets.clear();
  EXPECT_THROW(enumerate_space(std::move(axes)), Error);
}

TEST(Space, TileAxisEnumeratesLegalSitesOnly) {
  AxisSpec axes;
  axes.kernels.push_back({"MAT", kernels::mat()});  // 16x16x16
  axes.transforms.tile_sizes = {4, 5};  // 5 divides nothing -> peeled tiles
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  // Source + Tile(level, 4) and peeled Tile(level, 5) per level (MAT is an
  // accumulator kernel, so inner-level peeling passes reorder_is_safe).
  ASSERT_EQ(space.variants.size(), 7u);
  EXPECT_EQ(space.variants[0].label(), "(i,j,k)");
  EXPECT_EQ(space.variants[1].label(), "t(0,4)");
  EXPECT_EQ(space.variants[2].label(), "t(0,5)");
  EXPECT_EQ(space.variants[3].label(), "t(1,4)");
  EXPECT_EQ(space.variants[5].label(), "t(2,4)");
  EXPECT_EQ(space.variants[5].kernel.depth(), 4);
  // The legacy order label still describes the transformed nest.
  EXPECT_EQ(space.variants[5].order, "(i,j,kt,ki)");
  // Full tiles stay single-piece; a peeled tile carries its remainder nest.
  EXPECT_TRUE(space.variants[1].epilogues.empty());
  ASSERT_EQ(space.variants[2].epilogues.size(), 1u);
  EXPECT_EQ(space.variants[2].kernel.loop(0).trip_count(), 3);      // 15/5 tiles
  EXPECT_EQ(space.variants[2].epilogues[0].loop(0).trip_count(), 1);  // 16 % 5
  EXPECT_EQ(space.stats.variants_generated,
            space.stats.variants_pruned + space.stats.variants_evaluated);
  EXPECT_EQ(space.stats.variants_pruned,
            space.stats.pruned_by_bound + space.stats.pruned_by_cap +
                space.stats.pruned_illegal_or_duplicate);
  EXPECT_EQ(space.stats.variants_evaluated, 7);
}

TEST(Space, UnrollAxisSkipsAliasingLevels) {
  AxisSpec axes;
  axes.kernels.push_back({"MAT", kernels::mat()});
  axes.transforms.unroll_factors = {2};
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  // c[i][j] varies in i and j, so only the k loop may be unroll-jammed.
  ASSERT_EQ(space.variants.size(), 2u);
  EXPECT_EQ(space.variants[1].label(), "uj(2,2)");
  EXPECT_EQ(space.variants[1].kernel.body().size(), 2u);
}

TEST(Space, StructuralHashDeduplicatesNoOpOrders) {
  // i and j have identical bounds and never appear in a subscript, so the
  // 6 permutations yield only 3 structurally distinct nests (the position
  // of k decides); the hash dedup must collapse the rest.
  AxisSpec axes;
  axes.kernels.push_back(
      {"acc", parse_kernel(R"(
        kernel acc {
          array y[9];
          for i in 0..4 { for j in 0..4 { for k in 0..8 {
            y[k] = y[k] + 1;
          } } }
        }
      )")});
  axes.transforms.interchange = true;
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  EXPECT_EQ(space.variants.size(), 3u);
  EXPECT_EQ(space.stats.variants_pruned, 3);
  EXPECT_EQ(space.stats.pruned_illegal_or_duplicate, 3);
}

TEST(Space, ExplicitSequencesEnumerateAfterSource) {
  AxisSpec axes;
  axes.kernels.push_back({"MAT", kernels::mat()});
  axes.transforms.sequences = {parse_transforms("t(2,4);uj(2,2)"),
                               parse_transforms("i(1,0,2)")};
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  ASSERT_EQ(space.variants.size(), 3u);
  EXPECT_EQ(space.variants[0].label(), "(i,j,k)");
  EXPECT_EQ(space.variants[1].label(), "t(2,4);uj(2,2)");
  EXPECT_EQ(space.variants[2].label(), "(j,i,k)");  // pure interchange keeps
                                                    // the legacy order label
  EXPECT_EQ(space.variants[2].encoding, "i(1,0,2)");
}

TEST(Space, IllegalExplicitSequenceThrows) {
  AxisSpec axes;
  axes.kernels.push_back({"MAT", kernels::mat()});
  axes.transforms.sequences = {parse_transforms("t(0,17)")};  // size > trip
  EXPECT_THROW(enumerate_space(std::move(axes)), Error);

  // The legality contract holds even when the variant cap has already been
  // reached: an illegal sequence throws instead of being silently skipped.
  AxisSpec capped;
  capped.kernels.push_back({"MAT", kernels::mat()});
  capped.transforms.max_variants_per_kernel = 1;
  capped.transforms.sequences = {parse_transforms("t(0,4)"),
                                 parse_transforms("t(0,17)")};
  EXPECT_THROW(enumerate_space(std::move(capped)), Error);

  // t(0,3) used to be illegal under the full-tile restriction; it now
  // enumerates as a peeled tile (5 full tiles of 3 + a 1-iteration rest).
  AxisSpec peeled;
  peeled.kernels.push_back({"MAT", kernels::mat()});
  peeled.transforms.sequences = {parse_transforms("t(0,3)")};
  const EnumeratedSpace space = enumerate_space(std::move(peeled));
  ASSERT_EQ(space.variants.size(), 2u);
  ASSERT_EQ(space.variants[1].epilogues.size(), 1u);
}

TEST(Space, VariantCapBoundsEnumeration) {
  AxisSpec axes;
  axes.kernels.push_back({"MAT", kernels::mat()});
  axes.transforms.interchange = true;
  axes.transforms.tile_sizes = {2, 4, 8};
  axes.transforms.unroll_factors = {2, 4};
  axes.transforms.max_variants_per_kernel = 10;
  const EnumeratedSpace space = enumerate_space(std::move(axes));
  EXPECT_EQ(space.variants.size(), 10u);
  EXPECT_EQ(space.variants[0].label(), "(i,j,k)");  // source always survives
  // Past the cap a candidate counts as capped, not checked for duplicates.
  const SpaceStats& stats = space.stats;
  EXPECT_GT(stats.pruned_by_cap, 0);
  EXPECT_EQ(stats.pruned_by_bound, 0);
  EXPECT_EQ(stats.variants_pruned, stats.pruned_by_cap + stats.pruned_illegal_or_duplicate);
}

// ---- Pareto frontier on hand-built point sets ----

using Points = std::vector<std::pair<double, double>>;

TEST(Pareto, EmptyAndSingle) {
  EXPECT_TRUE(pareto_frontier({}).empty());
  EXPECT_EQ(pareto_frontier({{3.0, 4.0}}), (std::vector<int>{0}));
}

TEST(Pareto, TradeOffChainAllSurvive) {
  const Points points{{1, 5}, {2, 4}, {3, 3}};
  EXPECT_EQ(pareto_frontier(points), (std::vector<int>{0, 1, 2}));
}

TEST(Pareto, DominatedPointsDrop) {
  const Points points{{1, 1}, {2, 2}, {1, 2}, {3, 1}};
  // (2,2), (1,2) and (3,1) are all dominated by (1,1).
  EXPECT_EQ(pareto_frontier(points), (std::vector<int>{0}));
}

TEST(Pareto, CoordinateTiesAllKept) {
  const Points points{{1, 2}, {1, 2}, {1, 3}, {2, 2}};
  // The two copies of (1,2) do not dominate each other; (1,3) loses to
  // them on y at equal x; (2,2) loses on x at equal y.
  EXPECT_EQ(pareto_frontier(points), (std::vector<int>{0, 1}));
}

TEST(Pareto, FrontierSortedByXThenInputOrder) {
  const Points points{{3, 1}, {1, 3}, {2, 2}};
  EXPECT_EQ(pareto_frontier(points), (std::vector<int>{1, 2, 0}));
}

TEST(Pareto, EqualYKeepsSmallerX) {
  const Points points{{1, 2}, {2, 2}};
  EXPECT_EQ(pareto_frontier(points), (std::vector<int>{0}));
}

// ---- Engine ----

TEST(Explore, MatchesDirectPipeline) {
  AxisSpec axes = example_axes();
  axes.algorithms = {Algorithm::kCpaRa};
  const ExploreResult result = explore(std::move(axes));
  ASSERT_EQ(result.results.size(), 1u);
  ASSERT_TRUE(result.results[0].feasible);

  const RefModel model(kernels::paper_example());
  const DesignPoint direct = run_pipeline(model, Algorithm::kCpaRa);
  EXPECT_EQ(result.results[0].design.cycles.exec_cycles, direct.cycles.exec_cycles);
  EXPECT_EQ(result.results[0].design.allocation.regs, direct.allocation.regs);
  EXPECT_EQ(result.results[0].design.hw.slices, direct.hw.slices);
}

TEST(Explore, InfeasibleBudgetIsReportedNotFatal) {
  AxisSpec axes = example_axes();
  axes.budgets = {2, 64};  // the example has 5 reference groups
  const ExploreResult result = explore(std::move(axes));
  ASSERT_EQ(result.results.size(), 6u);
  for (const SpacePoint& point : result.space.points) {
    const PointResult& r = result.results[static_cast<std::size_t>(point.index)];
    EXPECT_EQ(r.feasible, point.budget == 64) << "budget " << point.budget;
    if (!r.feasible) {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

TEST(Explore, FetchAxisChangesTmem) {
  AxisSpec axes = example_axes();
  axes.algorithms = {Algorithm::kFrRa};
  axes.fetch_modes = {true, false};
  const ExploreResult result = explore(std::move(axes));
  ASSERT_EQ(result.results.size(), 2u);
  // Serial accounting can never beat concurrent operand fetch.
  EXPECT_GE(result.results[1].design.cycles.mem_cycles,
            result.results[0].design.cycles.mem_cycles);
}

std::string all_reports(const ExploreResult& result) {
  std::ostringstream os;
  write_points_report(os, result, Format::kText);
  write_points_report(os, result, Format::kCsv);
  write_points_report(os, result, Format::kJson);
  write_pareto_report(os, result, Format::kText);
  write_pareto_report(os, result, Format::kCsv);
  write_pareto_report(os, result, Format::kJson);
  return os.str();
}

AxisSpec paper_axes() {
  AxisSpec axes;
  for (kernels::NamedKernel& nk : kernels::table1_kernels()) {
    axes.kernels.push_back({nk.name, std::move(nk.kernel)});
  }
  axes.budgets = {16, 64};
  return axes;
}

// One kernel, so that eight lanes split every variant into shards that
// share its lazily built models.
AxisSpec one_kernel_axes() {
  AxisSpec axes;
  axes.kernels.push_back({"MAT", kernels::mat()});
  axes.budgets = {8, 16, 32, 64};
  return axes;
}

// A peeled tile: 3 does not divide FIR's 1024 outer iterations, so the
// tiled variant has an epilogue model too. Budget 2 is below its
// feasibility floor and takes the per-point path.
AxisSpec peeled_tile_axes() {
  AxisSpec axes;
  axes.kernels.push_back({"FIR", kernels::fir()});
  axes.transforms.sequences = {{LoopTransform::tile(0, 3)}};
  axes.budgets = {2, 8, 16, 64};
  return axes;
}

TEST(Explore, ReportsAreByteIdenticalAcrossJobs) {
  // The paper axes have six variants, so eight lanes never split one; the
  // other two split every variant into shards.
  for (AxisSpec (*axes)() : {paper_axes, one_kernel_axes, peeled_tile_axes}) {
    for (const bool frontier : {true, false}) {
      SCOPED_TRACE(frontier ? "frontier" : "per-point");
      ExploreOptions serial;
      serial.jobs = 1;
      serial.frontier = frontier;
      const std::string one = all_reports(explore(axes(), serial));

      ExploreOptions threaded = serial;
      threaded.jobs = 8;
      const std::string eight = all_reports(explore(axes(), threaded));

      EXPECT_EQ(one, eight);
    }
  }
}

// ---- The headline transform result (pinned) ----

TEST(Explore, TiledMatVariantDominatesEveryUntiledPoint) {
  // MAT over budgets {8,16,32,64}, every legal interchange order, tile
  // sizes {4,8}, unroll factor 2, the paper's three allocators. Some tiled/unroll-jammed variant's (registers, Texec)
  // point must strictly dominate the best untiled point — and dominate the
  // best point of *every* untiled loop order — or the transform axis has
  // regressed.
  AxisSpec axes;
  axes.kernels.push_back({"MAT", kernels::mat()});
  axes.budgets = {8, 16, 32, 64};
  axes.transforms.interchange = true;
  axes.transforms.tile_sizes = {4, 8};
  axes.transforms.unroll_factors = {2};
  const ExploreResult result = explore(std::move(axes));

  struct P {
    std::string label;
    std::int64_t regs;
    std::int64_t cycles;
    bool transformed;
  };
  std::vector<P> points;
  for (const SpacePoint& point : result.space.points) {
    const PointResult& r = result.results[static_cast<std::size_t>(point.index)];
    if (!r.feasible) continue;
    const Variant& variant = result.variant_of(point);
    bool transformed = false;
    for (const LoopTransform& t : variant.transforms) {
      if (t.kind != TransformKind::kInterchange) transformed = true;
    }
    points.push_back({variant.label(), r.design.allocation.total(),
                      r.design.cycles.exec_cycles, transformed});
  }

  // Best (min cycles, then min registers) untiled point, overall and per
  // loop order.
  const auto better = [](const P& a, const P& b) {
    return a.cycles != b.cycles ? a.cycles < b.cycles : a.regs < b.regs;
  };
  const P* best_untiled = nullptr;
  std::vector<const P*> per_order;
  for (const P& p : points) {
    if (p.transformed) continue;
    if (best_untiled == nullptr || better(p, *best_untiled)) best_untiled = &p;
    auto it = std::find_if(per_order.begin(), per_order.end(),
                           [&](const P* q) { return q->label == p.label; });
    if (it == per_order.end()) {
      per_order.push_back(&p);
    } else if (better(p, **it)) {
      *it = &p;
    }
  }
  ASSERT_NE(best_untiled, nullptr);
  EXPECT_GE(per_order.size(), 4u);  // several interchange orders enumerated

  const P* strict_dominator = nullptr;
  const P* order_dominator = nullptr;
  for (const P& p : points) {
    if (!p.transformed) continue;
    if (p.regs < best_untiled->regs && p.cycles < best_untiled->cycles &&
        strict_dominator == nullptr) {
      strict_dominator = &p;
    }
    bool all = true;
    for (const P* q : per_order) {
      const bool dominates = p.regs <= q->regs && p.cycles <= q->cycles &&
                             (p.regs < q->regs || p.cycles < q->cycles);
      if (!dominates) {
        all = false;
        break;
      }
    }
    if (all && order_dominator == nullptr) order_dominator = &p;
  }
  ASSERT_NE(strict_dominator, nullptr)
      << "no transformed point strictly dominates the best untiled point ("
      << best_untiled->regs << " regs, " << best_untiled->cycles << " cycles)";
  ASSERT_NE(order_dominator, nullptr);
  // The margin itself: strictly fewer registers AND at least 25% fewer
  // cycles than anything achievable without tiling/unroll-and-jam.
  EXPECT_LT(strict_dominator->regs, best_untiled->regs);
  EXPECT_LE(strict_dominator->cycles * 4, best_untiled->cycles * 3);
}

// ---- Driver sweep helper ----

TEST(Driver, RunBudgetSweepSharesModelAndSkipsInfeasible) {
  const RefModel model(kernels::paper_example());
  const std::vector<DesignPoint> points =
      run_budget_sweep(model, paper_variants(), {2, 64});  // 2 < 5 groups
  ASSERT_EQ(points.size(), 3u);  // one point per algorithm, budget 2 skipped
  for (const DesignPoint& p : points) {
    EXPECT_EQ(p.allocation.budget, 64);
  }
  EXPECT_EQ(points[2].cycles.exec_cycles,
            run_pipeline(model, Algorithm::kCpaRa).cycles.exec_cycles);
}

// ---- ThreadPool ----

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::int64_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(100, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::int64_t i) {
                                   if (i == 37) fail("boom");
                                 }),
               Error);
  // The pool survives a failed batch.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::int64_t) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, SingleJobRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  std::vector<std::int64_t> order;
  pool.parallel_for(5, [&](std::int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ClampJobs) {
  EXPECT_GE(ThreadPool::clamp_jobs(0), 1);
  EXPECT_EQ(ThreadPool::clamp_jobs(7), 7);
  EXPECT_EQ(ThreadPool::clamp_jobs(100000), 256);
}

// ---- JSON writer ----

TEST(Json, EscapesEverythingThatNeedsIt) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(Json, RendersNestedDocument) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.field("name", "FIR \"paper\"");
  json.field("budget", std::int64_t{64});
  json.field("ratio", 0.5);
  json.field("ok", true);
  json.key("path");
  json.null();
  json.key("list");
  json.begin_array();
  json.value(std::int64_t{1});
  json.value(std::int64_t{2});
  json.end_array();
  json.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"FIR \\\"paper\\\"\",\n"
            "  \"budget\": 64,\n"
            "  \"ratio\": 0.5,\n"
            "  \"ok\": true,\n"
            "  \"path\": null,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    2\n"
            "  ]\n"
            "}\n");
}

TEST(Json, EmptyContainersStayOnOneLine) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.key("empty");
  json.begin_array();
  json.end_array();
  json.end_object();
  EXPECT_EQ(os.str(), "{\n  \"empty\": []\n}\n");
}

TEST(Json, MisuseThrows) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  EXPECT_THROW(json.value("no key"), Error);
  EXPECT_THROW(json.end_array(), Error);
}

TEST(Json, NonFiniteBecomesNull) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.end_array();
  EXPECT_NE(os.str().find("null"), std::string::npos);
}

}  // namespace
