// The dse_pareto workload: the CLI user's guided `srra pareto` over the
// Table-1 kernels with interchange x tiles x unroll and a budget axis, run
// in-process through dse::run_cli, one sweep after another (closed loop:
// the user waits for each report).
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "bench.h"
#include "core/frontier.h"
#include "dse/cli.h"
#include "dse/pareto.h"
#include "dse/prune.h"
#include "dse/report.h"
#include "kernels/kernels.h"
#include "replay.h"
#include "stats.h"
#include "support/error.h"

namespace perfbench {

namespace {

using srra::dse::ExploreResult;

// A measured run alternates kRounds timed set-ups with kRounds equal
// slices of the sweep window and reports the median set-up, so the set-ups
// sample the host's speed across the run as the sweeps do (see service.cc).
constexpr int kRounds = 5;
constexpr int kMinSweeps = 3;
static_assert(kRounds >= kMinSweeps, "every round runs at least one sweep");
const char kBudgets[] = "8:64:8";
const std::vector<std::int64_t> kTiles = {2, 4, 8, 16};
const std::vector<std::int64_t> kUnroll = {2, 4};

/// The sweep's inputs: the Table-1 kernels in a seeded order (the order
/// reports list them in; the frontier and every metric are order-free).
struct Inputs {
  std::vector<std::string> kernels;
  std::vector<std::string> args;
  int jobs = 1;

  srra::dse::AxisSpec axes() const {
    srra::dse::AxisSpec axes;
    std::vector<srra::kernels::NamedKernel> table = srra::kernels::table1_kernels();
    for (const std::string& name : kernels) {
      for (srra::kernels::NamedKernel& nk : table) {
        if (nk.name == name) axes.kernels.push_back({nk.name, std::move(nk.kernel)});
      }
    }
    axes.algorithms = srra::paper_variants();
    axes.budgets = srra::dse::parse_budget_spec(kBudgets);
    axes.fetch_modes = {true};
    axes.transforms.interchange = true;
    axes.transforms.tile_sizes = kTiles;
    axes.transforms.unroll_factors = kUnroll;
    return axes;
  }
  srra::dse::ExploreOptions options() const {
    srra::dse::ExploreOptions options;
    options.jobs = jobs;
    return options;
  }
};

Inputs make_inputs(const RunConfig& config) {
  Inputs in;
  for (const srra::kernels::NamedKernel& nk : srra::kernels::table1_kernels()) {
    in.kernels.push_back(nk.name);
  }
  Rng rng(stream_seed(config.seed, 1));
  const std::vector<std::size_t> order = permutation(in.kernels.size(), rng);
  std::vector<std::string> shuffled;
  std::string list;
  for (const std::size_t i : order) {
    shuffled.push_back(in.kernels[i]);
    list += (list.empty() ? "" : ",") + in.kernels[i];
  }
  in.kernels = shuffled;
  in.jobs = config.lanes;
  in.args = {"pareto",
             "--kernel=" + list,
             "--algos=paper",
             std::string("--budgets=") + kBudgets,
             "--tiles=" + join_ints(kTiles),
             "--unroll=" + join_ints(kUnroll),
             "--interchange",
             "--prune=on",
             "--jobs=" + std::to_string(config.lanes),
             "--format=csv"};
  return in;
}

using Pairs = std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>;

/// Distinct (registers, exec cycles) pairs of every kernel's frontier —
/// labels of tied points differ between search paths, the pairs may not.
Pairs frontier_pairs(const ExploreResult& result) {
  Pairs out;
  for (const std::string& kernel : srra::dse::kernel_names(result)) {
    std::set<std::pair<std::int64_t, std::int64_t>> pairs;
    for (const int i : srra::dse::registers_vs_cycles(result, kernel).points) {
      const srra::DesignPoint& d = result.results[static_cast<std::size_t>(i)].design;
      pairs.emplace(d.allocation.total(), d.cycles.exec_cycles);
    }
    out[kernel].assign(pairs.begin(), pairs.end());
  }
  return out;
}

struct Sweeps {
  std::vector<double> seconds;  ///< per sweep, sorted
  double window_s = 0;
  std::vector<double> peak_rss_mb;  ///< per sweep: peak minus resident set before it
  std::string first_output;
};

/// Runs `srra pareto` sweeps, adding them to `sweeps`, until `window_s` has
/// passed and at least `min_sweeps` ran; every report must be
/// byte-identical to the first. The resident-set peak
/// restarts before each sweep, and a sweep's figure is what it added to the
/// resident set at its peak. The whole peak varied 15% from run to run,
/// nearly all of it in heap the set-up's threads left behind; what a sweep
/// adds varied by a few percent.
void run_sweeps(const Inputs& in, double window_s, int min_sweeps, Sweeps& sweeps,
                RunResult& result) {
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(window_s * 1e9);
  std::uint64_t first_digest = digest(sweeps.first_output);
  bool reset = true;
  for (int n = 0; now_ns() < deadline || n < min_sweeps; ++n) {
    std::ostringstream out, err;
    reset = reset_peak_rss() && reset;
    const double before_mb = rss_mb();
    const std::int64_t t0 = now_ns();
    const int code = srra::dse::run_cli(in.args, out, err);
    sweeps.seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    sweeps.peak_rss_mb.push_back(peak_rss_mb() - before_mb);
    ++result.attempted;
    if (code != 0) {
      ++result.failed;
      result.mismatch("srra pareto exited " + std::to_string(code) + ": " + err.str());
      break;
    }
    if (sweeps.seconds.size() == 1) {
      sweeps.first_output = out.str();
      first_digest = digest(sweeps.first_output);
    } else if (digest(out.str()) != first_digest) {
      ++result.failed;
      result.mismatch("sweep report differs from the first sweep's");
    }
  }
  sweeps.window_s += static_cast<double>(now_ns() - start) / 1e9;
  std::sort(sweeps.seconds.begin(), sweeps.seconds.end());
  if (!reset) result.notes.push_back("peak_rss_mb includes earlier work: no peak reset");
}

/// Replays the explore engine's calls for every evaluated variant, one
/// span per public call: model build per nest piece, one frontier per
/// (piece, algorithm), then per budget a slice and evaluate_design.
void replay_explore(const ExploreResult& result, Trace& trace) {
  const std::vector<std::int64_t> budgets = srra::dse::parse_budget_spec(kBudgets);
  for (const srra::dse::Variant& variant : result.space.variants) {
    const Tap tap{&trace, -1, variant.index};
    std::vector<std::unique_ptr<srra::RefModel>> pieces;
    {
      const TapScope s(tap, "analysis.model_build");
      pieces.push_back(std::make_unique<srra::RefModel>(variant.kernel.clone()));
    }
    for (const srra::Kernel& epilogue : variant.epilogues) {
      const TapScope s(tap, "analysis.model_build");
      pieces.push_back(std::make_unique<srra::RefModel>(epilogue.clone()));
    }
    int min_feasible = 0;
    for (const auto& model : pieces) min_feasible = std::max(min_feasible, model->group_count());
    std::int64_t max_budget = -1;
    for (const std::int64_t b : budgets) {
      if (b >= min_feasible) max_budget = std::max(max_budget, b);
    }
    for (const srra::Algorithm algorithm : srra::paper_variants()) {
      const std::string tag = algo_tag(algorithm);
      std::vector<std::optional<srra::AllocationFrontier>> frontiers(pieces.size());
      for (const std::int64_t budget : budgets) {
        srra::PipelineOptions options;
        options.budget = budget;
        for (std::size_t p = 0; p < pieces.size(); ++p) {
          const srra::RefModel& model = *pieces[p];
          try {
            srra::Allocation allocation;
            if (budget >= min_feasible) {
              if (!frontiers[p]) {
                const TapScope s(tap, "core.frontier." + tag);
                frontiers[p] = srra::allocate_frontier(algorithm, model, max_budget);
              }
              const TapScope s(tap, "core.frontier_slice");
              allocation = frontiers[p]->at(budget);
            } else {
              const TapScope s(tap, "core.allocate." + tag);
              allocation = srra::allocate(algorithm, model, budget);
            }
            traced_evaluate_design(model, algorithm, std::move(allocation), options, tap);
          } catch (const srra::Error&) {
            break;  // infeasible budget: the point reports an error
          }
        }
      }
    }
  }
}

}  // namespace

void run_dse_workload(const RunConfig& config, RunResult& result) {
  if (!config.trace) {
    // Set-up: the inputs and the exhaustive (--prune=off) reference
    // frontier the guided sweep must reproduce.
    // Only the reference's frontier pairs are kept, so no explore result is
    // alive in the window.
    std::vector<double> setup_times;
    Inputs in;
    Pairs reference;
    Sweeps sweeps;
    for (int round = 0; round < kRounds; ++round) {
      const std::int64_t t0 = now_ns();
      in = make_inputs(config);
      reference = frontier_pairs(srra::dse::explore(in.axes(), in.options()));
      setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      run_sweeps(in, config.seconds / kRounds, 1, sweeps, result);
    }

    // Oracles: the CLI report equals the in-process guided result's, and
    // its frontier pairs equal the exhaustive reference's.
    const ExploreResult guided = srra::dse::explore_guided(in.axes(), in.options());
    std::ostringstream expected;
    srra::dse::write_pareto_report(expected, guided, srra::dse::Format::kCsv);
    if (sweeps.first_output != expected.str()) {
      ++result.failed;
      result.mismatch("srra pareto report differs from the in-process guided result");
    }
    const Pairs pairs = frontier_pairs(guided);
    if (pairs != reference) {
      ++result.failed;
      result.mismatch("guided frontier differs from the --prune=off frontier");
    }
    std::int64_t feasible = 0;
    for (const srra::dse::PointResult& r : guided.results) feasible += r.feasible;

    const double p50 = quantile(sweeps.seconds, 0.5);
    result.add("setup_s", median(setup_times), "s");
    result.add("req_per_s", static_cast<double>(sweeps.seconds.size()) / sweeps.window_s, "1/s");
    result.add("latency_p50_us", p50 * 1e6, "us");
    result.add("latency_p99_us", quantile(sweeps.seconds, 0.99) * 1e6, "us");
    result.add("peak_rss_mb", median(sweeps.peak_rss_mb), "MB");
    result.add("points_per_s", static_cast<double>(feasible) / p50, "1/s");
    result.add("frontier_cycles_geomean", frontier_geomean(pairs), "cycles");
    const srra::dse::SpaceStats& stats = guided.space.stats;
    result.notes.push_back(
        "sweeps " + std::to_string(sweeps.seconds.size()) + " (latency_p99_us is the slowest), " +
        "candidates generated " + std::to_string(stats.variants_generated) + ", pruned " +
        std::to_string(stats.variants_pruned) + ", evaluated " +
        std::to_string(stats.variants_evaluated) + ", feasible points " +
        std::to_string(feasible));
    return;
  }

  // Traced run: an untraced pass for the overhead baseline, then sweeps
  // with spans around explore_guided and the report, then the replay.
  const Inputs in = make_inputs(config);
  Sweeps base;
  run_sweeps(in, config.seconds / 2, kMinSweeps, base, result);
  Trace trace;
  std::optional<ExploreResult> last;
  std::vector<double> traced_s;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(config.seconds / 2 * 1e9);
  for (std::int64_t sweep = 0; now_ns() < deadline || sweep < kMinSweeps; ++sweep) {
    const Tap root_tap{&trace, -1, sweep};
    const std::int64_t t0 = now_ns();
    const TapScope root(root_tap, "sweep");
    {
      const TapScope s(root.inner(), "dse.explore_guided");
      last = srra::dse::explore_guided(in.axes(), in.options());
    }
    std::ostringstream report;
    {
      const TapScope s(root.inner(), "dse.report");
      srra::dse::write_pareto_report(report, *last, srra::dse::Format::kCsv);
    }
    traced_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    ++result.attempted;
    if (report.str() != base.first_output) {
      ++result.failed;
      result.mismatch("traced sweep report differs from the CLI report");
    }
  }
  replay_explore(*last, trace);

  const std::map<std::string, LayerTime> layers = by_name(trace.spans());
  const srra::dse::SpaceStats& stats = last->space.stats;
  std::map<std::string, double> values;
  values["dse.variants_generated"] = static_cast<double>(stats.variants_generated);
  values["dse.variants_pruned"] = static_cast<double>(stats.variants_pruned);
  values["dse.variants_evaluated"] = static_cast<double>(stats.variants_evaluated);
  values["dse.prune_frac"] =
      stats.variants_generated > 0 ? static_cast<double>(stats.variants_pruned) /
                                         static_cast<double>(stats.variants_generated)
                                   : 0;
  values["trace.overhead_us"] = (median(traced_s) - quantile(base.seconds, 0.5)) * 1e6;
  values["trace.requests"] = static_cast<double>(traced_s.size());
  emit_per_layer(layers, values, result);

  std::ofstream os(config.out_dir + "/" + config.workload + ".spans.tsv");
  trace.write_tsv(os);
}

}  // namespace perfbench
