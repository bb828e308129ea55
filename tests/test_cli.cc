// In-process tests for the `srra` CLI (src/dse/cli.h — tools/srra_cli.cc
// is only the process shell). Pins the acceptance contract: `srra run`
// table output for the paper kernels at budget 64 equals the
// run_paper_variants (Table 1) rows and tests/golden/srra_run_table1.txt,
// `srra sweep` reproduces Figure 2(c)'s 1800/1560/1184 row, and reports
// are byte-identical across --jobs values.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>

#include "core/registry.h"
#include "driver/pipeline.h"
#include "dse/cli.h"
#include "dse/report.h"
#include "kernels/kernels.h"
#include "support/json.h"
#include "support/str.h"

namespace {

using namespace srra;

struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = dse::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

// Reads one committed golden report (tests/golden/).
std::string golden(const std::string& name) {
  const std::string path = std::string(SRRA_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// CLI spelling of a built-in kernel name ("Dec-FIR" -> "dec_fir").
std::string cli_name(const std::string& name) {
  std::string key;
  for (const char c : name) {
    key += c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return key;
}

// The acceptance criterion: for every paper kernel, `srra run` at the
// default budget 64 must render exactly the Table-1 rows that
// run_paper_variants produces, and the six blocks plus the paper's
// averages vs v1 must equal the committed Table 1 reproduction.
TEST(Cli, RunMatchesRunPaperVariantsAtBudget64) {
  std::ostringstream table1;
  double v2_cycle_gain = 0.0, v3_cycle_gain = 0.0;
  double v2_wall_gain = 0.0, v3_wall_gain = 0.0, v3_clock_loss = 0.0;
  const std::vector<kernels::NamedKernel> paper = kernels::table1_kernels();
  for (const kernels::NamedKernel& nk : paper) {
    const CliResult cli = run({"run", "--kernel=" + cli_name(nk.name)});
    ASSERT_EQ(cli.code, 0) << cli.err;

    const RefModel model(nk.kernel.clone());
    const std::vector<DesignPoint> points = run_paper_variants(model);
    std::ostringstream expected;
    expected << nk.name << " at budget 64 (Virtex XCV1000 model; see DESIGN.md §4-6)\n\n";
    dse::write_design_table(expected, nk.name, model, points);
    EXPECT_EQ(cli.out, expected.str()) << nk.name;
    table1 << cli.out << "\n";

    const DesignPoint& v1 = points[0];
    const DesignPoint& v2 = points[1];
    const DesignPoint& v3 = points[2];
    const auto cycles = [](const DesignPoint& p) {
      return static_cast<double>(p.cycles.exec_cycles);
    };
    v2_cycle_gain += 1.0 - cycles(v2) / cycles(v1);
    v3_cycle_gain += 1.0 - cycles(v3) / cycles(v1);
    v2_wall_gain += 1.0 - v2.time_us() / v1.time_us();
    v3_wall_gain += 1.0 - v3.time_us() / v1.time_us();
    v3_clock_loss += v3.hw.clock_ns / v1.hw.clock_ns - 1.0;
  }
  const double n = static_cast<double>(paper.size());
  table1 << "Averages vs v1 (paper reports the same aggregates):\n"
         << "  v2 cycle reduction: " << to_percent(v2_cycle_gain / n)
         << "   v2 wall-clock gain: " << to_percent(v2_wall_gain / n) << "\n"
         << "  v3 cycle reduction: " << to_percent(v3_cycle_gain / n)
         << "   v3 wall-clock gain: " << to_percent(v3_wall_gain / n)
         << "   v3 clock-rate loss: " << to_percent(v3_clock_loss / n) << "\n";
  EXPECT_EQ(table1.str(), golden("srra_run_table1.txt"));
}

TEST(Cli, SweepReproducesFigure2cRow) {
  const CliResult cli =
      run({"sweep", "--kernel=example", "--budgets=64", "--format=csv"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  // Figure 2(c): Tmem per outer iteration 1800 (FR-RA), 1560 (PR-RA),
  // 1184 (CPA-RA) at budget 64 — the mem_cycles_per_outer CSV column.
  EXPECT_NE(cli.out.find("FR-RA,64,1,53,30/1/1/20/1,3600,1800.0"), std::string::npos)
      << cli.out;
  EXPECT_NE(cli.out.find("PR-RA,64,1,64,30/1/12/20/1,3120,1560.0"), std::string::npos);
  EXPECT_NE(cli.out.find("CPA-RA,64,1,64,16/16/30/1/1,2368,1184.0"), std::string::npos);
}

TEST(Cli, ReportsAreByteIdenticalAcrossJobs) {
  const std::vector<std::string> base{"sweep", "--kernel=example,fir",
                                      "--budgets=16:64", "--format=json"};
  std::vector<std::string> one = base;
  one.push_back("--jobs=1");
  std::vector<std::string> four = base;
  four.push_back("--jobs=4");
  const CliResult a = run(one);
  const CliResult b = run(four);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);
  EXPECT_FALSE(a.out.empty());
}

TEST(Cli, PerPointOracleIsByteIdenticalToFrontier) {
  const std::vector<std::string> base{"sweep", "--kernel=example,fir",
                                      "--budgets=8:64", "--algos=all", "--format=csv"};
  std::vector<std::string> per_point = base;
  per_point.push_back("--per-point");
  const CliResult d = run(base);
  const CliResult p = run(per_point);
  ASSERT_EQ(d.code, 0) << d.err;
  ASSERT_EQ(p.code, 0) << p.err;
  EXPECT_EQ(d.out, p.out);  // the default frontier path == the per-point oracle
  EXPECT_FALSE(d.out.empty());

  EXPECT_NE(run({"run", "--kernel=example", "--per-point"}).code, 0);
}

TEST(Cli, ParetoEmitsFrontiersAndBestPerBudget) {
  const CliResult cli = run({"pareto", "--kernel=example", "--budgets=8:64"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_NE(cli.out.find("registers vs exec cycles"), std::string::npos);
  EXPECT_NE(cli.out.find("slices vs time"), std::string::npos);
  EXPECT_NE(cli.out.find("Best per budget"), std::string::npos);
}

TEST(Cli, AcceptsKernelDslFiles) {
  const std::string path = testing::TempDir() + "srra_cli_fir.k";
  {
    std::ofstream out(path);
    out << kernels::kernel_source("fir");
  }
  const CliResult cli = run({"run", "--kernel=" + path});
  ASSERT_EQ(cli.code, 0) << cli.err;
  EXPECT_NE(cli.out.find("at budget 64"), std::string::npos);
}

TEST(Cli, InterchangeAndFetchAxes) {
  const CliResult cli = run({"sweep", "--kernel=example", "--budgets=64",
                             "--interchange", "--fetch=both", "--jobs=2"});
  ASSERT_EQ(cli.code, 0) << cli.err;
  // 6 loop orders x 2 fetch modes x 3 algorithms x 1 budget.
  EXPECT_NE(cli.out.find("6 variant(s), 36 point(s)"), std::string::npos) << cli.out;
  EXPECT_NE(cli.out.find("serial"), std::string::npos);
}

// The legacy-parity acceptance criterion: --interchange sweeps must stay
// byte-identical to the reports the pre-transform-IR engine produced
// (captured before the refactor), with interchange expressed as a
// LoopTransform underneath.
TEST(Cli, InterchangeSweepMatchesPreRefactorGolden) {
  const CliResult sweep = run({"sweep", "--kernel=example,mat", "--budgets=16,64",
                               "--interchange", "--format=csv"});
  ASSERT_EQ(sweep.code, 0) << sweep.err;
  EXPECT_EQ(sweep.out, golden("srra_sweep_interchange_legacy.csv"));

  const CliResult pareto =
      run({"pareto", "--kernel=mat", "--budgets=8:64", "--interchange"});
  ASSERT_EQ(pareto.code, 0) << pareto.err;
  EXPECT_EQ(pareto.out, golden("srra_pareto_mat_interchange_legacy.txt"));
}

TEST(Cli, TilesSweepMatchesGoldenForAnyJobs) {
  const std::string expected = golden("srra_sweep_mmt_tiles.csv");
  for (const char* jobs : {"--jobs=1", "--jobs=4"}) {
    const CliResult cli =
        run({"sweep", "--kernel=mmt", "--tiles=4,8", "--format=csv", jobs});
    ASSERT_EQ(cli.code, 0) << cli.err;
    EXPECT_EQ(cli.out, expected) << jobs;
  }
}

// The eight-algorithm sweep (including the LS-RA and BB-RA columns) stays
// byte-identical to the committed golden for any lane count.
TEST(Cli, AllAlgosSweepMatchesGoldenForAnyJobs) {
  const std::string expected = golden("srra_sweep_allocators.csv");
  for (const char* jobs : {"--jobs=1", "--jobs=4"}) {
    const CliResult cli = run({"sweep", "--kernel=example", "--budgets=16:64",
                               "--algos=all", "--format=csv", jobs});
    ASSERT_EQ(cli.code, 0) << cli.err;
    EXPECT_EQ(cli.out, expected) << jobs;
  }
}

TEST(Cli, TransformFlags) {
  // run applies one explicit sequence; the transformed nest is evaluated.
  const CliResult tiled = run({"run", "--kernel=mat", "--transforms=t(2,4);uj(2,2)"});
  ASSERT_EQ(tiled.code, 0) << tiled.err;
  EXPECT_NE(tiled.out.find("MAT at budget 64"), std::string::npos);

  // sweep enumerates explicit sequences ('+'-joined) after the source.
  const CliResult sweep = run({"sweep", "--kernel=mat", "--budgets=64",
                               "--transforms=t(2,4)+i(1,0,2);t(2,8)"});
  ASSERT_EQ(sweep.code, 0) << sweep.err;
  EXPECT_NE(sweep.out.find("3 variant(s)"), std::string::npos) << sweep.out;
  EXPECT_NE(sweep.out.find("i(1,0,2);t(2,8)"), std::string::npos) << sweep.out;

  // The unroll axis skips aliasing levels: MAT admits only uj on k.
  const CliResult unroll =
      run({"sweep", "--kernel=mat", "--budgets=64", "--unroll=2"});
  ASSERT_EQ(unroll.code, 0) << unroll.err;
  EXPECT_NE(unroll.out.find("2 variant(s)"), std::string::npos) << unroll.out;
  EXPECT_NE(unroll.out.find("uj(2,2)"), std::string::npos) << unroll.out;

  // Usage errors.
  EXPECT_NE(run({"run", "--kernel=mat", "--tiles=4"}).code, 0);
  EXPECT_NE(run({"run", "--kernel=mat", "--unroll=2"}).code, 0);
  EXPECT_NE(run({"run", "--kernel=mat", "--transforms=t(2,4)+t(2,8)"}).code, 0);
  EXPECT_NE(run({"run", "--kernel=mat", "--transforms=frob"}).code, 0);
  EXPECT_NE(run({"run", "--kernel=mat", "--transforms=t(0,3)"}).code, 0);  // 3 !| 16
  EXPECT_NE(run({"sweep", "--kernel=mat", "--tiles=0"}).code, 0);
  EXPECT_NE(run({"sweep", "--kernel=mat", "--tiles=4x"}).code, 0);
  EXPECT_NE(run({"sweep", "--kernel=mat", "--unroll="}).code, 0);
}

TEST(Cli, ListShowsKernelsAndAlgorithms) {
  const CliResult cli = run({"list"});
  ASSERT_EQ(cli.code, 0);
  EXPECT_NE(cli.out.find("Dec-FIR"), std::string::npos);
  EXPECT_NE(cli.out.find("CPA-RA"), std::string::npos);
  EXPECT_NE(cli.out.find("optimal-dp"), std::string::npos);
  EXPECT_NE(cli.out.find("linear-scan"), std::string::npos);
  EXPECT_NE(cli.out.find("optimal-bnb"), std::string::npos);
  // Kernels without a description entry say so instead of rendering an
  // empty cell (and the lookup must not grow the description map).
  EXPECT_EQ(cli.out.find("(no description)"), std::string::npos);  // all have one
}

TEST(Cli, NewAllocatorsRoundTripThroughRegistry) {
  for (const Algorithm alg : {Algorithm::kLinearScan, Algorithm::kBnbOptimal}) {
    EXPECT_EQ(parse_algorithm(algorithm_name(alg)), alg);
  }
  EXPECT_EQ(parse_algorithm("ls"), Algorithm::kLinearScan);
  EXPECT_EQ(parse_algorithm("linear-scan"), Algorithm::kLinearScan);
  EXPECT_EQ(parse_algorithm("bnb"), Algorithm::kBnbOptimal);
  EXPECT_EQ(parse_algorithm("bb"), Algorithm::kBnbOptimal);
  EXPECT_EQ(parse_algorithm("optimal-bnb"), Algorithm::kBnbOptimal);

  // --algos spellings reach the sweep engine, and 'all' includes both.
  const CliResult named = run({"sweep", "--kernel=example", "--budgets=64",
                               "--algos=ls,bnb", "--format=csv"});
  ASSERT_EQ(named.code, 0) << named.err;
  EXPECT_NE(named.out.find("LS-RA"), std::string::npos);
  EXPECT_NE(named.out.find("BB-RA"), std::string::npos);
  const CliResult all = run({"sweep", "--kernel=example", "--budgets=64",
                             "--algos=all", "--format=csv"});
  ASSERT_EQ(all.code, 0) << all.err;
  for (const Algorithm alg : all_algorithms()) {
    EXPECT_NE(all.out.find(algorithm_name(alg)), std::string::npos)
        << algorithm_name(alg);
  }
}

TEST(Cli, NumericFlagMinimaAreEnforced) {
  // Zero/garbage budgets are usage errors naming the flag, not silent
  // degenerate sweeps (parse_int previously accepted 0).
  const CliResult zero_budget = run({"run", "--kernel=example", "--budget=0"});
  EXPECT_EQ(zero_budget.code, 2);
  EXPECT_NE(zero_budget.err.find("--budget"), std::string::npos) << zero_budget.err;
  EXPECT_NE(run({"run", "--kernel=example", "--budget=x"}).code, 0);

  EXPECT_EQ(run({"sweep", "--kernel=example", "--budgets=0:64"}).code, 2);
  EXPECT_EQ(run({"sweep", "--kernel=example", "--budgets=0"}).code, 2);

  const CliResult bad_jobs = run({"sweep", "--kernel=example", "--jobs=abc"});
  EXPECT_EQ(bad_jobs.code, 2);
  EXPECT_NE(bad_jobs.err.find("--jobs"), std::string::npos) << bad_jobs.err;
  // --jobs=0 stays legal: it means "all cores".
  EXPECT_EQ(run({"sweep", "--kernel=example", "--budgets=16", "--jobs=0"}).code, 0);

  // Degenerate transform factors are rejected with the offending flag named.
  const CliResult zero_tiles = run({"sweep", "--kernel=mat", "--tiles=0"});
  EXPECT_EQ(zero_tiles.code, 2);
  EXPECT_NE(zero_tiles.err.find("--tiles"), std::string::npos) << zero_tiles.err;
  const CliResult one_unroll = run({"sweep", "--kernel=mat", "--unroll=1"});
  EXPECT_EQ(one_unroll.code, 2);
  EXPECT_NE(one_unroll.err.find("--unroll"), std::string::npos) << one_unroll.err;

  // Malformed --transforms and unknown algorithms are usage errors too.
  EXPECT_EQ(run({"sweep", "--kernel=mat", "--budgets=64", "--transforms=+"}).code, 2);
  const CliResult bad_algo = run({"sweep", "--kernel=example", "--algos=frob"});
  EXPECT_EQ(bad_algo.code, 2);
  EXPECT_NE(bad_algo.err.find("unknown algorithm"), std::string::npos) << bad_algo.err;
}

TEST(Cli, HelpAndUsageErrors) {
  EXPECT_EQ(run({"--help"}).code, 0);
  EXPECT_NE(run({"--help"}).out.find("usage: srra"), std::string::npos);
  EXPECT_EQ(run({}).code, 2);
  EXPECT_EQ(run({"frobnicate"}).code, 2);

  const CliResult unknown_kernel = run({"run", "--kernel=nope"});
  EXPECT_EQ(unknown_kernel.code, 2);
  EXPECT_NE(unknown_kernel.err.find("unknown kernel"), std::string::npos);

  EXPECT_EQ(run({"sweep", "--kernel=example", "--frobs=3"}).code, 2);
  EXPECT_EQ(run({"run", "--kernel=fir", "--budgets=8:64"}).code, 2);
  EXPECT_EQ(run({"sweep", "--kernel=example", "--budget=64"}).code, 2);
  EXPECT_EQ(run({"sweep", "--kernel=example", "--budgets=64:8"}).code, 2);
  // Flags that would be silently meaningless for run are rejected.
  EXPECT_EQ(run({"run", "--kernel=fir", "--jobs=2"}).code, 2);
  EXPECT_EQ(run({"run", "--kernel=fir", "--interchange"}).code, 2);
  // Overflow-sized numbers are usage errors, not std::out_of_range aborts.
  EXPECT_EQ(run({"sweep", "--kernel=example", "--jobs=9999999999"}).code, 2);
  EXPECT_EQ(run({"sweep", "--kernel=example", "--budgets=99999999999999999999"}).code, 2);
}

// `srra run --format=json` emits the service's srra-query/v1 report: one
// object for one algorithm, an array of them otherwise (test_service.cc
// additionally pins the single-object bytes against a srrad response).
TEST(Cli, RunJsonEmitsQuerySchema) {
  const CliResult single =
      run({"run", "--kernel=fir", "--algos=cpa", "--budget=64", "--format=json"});
  ASSERT_EQ(single.code, 0) << single.err;
  const JsonValue report = parse_json(single.out);
  ASSERT_TRUE(report.is_object());
  EXPECT_EQ(report.find("schema")->as_string(), "srra-query/v1");
  EXPECT_EQ(report.find("kernel")->as_string(), "FIR");
  EXPECT_EQ(report.find("algorithm")->as_string(), "CPA-RA");
  EXPECT_EQ(report.find("mode")->as_string(), "budget");
  EXPECT_EQ(report.find("budget")->as_int(), 64);
  EXPECT_TRUE(report.find("feasible")->as_bool());
  ASSERT_NE(report.find("point"), nullptr);
  EXPECT_EQ(report.find("point")->find("registers")->as_int(), 64);

  const CliResult many = run({"run", "--kernel=fir", "--format=json"});
  ASSERT_EQ(many.code, 0) << many.err;
  const JsonValue reports = parse_json(many.out);
  ASSERT_TRUE(reports.is_array());
  ASSERT_EQ(reports.items().size(), 3u);  // the paper's three variants
  for (const JsonValue& entry : reports.items()) {
    EXPECT_EQ(entry.find("schema")->as_string(), "srra-query/v1");
  }

  // An infeasible budget is a well-formed report, not a CLI error.
  const CliResult infeasible =
      run({"run", "--kernel=fir", "--algos=cpa", "--budget=2", "--format=json"});
  ASSERT_EQ(infeasible.code, 0) << infeasible.err;
  const JsonValue degenerate = parse_json(infeasible.out);
  EXPECT_FALSE(degenerate.find("feasible")->as_bool());
  ASSERT_NE(degenerate.find("error"), nullptr);
  // The bare message: the report's bytes do not depend on the build's
  // source paths or line numbers.
  const std::string& error = degenerate.find("error")->as_string();
  EXPECT_EQ(error.find(".cc:"), std::string::npos) << error;
  EXPECT_EQ(error.rfind("budget 2 cannot give", 0), 0u) << error;

  // So is a sweep's infeasible point, in its CSV and JSON error text.
  for (const std::string format : {"csv", "json"}) {
    const CliResult sweep = run({"sweep", "--kernel=fir", "--budgets=2", "--format=" + format});
    ASSERT_EQ(sweep.code, 0) << sweep.err;
    EXPECT_NE(sweep.out.find("budget 2 cannot give"), std::string::npos) << sweep.out;
    EXPECT_EQ(sweep.out.find(".cc:"), std::string::npos) << sweep.out;
  }
}

}  // namespace
