// The srra benchmark:
//
//   srra_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: warm_hits, cold_misses, mixed_churn (the srrad service) and
// dse_pareto (the guided `srra pareto` sweep). With --trace 0 the run
// prints every end-to-end metric; with --trace 1 it runs the workload
// untraced and then traced and prints every per-layer metric. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits nonzero when any output mismatches its reference.
//
// All files (socket, stores, span dumps) live under .bench_build/ in the
// current directory.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "kernels/kernels.h"
#include "driver/pipeline.h"
#include "support/error.h"

namespace perfbench {

namespace {

/// A kB field of /proc/self/status ("VmHWM:"), in MiB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(field.size())) / 1024.0;
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }

double rss_mb() { return status_mb("VmRSS:"); }

bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to VmRSS
  clear.flush();
  return static_cast<bool>(clear);
}

void check_figure2c(RunResult& result) {
  const srra::RefModel model(srra::kernels::paper_example());
  const std::int64_t outer = model.kernel().loop(0).trip_count();
  const double paper[] = {1800, 1560, 1184};
  const std::vector<srra::Algorithm> variants = srra::paper_variants();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const srra::CycleReport cycles =
        srra::estimate_cycles(model, srra::allocate(variants[v], model, 64));
    const double tmem = cycles.mem_cycles_per_outer(outer);
    if (std::fabs(tmem - paper[v]) > 1e-9) {
      result.mismatch("Figure 2(c) " + srra::algorithm_name(variants[v]) + " Tmem " +
                      std::to_string(tmem) + ", paper " + std::to_string(paper[v]));
    }
  }
}

namespace {

// The per-layer metric list, identical for every workload (BENCHMARK.json
// per_layer lists the same names).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"client.wire_self_us", "us"},
    {"server.handle_batch_us", "us"},
    {"server.batch_size", "count"},
    {"server.coalesced", "count"},
    {"cache.hit_frac", "frac"},
    {"cache.store_hit_frac", "frac"},
    {"cache.computed", "count"},
    {"proto.parse_request_us", "us"},
    {"proto.cache_key_us", "us"},
    {"proto.make_query_response_us", "us"},
    {"proto.query_payload_us", "us"},
    {"json.parse_response_us", "us"},
    {"json.response_bytes", "B"},
    {"ir.resolve_us", "us"},
    {"store.get_hit_us", "us"},
    {"store.get_miss_us", "us"},
    {"store.put_us", "us"},
    {"store.evictions", "count"},
    {"analysis.model_build_us", "us"},
    {"analysis.calls", "count"},
    {"core.allocate.fr_us", "us"},
    {"core.allocate.pr_us", "us"},
    {"core.allocate.cpa_us", "us"},
    {"core.allocate.ks_us", "us"},
    {"core.allocate.ls_us", "us"},
    {"core.frontier.fr_us", "us"},
    {"core.frontier.pr_us", "us"},
    {"core.frontier.cpa_us", "us"},
    {"core.frontier.ks_us", "us"},
    {"core.frontier.ls_us", "us"},
    {"core.frontier_slice_us", "us"},
    {"core.calls", "count"},
    {"sched.estimate_cycles_us", "us"},
    {"sched.calls", "count"},
    {"hw.estimate_us", "us"},
    {"hw.calls", "count"},
    {"driver.evaluate_design_self_us", "us"},
    {"dse.explore_guided_us", "us"},
    {"dse.report_us", "us"},
    {"dse.variants_generated", "count"},
    {"dse.variants_pruned", "count"},
    {"dse.variants_evaluated", "count"},
    {"dse.prune_frac", "frac"},
    {"trace.overhead_us", "us"},
    {"trace.requests", "count"},
};

const std::set<std::string> kWorkloads = {"warm_hits", "cold_misses", "mixed_churn",
                                          "dse_pareto"};

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "srra_perfbench: " << why
            << "\nusage: srra_perfbench --workload warm_hits|cold_misses|mixed_churn|dse_pareto"
               " --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

double mean_self_us(const std::map<std::string, LayerTime>& layers, const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() || it->second.calls == 0
             ? 0.0
             : static_cast<double>(it->second.self_ns) / 1e3 /
                   static_cast<double>(it->second.calls);
}

void emit_per_layer(const std::map<std::string, LayerTime>& layers,
                    const std::map<std::string, double>& values, RunResult& result) {
  for (const auto& [name_c, unit] : kLayerMetrics) {
    const std::string name = name_c;
    double value = 0;
    const std::size_t cut = name.rfind('.');
    if (const auto it = values.find(name); it != values.end()) {
      value = it->second;
    } else if (name == "driver.evaluate_design_self_us") {
      value = mean_self_us(layers, "driver.evaluate_design");
    } else if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
      value = mean_self_us(layers, name.substr(0, name.size() - 3));
    } else if (name.compare(cut, std::string::npos, ".calls") == 0) {
      const std::string module = name.substr(0, cut + 1);
      for (const auto& [span, layer] : layers) {
        if (span.rfind(module, 0) == 0) value += static_cast<double>(layer.calls);
      }
    }
    result.add(name, value, unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  if (argc % 2 != 1 || !have_workload || kWorkloads.count(config.workload) == 0) {
    return usage("need --workload with one of the four workload names");
  }
  if (!(config.seconds > 0)) return usage("--seconds must be positive");
  config.lanes = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  config.clients = std::max(1, config.lanes - 1);

  // Work in a fresh directory under .bench_build/ (short relative socket
  // paths, nothing written outside the checkout).
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  fs::create_directories(home / ".bench_build" / "perfbench-out");
  config.out_dir = (home / ".bench_build" / "perfbench-out").string();
  std::string pattern = (home / ".bench_build" / "run.XXXXXX").string();
  if (::mkdtemp(pattern.data()) == nullptr) return usage("cannot create a run directory");
  const fs::path work = pattern;
  fs::current_path(work);

  RunResult result;
  int code = 0;
  try {
    check_figure2c(result);
    if (config.workload == "dse_pareto") {
      run_dse_workload(config, result);
    } else {
      run_service_workload(config, result);
    }
  } catch (const std::exception& e) {
    std::cerr << "srra_perfbench: " << e.what() << "\n";
    code = 1;
  }
  fs::current_path(home);
  std::error_code ignored;
  fs::remove_all(work, ignored);
  if (code != 0) return code;

  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.mismatch(m.name + " is not a finite number");
      m.value = 0;
    }
  }
  std::cout << config.workload << " seed=" << config.seed << " seconds=" << config.seconds
            << " trace=" << config.trace << " lanes=" << config.lanes << "\n";
  for (const std::string& note : result.notes) std::cout << "  " << note << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::cout << "  " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << "  failed_frac = "
            << json_number(result.attempted > 0 ? static_cast<double>(result.failed) /
                                                      static_cast<double>(result.attempted)
                                                : 0)
            << " (" << result.failed << " of " << result.attempted << ")\n";
  std::cout << json.str() << std::endl;
  return result.correct && result.failed == 0 ? 0 : 1;
}
