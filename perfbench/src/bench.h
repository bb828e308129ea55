// Shared types of the srra benchmark: run configuration, metrics, and the
// per-run outcome main() prints as its final JSON line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Pool lanes (the daemon's --jobs and the sweep's --jobs): the core count.
  int lanes = 1;
  /// Closed-loop client threads, one connection each: one fewer than the
  /// cores, so the server's loop thread never shares a core with a client
  /// (when one does, the loop idles while that client runs, and the run
  /// drops into a slow mode for seconds at a time).
  int clients = 1;
  /// Directory (inside the checkout) where span dumps are written.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness failure (the run then exits nonzero).
  void mismatch(const std::string& what) {
    correct = false;
    notes.push_back("MISMATCH: " + what);
  }
};

/// Peak resident set of this process since the last reset_peak_rss(), in
/// MiB (VmHWM).
double peak_rss_mb();

/// Current resident set of this process, in MiB (VmRSS).
double rss_mb();

/// Returns freed heap to the system and restarts the peak at the current
/// resident set, so peak_rss_mb() covers only what follows. Returns false
/// when the kernel refuses (the peak then also covers earlier work).
bool reset_peak_rss();

/// Checks the paper's Figure 2(c) worked example (Tmem 1800/1560/1184 for
/// FR-RA/PR-RA/CPA-RA at 64 registers) into `result`.
void check_figure2c(RunResult& result);

/// Mean self time per call of span `name`, in microseconds (0 if absent).
double mean_self_us(const std::map<std::string, LayerTime>& layers, const std::string& name);

/// Emits every per-layer metric, the same list for every workload: values
/// given in `values` first, then "<span>_us" as the span's mean self time
/// (driver.evaluate_design_self_us from driver.evaluate_design), then
/// "<module>.calls" as the module's span count; anything else is 0.
void emit_per_layer(const std::map<std::string, LayerTime>& layers,
                    const std::map<std::string, double>& values, RunResult& result);

/// The four workloads; each fills `result` with end-to-end metrics
/// (config.trace == false) or per-layer metrics (config.trace == true).
void run_service_workload(const RunConfig& config, RunResult& result);
void run_dse_workload(const RunConfig& config, RunResult& result);

}  // namespace perfbench
