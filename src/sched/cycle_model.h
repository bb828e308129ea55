// Whole-nest cycle estimation under a register allocation (DESIGN.md §6).
//
// Tmem — the paper's memory-cycle metric: the steady-state RAM accesses of
// every iteration, where reads feeding the *same operation* from *distinct*
// RAM blocks proceed concurrently and cost a single access latency (paper
// §3). This model reproduces Figure 2(c)'s 1800 / 1560 / 1184 exactly.
//
// Texec — execution cycles: every iteration is ASAP-scheduled (sched/
// schedule.h) under per-array port constraints plus a per-iteration control
// overhead; identical memory profiles are scheduled once and multiplied.
#pragma once

#include <cstdint>

#include "analysis/model.h"
#include "core/allocation.h"
#include "dfg/latency.h"

namespace srra {

/// Cycle model switches.
struct CycleOptions {
  LatencyModel latency;
  /// Operand fetches of one operation from distinct RAM blocks overlap
  /// (paper §3). Disable for the serial-accounting ablation (Ext. C).
  bool concurrent_operand_fetch = true;
  /// Paper-faithful execution model: the synthesized FSM serializes memory
  /// states with the computation, so an iteration costs
  /// overhead + compute critical path + that iteration's memory cycles.
  /// Disable to use the overlapped port-constrained list schedule instead
  /// (an idealized spatial datapath; ablation).
  bool fsm_serial_memory = true;
  /// Control (FSM) cycles per loop iteration.
  std::int64_t loop_overhead = 1;
  /// Evaluate with the reference full-iteration-space walk instead of the
  /// periodic collapse (DESIGN.md §8). Bit-identical results (cross-checked
  /// in test_periodic); the full walk also bypasses the per-model report
  /// memo, so it is the oracle for both layers.
  bool full_iteration_walk = false;
};

/// Cycle totals for a kernel under an allocation.
struct CycleReport {
  std::int64_t mem_cycles = 0;    ///< Tmem: memory cycles, steady accounting
  std::int64_t ram_accesses = 0;  ///< steady RAM accesses (serial count)
  std::int64_t exec_cycles = 0;   ///< Texec: scheduled cycles incl. overhead
  std::int64_t iterations = 0;

  /// Tmem normalized per outermost-loop iteration (the paper reports the
  /// worked example this way).
  double mem_cycles_per_outer(std::int64_t outer_trip) const {
    return outer_trip > 0 ? static_cast<double>(mem_cycles) / static_cast<double>(outer_trip)
                          : 0.0;
  }
};

/// Tmem / Texec for `allocation`. Under the default serial FSM the report
/// is the model's per-group counter totals minus the reads concurrent fetch
/// hides, which a collapsed walk of only the coupled groups counts
/// (DESIGN.md §6, §8); the list-schedule ablation walks every group jointly
/// (O(window); see analysis/periodic.h). Reports are memoized on `model`
/// keyed by (per-group strategy vector, options) — budget sweeps whose
/// allocations saturate hit the memo. Set options.full_iteration_walk for
/// the whole-space reference walk.
CycleReport estimate_cycles(const RefModel& model, const Allocation& allocation,
                            const CycleOptions& options = {});

}  // namespace srra
