// Critical-Path-Aware Register Allocation (paper Figure 4) — the paper's
// contribution. Starting from the feasibility assignment, the algorithm
// repeatedly:
//  1. weighs the DFG under the current assignment (RAM-resident references
//     cost a memory access, register-resident ones are free),
//  2. extracts the Critical Graph,
//  3. enumerates its cuts over *reducible* reference nodes (references with
//     remaining exploitable reuse and a nonzero memory weight),
//  4. fully allocates the cut with the minimum incremental register
//     requirement, or — when the cheapest cut no longer fits — divides the
//     remaining registers equally among the cut's members (water-filling
//     with per-reference beta_full caps).
// Repeats until the registers are exhausted or no critical memory access
// can be removed.
#pragma once

#include "core/allocation.h"
#include "dfg/cuts.h"
#include "dfg/latency.h"

namespace srra {

/// Tuning knobs for CPA-RA.
struct CpaOptions {
  LatencyModel latency;
  CutOptions cuts;
  int max_rounds = 64;  ///< defensive bound on allocation rounds
};

/// Critical-Path-Aware Register Allocation.
Allocation allocate_cpa(const RefModel& model, std::int64_t budget,
                        const CpaOptions& options = {});

/// One round's diagnostic record (read by the all-budget frontier and by
/// the Figure 2(c) cut tests).
struct CpaRound {
  std::int64_t cp_length = 0;
  std::vector<std::vector<int>> cut_groups;  ///< all candidate cuts (group ids)
  std::vector<int> chosen;                   ///< chosen cut (group ids)
  std::int64_t required = 0;                 ///< incremental registers of chosen cut
  bool partial = false;                      ///< water-filled instead of full
};

/// As allocate_cpa, also returning the per-round trace.
Allocation allocate_cpa_traced(const RefModel& model, std::int64_t budget,
                               const CpaOptions& options, std::vector<CpaRound>& trace);

}  // namespace srra
