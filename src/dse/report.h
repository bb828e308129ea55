// Report emission for explored design spaces (DESIGN.md §7): one schema,
// three encodings (ASCII tables, RFC-4180 CSV, pretty-printed JSON). All
// three are byte-deterministic functions of the ExploreResult — no
// timestamps, no wall-clock, no pointer identities — so reports produced
// with different --jobs values compare equal (tested in test_dse.cc).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "dse/explore.h"
#include "dse/pareto.h"

namespace srra::dse {

/// Report encoding.
enum class Format { kText, kCsv, kJson };

/// Parses "text" / "csv" / "json"; throws srra::Error on anything else.
Format parse_format(const std::string& name);

/// Inverse of parse_format.
std::string format_name(Format format);

/// The full point-by-point sweep report: one record per SpacePoint in
/// enumeration order, with allocation, cycle, and hardware columns.
void write_points_report(std::ostream& os, const ExploreResult& result, Format format);

/// The reduced report: per kernel the registers-vs-exec-cycles and
/// slices-vs-time_us Pareto frontiers, then the best-per-budget table.
void write_pareto_report(std::ostream& os, const ExploreResult& result, Format format);

/// Table-1-style block for one kernel: one row per design point (Required
/// S.R., distribution, cycles, dCyc/speedup vs the first point, clock,
/// time, slices, RAMs), as tests/golden/srra_run_table1.txt pins it.
void write_design_table(std::ostream& os, const std::string& kernel_name,
                        const RefModel& model, const std::vector<DesignPoint>& points);

}  // namespace srra::dse
