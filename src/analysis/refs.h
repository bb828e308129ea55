// Reference groups: all syntactic occurrences of the same (array, affine
// subscripts) pair form one allocation object — e.g. the write of d[i][k]
// in one statement and its read in the next are the same group, exactly as
// in the paper's DFG (Figure 2). The allocators assign registers per group.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/kernel.h"

namespace srra {

/// One syntactic occurrence of a group inside the loop body, in evaluation
/// order (per statement: RHS reads left-to-right, then the LHS write).
struct RefOccurrence {
  int stmt = 0;          ///< statement index in the body
  int order = 0;         ///< global evaluation order within the iteration
  bool is_write = false;
};

/// A group of identical array references.
struct RefGroup {
  int id = 0;
  ArrayAccess access;                    ///< representative access
  std::string display;                   ///< e.g. "b[k][j]"
  std::vector<RefOccurrence> occurrences;///< in evaluation order
  int reads_per_iter = 0;                ///< read occurrences per iteration
  int writes_per_iter = 0;               ///< write occurrences per iteration
  int forwarded_reads_per_iter = 0;      ///< reads preceded by a group write
                                         ///< in the same iteration (wired
                                         ///< through, never RAM accesses)
  int first_order = 0;                   ///< evaluation order of first occurrence

  bool has_write() const { return writes_per_iter > 0; }
  bool has_read() const { return reads_per_iter > 0; }
};

/// One entry of the flat occurrence list (flatten): an occurrence tagged
/// with its group.
struct FlatOccurrence {
  int group = 0;
  int stmt = 0;
  int order = 0;
  bool is_write = false;
};

/// Collects the reference groups of a kernel body in first-occurrence order.
std::vector<RefGroup> collect_ref_groups(const Kernel& kernel);

/// Every group's occurrences in one list, in evaluation order.
std::vector<FlatOccurrence> flatten(const std::vector<RefGroup>& groups);

/// Total number of reference occurrences per iteration across all groups.
int total_occurrences(const std::vector<RefGroup>& groups);

/// Finds the group with the given display name (convenience for tests and
/// benches); throws if absent.
const RefGroup& group_named(const std::vector<RefGroup>& groups, const std::string& display);

}  // namespace srra
