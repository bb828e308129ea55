// The transform-candidate tree of one kernel (DESIGN.md §10), written once
// for both sweeps: enumerate_space (dse/space.cc) materializes every legal
// candidate, explore_guided (dse/prune.cc) ranks every candidate by its
// analytic bound and materializes only the survivors. Private to dse.
//
// Generation order: the source nest, the explicit sequences, then per loop
// order (source order first, then — with interchange on and legal — every
// other permutation) the bare permuted nest, its unroll-and-jams, and,
// while tile layers remain, every Tile{level, size} with 2 <= size < trip,
// expanded recursively in the same way.
//
// Each candidate comes with its *abstract state*: per-level trip counts and,
// per reference group, the per-level linearized element shift (the
// step-scaled access-matrix row, analysis/reuse.h access_shift_profile).
// Interchange permutes both, Tile splits a column, UnrollJam scales one, so
// the walk never rewrites a kernel. Its legality is a superset of is_safe:
// peeled tiles and unroll-and-jam's dependence condition are left to the
// consumer's apply_if_safe, which rejects every descendant of an illegal
// candidate too (sequence legality is stepwise).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dse/space.h"
#include "ir/transform.h"

namespace srra::dse {

/// One reference group, abstractly.
struct AbsGroup {
  std::vector<std::int64_t> shift;  ///< element shift per single loop step
  int array = 0;
  bool read_node = false;      ///< has a read that is not forwarded in-iteration
  bool write = false;          ///< the group is written
  bool array_written = false;  ///< some group of the same array is written
  std::int64_t mult = 1;       ///< structural copies made by unroll-and-jam
};

/// One candidate nest, abstractly.
struct AbsState {
  std::vector<std::int64_t> trips;
  std::vector<AbsGroup> groups;
  /// Iteration counts of the remainder nests peeled off so far (their body
  /// is a snapshot of the main body, so the source body's schedule floor
  /// bounds them too).
  std::vector<std::int64_t> epilogue_iterations;

  std::int64_t main_iterations() const;
};

/// The abstract state of the untransformed kernel.
AbsState abstract_state(const Kernel& kernel);

/// Applies one transform to `state`, mirroring apply_peeled on the main nest.
void apply_abs(AbsState& state, const LoopTransform& t);

/// Receives one candidate: its abstract state and its transform sequence.
using CandidateVisitor =
    std::function<void(const AbsState&, const std::vector<LoopTransform>&)>;

/// Calls `visit` on every candidate of `kernel`'s tree under `spec`, in
/// generation order, as each is generated. Throws srra::Error when an
/// explicit sequence is illegal for the kernel (named `kernel_name`).
void walk_candidates(const Kernel& kernel, const std::string& kernel_name,
                     const TransformSpec& spec, const CandidateVisitor& visit);

/// Structural fingerprint of a peeled nest: the main kernel's hash mixed
/// with every epilogue's (two candidates are duplicates only when every
/// piece matches).
std::uint64_t nest_hash(const PeeledNest& nest);

/// The variant of one materialized candidate.
Variant make_variant(int index, const std::string& kernel_name,
                     std::vector<LoopTransform> transforms, PeeledNest nest);

/// Appends one point per (variant, fetch mode, algorithm, budget) of
/// `space`'s variants, in that lexicographic order.
void add_points(EnumeratedSpace& space, const AxisSpec& axes);

}  // namespace srra::dse
