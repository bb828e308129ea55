// Composable loop-nest transformations. A LoopTransform is a value
// describing one rewrite of a perfect nest; sequences of them compose with
// apply() and are what the DSE engine enumerates as its transform axis
// (dse/space.h). Three kinds are supported:
//
//  * Interchange{perm} — permutes the loops (new level l holds source level
//    perm[l]), remapping every affine subscript and loop-variable
//    expression. Reuse-carrying levels move with it, which changes every
//    allocator's behaviour (`srra sweep --interchange` shows it).
//  * Tile{level, size} — strip-mines loop `level` into a tile loop `vt`
//    (same bounds, step scaled by `size`) and a point loop `vi`
//    (0..step*size by step) inserted directly below, with v = vt + vi.
//    Subscripts stay affine (the coefficient of v appears at both new
//    levels). When `size` divides the trip count the nest stays perfect and
//    pure strip-mining is an exact reordering of nothing: the iteration
//    sequence is unchanged, only the *level structure* the register-window
//    policy sees. That is the Domagała-style lever: a window that fits
//    nowhere in the source nest fits at the point loop of a small tile.
//    Non-dividing sizes are handled by *remainder peeling* (apply_peeled):
//    the loop is split at the last full-tile boundary into a main range
//    (tiled, still perfect) and an untiled epilogue nest covering the
//    remaining trip % size iterations — together a PeeledNest, the repo's
//    representation of an imperfect nest as a sequence of perfect ones.
//  * UnrollJam{level, factor} — advances loop `level` by `factor` steps at
//    a time and jams the unrolled bodies: the statement list is replicated
//    `factor` times with constant-offset subscripts (v -> v + u*step), so
//    cross-iteration reuse at `level` becomes same-iteration forward wiring
//    visible to the walker.
//
// Legality (is_safe): a full tile is always semantics-preserving; a peeled
// tile executes the whole main range before the whole remainder range, which
// is the source order when the peeled loop is outermost (level 0) and a
// cross-iteration reorder otherwise, so outer-level peeling is always legal
// and inner-level peeling requires reorder_is_safe. Interchange and
// unroll-and-jam reorder cross-iteration execution and require the
// conservative dependence condition of reorder_is_safe — every statement either writes an element
// never re-read across iterations, or is a commutative accumulator update
// `x = x + e` (whose arithmetic commutes under the wrap-around semantics of
// the datapath). Unroll-and-jam of the *innermost* loop only concatenates
// adjacent iterations in source order, so it is exempt.
//
// Canonical text encoding, parsed and printed for reports and the CLI:
//   i(2,0,1);t(1,8);uj(0,2)
// applies the interchange first, then the tile, then the unroll-and-jam;
// levels always refer to the nest produced by the previous transform.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/kernel.h"
#include "support/span.h"

namespace srra {

/// Transform kinds, in canonical-encoding tag order.
enum class TransformKind { kInterchange, kTile, kUnrollJam };

/// One loop-nest rewrite (see header comment for semantics and legality).
struct LoopTransform {
  TransformKind kind = TransformKind::kInterchange;
  std::vector<int> perm;      ///< kInterchange: perm[new level] = source level
  int level = 0;              ///< kTile / kUnrollJam: target loop level
  std::int64_t amount = 0;    ///< kTile: tile size; kUnrollJam: unroll factor

  static LoopTransform interchange(std::vector<int> perm);
  static LoopTransform tile(int level, std::int64_t size);
  static LoopTransform unroll_jam(int level, std::int64_t factor);

  bool operator==(const LoopTransform& other) const {
    return kind == other.kind && perm == other.perm && level == other.level &&
           amount == other.amount;
  }
  bool operator!=(const LoopTransform& other) const { return !(*this == other); }
};

/// Applies one transform; throws srra::Error when it is malformed for the
/// kernel (bad level/permutation, non-dividing tile size or unroll factor).
/// Semantic legality is is_safe's job — apply() performs the rewrite even
/// when the dependence condition does not hold (the fuzz suites rely on
/// that to cross-check the analyzers on reordered kernels).
Kernel apply_transform(const Kernel& kernel, const LoopTransform& t);

/// Applies a sequence left to right.
Kernel apply(const Kernel& kernel, srra::span<const LoopTransform> transforms);

/// A transformed nest with remainder epilogues: `main` is the (still
/// perfect) transformed kernel covering the full-tile range of every peeled
/// Tile, and `epilogues` are the peeled-off remainder nests in execution
/// order — the latest peel first, because it splits the range that runs
/// before every earlier remainder. Executing main then every epilogue in
/// order computes exactly what the source kernel computes (when the
/// sequence is_safe). Most sequences peel nothing and epilogues is empty.
struct PeeledNest {
  Kernel main;
  std::vector<Kernel> epilogues;

  bool peeled() const { return !epilogues.empty(); }
};

/// Applies a sequence left to right with remainder peeling: a Tile whose
/// size does not divide the target trip count first splits the loop at the
/// last full-tile boundary — the main range keeps the tile (full-tile by
/// construction), the remainder becomes an untiled epilogue kernel. Later
/// transforms apply to the main nest only; each new epilogue goes in front
/// of the earlier ones. Throws srra::Error on malformed transforms (size >=
/// trip, bad levels, non-dividing unroll factors).
PeeledNest apply_peeled(const Kernel& kernel, srra::span<const LoopTransform> transforms);

/// Checked apply_peeled in one stepwise pass: the peeled nest when every
/// transform is_safe on the main nest the ones before it produced, nullopt
/// as soon as one is not (malformed transforms included).
std::optional<PeeledNest> apply_if_safe(const Kernel& kernel,
                                        srra::span<const LoopTransform> transforms);

/// Per-transform legality: well-formed for this kernel AND semantics-
/// preserving (see header comment).
bool is_safe(const Kernel& kernel, const LoopTransform& t);

/// Sequence legality: every prefix transform is safe on the kernel produced
/// by the transforms before it (apply_if_safe succeeds).
bool is_safe(const Kernel& kernel, srra::span<const LoopTransform> transforms);

/// Canonical encoding of one transform, e.g. "i(2,0,1)", "t(1,8)", "uj(0,2)".
std::string to_string(const LoopTransform& t);

/// Canonical encoding of a sequence, ";"-joined; "" for the empty sequence.
std::string to_string(srra::span<const LoopTransform> transforms);

/// Parses the canonical encoding ("" -> empty sequence). Whitespace around
/// tokens is ignored. Throws srra::Error on malformed input.
std::vector<LoopTransform> parse_transforms(const std::string& text);

/// The conservative dependence condition shared by interchange and
/// unroll-and-jam (see header comment): true when reordering the kernel's
/// cross-iteration execution cannot change its results.
bool reorder_is_safe(const Kernel& kernel);

}  // namespace srra
