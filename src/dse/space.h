// Design-space definition and enumeration (DESIGN.md §7, §10). A space is
// the cross product of five axes:
//
//   kernels x loop transforms x fetch modes x algorithms x register budgets
//
// Kernel x transform-sequence combinations are materialized as *variants*
// (each owns one transformed Kernel plus the LoopTransform sequence that
// produced it); the remaining axes are expanded into flat SpacePoints that
// reference their variant by index. Enumeration order is deterministic —
// variants in kernel/sequence declaration order, points in (variant, fetch,
// algorithm, budget) lexicographic order — and every point carries its
// dense index, which is what makes parallel evaluation reproducible
// (explore.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.h"
#include "ir/kernel.h"
#include "ir/transform.h"

namespace srra::dse {

/// One kernel entering the space, with its display name.
struct SpaceKernel {
  std::string name;
  Kernel kernel;
};

/// The loop-transformation axis (ir/transform.h): which rewrites of each
/// kernel enter the space. It defines one candidate tree per kernel, which
/// enumerate_space and explore_guided both walk (dse/candidate_tree.h,
/// DESIGN.md §10): the source, the explicit sequences, then
///
///   (source order + legal interchange permutations)
///     x (untiled + Tile{level, size} stacks up to tile_depth layers)
///     x (unjammed + one UnrollJam{level, factor} per level and factor)
///
/// in that nesting order, each sequence applied left to right, with levels
/// of later transforms referring to the nest the earlier ones produced.
/// Non-dividing tile sizes are applied with remainder peeling where legal.
/// enumerate_space keeps the candidates apply_if_safe accepts (oversized
/// tiles, non-dividing unroll factors and unsafe reorders are skipped
/// uncounted), deduplicates structurally identical results — e.g.
/// permutations that are no-ops on symmetric nests — via structural_hash,
/// and keeps at most max_variants_per_kernel variants per kernel
/// (duplicates and candidates past the cap still count in
/// EnumeratedSpace::stats).
struct TransformSpec {
  /// Enumerate every legal loop-interchange permutation per kernel.
  bool interchange = false;
  /// Nests deeper than this keep source order even with interchange on
  /// (depth d contributes d! orders; 3 ⇒ at most 6 orders per kernel).
  int max_interchange_depth = 3;
  /// Tile sizes to try at every level of the (possibly permuted) nest.
  /// Sizes that do not divide a level's trip count are applied with
  /// remainder peeling (ir/transform.h apply_peeled) when that is legal for
  /// the level; sizes >= the trip count are skipped.
  std::vector<std::int64_t> tile_sizes;
  /// How many Tile layers the generated cross product stacks (1 = one tile
  /// per candidate, 2 adds tile-on-tile candidates, ...).
  int tile_depth = 1;
  /// Unroll-and-jam factors to try at every level of the (possibly
  /// permuted, possibly tiled) nest; illegal factors are skipped.
  std::vector<std::int64_t> unroll_factors;
  /// Explicit transform sequences, enumerated right after the source
  /// variant and before the generated cross product. Each must be legal
  /// (ir/transform.h is_safe) for every kernel of the space; an illegal or
  /// malformed sequence throws srra::Error.
  std::vector<std::vector<LoopTransform>> sequences;
  /// Hard cap on the variants one kernel contributes. Generation keeps
  /// *counting* candidates past the cap (EnumeratedSpace::stats — no
  /// silent truncation), it just stops materializing them.
  int max_variants_per_kernel = 6400;

  /// True when any axis beyond the source order is requested.
  bool any() const {
    return interchange || !tile_sizes.empty() || !unroll_factors.empty() ||
           !sequences.empty();
  }
};

/// One (kernel, transform sequence) combination; owns the transformed
/// kernel. `order` is the legacy loop-order label (e.g. "(i,j,k)"), kept
/// byte-identical to the pre-transform-IR reports for interchange-only
/// spaces; `encoding` is the canonical transform encoding (e.g.
/// "i(1,0,2);t(2,8)", "" for the source variant). label() picks the report
/// spelling: `order` for the source order and pure interchanges, `encoding`
/// as soon as a tile or unroll-and-jam is involved.
struct Variant {
  int index = 0;
  std::string kernel_name;
  std::string order;                      ///< loop-order label, e.g. "(i,j,k)"
  std::string encoding;                   ///< canonical transform encoding
  std::vector<LoopTransform> transforms;  ///< applied sequence (empty = source)
  Kernel kernel;                          ///< main nest (peeled-tile full range)
  /// Remainder nests peeled off by non-dividing tiles (ir/transform.h
  /// PeeledNest), in peel order; empty for full-tile / untiled variants.
  /// Evaluation runs every piece and combines (dse/explore.h).
  std::vector<Kernel> epilogues;

  const std::string& label() const {
    const bool pure_interchange =
        transforms.empty() ||
        (transforms.size() == 1 && transforms.front().kind == TransformKind::kInterchange);
    return pure_interchange ? order : encoding;
  }
};

/// The axes of a design space. Defaults reproduce the paper's setup: the
/// three Fig. 3/4 allocators at budget 64, source loop order, concurrent
/// operand fetch.
struct AxisSpec {
  std::vector<SpaceKernel> kernels;
  std::vector<Algorithm> algorithms = paper_variants();
  std::vector<std::int64_t> budgets = {64};
  /// Values taken by CycleOptions::concurrent_operand_fetch.
  std::vector<bool> fetch_modes = {true};
  /// Loop-transformation axis (source order only by default).
  TransformSpec transforms;
};

/// One evaluation point: a variant plus values for the scalar axes.
struct SpacePoint {
  int index = 0;    ///< dense id in enumeration order
  int variant = 0;  ///< index into EnumeratedSpace::variants
  Algorithm algorithm = Algorithm::kFrRa;
  std::int64_t budget = 64;
  bool concurrent_fetch = true;
};

/// Candidate-generation counters — the no-silent-caps contract. Every
/// candidate the sweep generates increments `generated` (exhaustive: every
/// legal candidate of the tree; guided: every candidate); `evaluated`
/// counts the variants that entered the space; `pruned` counts the rest
/// (bound-dominated, over-cap, illegal or duplicate in guided search,
/// duplicate or over-cap in exhaustive enumeration). generated == pruned +
/// evaluated, so a capped or pruned run is visible in every report.
struct SpaceStats {
  std::int64_t variants_generated = 0;
  std::int64_t variants_pruned = 0;
  std::int64_t variants_evaluated = 0;
  /// `variants_pruned` by cause; the three always sum to it. Reports print
  /// only the total.
  std::int64_t pruned_by_bound = 0;  ///< strictly dominated by a measured point
  std::int64_t pruned_by_cap = 0;    ///< past a per-kernel evaluation cap
  std::int64_t pruned_illegal_or_duplicate = 0;  ///< rejected by apply_if_safe, or a duplicate
};

/// A fully enumerated space.
struct EnumeratedSpace {
  std::vector<Variant> variants;
  std::vector<SpacePoint> points;
  SpaceStats stats;

  /// Point indices grouped by variant, each group in point order.
  std::vector<std::vector<int>> points_by_variant() const;
};

/// Expands `axes` into variants and points (see TransformSpec for the
/// transform-axis enumeration). Throws srra::Error if any axis is empty or
/// an explicit transform sequence is illegal for one of the kernels.
EnumeratedSpace enumerate_space(AxisSpec axes);

/// Parses a budget-axis spec: "64" (single), "8,16,64" (list),
/// "lo:hi" (doubling ladder from lo, hi appended if overshot) or
/// "lo:hi:step" (arithmetic). Result is sorted ascending, deduplicated.
/// Throws srra::Error on malformed specs or non-positive budgets.
std::vector<std::int64_t> parse_budget_spec(const std::string& spec);

/// Parses a tile-size / unroll-factor axis spec: a comma list of integers
/// >= 2 ("4,8"), sorted ascending and deduplicated. Throws srra::Error on
/// malformed specs.
std::vector<std::int64_t> parse_size_list(const std::string& spec, const char* what);

}  // namespace srra::dse
