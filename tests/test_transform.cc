#include <gtest/gtest.h>

#include "core/registry.h"
#include "ir/printer.h"
#include "ir/parser.h"
#include "ir/transform.h"
#include "kernels/kernels.h"
#include "sim/interp.h"

namespace srra {
namespace {

TEST(Transform, InterchangeSwapsLoopsAndSubscripts) {
  const Kernel k = kernels::mat();
  const Kernel t = apply_transform(k, LoopTransform::interchange({2, 1, 0}));
  EXPECT_EQ(t.loop(0).var, "k");
  EXPECT_EQ(t.loop(2).var, "i");
  // a[i][k] must still read a[i][k] (coefficients follow the loops).
  const std::string text = kernel_to_string(t);
  EXPECT_NE(text.find("c[i][j] = c[i][j] + a[i][k] * b[k][j];"), std::string::npos) << text;
}

TEST(Transform, InterchangePreservesMatSemantics) {
  // Accumulation is commutative under wrap-around arithmetic, so every loop
  // order computes bit-identical results.
  const Kernel k = kernels::mat();
  ArrayStore base(k);
  base.randomize(99);
  ArrayStore reference = base;
  interpret(k, reference);

  for (const std::vector<int>& perm :
       {std::vector<int>{1, 0, 2}, std::vector<int>{2, 1, 0}, std::vector<int>{0, 2, 1}}) {
    const LoopTransform swap = LoopTransform::interchange(perm);
    const Kernel t = apply_transform(k, swap);
    ArrayStore permuted(t);
    permuted.randomize(99);
    interpret(t, permuted);
    EXPECT_TRUE(permuted.equals(reference)) << to_string(swap);
  }
}

TEST(Transform, InterchangePreservesExampleSemantics) {
  const Kernel k = kernels::paper_example();
  ArrayStore reference(k);
  reference.randomize(5);
  interpret(k, reference);

  const Kernel t = apply_transform(k, LoopTransform::interchange({0, 2, 1}));  // swap j and k
  ArrayStore permuted(t);
  permuted.randomize(5);
  interpret(t, permuted);
  EXPECT_TRUE(permuted.equals(reference));
}

TEST(Transform, InterchangeMovesReuseLevels) {
  // In mat's (i,j,k) order a[i][k] carries reuse at j (level 1, window 16);
  // with j outermost the carrying level moves to 0 and the window must span
  // the whole inner (i,k) subnest — full replacement now needs all 256
  // elements. Interchange genuinely changes the register economics.
  const RefModel before(kernels::mat());
  const RefModel after(apply_transform(kernels::mat(), LoopTransform::interchange({1, 0, 2})));
  const int a_before = group_named(before.groups(), "a[i][k]").id;
  const int a_after = group_named(after.groups(), "a[i][k]").id;
  EXPECT_EQ(before.reuse()[a_before].outermost_level(), 1);
  EXPECT_EQ(before.beta_full(a_before), 16);
  EXPECT_EQ(after.reuse()[a_after].outermost_level(), 0);
  EXPECT_EQ(after.beta_full(a_after), 256);
}

TEST(Transform, SafetyCheckAcceptsPaperKernels) {
  EXPECT_TRUE(reorder_is_safe(kernels::mat()));
  EXPECT_TRUE(reorder_is_safe(kernels::fir()));
  EXPECT_TRUE(reorder_is_safe(kernels::paper_example()));
}

TEST(Transform, SafetyCheckRejectsNonCommutativeSelfUpdate) {
  const Kernel k = parse_kernel(R"(
    kernel shifty {
      array x[8];
      for i in 0..8 { for j in 0..4 { x[i] = x[i] * 2 + j; } }
    }
  )");
  EXPECT_FALSE(reorder_is_safe(k));
}

TEST(Transform, SafetyCheckRejectsCrossSubscriptFlow) {
  const Kernel k = parse_kernel(R"(
    kernel chain {
      array x[10];
      for i in 0..8 { x[i + 1] = x[i] + 1; }
    }
  )");
  EXPECT_FALSE(reorder_is_safe(k));
}

TEST(Transform, OutOfRangeLevelThrows) {
  // Swapping levels 0 and 3 of a depth-3 nest is not a permutation.
  EXPECT_THROW(apply_transform(kernels::mat(), LoopTransform::interchange({3, 1, 2})), Error);
}

TEST(Transform, SafetyCheckRejectsNonInjectiveWritePattern) {
  // q[2i+2j] collides across incomparable iterations ((i+1, j) vs (i, j+1)),
  // so a read-before-write chain through it observes any reorder. The
  // mixed-radix injectivity condition must reject it.
  const Kernel k = parse_kernel(R"(
    kernel collide {
      array p[10]; array q[15];
      for i in 0..4 { for j in 0..4 {
        p[i + j] = q[2*i + 2*j];
        q[2*i + 2*j] = 0;
      } }
    }
  )");
  EXPECT_FALSE(reorder_is_safe(k));
}

// ---- Tiling ----

TEST(Transform, TileSplitsLoopAndRemapsSubscripts) {
  const Kernel k = kernels::mat();  // (i,j,k), 16 each
  const Kernel t = apply_transform(k, LoopTransform::tile(2, 4));
  ASSERT_EQ(t.depth(), 4);
  EXPECT_EQ(t.loop(2).var, "kt");
  EXPECT_EQ(t.loop(3).var, "ki");
  EXPECT_EQ(t.loop(2).lower, 0);
  EXPECT_EQ(t.loop(2).upper, 16);
  EXPECT_EQ(t.loop(2).step, 4);
  EXPECT_EQ(t.loop(2).trip_count(), 4);
  EXPECT_EQ(t.loop(3).upper, 4);
  EXPECT_EQ(t.loop(3).trip_count(), 4);
  // v = vt + vi: a[i][k] becomes a[i][kt + ki].
  const std::string text = kernel_to_string(t);
  EXPECT_NE(text.find("a[i][kt + ki]"), std::string::npos) << text;
  EXPECT_NE(text.find("b[kt + ki][j]"), std::string::npos) << text;
}

TEST(Transform, TilePreservesSemantics) {
  const Kernel k = kernels::mat();
  ArrayStore reference(k);
  reference.randomize(7);
  interpret(k, reference);
  for (const LoopTransform& t : {LoopTransform::tile(0, 4), LoopTransform::tile(1, 8),
                                LoopTransform::tile(2, 2)}) {
    const Kernel tiled = apply_transform(k, t);
    ArrayStore got(tiled);
    got.randomize(7);
    interpret(tiled, got);
    EXPECT_TRUE(got.equals(reference)) << to_string(t);
  }
}

TEST(Transform, TilingMovesReuseWindowIntoBudget) {
  // The Domagała-style lever ("A Tiling Perspective for Register
  // Optimization"): in the source nest b[k][j]'s reuse is carried at i, so
  // full replacement needs the whole 600-element (j,k) window. Tiling j and
  // k and hoisting the tile loops outside i leaves one 4x5 tile as the
  // window: full reuse of b now fits in 20 registers — the transform moved
  // the reuse window into a fixed budget instead of growing the budget to
  // the window.
  const Kernel k = kernels::paper_example();
  const RefModel before(k.clone());
  EXPECT_EQ(before.beta_full(group_named(before.groups(), "b[k][j]").id), 600);

  const std::vector<LoopTransform> sequence{
      LoopTransform::tile(1, 4),                    // (i,jt,ji,k)
      LoopTransform::tile(3, 5),                    // (i,jt,ji,kt,ki)
      LoopTransform::interchange({1, 3, 0, 2, 4})}; // (jt,kt,i,ji,ki)
  ASSERT_TRUE(is_safe(k, srra::span<const LoopTransform>(sequence.data(),
                                                         sequence.size())));
  const RefModel after(
      apply(k, srra::span<const LoopTransform>(sequence.data(), sequence.size())));
  const RefGroup& b = group_named(after.groups(), "b[kt + ki][jt + ji]");
  EXPECT_EQ(after.reuse()[static_cast<std::size_t>(b.id)].outermost_level(), 2);
  EXPECT_EQ(after.beta_full(b.id), 20);
}

TEST(Transform, TileRequiresDividingSize) {
  // apply_transform keeps the full-tile contract; non-dividing sizes go
  // through apply_peeled, which is_safe now accepts where peeling is legal.
  EXPECT_THROW(apply_transform(kernels::mat(), LoopTransform::tile(0, 3)), Error);
  EXPECT_THROW(apply_transform(kernels::mat(), LoopTransform::tile(0, 1)), Error);
  EXPECT_THROW(apply_transform(kernels::mat(), LoopTransform::tile(4, 2)), Error);
  EXPECT_TRUE(is_safe(kernels::mat(), LoopTransform::tile(0, 3)));   // peelable
  EXPECT_FALSE(is_safe(kernels::mat(), LoopTransform::tile(0, 17)));  // size > trip
  EXPECT_FALSE(is_safe(kernels::mat(), LoopTransform::tile(0, 1)));
  EXPECT_TRUE(is_safe(kernels::mat(), LoopTransform::tile(0, 4)));
}

TEST(Transform, StackedPeelsRunRemaindersInSourceOrder) {
  // t(0,3) peels i = 3..4 off; t(1,2) then splits the main range's point
  // loop and peels i = 2. The main range runs first, so i = 2 must run
  // before i = 3..4: the last write to q[2*j] comes from i = 4.
  const Kernel k = parse_kernel(R"(
    kernel stacked {
      array q[3] : u8;
      for i in 0..5 { for j in 0..2 { q[2*j] = i + i; } }
    }
  )");
  const std::vector<LoopTransform> sequence{LoopTransform::tile(0, 3),
                                            LoopTransform::tile(1, 2)};
  const std::optional<PeeledNest> nest =
      apply_if_safe(k, srra::span<const LoopTransform>(sequence.data(), sequence.size()));
  ASSERT_TRUE(nest.has_value());
  ASSERT_EQ(nest->epilogues.size(), 2u);
  EXPECT_EQ(nest->epilogues[0].iteration_count(), 2);  // i = 2
  EXPECT_EQ(nest->epilogues[1].iteration_count(), 4);  // i = 3..4

  ArrayStore reference(k);
  reference.randomize(5111);
  interpret(k, reference);
  ArrayStore rewritten(nest->main);
  rewritten.randomize(5111);
  interpret(nest->main, rewritten);
  for (const Kernel& epilogue : nest->epilogues) interpret(epilogue, rewritten);
  EXPECT_TRUE(rewritten.equals(reference));
}

TEST(Transform, TileUniquifiesLoopNames) {
  const Kernel k = parse_kernel(R"(
    kernel named {
      array x[8];
      for i in 0..8 { for it in 0..4 { x[i] = x[i] + it; } }
    }
  )");
  const Kernel t = apply_transform(k, LoopTransform::tile(0, 4));
  EXPECT_EQ(t.loop(0).var, "it1");  // "it" is taken by the source nest
  EXPECT_EQ(t.loop(1).var, "ii");
}

// ---- Unroll-and-jam ----

TEST(Transform, UnrollJamReplicatesBodyWithOffsets) {
  const Kernel k = kernels::mat();
  const Kernel u = apply_transform(k, LoopTransform::unroll_jam(2, 2));
  ASSERT_EQ(u.depth(), 3);
  EXPECT_EQ(u.loop(2).step, 2);
  EXPECT_EQ(u.loop(2).trip_count(), 8);
  ASSERT_EQ(u.body().size(), 2u);  // one statement became two copies
  const std::string text = kernel_to_string(u);
  EXPECT_NE(text.find("a[i][k]"), std::string::npos) << text;
  EXPECT_NE(text.find("a[i][k + 1]"), std::string::npos) << text;
}

TEST(Transform, UnrollJamPreservesSemantics) {
  const Kernel k = kernels::mat();
  ArrayStore reference(k);
  reference.randomize(11);
  interpret(k, reference);
  // Only the k loop is legal for MAT: c[i][j] varies in i and j, so
  // unrolling those would alias the write pattern.
  for (const LoopTransform& t :
       {LoopTransform::unroll_jam(2, 2), LoopTransform::unroll_jam(2, 4)}) {
    ASSERT_TRUE(is_safe(k, t)) << to_string(t);
    const Kernel unrolled = apply_transform(k, t);
    ArrayStore got(unrolled);
    got.randomize(11);
    interpret(unrolled, got);
    EXPECT_TRUE(got.equals(reference)) << to_string(t);
  }

  const Kernel f = kernels::fir();  // y[i] += x[i+j]*h[j]: j is the safe level
  ASSERT_TRUE(is_safe(f, LoopTransform::unroll_jam(1, 2)));
  ArrayStore fir_reference(f);
  fir_reference.randomize(13);
  interpret(f, fir_reference);
  const Kernel fir_unrolled = apply_transform(f, LoopTransform::unroll_jam(1, 2));
  ArrayStore fir_got(fir_unrolled);
  fir_got.randomize(13);
  interpret(fir_unrolled, fir_got);
  EXPECT_TRUE(fir_got.equals(fir_reference));
}

TEST(Transform, UnrollJamExposesForwardWiring) {
  // Unrolling j in the worked example duplicates the d[i][k] write/read
  // chain; the copies keep the same subscript pattern (d is invariant in j),
  // so the walker sees twice the same-iteration forwarding per iteration.
  const RefModel before(kernels::paper_example());
  const RefModel after(
      apply_transform(kernels::paper_example(), LoopTransform::unroll_jam(1, 2)));
  const RefGroup& d_before = group_named(before.groups(), "d[i][k]");
  const RefGroup& d_after = group_named(after.groups(), "d[i][k]");
  EXPECT_EQ(d_before.forwarded_reads_per_iter, 1);
  EXPECT_EQ(d_after.forwarded_reads_per_iter, 2);
}

TEST(Transform, UnrollJamRejectsAliasingWrites) {
  // x[i]'s copies would write x[i] and x[i+1]: two aliasing write patterns
  // on one array, which the group-based register model cannot represent.
  const Kernel k = parse_kernel(R"(
    kernel alias {
      array x[8]; array y[8];
      for i in 0..8 { x[i] = y[i] + 1; }
    }
  )");
  EXPECT_FALSE(is_safe(k, LoopTransform::unroll_jam(0, 2)));
  // Unrolling a level the writes are invariant in is fine.
  EXPECT_TRUE(is_safe(kernels::mat(), LoopTransform::unroll_jam(2, 2)));
  // Non-dividing factors are rejected.
  EXPECT_FALSE(is_safe(kernels::mat(), LoopTransform::unroll_jam(2, 3)));
}

// ---- Sequences and the canonical encoding ----

TEST(Transform, SequencesComposeLeftToRight) {
  const Kernel k = kernels::mat();
  const std::vector<LoopTransform> sequence{
      LoopTransform::interchange({2, 0, 1}), LoopTransform::tile(1, 8),
      LoopTransform::unroll_jam(0, 2)};
  const Kernel direct = apply(
      k, srra::span<const LoopTransform>(sequence.data(), sequence.size()));
  Kernel staged = k.clone();
  for (const LoopTransform& t : sequence) staged = apply_transform(staged, t);
  EXPECT_EQ(kernel_to_string(direct), kernel_to_string(staged));
  EXPECT_EQ(structural_hash(direct), structural_hash(staged));

  ArrayStore reference(k);
  reference.randomize(3);
  interpret(k, reference);
  ArrayStore got(direct);
  got.randomize(3);
  interpret(direct, got);
  EXPECT_TRUE(got.equals(reference));
}

TEST(Transform, CanonicalEncodingRoundTrips) {
  const std::string text = "i(2,0,1);t(1,8);uj(0,2)";
  const std::vector<LoopTransform> parsed = parse_transforms(text);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], LoopTransform::interchange({2, 0, 1}));
  EXPECT_EQ(parsed[1], LoopTransform::tile(1, 8));
  EXPECT_EQ(parsed[2], LoopTransform::unroll_jam(0, 2));
  EXPECT_EQ(to_string(srra::span<const LoopTransform>(parsed.data(), parsed.size())),
            text);
  EXPECT_TRUE(parse_transforms("").empty());
  EXPECT_TRUE(parse_transforms("  ").empty());
  EXPECT_EQ(parse_transforms(" t( 1 , 8 ) ").front(), LoopTransform::tile(1, 8));
}

TEST(Transform, MalformedEncodingThrows) {
  EXPECT_THROW(parse_transforms("x(1,2)"), Error);
  EXPECT_THROW(parse_transforms("t(1)"), Error);
  EXPECT_THROW(parse_transforms("t(1,2,3)"), Error);
  EXPECT_THROW(parse_transforms("i(1)"), Error);
  EXPECT_THROW(parse_transforms("t(1,2"), Error);
  EXPECT_THROW(parse_transforms("t(1,-2)"), Error);
  EXPECT_THROW(parse_transforms("t(a,2)"), Error);
  EXPECT_THROW(parse_transforms("t(1,2);;t(0,2)"), Error);
}

TEST(Transform, SequenceSafetyChecksEachPrefix) {
  const Kernel k = kernels::mat();
  // t(2,4) leaves ki with trip 4; tiling it by 8 cannot divide.
  const std::vector<LoopTransform> bad{LoopTransform::tile(2, 4),
                                       LoopTransform::tile(3, 8)};
  EXPECT_FALSE(is_safe(k, srra::span<const LoopTransform>(bad.data(), bad.size())));
  const std::vector<LoopTransform> good{LoopTransform::tile(2, 8),
                                        LoopTransform::tile(3, 4)};
  EXPECT_TRUE(is_safe(k, srra::span<const LoopTransform>(good.data(), good.size())));
}

TEST(Transform, StructuralHashIgnoresNamesOnly) {
  const Kernel a = kernels::mat();
  Kernel b = kernels::mat();
  b.set_name("other");
  EXPECT_EQ(structural_hash(a), structural_hash(b));
  EXPECT_NE(structural_hash(a),
            structural_hash(apply_transform(a, LoopTransform::tile(2, 4))));
  EXPECT_NE(structural_hash(a),
            structural_hash(apply_transform(a, LoopTransform::interchange({1, 0, 2}))));
}

}  // namespace
}  // namespace srra
