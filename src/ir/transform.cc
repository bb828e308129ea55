#include "ir/transform.h"

#include <algorithm>
#include <functional>

#include "support/error.h"
#include "support/str.h"

namespace srra {

namespace {

// ---- Generic expression rewriting -----------------------------------------
// Every transform is a pair of maps: one over affine subscripts, one over
// loop-variable leaves (which may expand to a small expression tree, e.g.
// `it + ii` after tiling).

using AffineFn = std::function<AffineExpr(const AffineExpr&)>;
using LoopVarFn = std::function<ExprPtr(int)>;

ArrayAccess rewrite_access(const ArrayAccess& access, const AffineFn& affine) {
  ArrayAccess out;
  out.array_id = access.array_id;
  out.subscripts.reserve(access.subscripts.size());
  for (const AffineExpr& sub : access.subscripts) out.subscripts.push_back(affine(sub));
  return out;
}

ExprPtr rewrite_expr(const Expr& e, const AffineFn& affine, const LoopVarFn& loop_var) {
  switch (e.kind()) {
    case ExprKind::kConst:
      return Expr::make_const(e.const_value());
    case ExprKind::kLoopVar:
      return loop_var(e.loop_level());
    case ExprKind::kRef:
      return Expr::make_ref(rewrite_access(e.access(), affine));
    case ExprKind::kBinOp:
      return Expr::make_bin(e.bin_op(), rewrite_expr(e.lhs(), affine, loop_var),
                            rewrite_expr(e.rhs(), affine, loop_var));
    case ExprKind::kUnOp:
      return Expr::make_un(e.un_op(), rewrite_expr(e.operand(), affine, loop_var));
  }
  fail("unknown ExprKind");
}

Kernel rewrite_body(const Kernel& kernel, Kernel out, const AffineFn& affine,
                    const LoopVarFn& loop_var) {
  for (const Stmt& stmt : kernel.body()) {
    out.add_stmt(Stmt(rewrite_access(stmt.lhs, affine),
                      rewrite_expr(*stmt.rhs, affine, loop_var)));
  }
  out.validate();
  return out;
}

// A loop-variable name not already used by the nest: `base`, else base + a
// small integer suffix (tile loops of `i` become `it`/`ii`; a nest that
// already owns those names gets `it1`/`ii1`, ...).
std::string unique_loop_name(const Kernel& kernel, const std::string& base) {
  const auto taken = [&](const std::string& name) {
    for (const Loop& loop : kernel.loops()) {
      if (loop.var == name) return true;
    }
    return false;
  };
  if (!taken(base)) return base;
  for (int n = 1;; ++n) {
    const std::string candidate = cat(base, n);
    if (!taken(candidate)) return candidate;
  }
}

bool is_permutation(const std::vector<int>& perm, int depth) {
  if (static_cast<int>(perm.size()) != depth) return false;
  std::vector<bool> seen(static_cast<std::size_t>(depth), false);
  for (const int level : perm) {
    if (level < 0 || level >= depth || seen[static_cast<std::size_t>(level)]) return false;
    seen[static_cast<std::size_t>(level)] = true;
  }
  return true;
}

// ---- The three rewrites ---------------------------------------------------

Kernel apply_interchange(const Kernel& kernel, const std::vector<int>& perm) {
  check(is_permutation(perm, kernel.depth()), [&] {
    return cat("interchange permutation is not a permutation of the ", kernel.depth(),
               " loop levels");
  });
  const int depth = kernel.depth();
  std::vector<int> inverse(static_cast<std::size_t>(depth), 0);
  for (int l = 0; l < depth; ++l) inverse[static_cast<std::size_t>(perm[static_cast<std::size_t>(l)])] = l;

  Kernel out(kernel.name());
  for (const ArrayDecl& array : kernel.arrays()) out.add_array(array);
  for (int l = 0; l < depth; ++l) out.add_loop(kernel.loop(perm[static_cast<std::size_t>(l)]));

  const AffineFn affine = [&](const AffineExpr& e) {
    AffineExpr mapped(depth);
    for (int l = 0; l < depth; ++l) mapped.set_coeff(l, e.coeff(perm[static_cast<std::size_t>(l)]));
    mapped.set_constant_term(e.constant_term());
    return mapped;
  };
  const LoopVarFn loop_var = [&](int level) {
    return Expr::make_loop_var(inverse[static_cast<std::size_t>(level)]);
  };
  return rewrite_body(kernel, std::move(out), affine, loop_var);
}

Kernel apply_tile(const Kernel& kernel, int level, std::int64_t size) {
  check(level >= 0 && level < kernel.depth(), "tile level out of range");
  const Loop& target = kernel.loop(level);
  check(size >= 2, "tile size must be at least 2");
  check(target.trip_count() % size == 0, [&] {
    return cat("tile size ", size, " does not divide the trip count ", target.trip_count(),
               " of loop ", target.var, " (full-tile precondition)");
  });

  const int depth = kernel.depth();
  Kernel out(kernel.name());
  for (const ArrayDecl& array : kernel.arrays()) out.add_array(array);
  // v = vt + vi exactly: the tile loop keeps v's bounds with the step scaled
  // by the tile size; the point loop spans one tile's worth of steps.
  Loop tile_loop{unique_loop_name(kernel, target.var + "t"), target.lower, target.upper,
                 target.step * size};
  Loop point_loop{unique_loop_name(kernel, target.var + "i"), 0, target.step * size,
                  target.step};
  for (int l = 0; l < depth; ++l) {
    if (l == level) {
      out.add_loop(tile_loop);
      out.add_loop(point_loop);
    } else {
      out.add_loop(kernel.loop(l));
    }
  }

  // Old level l maps to l (below `level`) or l+1 (above); the tiled level's
  // coefficient appears at both new levels since v = vt + vi.
  const AffineFn affine = [&](const AffineExpr& e) {
    AffineExpr mapped(depth + 1);
    for (int l = 0; l < depth; ++l) {
      const int target_level = l <= level ? l : l + 1;
      mapped.set_coeff(target_level, e.coeff(l));
    }
    mapped.set_coeff(level + 1, e.coeff(level));
    mapped.set_constant_term(e.constant_term());
    return mapped;
  };
  const LoopVarFn loop_var = [&](int l) {
    if (l == level) {
      return Expr::make_bin(BinOpKind::kAdd, Expr::make_loop_var(level),
                            Expr::make_loop_var(level + 1));
    }
    return Expr::make_loop_var(l < level ? l : l + 1);
  };
  return rewrite_body(kernel, std::move(out), affine, loop_var);
}

Kernel apply_unroll_jam(const Kernel& kernel, int level, std::int64_t factor) {
  check(level >= 0 && level < kernel.depth(), "unroll-and-jam level out of range");
  const Loop& target = kernel.loop(level);
  check(factor >= 2, "unroll factor must be at least 2");
  check(target.trip_count() % factor == 0, [&] {
    return cat("unroll factor ", factor, " does not divide the trip count ", target.trip_count(),
               " of loop ", target.var, " (full-tile precondition)");
  });

  Kernel out(kernel.name());
  for (const ArrayDecl& array : kernel.arrays()) out.add_array(array);
  for (int l = 0; l < kernel.depth(); ++l) {
    Loop loop = kernel.loop(l);
    if (l == level) loop.step *= factor;
    out.add_loop(loop);
  }

  // Copy u substitutes v -> v + u*step: a constant offset in every affine
  // subscript and an explicit add on loop-variable leaves. The whole body is
  // replicated per copy (jam order), so constant-offset neighbours of one
  // source reference appear together in one iteration and their reuse
  // becomes same-iteration forward wiring.
  for (std::int64_t u = 0; u < factor; ++u) {
    const std::int64_t offset = u * target.step;
    const AffineFn affine = [&](const AffineExpr& e) {
      AffineExpr mapped = e;
      mapped.set_constant_term(e.constant_term() + e.coeff(level) * offset);
      return mapped;
    };
    const LoopVarFn loop_var = [&](int l) {
      if (l == level && offset != 0) {
        return Expr::make_bin(BinOpKind::kAdd, Expr::make_loop_var(l),
                              Expr::make_const(offset));
      }
      return Expr::make_loop_var(l);
    };
    for (const Stmt& stmt : kernel.body()) {
      out.add_stmt(Stmt(rewrite_access(stmt.lhs, affine),
                        rewrite_expr(*stmt.rhs, affine, loop_var)));
    }
  }
  out.validate();
  return out;
}

// The kernel with loop `level`'s range replaced by [lower, upper) — the
// splitting primitive behind remainder peeling. Bodies are deep-copied via
// the identity rewrite.
Kernel with_loop_bounds(const Kernel& kernel, int level, std::int64_t lower,
                        std::int64_t upper) {
  Kernel out(kernel.name());
  for (const ArrayDecl& array : kernel.arrays()) out.add_array(array);
  for (int l = 0; l < kernel.depth(); ++l) {
    Loop loop = kernel.loop(l);
    if (l == level) {
      loop.lower = lower;
      loop.upper = upper;
    }
    out.add_loop(loop);
  }
  const AffineFn affine = [](const AffineExpr& e) { return e; };
  const LoopVarFn loop_var = [](int l) { return Expr::make_loop_var(l); };
  return rewrite_body(kernel, std::move(out), affine, loop_var);
}

// One apply_peeled step on the main piece. A Tile whose size does not
// divide the trip count first splits the loop at the last full-tile
// boundary: the main range keeps trip - trip % size iterations (a multiple
// of the size, so the tile is full-tile), the remainder becomes an untiled
// epilogue. The split cuts the current main range, which runs before every
// earlier epilogue, so the new remainder runs first among them.
void apply_peeled_step(PeeledNest& nest, const LoopTransform& t) {
  if (t.kind == TransformKind::kTile) {
    check(t.level >= 0 && t.level < nest.main.depth(), "tile level out of range");
    const Loop target = nest.main.loop(t.level);
    const std::int64_t trip = target.trip_count();
    if (trip % t.amount != 0) {
      check(t.amount >= 2 && t.amount < trip, [&] {
        return cat("tile size ", t.amount, " cannot peel loop ", target.var, " with trip count ",
                   trip);
      });
      const std::int64_t split = target.lower + (trip - trip % t.amount) * target.step;
      Kernel epilogue = with_loop_bounds(nest.main, t.level, split, target.upper);
      epilogue.set_name(cat(nest.main.name(), "__peel", nest.epilogues.size() + 1));
      nest.epilogues.insert(nest.epilogues.begin(), std::move(epilogue));
      nest.main = with_loop_bounds(nest.main, t.level, target.lower, split);
    }
  }
  nest.main = apply_transform(nest.main, t);
}

// ---- Dependence condition -------------------------------------------------

// True when `expr` is `lhs + rest` or `rest + lhs` with no other occurrence
// of lhs inside rest (a commutative accumulator update).
bool is_accumulator_update(const ArrayAccess& lhs, const Expr& expr) {
  if (expr.kind() != ExprKind::kBinOp || expr.bin_op() != BinOpKind::kAdd) return false;
  const auto counts_lhs = [&](const Expr& e) {
    int n = 0;
    e.for_each_ref([&](const ArrayAccess& access) {
      if (access == lhs) ++n;
    });
    return n;
  };
  const bool left_is_lhs =
      expr.lhs().kind() == ExprKind::kRef && expr.lhs().access() == lhs;
  const bool right_is_lhs =
      expr.rhs().kind() == ExprKind::kRef && expr.rhs().access() == lhs;
  if (left_is_lhs) return counts_lhs(expr.rhs()) == 0;
  if (right_is_lhs) return counts_lhs(expr.lhs()) == 0;
  return false;
}

// ---- Canonical encoding helpers -------------------------------------------

const char* kind_tag(TransformKind kind) {
  switch (kind) {
    case TransformKind::kInterchange: return "i";
    case TransformKind::kTile: return "t";
    case TransformKind::kUnrollJam: return "uj";
  }
  fail("unknown TransformKind");
}

// Bounded non-negative integer parse for transform arguments; the bound
// keeps std::stoll total and is far beyond any sane level/size/factor.
std::int64_t parse_arg(std::string_view token, const std::string& text) {
  const std::string value(trim(token));
  check(!value.empty() && value.size() <= 7 &&
            value.find_first_not_of("0123456789") == std::string::npos, [&] {
    return cat("bad transform spec '", text, "': '", value, "' is not a non-negative integer");
  });
  return std::stoll(value);
}

}  // namespace

LoopTransform LoopTransform::interchange(std::vector<int> perm) {
  LoopTransform t;
  t.kind = TransformKind::kInterchange;
  t.perm = std::move(perm);
  return t;
}

LoopTransform LoopTransform::tile(int level, std::int64_t size) {
  LoopTransform t;
  t.kind = TransformKind::kTile;
  t.level = level;
  t.amount = size;
  return t;
}

LoopTransform LoopTransform::unroll_jam(int level, std::int64_t factor) {
  LoopTransform t;
  t.kind = TransformKind::kUnrollJam;
  t.level = level;
  t.amount = factor;
  return t;
}

Kernel apply_transform(const Kernel& kernel, const LoopTransform& t) {
  switch (t.kind) {
    case TransformKind::kInterchange: return apply_interchange(kernel, t.perm);
    case TransformKind::kTile: return apply_tile(kernel, t.level, t.amount);
    case TransformKind::kUnrollJam: return apply_unroll_jam(kernel, t.level, t.amount);
  }
  fail("unknown TransformKind");
}

Kernel apply(const Kernel& kernel, srra::span<const LoopTransform> transforms) {
  Kernel out = kernel.clone();
  for (const LoopTransform& t : transforms) out = apply_transform(out, t);
  return out;
}

PeeledNest apply_peeled(const Kernel& kernel, srra::span<const LoopTransform> transforms) {
  PeeledNest out{kernel.clone(), {}};
  for (const LoopTransform& t : transforms) apply_peeled_step(out, t);
  return out;
}

std::optional<PeeledNest> apply_if_safe(const Kernel& kernel,
                                        srra::span<const LoopTransform> transforms) {
  PeeledNest out{kernel.clone(), {}};
  for (const LoopTransform& t : transforms) {
    if (!is_safe(out.main, t)) return std::nullopt;
    apply_peeled_step(out, t);
  }
  return out;
}

bool is_safe(const Kernel& kernel, const LoopTransform& t) {
  switch (t.kind) {
    case TransformKind::kInterchange: {
      if (!is_permutation(t.perm, kernel.depth())) return false;
      const bool identity = std::is_sorted(t.perm.begin(), t.perm.end());
      return identity || reorder_is_safe(kernel);
    }
    case TransformKind::kTile: {
      // Full-tile strip-mining replays the exact source iteration sequence,
      // so well-formedness is legality. A non-dividing size is applied with
      // remainder peeling (apply_peeled): main range first, remainder after.
      // At level 0 that *is* the source order (the outer ranges execute
      // back-to-back with their inner nests complete); at inner levels the
      // epilogue of an outer iteration runs after every outer iteration's
      // main range — a cross-iteration reorder needing reorder_is_safe.
      if (t.level < 0 || t.level >= kernel.depth() || t.amount < 2) return false;
      const std::int64_t trip = kernel.loop(t.level).trip_count();
      if (trip % t.amount == 0) return true;
      return t.amount < trip && (t.level == 0 || reorder_is_safe(kernel));
    }
    case TransformKind::kUnrollJam: {
      if (t.level < 0 || t.level >= kernel.depth() || t.amount < 2) return false;
      if (kernel.loop(t.level).trip_count() % t.amount != 0) return false;
      // Every access to a *written* array must be invariant in the unrolled
      // level: offset copies of such accesses would otherwise materialize
      // distinct, aliasing subscript patterns on one array, which the
      // group-based register model (one window per syntactic pattern, no
      // cross-group coherence) cannot represent — a held copy in one group
      // would go stale when another group writes the same element. Offset
      // copies of *read-only* arrays are exactly the forward-wire reuse the
      // transform exists to expose, and are harmless.
      std::vector<bool> written(kernel.arrays().size(), false);
      for (const Stmt& stmt : kernel.body()) {
        written[static_cast<std::size_t>(stmt.lhs.array_id)] = true;
      }
      const auto variant_in_level = [&](const ArrayAccess& access) {
        if (!written[static_cast<std::size_t>(access.array_id)]) return false;
        for (const AffineExpr& sub : access.subscripts) {
          if (!sub.invariant_in(t.level)) return true;
        }
        return false;
      };
      for (const Stmt& stmt : kernel.body()) {
        if (variant_in_level(stmt.lhs)) return false;
        bool bad = false;
        stmt.rhs->for_each_ref([&](const ArrayAccess& access) {
          if (variant_in_level(access)) bad = true;
        });
        if (bad) return false;
      }
      // Innermost unroll-and-jam concatenates adjacent iterations in source
      // order — always safe; outer levels interleave iterations of the
      // nested loops and need the dependence condition.
      return t.level == kernel.depth() - 1 || reorder_is_safe(kernel);
    }
  }
  fail("unknown TransformKind");
}

bool is_safe(const Kernel& kernel, srra::span<const LoopTransform> transforms) {
  return apply_if_safe(kernel, transforms).has_value();
}

std::string to_string(const LoopTransform& t) {
  std::vector<std::string> args;
  if (t.kind == TransformKind::kInterchange) {
    args.reserve(t.perm.size());
    for (const int level : t.perm) args.push_back(std::to_string(level));
  } else {
    args.push_back(std::to_string(t.level));
    args.push_back(std::to_string(t.amount));
  }
  return cat(kind_tag(t.kind), "(", join(args, ","), ")");
}

std::string to_string(srra::span<const LoopTransform> transforms) {
  std::vector<std::string> parts;
  parts.reserve(transforms.size());
  for (const LoopTransform& t : transforms) parts.push_back(to_string(t));
  return join(parts, ";");
}

std::vector<LoopTransform> parse_transforms(const std::string& text) {
  std::vector<LoopTransform> out;
  if (trim(text).empty()) return out;
  for (const std::string& token : split(text, ';')) {
    const std::string_view item = trim(token);
    check(!item.empty(), [&] { return cat("bad transform spec '", text, "': empty transform"); });
    const std::size_t open = item.find('(');
    check(open != std::string_view::npos && item.back() == ')', [&] {
      return cat("bad transform spec '", text, "': want tag(args) in '", item, "'");
    });
    const std::string_view tag = trim(item.substr(0, open));
    const std::string args_text(item.substr(open + 1, item.size() - open - 2));
    std::vector<std::int64_t> args;
    for (const std::string& arg : split(args_text, ',')) {
      args.push_back(parse_arg(arg, text));
    }
    if (tag == "i") {
      check(args.size() >= 2, [&] {
        return cat("bad transform spec '", text, "': i(...) needs at least two levels");
      });
      std::vector<int> perm;
      perm.reserve(args.size());
      for (const std::int64_t level : args) perm.push_back(static_cast<int>(level));
      out.push_back(LoopTransform::interchange(std::move(perm)));
    } else if (tag == "t" || tag == "uj") {
      check(args.size() == 2, [&] {
        return cat("bad transform spec '", text, "': ", tag, "(...) takes (level, ",
                   tag == "t" ? "size" : "factor", ")");
      });
      out.push_back(tag == "t"
                        ? LoopTransform::tile(static_cast<int>(args[0]), args[1])
                        : LoopTransform::unroll_jam(static_cast<int>(args[0]), args[1]));
    } else {
      fail(cat("bad transform spec '", text, "': unknown transform '", tag,
               "' (want i, t or uj)"));
    }
  }
  return out;
}

bool reorder_is_safe(const Kernel& kernel) {
  // Sufficient condition for every reordering our transform class performs.
  // Interchange, full tiling and unroll-and-jam all keep each loop counting
  // upward, so they preserve the relative order of any two iterations that
  // are componentwise comparable; only *incomparable* colliding iterations
  // can observe a reorder. Per written subscript pattern W we therefore
  // require:
  //
  //  1. no access to W's array under a different pattern (a loop-carried
  //     flow we do not model), and no second write pattern on the array;
  //  2. W injective over its non-free levels (mixed-radix digit condition
  //     on the linearized element index) — collisions then form a full box
  //     over the free levels (levels W does not depend on), whose
  //     componentwise-max corner is the last writer under every transform;
  //  3. when free levels exist (the element is touched by many iterations):
  //     a self-reading writer must be a commutative accumulator update
  //     `x = x + e` with no other reader (partial sums are order-sensitive),
  //     a non-self-reading writer admits readers only in *later* statements
  //     (same-iteration forwarding, which every reorder preserves), and
  //     multiple writer statements admit no readers at all.
  const std::vector<Stmt>& body = kernel.body();
  const int depth = kernel.depth();

  for (const Stmt& stmt : body) {
    for (const Stmt& other : body) {
      bool bad = false;
      other.rhs->for_each_ref([&](const ArrayAccess& access) {
        if (access.array_id == stmt.lhs.array_id && !(access == stmt.lhs)) bad = true;
      });
      if (bad) return false;
      if (&other != &stmt && other.lhs.array_id == stmt.lhs.array_id &&
          !(other.lhs == stmt.lhs)) {
        return false;  // two distinct write patterns on one array
      }
    }
  }

  for (std::size_t s = 0; s < body.size(); ++s) {
    const ArrayAccess& w = body[s].lhs;
    bool first = true;
    for (std::size_t t = 0; t < s && first; ++t) first = !(body[t].lhs == w);
    if (!first) continue;  // pattern group already analyzed

    // Linearized element index as a function of the normalized iteration
    // counters (loop steps folded into the coefficients).
    const ArrayDecl& decl = kernel.array(w.array_id);
    std::vector<std::int64_t> coeffs(static_cast<std::size_t>(depth), 0);
    std::int64_t stride = 1;
    for (int d = decl.rank() - 1; d >= 0; --d) {
      const AffineExpr& sub = w.subscripts[static_cast<std::size_t>(d)];
      for (int l = 0; l < depth; ++l) {
        coeffs[static_cast<std::size_t>(l)] += stride * sub.coeff(l) * kernel.loop(l).step;
      }
      stride *= decl.dims[static_cast<std::size_t>(d)];
    }

    // Digit condition over the varying non-free levels: sorted by
    // magnitude, every coefficient must exceed the total span of the
    // smaller ones, making the element index injective in those counters.
    std::vector<std::pair<std::int64_t, std::int64_t>> varying;  // (|coeff|, range)
    bool has_free = false;
    for (int l = 0; l < depth; ++l) {
      const std::int64_t range = kernel.loop(l).trip_count() - 1;
      if (range == 0) continue;  // single-trip level: no collisions along it
      const std::int64_t c = coeffs[static_cast<std::size_t>(l)];
      if (c == 0) {
        has_free = true;
      } else {
        varying.push_back({c < 0 ? -c : c, range});
      }
    }
    std::sort(varying.begin(), varying.end());
    std::int64_t span = 0;
    for (const auto& [magnitude, range] : varying) {
      if (magnitude <= span) return false;  // possible incomparable collision
      span += magnitude * range;
    }
    if (!has_free) continue;  // fully injective: one toucher per element

    std::vector<std::size_t> writers;
    for (std::size_t t = 0; t < body.size(); ++t) {
      if (body[t].lhs == w) writers.push_back(t);
    }
    const auto reads_pattern = [&](std::size_t t) {
      bool reads = false;
      body[t].rhs->for_each_ref([&](const ArrayAccess& access) {
        if (access == w) reads = true;
      });
      return reads;
    };
    if (writers.size() == 1) {
      const std::size_t writer = writers.front();
      if (reads_pattern(writer)) {
        if (!is_accumulator_update(w, *body[writer].rhs)) return false;
        for (std::size_t t = 0; t < body.size(); ++t) {
          if (t != writer && reads_pattern(t)) return false;
        }
      } else {
        for (std::size_t t = 0; t < writer; ++t) {
          if (reads_pattern(t)) return false;  // read-before-write chain
        }
      }
    } else {
      for (std::size_t t = 0; t < body.size(); ++t) {
        if (reads_pattern(t)) return false;
      }
    }
  }
  return true;
}

}  // namespace srra
