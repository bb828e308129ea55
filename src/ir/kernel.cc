#include "ir/kernel.h"

#include <set>

#include "support/error.h"
#include "support/str.h"

namespace srra {

Kernel Kernel::clone() const {
  Kernel out(name_);
  out.arrays_ = arrays_;
  out.loops_ = loops_;
  out.body_.reserve(body_.size());
  for (const Stmt& s : body_) out.body_.push_back(s.clone());
  return out;
}

int Kernel::add_array(ArrayDecl decl) {
  check(!decl.name.empty(), "array needs a name");
  check(!find_array(decl.name).has_value(), [&] {
    return cat("duplicate array name: ", decl.name);
  });
  for (std::int64_t d : decl.dims) check(d > 0, "array dimensions must be positive");
  arrays_.push_back(std::move(decl));
  return static_cast<int>(arrays_.size()) - 1;
}

const ArrayDecl& Kernel::array(int id) const {
  check(id >= 0 && id < static_cast<int>(arrays_.size()), "array id out of range");
  return arrays_[static_cast<std::size_t>(id)];
}

std::optional<int> Kernel::find_array(const std::string& name) const {
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (arrays_[i].name == name) return static_cast<int>(i);
  }
  return std::nullopt;
}

int Kernel::add_loop(Loop loop) {
  check(!loop.var.empty(), "loop needs a variable name");
  for (const Loop& existing : loops_) {
    check(existing.var != loop.var, [&] { return cat("duplicate loop variable: ", loop.var); });
  }
  check(loop.step > 0, "loop step must be positive");
  loops_.push_back(std::move(loop));
  return static_cast<int>(loops_.size()) - 1;
}

const Loop& Kernel::loop(int level) const {
  check(level >= 0 && level < depth(), "loop level out of range");
  return loops_[static_cast<std::size_t>(level)];
}

void Kernel::add_stmt(Stmt stmt) {
  check(stmt.rhs != nullptr, "statement needs a right-hand side");
  body_.push_back(std::move(stmt));
}

std::vector<std::int64_t> Kernel::trip_counts() const {
  std::vector<std::int64_t> trips;
  trips.reserve(loops_.size());
  for (const Loop& l : loops_) trips.push_back(l.trip_count());
  return trips;
}

std::int64_t Kernel::iteration_count() const {
  std::int64_t total = 1;
  for (const Loop& l : loops_) total *= l.trip_count();
  return total;
}

std::vector<std::string> Kernel::loop_names() const {
  std::vector<std::string> names;
  names.reserve(loops_.size());
  for (const Loop& l : loops_) names.push_back(l.var);
  return names;
}

namespace {

void validate_access(const Kernel& kernel, const ArrayAccess& access) {
  const ArrayDecl& decl = kernel.array(access.array_id);
  check(static_cast<int>(access.subscripts.size()) == decl.rank(), [&] {
    return cat("subscript count mismatch for array ", decl.name);
  });
  for (const AffineExpr& sub : access.subscripts) {
    check(sub.depth() == kernel.depth(), [&] {
      return cat("subscript depth mismatch for array ", decl.name);
    });
  }
}

void validate_expr(const Kernel& kernel, const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kConst:
      return;
    case ExprKind::kLoopVar:
      check(expr.loop_level() < kernel.depth(), "loop variable level out of range");
      return;
    case ExprKind::kRef:
      validate_access(kernel, expr.access());
      return;
    case ExprKind::kBinOp:
      validate_expr(kernel, expr.lhs());
      validate_expr(kernel, expr.rhs());
      return;
    case ExprKind::kUnOp:
      validate_expr(kernel, expr.operand());
      return;
  }
}

}  // namespace

namespace {

// FNV-1a-style mixing; the odd multiplier plus xor-shift keeps short integer
// sequences from colliding on their sums.
void hash_mix(std::uint64_t& h, std::uint64_t value) {
  h ^= value + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0x100000001B3ull;
}

void hash_affine(std::uint64_t& h, const AffineExpr& e) {
  hash_mix(h, 0xA11);
  for (int l = 0; l < e.depth(); ++l) hash_mix(h, static_cast<std::uint64_t>(e.coeff(l)));
  hash_mix(h, static_cast<std::uint64_t>(e.constant_term()));
}

void hash_access(std::uint64_t& h, const ArrayAccess& access) {
  hash_mix(h, 0xACC);
  hash_mix(h, static_cast<std::uint64_t>(access.array_id));
  for (const AffineExpr& sub : access.subscripts) hash_affine(h, sub);
}

void hash_expr(std::uint64_t& h, const Expr& e) {
  hash_mix(h, static_cast<std::uint64_t>(e.kind()));
  switch (e.kind()) {
    case ExprKind::kConst:
      hash_mix(h, static_cast<std::uint64_t>(e.const_value()));
      return;
    case ExprKind::kLoopVar:
      hash_mix(h, static_cast<std::uint64_t>(e.loop_level()));
      return;
    case ExprKind::kRef:
      hash_access(h, e.access());
      return;
    case ExprKind::kBinOp:
      hash_mix(h, static_cast<std::uint64_t>(e.bin_op()));
      hash_expr(h, e.lhs());
      hash_expr(h, e.rhs());
      return;
    case ExprKind::kUnOp:
      hash_mix(h, static_cast<std::uint64_t>(e.un_op()));
      hash_expr(h, e.operand());
      return;
  }
}

}  // namespace

std::uint64_t structural_hash(const Kernel& kernel) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  hash_mix(h, static_cast<std::uint64_t>(kernel.depth()));
  for (const Loop& loop : kernel.loops()) {
    hash_mix(h, static_cast<std::uint64_t>(loop.lower));
    hash_mix(h, static_cast<std::uint64_t>(loop.upper));
    hash_mix(h, static_cast<std::uint64_t>(loop.step));
  }
  hash_mix(h, static_cast<std::uint64_t>(kernel.arrays().size()));
  for (const ArrayDecl& array : kernel.arrays()) {
    hash_mix(h, static_cast<std::uint64_t>(array.type));
    for (const std::int64_t dim : array.dims) hash_mix(h, static_cast<std::uint64_t>(dim));
  }
  hash_mix(h, static_cast<std::uint64_t>(kernel.body().size()));
  for (const Stmt& stmt : kernel.body()) {
    hash_access(h, stmt.lhs);
    hash_expr(h, *stmt.rhs);
  }
  return h;
}

void Kernel::validate() const {
  check(!loops_.empty(), "kernel needs at least one loop");
  check(!body_.empty(), "kernel needs at least one statement");
  for (const Loop& l : loops_) {
    check(l.trip_count() > 0, [&] { return cat("loop ", l.var, " has zero trip count"); });
  }
  for (const Stmt& s : body_) {
    validate_access(*this, s.lhs);
    validate_expr(*this, *s.rhs);
  }
}

}  // namespace srra
