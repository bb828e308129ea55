#include "ir/builder.h"

#include "support/error.h"
#include "support/str.h"

namespace srra {

KernelBuilder& KernelBuilder::array(const std::string& name, std::vector<std::int64_t> dims,
                                    ScalarType type) {
  kernel_.add_array(ArrayDecl{name, std::move(dims), type});
  return *this;
}

KernelBuilder& KernelBuilder::loop(const std::string& var, std::int64_t lower,
                                   std::int64_t upper, std::int64_t step) {
  check(!frozen_, "all loops must be declared before building expressions");
  kernel_.add_loop(Loop{var, lower, upper, step});
  return *this;
}

AffineExpr KernelBuilder::var(const std::string& name) {
  frozen_ = true;
  for (int level = 0; level < kernel_.depth(); ++level) {
    if (kernel_.loop(level).var == name) {
      return AffineExpr::loop_var(kernel_.depth(), level);
    }
  }
  fail(cat("unknown loop variable: ", name));
}

AffineExpr KernelBuilder::lit(std::int64_t value) {
  frozen_ = true;
  return AffineExpr::constant(kernel_.depth(), value);
}

ArrayAccess KernelBuilder::make_access(const std::string& array,
                                       std::vector<AffineExpr> subscripts) {
  const auto id = kernel_.find_array(array);
  check(id.has_value(), [&] { return cat("unknown array: ", array); });
  return ArrayAccess{*id, std::move(subscripts)};
}

ExprPtr KernelBuilder::loop_expr(const std::string& name) {
  frozen_ = true;
  for (int level = 0; level < kernel_.depth(); ++level) {
    if (kernel_.loop(level).var == name) return Expr::make_loop_var(level);
  }
  fail(cat("unknown loop variable: ", name));
}

ExprPtr KernelBuilder::ref(const std::string& array, std::vector<AffineExpr> subscripts) {
  frozen_ = true;
  return Expr::make_ref(make_access(array, std::move(subscripts)));
}

KernelBuilder& KernelBuilder::assign(const std::string& array,
                                     std::vector<AffineExpr> subscripts, ExprPtr rhs) {
  frozen_ = true;
  kernel_.add_stmt(Stmt(make_access(array, std::move(subscripts)), std::move(rhs)));
  return *this;
}

Kernel KernelBuilder::build() {
  kernel_.validate();
  Kernel out = std::move(kernel_);
  kernel_ = Kernel();
  frozen_ = false;
  return out;
}

ExprPtr add(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kAdd, std::move(a), std::move(b)); }
ExprPtr sub(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kSub, std::move(a), std::move(b)); }
ExprPtr mul(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kMul, std::move(a), std::move(b)); }
ExprPtr div_op(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kDiv, std::move(a), std::move(b)); }
ExprPtr band(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kAnd, std::move(a), std::move(b)); }
ExprPtr bor(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kOr, std::move(a), std::move(b)); }
ExprPtr bxor(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kXor, std::move(a), std::move(b)); }
ExprPtr shl(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kShl, std::move(a), std::move(b)); }
ExprPtr shr(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kShr, std::move(a), std::move(b)); }
ExprPtr eq(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kEq, std::move(a), std::move(b)); }
ExprPtr ne(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kNe, std::move(a), std::move(b)); }
ExprPtr lt(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kLt, std::move(a), std::move(b)); }
ExprPtr le(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kLe, std::move(a), std::move(b)); }
ExprPtr min_op(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kMin, std::move(a), std::move(b)); }
ExprPtr max_op(ExprPtr a, ExprPtr b) { return Expr::make_bin(BinOpKind::kMax, std::move(a), std::move(b)); }
ExprPtr neg(ExprPtr a) { return Expr::make_un(UnOpKind::kNeg, std::move(a)); }
ExprPtr bnot(ExprPtr a) { return Expr::make_un(UnOpKind::kNot, std::move(a)); }
ExprPtr abs_op(ExprPtr a) { return Expr::make_un(UnOpKind::kAbs, std::move(a)); }

}  // namespace srra
