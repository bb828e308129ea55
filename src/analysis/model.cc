#include "analysis/model.h"

#include <algorithm>

#include "support/error.h"

namespace srra {

RefModel::RefModel(Kernel kernel, ModelOptions options)
    : kernel_(std::move(kernel)), options_(options) {
  kernel_.validate();
  groups_ = collect_ref_groups(kernel_);
  reuse_ = analyze_all_reuse(kernel_, groups_);
}

std::int64_t RefModel::beta_full(int g) const {
  check(g >= 0 && g < group_count(), "group id out of range");
  return reuse_[static_cast<std::size_t>(g)].beta_full();
}

const StrategyChoice& RefModel::choice(int g, std::int64_t regs) const {
  const auto key = std::make_pair(g, regs);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = choices_.find(key);
    if (it != choices_.end()) return it->second;
  }
  StrategyChoice computed = select_strategy_counted(
      kernel_, groups_[static_cast<std::size_t>(g)], reuse_[static_cast<std::size_t>(g)],
      regs, options_);
  // std::map nodes are stable, so the reference survives later insertions;
  // a racing thread computed the same value and emplace keeps the first.
  std::unique_lock<std::shared_mutex> lock(mu_);
  return choices_.emplace(key, std::move(computed)).first->second;
}

const GroupCounts& RefModel::counts(int g, std::int64_t regs) const {
  check(g >= 0 && g < group_count(), "group id out of range");
  if (const AccessCurve* curve = covering_curve(g, regs)) return curve->counts(g, regs);
  return choice(g, regs).counts;
}

RefStrategy RefModel::strategy(int g, std::int64_t regs) const {
  check(g >= 0 && g < group_count(), "group id out of range");
  if (const AccessCurve* curve = covering_curve(g, regs)) return curve->strategy(g, regs);
  return choice(g, regs).strategy;
}

std::vector<RefStrategy> RefModel::strategies(srra::span<const std::int64_t> regs) const {
  check(static_cast<int>(regs.size()) == group_count(),
        "strategies() needs one register count per group");
  std::vector<RefStrategy> out(regs.size());
  std::vector<int> missing;

  // Lock-free curve slice first, then one shared-lock pass for the rest.
  const AccessCurve* curve = curve_.load(std::memory_order_acquire);
  std::vector<bool> resolved(regs.size(), false);
  for (std::size_t g = 0; g < regs.size(); ++g) {
    if (curve != nullptr && curve->covers(static_cast<int>(g), regs[g])) {
      out[g] = curve->strategy(static_cast<int>(g), regs[g]);
      resolved[g] = true;
    }
  }
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (std::size_t g = 0; g < regs.size(); ++g) {
      if (resolved[g]) continue;
      const auto it = choices_.find(std::make_pair(static_cast<int>(g), regs[g]));
      if (it != choices_.end()) {
        out[g] = it->second.strategy;
      } else {
        missing.push_back(static_cast<int>(g));
      }
    }
  }
  if (missing.empty()) return out;

  // Compute the misses outside any lock and publish the whole selections,
  // so a later counts() for the same point is a hit.
  std::vector<StrategyChoice> computed;
  computed.reserve(missing.size());
  for (const int g : missing) {
    computed.push_back(select_strategy_counted(
        kernel_, groups_[static_cast<std::size_t>(g)],
        reuse_[static_cast<std::size_t>(g)], regs[static_cast<std::size_t>(g)], options_));
    out[static_cast<std::size_t>(g)] = computed.back().strategy;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    choices_.emplace(std::make_pair(missing[i], regs[static_cast<std::size_t>(missing[i])]),
                     std::move(computed[i]));
  }
  return out;
}

const AccessCurve& RefModel::access_curve(std::int64_t max_regs) const {
  // A saturated table answers any register count by clamping, so growing
  // it would only rebuild an identical table.
  const AccessCurve* curve = curve_.load(std::memory_order_acquire);
  if (curve != nullptr && (curve->max_regs() >= max_regs || curve->saturated())) {
    return *curve;
  }
  std::lock_guard<std::mutex> lock(curve_mu_);
  curve = curve_.load(std::memory_order_relaxed);
  if (curve != nullptr && (curve->max_regs() >= max_regs || curve->saturated())) {
    return *curve;
  }
  curves_.push_back(
      std::make_unique<AccessCurve>(kernel_, groups_, reuse_, max_regs, options_));
  curve_.store(curves_.back().get(), std::memory_order_release);
  return *curves_.back();
}

std::int64_t RefModel::accesses(int g, std::int64_t regs, CountMode mode) const {
  check(g >= 0 && g < group_count(), "group id out of range");
  if (const AccessCurve* curve = covering_curve(g, regs)) {
    return mode == CountMode::kSteady ? curve->steady(g, regs) : curve->total(g, regs);
  }
  const GroupCounts& c = counts(g, regs);
  return mode == CountMode::kSteady ? c.steady_total() : c.total();
}

std::int64_t RefModel::saved(int g) const {
  const std::int64_t base = accesses(g, 0, CountMode::kTotal);
  const std::int64_t full = accesses(g, beta_full(g), CountMode::kTotal);
  return base - full;
}

double RefModel::bc_ratio(int g) const {
  const std::int64_t b = beta_full(g);
  if (b <= 0) return 0.0;
  return static_cast<double>(saved(g)) / static_cast<double>(b);
}

std::vector<int> RefModel::sorted_by_benefit() const {
  std::vector<int> order(groups_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra = bc_ratio(a);
    const double rb = bc_ratio(b);
    if (ra != rb) return ra > rb;
    return groups_[static_cast<std::size_t>(a)].first_order <
           groups_[static_cast<std::size_t>(b)].first_order;
  });
  return order;
}

}  // namespace srra
