// RefModel: one-stop analysis facade for a kernel. Owns the reference
// groups, their reuse summaries, and cached access counts; provides the
// benefit/cost metric the greedy allocators sort by (paper §4):
//
//   B/C(ref) = saved(ref) / beta_full(ref)
//   saved(ref) = accesses(ref, no holding) - accesses(ref, beta_full),
//
// counted in "total" mode (window fill/flush traffic included), which makes
// a reference with no exploitable reuse worth exactly 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "analysis/curve.h"
#include "analysis/refs.h"
#include "analysis/reuse.h"
#include "analysis/walker.h"
#include "ir/kernel.h"
#include "support/memo.h"
#include "support/span.h"

namespace srra {

/// Counting mode for access totals.
enum class CountMode {
  kSteady,  ///< peeled fill/flush traffic excluded (execution accounting)
  kTotal,   ///< everything (benefit metric)
};

/// Analysis facade owning one kernel. All cached queries (accesses, counts,
/// strategy, the cycle-model memo) are thread-safe, so one RefModel can be
/// shared by every evaluation lane of a design-space sweep (dse/explore.h):
/// cache hits take a shared lock, misses compute outside any lock and
/// publish under an exclusive one — values are deterministic functions of
/// the key, so racing writers agree. Queries covered by a published
/// AccessCurve (access_curve()) bypass the memo locks entirely.
class RefModel {
 public:
  explicit RefModel(Kernel kernel, ModelOptions options = {});

  const Kernel& kernel() const { return kernel_; }
  const std::vector<RefGroup>& groups() const { return groups_; }
  const std::vector<ReuseInfo>& reuse() const { return reuse_; }
  const ModelOptions& options() const { return options_; }
  int group_count() const { return static_cast<int>(groups_.size()); }

  /// Registers for full scalar replacement of group `g`.
  std::int64_t beta_full(int g) const;

  /// RAM accesses of group `g` when it owns `regs` registers (cached).
  std::int64_t accesses(int g, std::int64_t regs, CountMode mode) const;

  /// Full counter detail of the strategy strategy() picks (cached).
  const GroupCounts& counts(int g, std::int64_t regs) const;

  /// The strategy select_strategy picks for group `g` at `regs` registers
  /// (cached; the empirical selection evaluates every candidate window).
  /// counts(), strategy() and strategies() read one memo of whole
  /// selections, so whichever asks first pays the selection for all three.
  RefStrategy strategy(int g, std::int64_t regs) const;

  /// Batched strategy lookup for one whole allocation (regs[g] registers
  /// for group g): one shared-lock pass gathers the cache hits, the misses
  /// are computed outside any lock and published under a single exclusive
  /// lock — instead of one lock round-trip per group (sched/cycle_model.cc
  /// builds its memo key this way).
  std::vector<RefStrategy> strategies(srra::span<const std::int64_t> regs) const;

  /// The dense access-curve table covering register counts up to at least
  /// `max_regs`, built on first call (or grown if a smaller table was
  /// published earlier) and read lock-free afterwards. Slices every
  /// accesses()/counts()/strategy() query it covers without touching the
  /// memo locks; the returned reference stays valid for the model's
  /// lifetime.
  const AccessCurve& access_curve(std::int64_t max_regs) const;

  /// Accesses eliminated by full scalar replacement (total mode).
  std::int64_t saved(int g) const;

  /// Benefit/cost ratio used by the greedy allocators.
  double bc_ratio(int g) const;

  /// Group ids sorted by descending B/C, ties broken by first occurrence
  /// order in the body (the paper's sorted reference list).
  std::vector<int> sorted_by_benefit() const;

  /// Memo table for the cycle model (sched/cycle_model.cc): one report per
  /// (per-group strategy vector, CycleOptions knobs). Lives here so a
  /// budget sweep sharing this model reuses reports across saturated
  /// budgets and across evaluation lanes.
  MemoTable& cycle_memo() const { return cycle_memo_; }

 private:
  /// The published curve if it covers (g, regs), else nullptr. Lock-free:
  /// one acquire load; the curve itself is immutable.
  const AccessCurve* covering_curve(int g, std::int64_t regs) const {
    const AccessCurve* curve = curve_.load(std::memory_order_acquire);
    return curve != nullptr && curve->covers(g, regs) ? curve : nullptr;
  }

  /// The memoized selection for (g, regs), computed on a miss.
  const StrategyChoice& choice(int g, std::int64_t regs) const;

  Kernel kernel_;
  ModelOptions options_;
  std::vector<RefGroup> groups_;
  std::vector<ReuseInfo> reuse_;
  mutable std::shared_mutex mu_;
  mutable std::map<std::pair<int, std::int64_t>, StrategyChoice> choices_;
  mutable MemoTable cycle_memo_;
  // Access-curve publication: built under curve_mu_, then published through
  // the atomic for lock-free readers. Superseded (smaller) tables are kept
  // in curves_ so outstanding references never dangle.
  mutable std::mutex curve_mu_;
  mutable std::vector<std::unique_ptr<AccessCurve>> curves_;
  mutable std::atomic<const AccessCurve*> curve_{nullptr};
};

}  // namespace srra
