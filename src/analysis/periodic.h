// The nested collapse (DESIGN.md §8): one engine that walks a loop nest's
// window trackers and skips every run of iterations whose charges a walked
// value already fixes. The access counters walk one tracker through it; the
// cycle model's overlap and list-schedule walks walk several.
//
// The top holding level is the outermost carrying level of any walked
// tracker. Above it, every instance of the loops below repeats the same
// events — element indices are affine, so the outer values only add a
// constant — and one instance is walked and scaled. From that level down,
// each loop level's values are walked in order under three rules:
//
//  1. Inert tail. Before value k, if every tracker is inert for values
//     k..last (WindowTracker::next_inert_value), walk value k, scale its
//     charges by the number of values left, and stop.
//  2. Repeat under translation. Otherwise, if the level has more than three
//     values and no tracker that is not inert moves mid-carry at it,
//     compare the joint normalized state after consecutive values. On a
//     repeat, the middle values replay the last walked value's charges
//     translated: scale them, translate the trackers, and walk the last
//     value for its back-peeled flushes.
//  3. Otherwise walk every value.
//
// Each rule is tried only on levels where it can pay for its check
// (CollapseLevels::Level).
//
// The result is bit-identical to the full iteration-space walks
// (count_group_accesses_full, CycleOptions::full_iteration_walk), which
// test_periodic cross-checks.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/walker.h"
#include "support/span.h"

namespace srra {

/// Access counters of `group` under `strategy`, from one tracker walked
/// through the nested collapse. Bit-identical to count_group_accesses_full.
GroupCounts count_group_accesses_collapsed(const Kernel& kernel, const RefGroup& group,
                                           RefStrategy strategy);

/// The nested collapse's decisions for a set of trackers, independent of
/// what a walk charges: the per-level tables, the rule 1 and rule 2 tests,
/// the joint state and the fast-forward. collapse_walk drives it.
class CollapseLevels {
 public:
  CollapseLevels(const Kernel& kernel, srra::span<WindowTracker> trackers);

  /// A loop runs zero times: the walk falls back to the plain full walk.
  bool degenerate() const { return degenerate_; }
  /// The top holding level (the nest depth when no tracker holds).
  int top() const { return top_; }
  /// Instances of the loops from top() down: the trip product above it.
  std::int64_t instances() const { return instances_; }
  std::int64_t trip(int level) const { return levels_[static_cast<std::size_t>(level)].trip; }
  /// The value of loop `level` at normalized index k.
  std::int64_t value_at(int level, std::int64_t k) const {
    const Level& l = levels_[static_cast<std::size_t>(level)];
    return l.lower + k * l.step;
  }
  /// Neither rule is tried at `level`: its values are walked plainly.
  bool flat(int level) const {
    const Level& l = levels_[static_cast<std::size_t>(level)];
    return !l.try_tail && !l.try_repeat;
  }

  /// Starts a run over the values of `level` (the loops above fixed).
  void begin_values(int level) {
    levels_[static_cast<std::size_t>(level)].recheck_at = 0;
    for (std::size_t t = 0; t < trackers_.size(); ++t) role(level, t).ask_at = 0;
  }
  /// Rule 1 before value k of the run: every tracker is inert for values
  /// k..last.
  bool inert_tail(int level, std::int64_t k, srra::span<const std::int64_t> iteration) {
    Level& l = levels_[static_cast<std::size_t>(level)];
    if (k >= l.recheck_at) recheck(level, k, iteration);
    return l.tail_at == k;
  }
  /// Rule 2's gate before value k, asked after inert_tail(level, k): the
  /// level has more than three values and every tracker that moves
  /// mid-carry at it is inert from k on.
  bool may_repeat(int level, std::int64_t k) const {
    return k >= levels_[static_cast<std::size_t>(level)].repeat_from;
  }
  /// Appends the joint state after value k of `level`, normalized by k
  /// steps: a tracker at its own carrying level contributes its resident
  /// snapshot, every other holding tracker its full state signature.
  /// Trackers below their carrying level do not move here (or are inert,
  /// hence frozen) and are normalized by no shift.
  void append_state(int level, std::int64_t k, std::vector<std::int64_t>& out) const;
  /// Translates the trackers by `values` steps of `level` (frozen ones
  /// stay put).
  void fast_forward(int level, std::int64_t values);

 private:
  static constexpr std::int64_t kNever = INT64_MAX;
  static constexpr std::int64_t kInert = -1;
  // Rule 1 saves fewer iterations than a run of the level spans, and its
  // check costs about one iteration per run: it is not tried on levels
  // whose runs are shorter than this.
  static constexpr std::int64_t kMinTailRun = 16;

  struct Level {
    std::int64_t lower = 0;
    std::int64_t step = 1;
    std::int64_t trip = 0;
    /// Rule 1 is tried: every holding tracker carries above, and a run of
    /// the level spans at least kMinTailRun iterations.
    bool try_tail = false;
    /// Rule 2 is tried: more than three values, and some holding tracker
    /// is not a mover (one carries here or above, or does not move). With
    /// movers alone it could only fire once all are frozen: rule 1's case.
    bool try_repeat = false;
    // This run of values. Rule 1 fires at tail_at, rule 2's gate passes
    // from repeat_from on, and neither can change before recheck_at.
    std::int64_t recheck_at = 0;
    std::int64_t tail_at = kNever;
    std::int64_t repeat_from = kNever;
  };
  // One tracker at one level.
  struct Role {
    std::int64_t shift = 0;  ///< normalization and fast-forward shift per value
    bool mover = false;      ///< moves mid-carry: gates rule 2 until inert
    /// This run: the value at which to ask the tracker again whether it is
    /// inert (kInert: it is, for the rest of the run).
    std::int64_t ask_at = 0;
  };

  Role& role(int level, std::size_t t) {
    return roles_[static_cast<std::size_t>(level) * trackers_.size() + t];
  }
  const Role& role(int level, std::size_t t) const {
    return roles_[static_cast<std::size_t>(level) * trackers_.size() + t];
  }
  // Asks the trackers whose answers may have changed by value k and sets
  // the run's tail_at, repeat_from and recheck_at.
  void recheck(int level, std::int64_t k, srra::span<const std::int64_t> iteration);

  srra::span<WindowTracker> trackers_;
  bool degenerate_ = false;
  int top_ = 0;
  std::int64_t instances_ = 1;
  std::vector<Level> levels_;
  std::vector<Role> roles_;  ///< per (level, tracker)
};

/// Walks `trackers` over `kernel` through the nested collapse.
/// `step(iteration)` runs one iteration of the nest through every tracker
/// and adds its charges to `totals`; `finish()` emits the trailing flushes.
/// Totals provides `operator-` and `add_scaled(delta, factor)`. Returns the
/// whole nest's totals.
template <typename Totals, typename Step, typename Finish>
Totals collapse_walk(const Kernel& kernel, srra::span<WindowTracker> trackers, Totals& totals,
                     Step&& step, Finish&& finish) {
  CollapseLevels levels(kernel, trackers);
  std::vector<std::int64_t> iter = first_iteration(kernel);
  if (levels.degenerate()) {
    do {
      step(iter);
    } while (next_iteration(kernel, iter));
    finish();
    return totals;
  }

  // Per level: the state after the previous value and after this one.
  std::vector<std::vector<std::int64_t>> states(2 * static_cast<std::size_t>(kernel.depth()));
  const int depth = kernel.depth();
  const auto walk = [&](const auto& self, int level) -> void {
    const std::int64_t trip = levels.trip(level);
    std::int64_t& value = iter[static_cast<std::size_t>(level)];
    const auto walk_value = [&] {
      if (level + 1 == depth) {
        step(iter);
      } else {
        self(self, level + 1);
      }
    };
    if (levels.flat(level)) {
      for (std::int64_t k = 0; k < trip; ++k) {
        value = levels.value_at(level, k);
        walk_value();
      }
      return;
    }
    levels.begin_values(level);
    std::vector<std::int64_t>& prev = states[2 * static_cast<std::size_t>(level)];
    std::vector<std::int64_t>& state = states[2 * static_cast<std::size_t>(level) + 1];
    bool have_prev = false;
    for (std::int64_t k = 0; k < trip; ++k) {
      value = levels.value_at(level, k);
      if (levels.inert_tail(level, k, iter)) {
        const Totals before = totals;
        walk_value();
        totals.add_scaled(totals - before, trip - 1 - k);
        return;
      }
      if (!levels.may_repeat(level, k)) {
        walk_value();
        have_prev = false;
        continue;
      }
      const Totals before = totals;
      walk_value();
      if (k == trip - 1) break;
      state.clear();
      levels.append_state(level, k, state);
      if (have_prev && state == prev) {
        // Values k+1..trip-2 replay value k; the last is walked next.
        const std::int64_t skipped = trip - 2 - k;
        totals.add_scaled(totals - before, skipped);
        levels.fast_forward(level, skipped);
        k = trip - 2;
        have_prev = false;
        continue;
      }
      prev.swap(state);
      have_prev = true;
    }
  };
  if (levels.top() == depth) {
    step(iter);
  } else {
    walk(walk, levels.top());
  }
  finish();
  Totals scaled{};
  scaled.add_scaled(totals, levels.instances());
  return scaled;
}

}  // namespace srra
