// The normative access model (DESIGN.md §6): a register-window policy shared
// by the access counters, the cycle model and the machine simulator, so all
// three agree by construction.
//
// A reference group with n registers picks a *strategy*:
//  * full exploitation at the outermost carrying level whose window fits in
//    n registers, or
//  * partial exploitation (hold the first n window elements by first-touch
//    rank) at the outermost carrying level, when n >= 2, or
//  * no holding (n < 2 and nothing fits; a single register is the operand
//    latch, it cannot also hold a live reuse value).
//
// The WindowTracker then classifies every access:
//  * kForward  - read of an element written earlier in the same iteration
//                (wired through the datapath, never a RAM access);
//  * kRegHit/kRegWrite - held element, register traffic only;
//  * kFill     - held element entering the register file (RAM read);
//                steady-state-excluded when it happens at the first value of
//                the carrying loop (it lives in pre-peeled code);
//  * kFlush    - dirty held element leaving the register file (RAM write);
//                steady-state-excluded at the last value of the carrying
//                loop (back-peeled code);
//  * kMissRead/kMissWrite - RAM access, always counted.
#pragma once

#include <cstdint>
#include <cstddef>
#include <type_traits>
#include "support/span.h"
#include <vector>

#include "analysis/refs.h"
#include "analysis/reuse.h"
#include "ir/kernel.h"

namespace srra {

/// Classification of one access under the window policy.
enum class AccessKind { kRegHit, kRegWrite, kFill, kMissRead, kMissWrite, kForward, kFlush };

/// True for kinds that touch RAM (fill/flush/miss).
bool is_ram_access(AccessKind kind);

/// One classified access (or boundary flush).
struct AccessEvent {
  AccessKind kind = AccessKind::kMissRead;
  int group = -1;
  std::int64_t element = 0;
  bool steady = true;   ///< counted under steady-state accounting
  int stmt = -1;        ///< statement index (-1 for boundary flushes)
  int order = -1;       ///< occurrence order within the iteration (-1: flush)
};

/// Non-owning event callback (a function_ref): one raw indirect call on the
/// per-access hot path, no std::function construction or type-erasure
/// management. It only *references* the callable — bind named lambdas,
/// function objects or members that outlive every use, never temporaries
/// that die before the walk (the lvalue-reference constructor enforces
/// this at the construction site).
class EventSink {
 public:
  EventSink() = default;
  EventSink(std::nullptr_t) {}  // NOLINT: nullptr means "no sink"
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventSink>>>
  EventSink(F& callable)  // NOLINT: intentionally implicit, function_ref-style
      : ctx_(const_cast<void*>(static_cast<const void*>(&callable))),
        fn_([](void* ctx, const AccessEvent& event) {
          (*static_cast<F*>(ctx))(event);
        }) {}

  explicit operator bool() const { return fn_ != nullptr; }
  void operator()(const AccessEvent& event) const { fn_(ctx_, event); }

 private:
  void* ctx_ = nullptr;
  void (*fn_)(void*, const AccessEvent&) = nullptr;
};

/// How a reference group uses its registers.
struct RefStrategy {
  int carry_level = -1;        ///< reuse-carrying loop level; -1 = no holding
  std::int64_t held_limit = 0; ///< how many window elements can be held

  bool holds() const { return carry_level >= 0 && held_limit > 0; }
};

/// Model switches (see DESIGN.md §6).
struct ModelOptions {
  /// Allow a single register to act as a holding register even when no
  /// carrying level fully fits (default off: it is the operand latch).
  bool single_register_holding = false;
  /// Count accesses with the full iteration-space walk instead of the
  /// periodic collapse (analysis/periodic.h). The two are bit-identical
  /// (cross-checked in test_periodic); the full walk is the reference
  /// oracle and is O(iteration space) rather than O(window).
  bool full_walk_oracle = false;
};

/// Heuristic strategy choice for `regs` registers: full exploitation at the
/// outermost carrying level that fits, else a partial window at the
/// outermost level. Exact for invariance reuse; sliding *write* windows can
/// do better at an inner level — use select_strategy for those.
RefStrategy choose_strategy(const ReuseInfo& info, std::int64_t regs,
                            const ModelOptions& options = {});

/// Empirical strategy selection: evaluates every candidate (no holding,
/// full at each fitting carrying level, partial at each non-fitting level)
/// with the window tracker and returns the one with the fewest steady-state
/// accesses (ties: fewest total accesses, then outermost level). This is
/// the selection the counters, cycle model, machine simulator and code
/// generators all use.
RefStrategy select_strategy(const Kernel& kernel, const RefGroup& group,
                            const ReuseInfo& info, std::int64_t regs,
                            const ModelOptions& options = {});

/// Stateful classifier for the accesses of one reference group, driven in
/// lexicographic iteration order.
class WindowTracker {
 public:
  WindowTracker(const Kernel& kernel, const RefGroup& group, RefStrategy strategy);

  /// Must be called once per iteration before any on_access of the
  /// iteration; emits eviction flushes for crossed window boundaries.
  void begin_iteration(srra::span<const std::int64_t> iteration, const EventSink& sink);

  /// Classifies one access of the group at the current iteration. May first
  /// emit a capacity-eviction kFlush through `sink`; the access's own event
  /// is both returned and sent to `sink`.
  AccessEvent on_access(srra::span<const std::int64_t> iteration, bool is_write, int stmt,
                        int order, const EventSink& sink);

  /// Emits trailing flushes after the last iteration.
  void finish(const EventSink& sink);

  const RefStrategy& strategy() const { return strategy_; }

  /// One resident element in a normalized state snapshot.
  struct HeldElement {
    std::int64_t element = 0;  ///< element index minus the caller's offset
    bool dirty = false;
    int touch_rank = 0;  ///< recency rank among residents (0 = oldest)

    bool operator==(const HeldElement& other) const {
      return element == other.element && dirty == other.dirty &&
             touch_rank == other.touch_rank;
    }
  };

  /// Normalized snapshot of the cross-carry-iteration state (the resident
  /// elements; touch ranks and other per-carry-iteration state reset at
  /// every carry boundary). Entries are sorted by element, each shifted by
  /// -`offset`. Two trackers whose snapshots agree behave identically over
  /// any continuation whose accesses are shifted by the same offset — the
  /// periodicity test analysis/periodic.h relies on. Only valid at the
  /// tracker's own carry boundaries, where the first-touch membership list
  /// has just reset; mid-carry state comparisons need
  /// append_state_signature.
  std::vector<HeldElement> held_snapshot(std::int64_t offset) const;

  /// Appends a strict normalized signature of the *complete* classification
  /// state to `out`: the first-touch window membership and the residents
  /// (dirty flags, relative touch ranks), in storage order, every element
  /// shifted by -`offset`. Strictly finer than held_snapshot equality and
  /// valid between any two iterations — equal signatures imply identical
  /// behavior over offset-shifted continuations. Storage order makes it
  /// conservative: a repeat can be detected late (the walk then just keeps
  /// walking), never falsely. No sorting, no allocation beyond `out`.
  void append_state_signature(std::int64_t offset, std::vector<std::int64_t>& out) const;

  /// Shifts every element the state remembers (residents and the
  /// first-touch membership list) by `delta`: fast-forwards the tracker
  /// across iterations whose event streams are translations of each other
  /// (analysis/periodic.h, the cycle model's nested collapse).
  void translate_held(std::int64_t delta);

 private:
  struct Held {
    std::int64_t element = 0;
    bool dirty = false;
    std::uint64_t last_touch = 0;
  };

  // Epoch-stamped open-addressing map from element index to a small
  // non-negative value, with linear probing. clear() is O(1) (bump the
  // epoch), so the per-carry-iteration reset costs nothing; erase() is
  // backward-shift deletion, so probes never wade through tombstones. It
  // serves both as the first-touch membership set (values unused) and as
  // the resident index (value = position in held_), making every
  // per-access probe O(1) instead of a linear scan over up to held_limit
  // elements.
  class ElementMap {
   public:
    void reset(std::size_t expected_elements);
    /// The value stored for `element`, or -1 when absent.
    std::int64_t find(std::int64_t element) const {
      if (slots_.empty()) return -1;
      std::size_t slot = home(element);
      while (slots_[slot].epoch == epoch_) {
        if (slots_[slot].key == element) return slots_[slot].value;
        slot = (slot + 1) & mask_;
      }
      return -1;
    }
    bool contains(std::int64_t element) const { return find(element) >= 0; }
    /// Inserts `element`, or overwrites its value when present.
    void set(std::int64_t element, std::int64_t value) {
      std::size_t slot = home(element);
      while (slots_[slot].epoch == epoch_ && slots_[slot].key != element) {
        slot = (slot + 1) & mask_;
      }
      slots_[slot] = Slot{element, epoch_, static_cast<std::int32_t>(value)};
    }
    /// Removes `element` if present.
    void erase(std::int64_t element);
    void clear();

   private:
    // 16 bytes: two maps per holding tracker, sized for its whole window.
    struct Slot {
      std::int64_t key = 0;
      std::uint32_t epoch = 0;  ///< live iff equal to epoch_ (never 0)
      std::int32_t value = 0;
    };
    std::size_t home(std::int64_t element) const {
      return static_cast<std::size_t>(static_cast<std::uint64_t>(element) *
                                      0x9E3779B97F4A7C15ull >>
                                      33) &
             mask_;
    }
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::uint32_t epoch_ = 1;
  };

  bool at_first_carry_value() const;
  bool at_last_carry_value() const;
  void flush_all(const EventSink& sink, bool steady);
  void emit(const EventSink& sink, const AccessEvent& event);

  const Kernel& kernel_;
  const RefGroup& group_;
  RefStrategy strategy_;

  // The group's linearized element index as a flat affine form (constant +
  // per-level coefficients), so the hot on_access path is a short dot
  // product instead of an array lookup plus per-dimension AffineExpr walks.
  std::int64_t elem_const_ = 0;
  std::vector<std::int64_t> elem_coeffs_;

  bool initialized_ = false;
  std::vector<std::int64_t> cur_iter_;
  // First <= held_limit distinct elements touched this carry iteration, in
  // touch order (rank = position). Elements past the list once it is full
  // have rank >= held_limit and always miss, so their exact ranks are never
  // needed. rank_members_ mirrors the list as an O(1) membership probe (the
  // list itself stays the source of truth for signatures and translation).
  std::vector<std::int64_t> rank_order_;
  ElementMap rank_members_;
  // Resident elements (<= held_limit) in storage order — the order
  // flush_all emits and append_state_signature records, so it is part of
  // the observable behavior — and their index: element -> position.
  std::vector<Held> held_;
  ElementMap held_index_;
  std::vector<std::int64_t> wrote_this_iter_;   // forwarding info
  std::uint64_t seq_ = 0;
};

/// Per-group access counters.
struct GroupCounts {
  std::int64_t miss_reads = 0;
  std::int64_t miss_writes = 0;
  std::int64_t fills = 0;
  std::int64_t steady_fills = 0;
  std::int64_t flushes = 0;
  std::int64_t steady_flushes = 0;
  std::int64_t reg_hits = 0;
  std::int64_t reg_writes = 0;
  std::int64_t forwards = 0;

  /// RAM accesses under steady-state accounting (peeled fill/flush excluded).
  std::int64_t steady_total() const {
    return miss_reads + miss_writes + steady_fills + steady_flushes;
  }
  /// All RAM accesses, including window fill/flush traffic.
  std::int64_t total() const { return miss_reads + miss_writes + fills + flushes; }
};

/// Applies one classified event to the counters — the single event-to-
/// counter mapping shared by every counting sink (full walk, periodic
/// collapse, simulate_accesses).
void record_event(GroupCounts& counts, const AccessEvent& event);

/// A strategy selection together with the winner's counters — the selection
/// already evaluates every candidate, so returning both saves callers
/// (count_group_accesses, the access-curve tabulation) one redundant pass.
struct StrategyChoice {
  RefStrategy strategy;
  GroupCounts counts;
};

/// As select_strategy, also returning the winning candidate's counters.
StrategyChoice select_strategy_counted(const Kernel& kernel, const RefGroup& group,
                                       const ReuseInfo& info, std::int64_t regs,
                                       const ModelOptions& options = {});

/// Runs the window policy over the whole iteration space for all groups with
/// the given per-group register counts; streams every event to `sink`
/// (pass nullptr to only count) and returns per-group counters.
std::vector<GroupCounts> simulate_accesses(const Kernel& kernel,
                                           const std::vector<RefGroup>& groups,
                                           const std::vector<ReuseInfo>& reuse,
                                           srra::span<const std::int64_t> regs,
                                           const ModelOptions& options = {},
                                           const EventSink& sink = nullptr);

/// Single-group convenience: counters for `group` with `regs` registers.
GroupCounts count_group_accesses(const Kernel& kernel, const RefGroup& group,
                                 const ReuseInfo& reuse, std::int64_t regs,
                                 const ModelOptions& options = {});

/// One counting pass for a fixed strategy: the periodic collapse by
/// default, the full-walk oracle under options.full_walk_oracle. This is
/// the pass select_strategy runs per candidate; the access-curve build
/// (analysis/curve.cc) memoizes it per distinct strategy across register
/// counts.
GroupCounts count_group_accesses_strategy(const Kernel& kernel, const RefGroup& group,
                                          RefStrategy strategy,
                                          const ModelOptions& options = {});

/// The candidate strategies select_strategy evaluates for `regs` registers,
/// in evaluation order (no holding first, then per carrying level full or
/// partial). Exposed so the access-curve tabulation enumerates exactly the
/// same set.
std::vector<RefStrategy> strategy_candidates(const ReuseInfo& info, std::int64_t regs,
                                             const ModelOptions& options = {});

/// select_strategy's tie-break: true when (candidate, counts) beats the
/// incumbent (fewer steady accesses; ties by total accesses, then by
/// outermost level).
bool strategy_counts_better(const RefStrategy& candidate, const GroupCounts& counts,
                            const RefStrategy& best, const GroupCounts& best_counts);

/// Reference oracle: one full iteration-space pass for a fixed strategy.
/// O(iteration space); the periodic collapse (analysis/periodic.h) must be
/// bit-identical to this.
GroupCounts count_group_accesses_full(const Kernel& kernel, const RefGroup& group,
                                      RefStrategy strategy);

/// Advances `iter` (normalized loop positions are recomputed from values) to
/// the next lexicographic iteration; returns false when the space is
/// exhausted. `iter` holds loop *values* (lower + k*step).
bool next_iteration(const Kernel& kernel, std::vector<std::int64_t>& iter);

/// First iteration vector (all loops at their lower bounds).
std::vector<std::int64_t> first_iteration(const Kernel& kernel);

}  // namespace srra
