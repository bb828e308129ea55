#include "analysis/walker.h"

#include <algorithm>
#include <utility>

#include "analysis/periodic.h"
#include "support/error.h"

namespace srra {

void record_event(GroupCounts& counts, const AccessEvent& event) {
  switch (event.kind) {
    case AccessKind::kMissRead: ++counts.miss_reads; break;
    case AccessKind::kMissWrite: ++counts.miss_writes; break;
    case AccessKind::kFill:
      ++counts.fills;
      if (event.steady) ++counts.steady_fills;
      break;
    case AccessKind::kFlush:
      ++counts.flushes;
      if (event.steady) ++counts.steady_flushes;
      break;
    case AccessKind::kRegHit: ++counts.reg_hits; break;
    case AccessKind::kRegWrite: ++counts.reg_writes; break;
    case AccessKind::kForward: ++counts.forwards; break;
  }
}

bool is_ram_access(AccessKind kind) {
  switch (kind) {
    case AccessKind::kFill:
    case AccessKind::kFlush:
    case AccessKind::kMissRead:
    case AccessKind::kMissWrite:
      return true;
    default:
      return false;
  }
}

RefStrategy choose_strategy(const ReuseInfo& info, std::int64_t regs,
                            const ModelOptions& options) {
  RefStrategy strategy;
  if (!info.has_reuse() || regs <= 0) return strategy;

  // Full exploitation at the outermost carrying level that fits.
  for (const CarryLevel& cl : info.levels) {
    if (cl.beta <= regs) {
      strategy.carry_level = cl.level;
      strategy.held_limit = cl.beta;
      return strategy;
    }
  }
  // Partial exploitation at the outermost carrying level; a single register
  // is the operand latch and cannot hold a live value (unless overridden).
  const std::int64_t min_regs = options.single_register_holding ? 1 : 2;
  if (regs >= min_regs) {
    strategy.carry_level = info.levels.front().level;
    strategy.held_limit = regs;
  }
  return strategy;
}

void WindowTracker::ElementMap::reset(std::size_t expected_elements) {
  check(expected_elements <= static_cast<std::size_t>(INT32_MAX),
        "register window too large to index");
  std::size_t capacity = 8;
  while (capacity < expected_elements * 2) capacity *= 2;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  epoch_ = 1;
}

void WindowTracker::ElementMap::clear() {
  if (++epoch_ == 0) {  // wrapped: retire every stamp, then restart at 1
    for (Slot& slot : slots_) slot.epoch = 0;
    epoch_ = 1;
  }
}

void WindowTracker::ElementMap::erase(std::int64_t element) {
  std::size_t hole = home(element);
  while (slots_[hole].epoch == epoch_ && slots_[hole].key != element) {
    hole = (hole + 1) & mask_;
  }
  if (slots_[hole].epoch != epoch_) return;  // absent
  // Backward shift: pull every later entry of the probe run whose home does
  // not lie cyclically in (hole, next] into the hole, so the run stays
  // contiguous and lookups can stop at the first empty slot.
  for (std::size_t next = (hole + 1) & mask_; slots_[next].epoch == epoch_;
       next = (next + 1) & mask_) {
    const std::size_t displacement = (next - home(slots_[next].key)) & mask_;
    if (displacement >= ((next - hole) & mask_)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].epoch = 0;
}

WindowTracker::WindowTracker(const Kernel& kernel, const RefGroup& group,
                             RefStrategy strategy)
    : group_(group), strategy_(strategy) {
  const AffineExpr flat = linearize_access(kernel, group.access);
  elem_const_ = flat.constant_term();
  elem_coeffs_.resize(static_cast<std::size_t>(flat.depth()));
  for (int l = 0; l < flat.depth(); ++l) {
    elem_coeffs_[static_cast<std::size_t>(l)] = flat.coeff(l);
  }
  levels_.resize(elem_coeffs_.size());
  for (int l = kernel.depth() - 1; l >= 0; --l) {
    const auto at = static_cast<std::size_t>(l);
    const Loop& loop = kernel.loop(l);
    LevelSpan& span = levels_[at];
    span.lower = loop.lower;
    span.step = loop.step;
    span.trip = loop.trip_count();
    if (at + 1 == levels_.size()) continue;
    const LevelSpan& below = levels_[at + 1];
    const std::int64_t first = elem_coeffs_[at + 1] * below.lower;
    const std::int64_t last = elem_coeffs_[at + 1] * (below.lower + (below.trip - 1) * below.step);
    span.below_iterations = below.below_iterations * below.trip;
    span.below_min = below.below_min + std::min(first, last);
    span.below_max = below.below_max + std::max(first, last);
  }
  if (strategy_.holds()) {
    rank_members_.reset(static_cast<std::size_t>(strategy_.held_limit));
    held_index_.reset(static_cast<std::size_t>(strategy_.held_limit));
  }
}

bool WindowTracker::at_first_carry_value() const {
  const auto l = static_cast<std::size_t>(strategy_.carry_level);
  return cur_iter_[l] == levels_[l].lower;
}

bool WindowTracker::at_last_carry_value() const {
  const auto l = static_cast<std::size_t>(strategy_.carry_level);
  const LevelSpan& span = levels_[l];
  return cur_iter_[l] == span.lower + (span.trip - 1) * span.step;
}

void WindowTracker::clear_rank_window() {
  rank_order_.clear();
  rank_members_.clear();
  rank_min_ = INT64_MAX;
  rank_max_ = INT64_MIN;
}

std::int64_t WindowTracker::next_inert_value(int level, std::int64_t value_index,
                                             srra::span<const std::int64_t> iteration) const {
  if (!strategy_.holds()) return value_index;
  const auto at = static_cast<std::size_t>(level);
  const LevelSpan& span = levels_[at];
  if (strategy_.carry_level >= level) return span.trip;
  // A list left from an earlier carry iteration resets at the next
  // begin_iteration. A list that is not full gains at most one member per
  // iteration (a group touches one element per iteration), so it cannot
  // be full before the values that many iterations take.
  std::int64_t members = static_cast<std::int64_t>(rank_order_.size());
  const auto carry = static_cast<std::size_t>(strategy_.carry_level);
  for (std::size_t l = 0; l <= carry && members > 0; ++l) {
    if (cur_iter_[l] != iteration[l]) members = 0;
  }
  if (members < strategy_.held_limit) {
    const std::int64_t missing = strategy_.held_limit - members;
    if (missing > (span.trip - 1 - value_index) * span.below_iterations) return span.trip;
    return value_index + (missing + span.below_iterations - 1) / span.below_iterations;
  }
  // The list is full and fixed for the rest of the loop. From value index
  // j on, the accesses span an interval with one end at the loop's last
  // value and the other moving by |c|·step per value.
  std::int64_t base = elem_const_;
  for (std::size_t l = 0; l < at; ++l) base += elem_coeffs_[l] * iteration[l];
  const std::int64_t c = elem_coeffs_[at];
  const std::int64_t at_last = base + c * (span.lower + (span.trip - 1) * span.step);
  const std::int64_t at_first = base + c * span.lower;
  std::int64_t gap = 0;  // inert from the first j with |c|·step·j > gap
  if (c >= 0) {
    if (rank_min_ > at_last + span.below_max) return value_index;
    gap = rank_max_ - (at_first + span.below_min);
  } else {
    if (rank_max_ < at_last + span.below_min) return value_index;
    gap = at_first + span.below_max - rank_min_;
  }
  if (gap < 0) return value_index;
  const std::int64_t per_value = (c >= 0 ? c : -c) * span.step;
  if (gap >= per_value * (span.trip - 1)) return span.trip;
  return std::max(value_index, gap / per_value + 1);
}

void WindowTracker::emit(const EventSink& sink, const AccessEvent& event) {
  if (sink) sink(event);
}

void WindowTracker::flush_all(const EventSink& sink, bool steady) {
  for (const Held& held : held_) {
    if (!held.dirty) continue;
    AccessEvent event;
    event.kind = AccessKind::kFlush;
    event.group = group_.id;
    event.element = held.element;
    event.steady = steady;
    emit(sink, event);
  }
  held_.clear();
  held_index_.clear();
}

void WindowTracker::append_resident_snapshot(std::int64_t offset,
                                             std::vector<std::int64_t>& out) const {
  // Residents in recency order: their positions are the touch ranks, so
  // absolute sequence numbers (which grow forever) drop out, and two
  // snapshots are equal exactly when their (element, dirty, rank) sets are.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_touch(held_.size());
  for (std::size_t i = 0; i < held_.size(); ++i) by_touch[i] = {held_[i].last_touch, i};
  std::sort(by_touch.begin(), by_touch.end());
  out.push_back(static_cast<std::int64_t>(held_.size()));
  for (const auto& [touch, i] : by_touch) {
    out.push_back(held_[i].element - offset);
    out.push_back(held_[i].dirty ? 1 : 0);
  }
}

void WindowTracker::append_state_signature(std::int64_t offset,
                                           std::vector<std::int64_t>& out) const {
  out.push_back(static_cast<std::int64_t>(rank_order_.size()));
  for (const std::int64_t element : rank_order_) out.push_back(element - offset);
  out.push_back(static_cast<std::int64_t>(held_.size()));
  std::uint64_t base = 0;
  bool have_base = false;
  for (const Held& held : held_) {
    if (!have_base || held.last_touch < base) {
      base = held.last_touch;
      have_base = true;
    }
  }
  for (const Held& held : held_) {
    out.push_back(held.element - offset);
    out.push_back(held.dirty ? 1 : 0);
    out.push_back(static_cast<std::int64_t>(held.last_touch - base));
  }
}

void WindowTracker::translate_held(std::int64_t delta) {
  held_index_.clear();
  for (std::size_t i = 0; i < held_.size(); ++i) {
    held_[i].element += delta;
    held_index_.set(held_[i].element, static_cast<std::int64_t>(i));
  }
  if (!rank_order_.empty()) {
    rank_members_.clear();
    for (std::int64_t& element : rank_order_) {
      element += delta;
      rank_members_.set(element, 0);
    }
    rank_min_ += delta;
    rank_max_ += delta;
  }
}

void WindowTracker::begin_iteration(srra::span<const std::int64_t> iteration,
                                    const EventSink& sink) {
  wrote_this_iter_.clear();
  if (!initialized_) {
    initialized_ = true;
    cur_iter_.assign(iteration.begin(), iteration.end());
    return;
  }
  if (!strategy_.holds()) {
    cur_iter_.assign(iteration.begin(), iteration.end());
    return;
  }
  const int l = strategy_.carry_level;
  bool window_changed = false;
  for (int i = 0; i < l; ++i) {
    if (cur_iter_[static_cast<std::size_t>(i)] != iteration[static_cast<std::size_t>(i)]) {
      window_changed = true;
      break;
    }
  }
  const bool carry_changed =
      window_changed || cur_iter_[static_cast<std::size_t>(l)] != iteration[static_cast<std::size_t>(l)];
  if (window_changed) {
    // Window-instance boundary: the finishing carry iteration is the loop's
    // last value (lexicographic order), so these flushes live in back-peeled
    // code and are steady-state-excluded.
    flush_all(sink, /*steady=*/!at_last_carry_value());
    clear_rank_window();
  } else if (carry_changed) {
    clear_rank_window();
  }
  cur_iter_.assign(iteration.begin(), iteration.end());
}

AccessEvent WindowTracker::on_access(srra::span<const std::int64_t> iteration, bool is_write,
                                     int stmt, int order, const EventSink& sink) {
  std::int64_t element = elem_const_;
  for (std::size_t l = 0; l < elem_coeffs_.size(); ++l) {
    element += elem_coeffs_[l] * iteration[l];
  }

  AccessEvent event;
  event.group = group_.id;
  event.element = element;
  event.stmt = stmt;
  event.order = order;

  // Same-iteration read-after-write is forwarded through the datapath.
  const auto wrote = std::find(wrote_this_iter_.begin(), wrote_this_iter_.end(), element);
  if (!is_write && wrote != wrote_this_iter_.end()) {
    event.kind = AccessKind::kForward;
    event.steady = false;
    emit(sink, event);
    return event;
  }
  if (is_write && wrote == wrote_this_iter_.end()) wrote_this_iter_.push_back(element);

  if (!strategy_.holds()) {
    event.kind = is_write ? AccessKind::kMissWrite : AccessKind::kMissRead;
    event.steady = true;
    emit(sink, event);
    return event;
  }

  // Window membership by touch rank: the first held_limit distinct elements
  // of this carry iteration are in the window; everything later misses.
  bool in_window = rank_members_.contains(element);
  if (!in_window &&
      static_cast<std::int64_t>(rank_order_.size()) < strategy_.held_limit) {
    rank_order_.push_back(element);
    rank_members_.set(element, 0);
    rank_min_ = std::min(rank_min_, element);
    rank_max_ = std::max(rank_max_, element);
    in_window = true;
  }

  if (!in_window) {
    event.kind = is_write ? AccessKind::kMissWrite : AccessKind::kMissRead;
    event.steady = true;
    emit(sink, event);
    return event;
  }

  ++seq_;
  const std::int64_t resident = held_index_.find(element);
  if (resident >= 0) {
    Held& held = held_[static_cast<std::size_t>(resident)];
    held.last_touch = seq_;
    if (is_write) held.dirty = true;
    event.kind = is_write ? AccessKind::kRegWrite : AccessKind::kRegHit;
    event.steady = false;
    emit(sink, event);
    return event;
  }

  // Element enters the register file. Evict the least recently used resident
  // if the file is full (it is dead in a sliding window).
  if (static_cast<std::int64_t>(held_.size()) >= strategy_.held_limit) {
    auto victim = held_.begin();
    for (auto h = held_.begin(); h != held_.end(); ++h) {
      if (h->last_touch < victim->last_touch) victim = h;
    }
    if (victim->dirty) {
      AccessEvent flush;
      flush.kind = AccessKind::kFlush;
      flush.group = group_.id;
      flush.element = victim->element;
      flush.steady = !at_last_carry_value();
      emit(sink, flush);
    }
    // Erase in place (storage order is observable) and re-index the tail
    // that shifted down: O(held_limit), like the victim scan itself.
    held_index_.erase(victim->element);
    for (auto h = held_.erase(victim); h != held_.end(); ++h) {
      held_index_.set(h->element, h - held_.begin());
    }
  }

  held_index_.set(element, static_cast<std::int64_t>(held_.size()));
  held_.push_back(Held{element, is_write, seq_});
  if (is_write) {
    // Whole-element overwrite: no fill needed.
    event.kind = AccessKind::kRegWrite;
    event.steady = false;
  } else {
    event.kind = AccessKind::kFill;
    event.steady = !at_first_carry_value();
  }
  emit(sink, event);
  return event;
}

void WindowTracker::finish(const EventSink& sink) {
  if (!initialized_ || !strategy_.holds()) return;
  flush_all(sink, /*steady=*/!at_last_carry_value());
}

std::vector<std::int64_t> first_iteration(const Kernel& kernel) {
  std::vector<std::int64_t> iter;
  iter.reserve(static_cast<std::size_t>(kernel.depth()));
  for (int l = 0; l < kernel.depth(); ++l) iter.push_back(kernel.loop(l).lower);
  return iter;
}

bool next_iteration(const Kernel& kernel, std::vector<std::int64_t>& iter) {
  for (int l = kernel.depth() - 1; l >= 0; --l) {
    const Loop& loop = kernel.loop(l);
    auto& v = iter[static_cast<std::size_t>(l)];
    v += loop.step;
    if (v < loop.upper) return true;
    v = loop.lower;
  }
  return false;
}

std::vector<GroupCounts> simulate_accesses(const Kernel& kernel,
                                           const std::vector<RefGroup>& groups,
                                           const std::vector<ReuseInfo>& reuse,
                                           srra::span<const std::int64_t> regs,
                                           const ModelOptions& options,
                                           const EventSink& sink) {
  check(groups.size() == reuse.size(), "groups/reuse size mismatch");
  check(groups.size() == regs.size(), "groups/regs size mismatch");

  std::vector<GroupCounts> counts(groups.size());
  const auto count_event = [&](const AccessEvent& e) {
    record_event(counts[static_cast<std::size_t>(e.group)], e);
    if (sink) sink(e);
  };
  const EventSink counting_sink(count_event);

  std::vector<WindowTracker> trackers;
  trackers.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    trackers.emplace_back(kernel, groups[g],
                          select_strategy(kernel, groups[g], reuse[g], regs[g], options));
  }
  const std::vector<FlatOccurrence> flat = flatten(groups);

  std::vector<std::int64_t> iter = first_iteration(kernel);
  do {
    for (WindowTracker& t : trackers) t.begin_iteration(iter, counting_sink);
    for (const FlatOccurrence& occ : flat) {
      trackers[static_cast<std::size_t>(occ.group)].on_access(iter, occ.is_write, occ.stmt,
                                                              occ.order, counting_sink);
    }
  } while (next_iteration(kernel, iter));
  for (WindowTracker& t : trackers) t.finish(counting_sink);
  return counts;
}

GroupCounts count_group_accesses_full(const Kernel& kernel, const RefGroup& group,
                                      RefStrategy strategy) {
  GroupCounts counts;
  const auto count_event = [&](const AccessEvent& e) { record_event(counts, e); };
  const EventSink sink(count_event);
  WindowTracker tracker(kernel, group, strategy);
  std::vector<std::int64_t> iter = first_iteration(kernel);
  do {
    tracker.begin_iteration(iter, sink);
    for (const RefOccurrence& occ : group.occurrences) {
      tracker.on_access(iter, occ.is_write, occ.stmt, occ.order, sink);
    }
  } while (next_iteration(kernel, iter));
  tracker.finish(sink);
  return counts;
}

namespace {

// One counting pass for a fixed strategy: the nested collapse by default,
// the full-walk oracle when requested.
GroupCounts run_group_pass(const Kernel& kernel, const RefGroup& group,
                           RefStrategy strategy, const ModelOptions& options) {
  if (options.full_walk_oracle) return count_group_accesses_full(kernel, group, strategy);
  return count_group_accesses_collapsed(kernel, group, strategy);
}

}  // namespace

GroupCounts count_group_accesses_strategy(const Kernel& kernel, const RefGroup& group,
                                          RefStrategy strategy,
                                          const ModelOptions& options) {
  return run_group_pass(kernel, group, strategy, options);
}

std::vector<RefStrategy> strategy_candidates(const ReuseInfo& info, std::int64_t regs,
                                             const ModelOptions& options) {
  std::vector<RefStrategy> candidates;
  candidates.push_back(RefStrategy{});  // no holding
  if (!info.has_reuse() || regs <= 0) return candidates;
  const std::int64_t min_partial = options.single_register_holding ? 1 : 2;
  for (const CarryLevel& cl : info.levels) {
    if (cl.beta <= regs) {
      candidates.push_back(RefStrategy{cl.level, cl.beta});
    } else if (regs >= min_partial) {
      candidates.push_back(RefStrategy{cl.level, regs});
    }
  }
  return candidates;
}

bool strategy_counts_better(const RefStrategy& candidate, const GroupCounts& counts,
                            const RefStrategy& best, const GroupCounts& best_counts) {
  return counts.steady_total() < best_counts.steady_total() ||
         (counts.steady_total() == best_counts.steady_total() &&
          (counts.total() < best_counts.total() ||
           (counts.total() == best_counts.total() &&
            candidate.carry_level < best.carry_level)));
}

StrategyChoice select_strategy_counted(const Kernel& kernel, const RefGroup& group,
                                       const ReuseInfo& info, std::int64_t regs,
                                       const ModelOptions& options) {
  StrategyChoice choice;
  if (!info.has_reuse() || regs <= 0) {
    choice.counts = run_group_pass(kernel, group, choice.strategy, options);
    return choice;
  }

  const std::vector<RefStrategy> candidates = strategy_candidates(info, regs, options);
  choice.strategy = candidates.front();
  choice.counts = run_group_pass(kernel, group, choice.strategy, options);
  for (std::size_t c = 1; c < candidates.size(); ++c) {
    const GroupCounts counts = run_group_pass(kernel, group, candidates[c], options);
    if (strategy_counts_better(candidates[c], counts, choice.strategy, choice.counts)) {
      choice.strategy = candidates[c];
      choice.counts = counts;
    }
  }
  return choice;
}

RefStrategy select_strategy(const Kernel& kernel, const RefGroup& group,
                            const ReuseInfo& info, std::int64_t regs,
                            const ModelOptions& options) {
  if (!info.has_reuse() || regs <= 0) return RefStrategy{};
  return select_strategy_counted(kernel, group, info, regs, options).strategy;
}

GroupCounts count_group_accesses(const Kernel& kernel, const RefGroup& group,
                                 const ReuseInfo& reuse, std::int64_t regs,
                                 const ModelOptions& options) {
  return select_strategy_counted(kernel, group, reuse, regs, options).counts;
}

}  // namespace srra
