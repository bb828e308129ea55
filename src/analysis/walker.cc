#include "analysis/walker.h"

#include <algorithm>

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

void WindowTracker::ElementSet::reset(std::size_t expected_elements) {
  std::size_t capacity = 8;
  while (capacity < expected_elements * 2) capacity *= 2;
  keys_.assign(capacity, 0);
  epochs_.assign(capacity, 0);
  mask_ = capacity - 1;
  epoch_ = 1;
}

WindowTracker::WindowTracker(const Kernel& kernel, const RefGroup& group,
                             RefStrategy strategy)
    : kernel_(kernel), group_(group), strategy_(strategy) {
  const AffineExpr flat = linearize_access(kernel, group.access);
  elem_const_ = flat.constant_term();
  elem_coeffs_.resize(static_cast<std::size_t>(flat.depth()));
  for (int l = 0; l < flat.depth(); ++l) {
    elem_coeffs_[static_cast<std::size_t>(l)] = flat.coeff(l);
  }
  if (strategy_.holds()) {
    rank_members_.reset(static_cast<std::size_t>(strategy_.held_limit));
  }
}

bool WindowTracker::at_first_carry_value() const {
  const int l = strategy_.carry_level;
  return cur_iter_[static_cast<std::size_t>(l)] == kernel_.loop(l).lower;
}

bool WindowTracker::at_last_carry_value() const {
  const int l = strategy_.carry_level;
  const Loop& loop = kernel_.loop(l);
  return cur_iter_[static_cast<std::size_t>(l)] == loop.value_at(loop.trip_count() - 1);
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
}

std::vector<WindowTracker::HeldElement> WindowTracker::held_snapshot(
    std::int64_t offset) const {
  // Reduce last_touch to its rank among residents (absolute sequence
  // numbers grow forever; only the relative recency order matters).
  std::vector<std::size_t> by_touch(held_.size());
  for (std::size_t i = 0; i < held_.size(); ++i) by_touch[i] = i;
  std::sort(by_touch.begin(), by_touch.end(), [&](std::size_t a, std::size_t b) {
    return held_[a].last_touch < held_[b].last_touch;
  });
  std::vector<HeldElement> snapshot(held_.size());
  for (std::size_t r = 0; r < by_touch.size(); ++r) {
    const Held& held = held_[by_touch[r]];
    snapshot[by_touch[r]] =
        HeldElement{held.element - offset, held.dirty, static_cast<int>(r)};
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const HeldElement& a, const HeldElement& b) { return a.element < b.element; });
  return snapshot;
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
  for (Held& held : held_) held.element += delta;
  if (!rank_order_.empty()) {
    rank_members_.clear();
    for (std::int64_t& element : rank_order_) {
      element += delta;
      rank_members_.insert(element);
    }
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
    rank_order_.clear();
    rank_members_.clear();
  } else if (carry_changed) {
    rank_order_.clear();
    rank_members_.clear();
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
    rank_members_.insert(element);
    in_window = true;
  }

  if (!in_window) {
    event.kind = is_write ? AccessKind::kMissWrite : AccessKind::kMissRead;
    event.steady = true;
    emit(sink, event);
    return event;
  }

  ++seq_;
  const auto held_it = std::find_if(held_.begin(), held_.end(),
                                    [&](const Held& h) { return h.element == element; });
  if (held_it != held_.end()) {
    held_it->last_touch = seq_;
    if (is_write) held_it->dirty = true;
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
    held_.erase(victim);
  }

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

// One counting pass for a fixed strategy: the periodic collapse by default,
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
