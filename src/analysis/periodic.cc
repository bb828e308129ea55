#include "analysis/periodic.h"

#include <algorithm>

namespace srra {

namespace {

// GroupCounts with the arithmetic collapse_walk scales charges by.
struct CountTotals {
  GroupCounts counts;

  void add_scaled(const CountTotals& delta, std::int64_t factor) {
    const GroupCounts& d = delta.counts;
    counts.miss_reads += d.miss_reads * factor;
    counts.miss_writes += d.miss_writes * factor;
    counts.fills += d.fills * factor;
    counts.steady_fills += d.steady_fills * factor;
    counts.flushes += d.flushes * factor;
    counts.steady_flushes += d.steady_flushes * factor;
    counts.reg_hits += d.reg_hits * factor;
    counts.reg_writes += d.reg_writes * factor;
    counts.forwards += d.forwards * factor;
  }
  CountTotals operator-(const CountTotals& base) const {
    CountTotals diff = *this;
    diff.add_scaled(base, -1);
    return diff;
  }
};

}  // namespace

CollapseLevels::CollapseLevels(const Kernel& kernel, srra::span<WindowTracker> trackers)
    : trackers_(trackers) {
  const int depth = kernel.depth();
  top_ = depth;
  for (const WindowTracker& t : trackers_) {
    if (t.strategy().holds()) top_ = std::min(top_, t.strategy().carry_level);
  }
  levels_.resize(static_cast<std::size_t>(depth));
  roles_.resize(static_cast<std::size_t>(depth) * trackers_.size());
  std::int64_t run = 1;  // iterations one run of the level spans
  for (int l = depth - 1; l >= 0; --l) {
    Level& level = levels_[static_cast<std::size_t>(l)];
    const Loop& loop = kernel.loop(l);
    level.lower = loop.lower;
    level.step = loop.step;
    level.trip = loop.trip_count();
    if (level.trip <= 0) degenerate_ = true;
    if (l < top_) instances_ *= level.trip;
    run *= level.trip;
    if (l < top_) continue;
    bool every_holder_carries_above = true;
    bool some_holder_still = false;  // carries here or above, or does not move
    for (std::size_t t = 0; t < trackers_.size(); ++t) {
      const RefStrategy& s = trackers_[t].strategy();
      if (!s.holds()) continue;
      const std::int64_t delta = trackers_[t].element_shift(l);
      if (s.carry_level >= l) {
        // At or above its carrying loop a tracker's elements move with the
        // level: normalize and fast-forward by its shift.
        every_holder_carries_above = false;
        some_holder_still = true;
        role(l, t).shift = delta;
      } else {
        // Mid-carry, a moving first-touch list cannot repeat under
        // translation; only an inert (frozen) one lets rule 2 fire.
        role(l, t).mover = delta != 0;
        some_holder_still = some_holder_still || delta == 0;
      }
    }
    level.try_tail = every_holder_carries_above && run >= kMinTailRun;
    level.try_repeat = level.trip > 3 && some_holder_still;
  }
}

void CollapseLevels::recheck(int level, std::int64_t k,
                             srra::span<const std::int64_t> iteration) {
  Level& l = levels_[static_cast<std::size_t>(level)];
  std::int64_t tail = l.try_tail ? k : kNever;
  std::int64_t repeat = l.try_repeat ? k : kNever;
  for (std::size_t t = 0; t < trackers_.size(); ++t) {
    Role& r = role(level, t);
    if (tail == kNever && (repeat == kNever || !r.mover)) continue;
    // Inert at k means inert for the rest of the run: the tracker's state
    // is frozen and the interval only shrinks. Before the value it names,
    // nothing can make a tracker inert, so it is not asked again earlier.
    if (r.ask_at != kInert && r.ask_at <= k) {
      r.ask_at = trackers_[t].next_inert_value(level, k, iteration);
      if (r.ask_at == k) r.ask_at = kInert;
    }
    const std::int64_t inert_from = r.ask_at == kInert ? k : r.ask_at;
    if (tail != kNever) tail = std::max(tail, inert_from);
    if (r.mover && repeat != kNever) repeat = std::max(repeat, inert_from);
  }
  l.tail_at = tail;
  l.repeat_from = repeat;
  l.recheck_at = std::min(tail, repeat > k ? repeat : kNever);
}

void CollapseLevels::append_state(int level, std::int64_t k,
                                  std::vector<std::int64_t>& out) const {
  for (std::size_t t = 0; t < trackers_.size(); ++t) {
    const WindowTracker& tracker = trackers_[t];
    if (!tracker.strategy().holds()) continue;
    const std::int64_t offset = k * role(level, t).shift;
    if (tracker.strategy().carry_level != level) {
      tracker.append_state_signature(offset, out);
      continue;
    }
    // The first-touch list resets at the next value of the carrying loop,
    // so the residents are the whole state that carries over.
    tracker.append_resident_snapshot(offset, out);
  }
}

void CollapseLevels::fast_forward(int level, std::int64_t values) {
  for (std::size_t t = 0; t < trackers_.size(); ++t) {
    const std::int64_t delta = role(level, t).shift;
    if (delta != 0) trackers_[t].translate_held(values * delta);
  }
}

GroupCounts count_group_accesses_collapsed(const Kernel& kernel, const RefGroup& group,
                                           RefStrategy strategy) {
  CountTotals totals;
  const auto count_event = [&totals](const AccessEvent& e) { record_event(totals.counts, e); };
  const EventSink sink(count_event);
  WindowTracker tracker(kernel, group, strategy);
  const auto step = [&](srra::span<const std::int64_t> iter) {
    tracker.begin_iteration(iter, sink);
    for (const RefOccurrence& occ : group.occurrences) {
      tracker.on_access(iter, occ.is_write, occ.stmt, occ.order, sink);
    }
  };
  const auto finish = [&] { tracker.finish(sink); };
  return collapse_walk(kernel, srra::span<WindowTracker>(&tracker, 1), totals, step, finish)
      .counts;
}

}  // namespace srra
