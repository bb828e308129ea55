// The one eviction policy of srrad's caches (DESIGN.md §15): the in-memory
// payload cache (service/server.h) and the persistent store
// (service/store.h) rank entries alike, and the pull op streams a store in
// the reverse order. Like the paper's benefit-over-cost ranking of
// references, the rank is a density — recompute cost per payload byte — so
// a frontier or BB-RA answer (~100x the recompute cost of a single-budget
// point) outlives cheap entries; ties go least-recently-used first, then
// oldest arrival. Victims are found by a linear scan; DESIGN.md §15 gives
// its cost and why an ordered index is not worth it yet.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

namespace srra::service {

/// What the policy knows about one cached answer.
struct CacheMeta {
  std::int64_t bytes = 0;     ///< payload bytes
  std::int64_t cost = 1;      ///< recompute cost estimate, abstract units
  std::int64_t seq = 0;       ///< arrival sequence number
  std::int64_t last_use = 0;  ///< process-local LRU tick (0 = not used yet)

  /// Recompute cost per byte kept: the lowest score is evicted first.
  double score() const {
    return static_cast<double>(cost) /
           static_cast<double>(std::max<std::int64_t>(1, bytes));
  }
};

/// The eviction rank: true when `a` goes before `b` — lower score, then
/// least recently used, then older arrival.
inline bool evicts_before(const CacheMeta& a, const CacheMeta& b) {
  const double sa = a.score();
  const double sb = b.score();
  if (sa != sb) return sa < sb;
  if (a.last_use != b.last_use) return a.last_use < b.last_use;
  return a.seq < b.seq;
}

/// Projection for maps whose mapped value is the CacheMeta itself.
struct MetaIsValue {
  const CacheMeta& operator()(const CacheMeta& meta) const { return meta; }
};

/// Both ends of a non-empty map's eviction order, in one pass: `.first` is
/// the next victim (the first of equally ranked entries in iteration
/// order), `.second` the entry that would be evicted last. `meta_of`
/// projects a mapped value to its CacheMeta.
template <typename Map, typename MetaOf = MetaIsValue>
auto eviction_ends(Map& entries, MetaOf meta_of = {}) {
  return std::minmax_element(
      entries.begin(), entries.end(), [&](const auto& a, const auto& b) {
        return evicts_before(std::invoke(meta_of, a.second),
                             std::invoke(meta_of, b.second));
      });
}

/// Sorts [first, last) best-kept-first: the reverse eviction rank with
/// recency left out (score descending, then newest arrival) — the order a
/// restarted store, whose LRU ticks all start at 0, keeps its entries in.
/// Stable, so entries that tie on both keep their input order.
template <typename It, typename MetaOf>
void sort_keep_order(It first, It last, MetaOf meta_of) {
  std::stable_sort(first, last, [&](const auto& a, const auto& b) {
    CacheMeta ma = std::invoke(meta_of, a);
    CacheMeta mb = std::invoke(meta_of, b);
    ma.last_use = mb.last_use = 0;
    return evicts_before(mb, ma);
  });
}

}  // namespace srra::service
