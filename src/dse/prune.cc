#include "dse/prune.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "analysis/refs.h"
#include "dfg/dfg.h"
#include "dse/candidate_tree.h"
#include "sched/schedule.h"
#include "support/error.h"
#include "support/str.h"

namespace srra::dse {

namespace {

// ---- Reuse-distance lower bound ----------------------------------------
//
// A sound lower bound (in iterations of the transformed nest) on the
// distance between two touches of the same element by one group. Used as
// the savings ramp: one extra register can eliminate at most one steady
// access per `distance` iterations. Returns <= 0 for "no temporal reuse"
// (the group's charge can never be reduced).

double distance_lb(const AbsState& state, const AbsGroup& group) {
  const int depth = static_cast<int>(state.trips.size());
  const auto inner_product = [&](int level) {
    std::int64_t p = 1;
    for (int m = level + 1; m < depth; ++m) p *= state.trips[static_cast<std::size_t>(m)];
    return p;
  };
  double best = -1.0;  // no reuse found yet
  std::vector<int> moving;
  for (int l = 0; l < depth; ++l) {
    const std::int64_t trip = state.trips[static_cast<std::size_t>(l)];
    if (trip < 2) continue;  // a degenerate level never steps
    if (group.shift[static_cast<std::size_t>(l)] != 0) {
      moving.push_back(l);
    } else {
      // Stepping an invariant level alone revisits every element: distance
      // = the iteration sub-space below it. The deepest such level is the
      // minimum, but taking all is harmless.
      const double d = static_cast<double>(inner_product(l));
      if (best < 0 || d < best) best = d;
    }
  }
  if (moving.size() == 2) {
    // Exactly two moving levels j < l: all same-element pairs differ by a
    // multiple of the primitive cancellation (gl/g at j, -gj/g at l). The
    // k=1 instance, when it fits the trip ranges, is the minimal distance.
    const int j = moving[0];
    const int l = moving[1];
    const std::int64_t gj = group.shift[static_cast<std::size_t>(j)];
    const std::int64_t gl = group.shift[static_cast<std::size_t>(l)];
    if ((gj > 0) == (gl > 0)) {  // opposite signs only lengthen the distance
      const std::int64_t aj = gj < 0 ? -gj : gj;
      const std::int64_t al = gl < 0 ? -gl : gl;
      const std::int64_t g = std::gcd(aj, al);
      const std::int64_t dj = al / g;  // delta at j
      const std::int64_t dl = aj / g;  // |delta| at l (negative direction)
      if (dj <= state.trips[static_cast<std::size_t>(j)] - 1 &&
          dl <= state.trips[static_cast<std::size_t>(l)] - 1) {
        const double d = static_cast<double>(dj * inner_product(j) - dl * inner_product(l));
        if (best < 0 || d < best) best = d;
      }
    }
  } else if (moving.size() >= 3) {
    // Three or more coupled levels can cancel in ways the pairwise solve
    // misses; fall back to the universal minimum (consecutive iterations
    // cannot touch the same element when the innermost shift is nonzero).
    best = 2.0;
  }
  if (best >= 0 && best < 2.0) best = 2.0;
  return best;
}

// ---- Bound-curve construction ------------------------------------------

// The empty-memory-profile schedule length of the body: the compute part
// of every iteration's cost, a floor for every rewrite (prune.h).
std::int64_t body_schedule_length(const Kernel& kernel, const CycleOptions& cycles) {
  const std::vector<RefGroup> groups = collect_ref_groups(kernel);
  std::vector<int> array_of_group(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    array_of_group[g] = groups[g].access.array_id;
  }
  const Dfg dfg = Dfg::build(kernel, groups);
  IterationProfile empty;
  empty.ram_access.assign(static_cast<std::size_t>(dfg.node_count()), false);
  return schedule_iteration(dfg, empty, array_of_group, cycles.latency);
}

BoundCurve make_curve(const AbsState& state, std::int64_t l0, const CycleOptions& cycles) {
  BoundCurve curve;
  curve.main_iterations = state.main_iterations();
  std::int64_t total_iterations = curve.main_iterations;
  for (const std::int64_t e : state.epilogue_iterations) total_iterations += e;
  curve.floor_cycles = total_iterations * (cycles.loop_overhead + l0);
  curve.min_regs = 0;
  for (const AbsGroup& g : state.groups) curve.min_regs += g.mult;

  // The memory corner holds only in the FSM execution model, where every
  // iteration's memory cycles serialize with the compute path.
  if (!cycles.fsm_serial_memory) return curve;

  std::int64_t min_eff_trip = 0;
  int inn = -1;  // deepest level that actually steps
  const int depth = static_cast<int>(state.trips.size());
  for (int l = 0; l < depth; ++l) {
    const std::int64_t trip = state.trips[static_cast<std::size_t>(l)];
    if (trip < 2) continue;
    inn = l;
    if (min_eff_trip == 0 || trip < min_eff_trip) min_eff_trip = trip;
  }
  if (inn < 0) return curve;  // single-iteration nest: floor only
  // Slack absorbing the peeled (non-steady) boundary accounting of held
  // windows: at most the first and last carry-loop values per instance.
  const double steady = 1.0 - 2.0 / static_cast<double>(min_eff_trip);
  if (steady <= 0) return curve;

  for (const AbsGroup& g : state.groups) {
    // Charged groups: the element moves at the effective innermost level,
    // so no carrying window fits in one register (the inner footprint is at
    // least that level's trip) and a 1-register group pays RAM every
    // steady iteration.
    if (g.shift[static_cast<std::size_t>(inn)] == 0) continue;
    BoundCurve::Item item;
    item.read_rate =
        g.read_node ? static_cast<double>(cycles.latency.mem_read) : 0.0;
    item.write_rate = g.write ? static_cast<double>(cycles.latency.mem_write) : 0.0;
    if (item.read_rate <= 0 && item.write_rate <= 0) continue;
    item.array = g.array;
    item.distance = distance_lb(state, g);
    item.steady = steady;
    curve.items.push_back(item);
  }
  curve.finalize();
  return curve;
}

}  // namespace

void BoundCurve::finalize() {
  pools_.clear();
  // Reads of one RAM block serialize even under concurrent operand fetch,
  // so each block alone lower-bounds the per-iteration memory cycles: one
  // greedy pool per distinct array, charging that array's reads plus every
  // write.
  std::vector<int> arrays;
  for (const Item& item : items) {
    if (std::find(arrays.begin(), arrays.end(), item.array) == arrays.end()) {
      arrays.push_back(item.array);
    }
  }
  for (const int array : arrays) {
    ArrayPool pool;
    for (const Item& item : items) {
      const double rate =
          item.write_rate + (item.array == array ? item.read_rate : 0.0);
      if (rate <= 0) continue;
      pool.total += rate * item.steady;
      // One register slot saves at most one access per `distance`
      // iterations; granting the pre-existing feasibility register to the
      // ramp as well (factor 2) only lowers the bound.
      if (item.distance > 0) {
        Ramp ramp;
        ramp.slope = rate * 2.0 / item.distance;
        ramp.cap = item.steady * item.distance / 2.0;  // regs to zero the item
        pool.ramps.push_back(ramp);
      }
    }
    std::sort(pool.ramps.begin(), pool.ramps.end(),
              [](const Ramp& a, const Ramp& b) { return a.slope > b.slope; });
    pools_.push_back(std::move(pool));
  }
}

std::int64_t BoundCurve::at(std::int64_t regs) const {
  if (pools_.empty()) return floor_cycles;
  const double budget =
      regs > min_regs ? static_cast<double>(regs - min_regs) : 0.0;
  // The adversary (the allocator) spends the extra-register budget greedily
  // on the steepest savings ramp first — the continuous optimum of the LP,
  // which never exceeds any integer allocation's true savings.
  double best = 0.0;
  for (const ArrayPool& pool : pools_) {
    double total = pool.total;
    double remaining = budget;
    for (const Ramp& ramp : pool.ramps) {
      if (remaining <= 0 || total <= 0) break;
      const double spend = remaining < ramp.cap ? remaining : ramp.cap;
      total -= spend * ramp.slope;
      remaining -= spend;
    }
    if (total > best) best = total;
  }
  return floor_cycles +
         static_cast<std::int64_t>(static_cast<double>(main_iterations) * best);
}

BoundCurve bound_curve(const Kernel& kernel, srra::span<const LoopTransform> transforms,
                       const CycleOptions& cycles) {
  AbsState state = abstract_state(kernel);
  for (const LoopTransform& t : transforms) apply_abs(state, t);
  return make_curve(state, body_schedule_length(kernel, cycles), cycles);
}

namespace {

// ---- Guided search ------------------------------------------------------

struct Candidate {
  std::vector<LoopTransform> sequence;
  BoundCurve curve;
  std::int64_t optimistic = 0;  ///< curve at the sweep's largest budget
  std::int64_t corner = 0;      ///< curve at the feasibility floor
};

// Measured (registers, cycles) points of one kernel, reduced to the
// dominating staircase: regs strictly ascending, cycles strictly descending.
class MeasuredPool {
 public:
  void insert(std::int64_t regs, std::int64_t cycles) {
    points_.emplace_back(regs, cycles);
    std::sort(points_.begin(), points_.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> stair;
    for (const auto& p : points_) {
      if (!stair.empty() && p.second >= stair.back().second) continue;
      if (!stair.empty() && p.first == stair.back().first) stair.pop_back();
      stair.push_back(p);
    }
    points_ = std::move(stair);
  }

  /// True when some measured point strictly beats `curve` at every register
  /// count in [curve.min_regs, max_budget] — the candidate cannot tie any
  /// frontier point, so it is safe to discard.
  bool dominates(const BoundCurve& curve, std::int64_t max_budget) const {
    if (points_.empty() || curve.min_regs > max_budget) return false;
    // No measured point at or below the candidate's feasibility floor: the
    // low-register region is uncontested.
    if (points_.front().first > curve.min_regs) return false;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const std::int64_t from = points_[i].first;
      if (from > max_budget) break;
      // This point is the pool's best up to the next staircase step; the
      // candidate's curve is lowest at the range's right edge.
      std::int64_t to = max_budget;
      if (i + 1 < points_.size() && points_[i + 1].first <= max_budget) {
        to = points_[i + 1].first - 1;
      }
      if (to < curve.min_regs) continue;
      if (points_[i].second >= curve.at(to)) return false;
    }
    return true;
  }

 private:
  std::vector<std::pair<std::int64_t, std::int64_t>> points_;  ///< (regs, cycles)
};

// The guided search of one kernel: its ranked candidates and what its
// waves have measured, materialized and evaluated so far. Kernels never
// read each other's state, so evaluating their waves together cannot
// change what any of them prunes.
struct KernelSearch {
  std::vector<Candidate> candidates;
  std::vector<std::size_t> order;  ///< candidate indices, most promising first
  std::size_t next = 0;            ///< first entry of `order` not yet considered
  MeasuredPool pool;
  std::unordered_set<std::uint64_t> seen;  ///< nest hashes already materialized
  int evaluated = 0;
};

// Moves the element at position i to position to[i], for every i, in place:
// each cycle of the permutation is followed with swap(i, j) calls.
template <typename Swap>
void permute(std::vector<std::size_t> to, const Swap& swap) {
  for (std::size_t i = 0; i < to.size(); ++i) {
    while (to[i] != i) {
      const std::size_t j = to[i];
      swap(i, j);
      std::swap(to[i], to[j]);
    }
  }
}

}  // namespace

ExploreResult explore_guided(AxisSpec axes, const ExploreOptions& options,
                             const PruneOptions& prune) {
  check(!axes.kernels.empty(), "explore_guided: no kernels");
  check(!axes.algorithms.empty(), "explore_guided: no algorithms");
  check(!axes.budgets.empty(), "explore_guided: no budgets");
  check(!axes.fetch_modes.empty(), "explore_guided: no fetch modes");
  check(prune.wave >= 1, "explore_guided: wave must be at least 1");

  const std::int64_t max_budget =
      *std::max_element(axes.budgets.begin(), axes.budgets.end());

  ExploreResult final;
  SpaceStats& stats = final.space.stats;
  // Every kernel's tree is walked and ranked before anything is evaluated,
  // so an illegal explicit sequence on any kernel throws up front.
  std::vector<KernelSearch> searches(axes.kernels.size());
  for (std::size_t k = 0; k < axes.kernels.size(); ++k) {
    const SpaceKernel& sk = axes.kernels[k];
    KernelSearch& search = searches[k];
    const std::int64_t l0 = body_schedule_length(sk.kernel, options.pipeline.cycles);
    walk_candidates(sk.kernel, sk.name, axes.transforms,
                    [&](const AbsState& state, const std::vector<LoopTransform>& sequence) {
      // Every candidate of the tree counts as generated; illegal ones are
      // pruned when (if ever) they come up for materialization.
      ++stats.variants_generated;
      Candidate cand;
      cand.curve = make_curve(state, l0, options.pipeline.cycles);
      cand.optimistic = cand.curve.at(max_budget);
      cand.corner = cand.curve.at(cand.curve.min_regs);
      cand.sequence = sequence;
      search.candidates.push_back(std::move(cand));
    });

    // Most promising first: lowest optimistic bound, then lowest corner —
    // generation order (the index) breaks ties, so the search is
    // deterministic.
    search.order.resize(search.candidates.size());
    std::iota(search.order.begin(), search.order.end(), 0);
    std::sort(search.order.begin(), search.order.end(), [&](std::size_t a, std::size_t b) {
      const Candidate& ca = search.candidates[a];
      const Candidate& cb = search.candidates[b];
      if (ca.optimistic != cb.optimistic) return ca.optimistic < cb.optimistic;
      if (ca.corner != cb.corner) return ca.corner < cb.corner;
      return a < b;
    });
  }

  // Round r evaluates wave r of every kernel in one explore call, so the
  // lanes meet one barrier per round instead of one per wave of each
  // kernel. Results land round-major; `owner` names each variant's kernel.
  std::vector<std::size_t> owner;
  for (;;) {
    EnumeratedSpace round;
    for (std::size_t k = 0; k < searches.size(); ++k) {
      // Assemble kernel k's next wave of bound-surviving, legal, novel
      // candidates, exactly as if it were searched alone.
      KernelSearch& search = searches[k];
      const SpaceKernel& sk = axes.kernels[k];
      int wave = 0;
      while (wave < prune.wave && search.next < search.order.size()) {
        // Each candidate is looked at once; its storage goes with it.
        Candidate cand = std::move(search.candidates[search.order[search.next++]]);
        if (prune.max_evaluated_per_kernel > 0 &&
            search.evaluated >= prune.max_evaluated_per_kernel) {
          ++stats.variants_pruned;
          ++stats.pruned_by_cap;
          continue;
        }
        if (search.pool.dominates(cand.curve, max_budget)) {
          ++stats.variants_pruned;
          ++stats.pruned_by_bound;
          continue;
        }
        // The walk's legality is a superset; the real check runs here, once,
        // only for bound survivors.
        std::optional<PeeledNest> nest = apply_if_safe(sk.kernel, cand.sequence);
        if (!nest || !search.seen.insert(nest_hash(*nest)).second) {
          ++stats.variants_pruned;
          ++stats.pruned_illegal_or_duplicate;
          continue;
        }
        round.variants.push_back(make_variant(static_cast<int>(round.variants.size()),
                                              sk.name, std::move(cand.sequence),
                                              std::move(*nest)));
        owner.push_back(k);
        ++search.evaluated;
        ++stats.variants_evaluated;
        ++wave;
      }
    }
    // A kernel's wave comes up empty only once its order is used up.
    if (round.variants.empty()) break;

    add_points(round, axes);
    ExploreResult measured = explore(std::move(round), options);

    // Feed each kernel's pool from its own variants' points only, then
    // append the round. Points name their variant by its position in the
    // appended list; every index is set once, by the reorder below.
    const int variant_offset = static_cast<int>(final.space.variants.size());
    for (std::size_t i = 0; i < measured.results.size(); ++i) {
      SpacePoint point = measured.space.points[i];
      point.variant += variant_offset;
      const PointResult& r = measured.results[i];
      if (r.feasible) {
        searches[owner[static_cast<std::size_t>(point.variant)]].pool.insert(
            r.design.allocation.total(), r.design.cycles.exec_cycles);
      }
      final.space.points.push_back(point);
      final.results.push_back(std::move(measured.results[i]));
    }
    for (Variant& variant : measured.space.variants) {
      final.space.variants.push_back(std::move(variant));
    }
  }

  // Reorder once, in place, from round-major into kernel-major order (each
  // kernel's waves in turn): a stable sort of the variants by kernel, every
  // point following its variant in its original relative order.
  std::vector<std::size_t> next_variant(searches.size() + 1, 0);
  for (const std::size_t k : owner) ++next_variant[k + 1];
  std::partial_sum(next_variant.begin(), next_variant.end(), next_variant.begin());
  std::vector<std::size_t> variant_to(owner.size());
  for (std::size_t v = 0; v < owner.size(); ++v) variant_to[v] = next_variant[owner[v]]++;

  std::vector<SpacePoint>& points = final.space.points;
  std::vector<std::size_t> next_point(owner.size() + 1, 0);
  for (const SpacePoint& point : points) {
    ++next_point[variant_to[static_cast<std::size_t>(point.variant)] + 1];
  }
  std::partial_sum(next_point.begin(), next_point.end(), next_point.begin());
  std::vector<std::size_t> point_to(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SpacePoint& point = points[i];
    point.variant = static_cast<int>(variant_to[static_cast<std::size_t>(point.variant)]);
    point_to[i] = next_point[static_cast<std::size_t>(point.variant)]++;
    point.index = static_cast<int>(point_to[i]);
  }
  for (std::size_t v = 0; v < variant_to.size(); ++v) {
    final.space.variants[v].index = static_cast<int>(variant_to[v]);
  }
  permute(std::move(variant_to), [&](std::size_t a, std::size_t b) {
    std::swap(final.space.variants[a], final.space.variants[b]);
  });
  permute(std::move(point_to), [&](std::size_t a, std::size_t b) {
    std::swap(points[a], points[b]);
    std::swap(final.results[a], final.results[b]);
  });
  return final;
}

}  // namespace srra::dse
