#include "dse/candidate_tree.h"

#include <algorithm>
#include <numeric>

#include "analysis/refs.h"
#include "analysis/reuse.h"
#include "support/error.h"
#include "support/str.h"

namespace srra::dse {

namespace {

void apply_interchange_abs(AbsState& state, const std::vector<int>& perm) {
  const auto permute = [&](const std::vector<std::int64_t>& in) {
    std::vector<std::int64_t> out(in.size());
    for (std::size_t l = 0; l < perm.size(); ++l) {
      out[l] = in[static_cast<std::size_t>(perm[l])];
    }
    return out;
  };
  state.trips = permute(state.trips);
  for (AbsGroup& g : state.groups) g.shift = permute(g.shift);
}

// Mirrors ir/transform.cc: a non-dividing size peels the remainder range
// into an epilogue first (ahead of the earlier ones, as it runs before
// them); the main range then full-tiles into a tile loop (stride scaled by
// `size`) over a point loop (original stride).
void apply_tile_abs(AbsState& state, int level, std::int64_t size) {
  const std::size_t l = static_cast<std::size_t>(level);
  const std::int64_t rem = state.trips[l] % size;
  if (rem != 0) {
    state.epilogue_iterations.insert(state.epilogue_iterations.begin(),
                                     state.main_iterations() / state.trips[l] * rem);
    state.trips[l] -= rem;
  }
  state.trips[l] /= size;
  state.trips.insert(state.trips.begin() + static_cast<std::ptrdiff_t>(l) + 1, size);
  for (AbsGroup& g : state.groups) {
    const std::int64_t shift = g.shift[l];
    g.shift[l] = shift * size;
    g.shift.insert(g.shift.begin() + static_cast<std::ptrdiff_t>(l) + 1, shift);
  }
}

void apply_unroll_jam_abs(AbsState& state, int level, std::int64_t factor) {
  const std::size_t l = static_cast<std::size_t>(level);
  for (AbsGroup& g : state.groups) {
    // Copies whose subscripts move at the level become distinct groups; an
    // invariant group's copies collapse back onto one syntactic pattern.
    if (g.shift[l] != 0) g.mult *= factor;
    g.shift[l] *= factor;
  }
  state.trips[l] /= factor;
}

// The recursive part of the tree: everything below one loop order. The
// sequence of the node being expanded grows and shrinks in place.
class TreeWalk {
 public:
  TreeWalk(const TransformSpec& spec, const CandidateVisitor& visit,
           std::vector<LoopTransform> prefix)
      : spec_(spec), visit_(visit), sequence_(std::move(prefix)) {}

  // One (possibly permuted, possibly tiled) nest: the bare candidate (when
  // requested), its unroll-and-jams, then — while tile layers remain —
  // every tile expanded recursively, so tile_depth > 1 stacks tiles on
  // tiles. Sizes >= the trip count never tile.
  void expand(const AbsState& state, bool visit_bare, int tiles_left) {
    if (visit_bare) visit_(state, sequence_);
    visit_unrolls(state);
    if (tiles_left <= 0) return;
    for (int level = 0; level < static_cast<int>(state.trips.size()); ++level) {
      const std::int64_t trip = state.trips[static_cast<std::size_t>(level)];
      for (const std::int64_t size : spec_.tile_sizes) {
        if (size < 2 || size >= trip) continue;
        AbsState tiled = state;
        apply_tile_abs(tiled, level, size);
        sequence_.push_back(LoopTransform::tile(level, size));
        expand(tiled, /*visit_bare=*/true, tiles_left - 1);
        sequence_.pop_back();
      }
    }
  }

 private:
  // Unroll-and-jam needs a dividing factor and, per is_safe, every access
  // to a written array invariant at the level. A group's shift is zero
  // whenever its subscripts are invariant (linearization can also cancel
  // varying ones), so the shift test accepts a superset of is_safe's.
  void visit_unrolls(const AbsState& state) {
    for (int level = 0; level < static_cast<int>(state.trips.size()); ++level) {
      const std::size_t l = static_cast<std::size_t>(level);
      const bool invariant =
          std::none_of(state.groups.begin(), state.groups.end(), [&](const AbsGroup& g) {
            return g.array_written && g.shift[l] != 0;
          });
      if (!invariant) continue;
      for (const std::int64_t factor : spec_.unroll_factors) {
        if (factor < 2 || state.trips[l] % factor != 0) continue;
        AbsState unrolled = state;
        apply_unroll_jam_abs(unrolled, level, factor);
        sequence_.push_back(LoopTransform::unroll_jam(level, factor));
        visit_(unrolled, sequence_);
        sequence_.pop_back();
      }
    }
  }

  const TransformSpec& spec_;
  const CandidateVisitor& visit_;
  std::vector<LoopTransform> sequence_;
};

}  // namespace

std::int64_t AbsState::main_iterations() const {
  std::int64_t n = 1;
  for (const std::int64_t t : trips) n *= t;
  return n;
}

AbsState abstract_state(const Kernel& kernel) {
  AbsState state;
  state.trips = kernel.trip_counts();
  const std::vector<RefGroup> groups = collect_ref_groups(kernel);
  std::vector<bool> written(kernel.arrays().size(), false);
  for (const RefGroup& g : groups) {
    if (g.has_write()) written[static_cast<std::size_t>(g.access.array_id)] = true;
  }
  for (const RefGroup& g : groups) {
    AbsGroup ag;
    ag.shift = access_shift_profile(kernel, g.access);
    ag.array = g.access.array_id;
    ag.read_node = g.reads_per_iter > g.forwarded_reads_per_iter;
    ag.write = g.has_write();
    ag.array_written = written[static_cast<std::size_t>(ag.array)];
    state.groups.push_back(std::move(ag));
  }
  return state;
}

void apply_abs(AbsState& state, const LoopTransform& t) {
  switch (t.kind) {
    case TransformKind::kInterchange:
      apply_interchange_abs(state, t.perm);
      return;
    case TransformKind::kTile:
      apply_tile_abs(state, t.level, t.amount);
      return;
    case TransformKind::kUnrollJam:
      apply_unroll_jam_abs(state, t.level, t.amount);
      return;
  }
  fail("unknown TransformKind");
}

void walk_candidates(const Kernel& kernel, const std::string& kernel_name,
                     const TransformSpec& spec, const CandidateVisitor& visit) {
  const AbsState source = abstract_state(kernel);
  visit(source, {});
  // Explicit sequences are checked here, before any consumer can skip them:
  // the API promises a throw for an illegal one, never a silent drop.
  for (const std::vector<LoopTransform>& sequence : spec.sequences) {
    check(is_safe(kernel, sequence), [&] {
      return cat("transform sequence '", to_string(sequence), "' is illegal for kernel ",
                 kernel_name);
    });
    AbsState state = source;
    for (const LoopTransform& t : sequence) apply_abs(state, t);
    visit(state, sequence);
  }

  const int depth = kernel.depth();
  const bool permute = spec.interchange && depth > 1 &&
                       depth <= spec.max_interchange_depth && reorder_is_safe(kernel);
  std::vector<int> perm(static_cast<std::size_t>(depth));
  std::iota(perm.begin(), perm.end(), 0);
  do {
    if (std::is_sorted(perm.begin(), perm.end())) {
      TreeWalk(spec, visit, {}).expand(source, /*visit_bare=*/false, spec.tile_depth);
    } else {
      const LoopTransform interchange = LoopTransform::interchange(perm);
      AbsState state = source;
      apply_abs(state, interchange);
      TreeWalk(spec, visit, {interchange}).expand(state, /*visit_bare=*/true, spec.tile_depth);
    }
  } while (permute && std::next_permutation(perm.begin(), perm.end()));
}

std::uint64_t nest_hash(const PeeledNest& nest) {
  std::uint64_t h = structural_hash(nest.main);
  for (const Kernel& epilogue : nest.epilogues) {
    h = h * 1099511628211ull ^ structural_hash(epilogue);
  }
  return h;
}

Variant make_variant(int index, const std::string& kernel_name,
                     std::vector<LoopTransform> transforms, PeeledNest nest) {
  Variant variant;
  variant.index = index;
  variant.kernel_name = kernel_name;
  variant.order = cat("(", join(nest.main.loop_names(), ","), ")");
  variant.encoding = to_string(transforms);
  variant.transforms = std::move(transforms);
  variant.kernel = std::move(nest.main);
  variant.epilogues = std::move(nest.epilogues);
  return variant;
}

void add_points(EnumeratedSpace& space, const AxisSpec& axes) {
  for (const Variant& variant : space.variants) {
    for (const bool fetch : axes.fetch_modes) {
      for (const Algorithm algorithm : axes.algorithms) {
        for (const std::int64_t budget : axes.budgets) {
          SpacePoint point;
          point.index = static_cast<int>(space.points.size());
          point.variant = variant.index;
          point.algorithm = algorithm;
          point.budget = budget;
          point.concurrent_fetch = fetch;
          space.points.push_back(point);
        }
      }
    }
  }
}

}  // namespace srra::dse
