#include "dse/space.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "dse/candidate_tree.h"
#include "support/error.h"
#include "support/str.h"

namespace srra::dse {

namespace {

// Budgets above this are nonsense for any device the hw model knows; the
// bound also keeps the doubling ladder far from int64 overflow.
constexpr std::int64_t kMaxBudget = 1'000'000;

std::int64_t parse_positive(std::string_view token, const std::string& spec) {
  const std::string text(trim(token));
  check(!text.empty() && text.size() <= 7 &&
            text.find_first_not_of("0123456789") == std::string::npos, [&] {
    return cat("bad budget spec '", spec, "': '", text, "' is not a positive integer <= ",
               kMaxBudget);
  });
  const std::int64_t value = std::stoll(text);
  check(value > 0 && value <= kMaxBudget, [&] {
    return cat("bad budget spec '", spec, "': budgets must be in [1, ", kMaxBudget, "]");
  });
  return value;
}

}  // namespace

std::vector<std::vector<int>> EnumeratedSpace::points_by_variant() const {
  std::vector<std::vector<int>> groups(variants.size());
  for (const SpacePoint& point : points) {
    groups[static_cast<std::size_t>(point.variant)].push_back(point.index);
  }
  return groups;
}

EnumeratedSpace enumerate_space(AxisSpec axes) {
  check(!axes.kernels.empty(), "enumerate_space: no kernels");
  check(!axes.algorithms.empty(), "enumerate_space: no algorithms");
  check(!axes.budgets.empty(), "enumerate_space: no budgets");
  check(!axes.fetch_modes.empty(), "enumerate_space: no fetch modes");
  check(axes.transforms.max_variants_per_kernel >= 1,
        "enumerate_space: max_variants_per_kernel must be at least 1");

  EnumeratedSpace space;
  for (const SpaceKernel& sk : axes.kernels) {
    std::unordered_set<std::uint64_t> seen;
    int added = 0;
    walk_candidates(sk.kernel, sk.name, axes.transforms,
                    [&](const AbsState&, const std::vector<LoopTransform>& sequence) {
      // Illegal candidates are not part of the space and are not counted;
      // duplicates and candidates past the cap are (no silent caps).
      std::optional<PeeledNest> nest = apply_if_safe(sk.kernel, sequence);
      if (!nest) return;
      ++space.stats.variants_generated;
      if (added >= axes.transforms.max_variants_per_kernel) {
        ++space.stats.variants_pruned;
        ++space.stats.pruned_by_cap;
        return;
      }
      if (!seen.insert(nest_hash(*nest)).second) {
        ++space.stats.variants_pruned;
        ++space.stats.pruned_illegal_or_duplicate;
        return;
      }
      space.variants.push_back(make_variant(static_cast<int>(space.variants.size()),
                                            sk.name, sequence, std::move(*nest)));
      ++space.stats.variants_evaluated;
      ++added;
    });
  }
  add_points(space, axes);
  return space;
}

std::vector<std::int64_t> parse_budget_spec(const std::string& spec) {
  std::vector<std::int64_t> budgets;
  if (spec.find(':') != std::string::npos) {
    const std::vector<std::string> parts = split(spec, ':');
    check(parts.size() == 2 || parts.size() == 3, [&] {
      return cat("bad budget spec '", spec, "': want lo:hi or lo:hi:step");
    });
    const std::int64_t lo = parse_positive(parts[0], spec);
    const std::int64_t hi = parse_positive(parts[1], spec);
    check(lo <= hi, [&] { return cat("bad budget spec '", spec, "': lo > hi"); });
    if (parts.size() == 3) {
      const std::int64_t step = parse_positive(parts[2], spec);
      for (std::int64_t b = lo; b <= hi; b += step) budgets.push_back(b);
    } else {
      for (std::int64_t b = lo; b <= hi; b *= 2) budgets.push_back(b);
    }
    if (budgets.back() != hi) budgets.push_back(hi);
  } else {
    for (const std::string& token : split(spec, ',')) {
      budgets.push_back(parse_positive(token, spec));
    }
  }
  std::sort(budgets.begin(), budgets.end());
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
  return budgets;
}

std::vector<std::int64_t> parse_size_list(const std::string& spec, const char* what) {
  std::vector<std::int64_t> sizes;
  for (const std::string& token : split(spec, ',')) {
    const std::string text(trim(token));
    check(!text.empty() && text.size() <= 7 &&
              text.find_first_not_of("0123456789") == std::string::npos, [&] {
      return cat("bad ", what, " spec '", spec, "': '", text, "' is not an integer");
    });
    const std::int64_t value = std::stoll(text);
    check(value >= 2, [&] { return cat("bad ", what, " spec '", spec, "': values must be >= 2"); });
    sizes.push_back(value);
  }
  check(!sizes.empty(), [&] { return cat("bad ", what, " spec '", spec, "': empty"); });
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

}  // namespace srra::dse
