#include "core/bnb_optimal.h"

#include <algorithm>

#include "core/optimal.h"

namespace srra {

namespace {

// The search's static shape for one (model, budget): per position in a
// pruning-friendly order, the group's staircase counts/costs, plus dense
// suffix lower-bound tables so a node's bound is one array lookup.
struct SearchPlan {
  std::vector<int> group;                         ///< position -> group id
  std::vector<std::vector<std::int64_t>> counts;  ///< staircase n, ascending
  std::vector<std::vector<std::int64_t>> costs;   ///< steady accesses at counts[k]
  // suffix_bound[pos][limit]: sum over positions >= pos of the cheapest
  // staircase cost reachable with at most `limit` registers per group — the
  // budget-sharing relaxation. limit in [1, limit_max]; one trailing
  // all-zero row serves the leaf position.
  std::vector<std::vector<std::int64_t>> suffix_bound;
  std::int64_t limit_max = 1;  ///< budget - (G - 1): a group's register ceiling
};

SearchPlan build_plan(const RefModel& model, std::int64_t budget) {
  const int groups = model.group_count();
  SearchPlan plan;
  plan.limit_max = std::max<std::int64_t>(budget - groups + 1, 1);
  model.access_curve(budget);  // lock-free steady queries below

  // Staircase per group: n = 1 plus every count that strictly improves on
  // all smaller counts. Assignments off the staircase are dominated — any
  // n maps to the largest staircase count below it with the same cost and
  // no more registers — so searching staircases only preserves optimality.
  std::vector<std::vector<std::int64_t>> best_upto(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    const std::int64_t cap = std::min(model.beta_full(g), plan.limit_max);
    std::vector<std::int64_t> counts{1};
    std::vector<std::int64_t> costs{model.accesses(g, 1, CountMode::kSteady)};
    for (std::int64_t n = 2; n <= cap; ++n) {
      const std::int64_t cost = model.accesses(g, n, CountMode::kSteady);
      if (cost < costs.back()) {
        counts.push_back(n);
        costs.push_back(cost);
      }
    }
    // Dense cheapest-cost-with-at-most-`limit`-registers table.
    std::vector<std::int64_t>& upto = best_upto[static_cast<std::size_t>(g)];
    upto.assign(static_cast<std::size_t>(plan.limit_max) + 1, costs.front());
    for (std::size_t k = 0, limit = 1; limit <= static_cast<std::size_t>(plan.limit_max);
         ++limit) {
      while (k + 1 < counts.size() && counts[k + 1] <= static_cast<std::int64_t>(limit)) {
        ++k;
      }
      upto[limit] = costs[k];
    }
    plan.group.push_back(g);
    plan.counts.push_back(std::move(counts));
    plan.costs.push_back(std::move(costs));
  }

  // Search high-spread groups first: their branches move the cost most, so
  // the bound bites early. Group id breaks ties for determinism.
  std::sort(plan.group.begin(), plan.group.end(), [&](int a, int b) {
    const std::vector<std::int64_t>& ca = plan.costs[static_cast<std::size_t>(a)];
    const std::vector<std::int64_t>& cb = plan.costs[static_cast<std::size_t>(b)];
    const std::int64_t spread_a = ca.front() - ca.back();
    const std::int64_t spread_b = cb.front() - cb.back();
    if (spread_a != spread_b) return spread_a > spread_b;
    return a < b;
  });
  {
    std::vector<std::vector<std::int64_t>> counts(plan.group.size());
    std::vector<std::vector<std::int64_t>> costs(plan.group.size());
    for (std::size_t pos = 0; pos < plan.group.size(); ++pos) {
      counts[pos] = std::move(plan.counts[static_cast<std::size_t>(plan.group[pos])]);
      costs[pos] = std::move(plan.costs[static_cast<std::size_t>(plan.group[pos])]);
    }
    plan.counts = std::move(counts);
    plan.costs = std::move(costs);
  }

  plan.suffix_bound.assign(
      plan.group.size() + 1,
      std::vector<std::int64_t>(static_cast<std::size_t>(plan.limit_max) + 1, 0));
  for (std::size_t pos = plan.group.size(); pos-- > 0;) {
    const std::vector<std::int64_t>& upto =
        best_upto[static_cast<std::size_t>(plan.group[pos])];
    for (std::size_t limit = 1; limit <= static_cast<std::size_t>(plan.limit_max);
         ++limit) {
      plan.suffix_bound[pos][limit] = plan.suffix_bound[pos + 1][limit] + upto[limit];
    }
  }
  return plan;
}

// Depth-first search over the staircase assignments, strictly-improve-only:
// the incumbent is already the DP optimum, so every node whose relaxation
// cannot *beat* it is cut, and an exhausted search is the certificate that
// the incumbent is the true optimum — proved, not assumed from the DP
// recurrence.
struct Search {
  const SearchPlan& plan;
  const BnbOptions& options;
  std::vector<std::int64_t> current;  ///< chosen count per position
  std::vector<std::int64_t> best;     ///< incumbent counts per position
  std::int64_t best_cost = 0;
  std::int64_t nodes = 0;
  bool aborted = false;

  Search(const SearchPlan& p, const BnbOptions& o) : plan(p), options(o) {
    current.resize(plan.group.size());
    best.resize(plan.group.size());
  }

  void dfs(std::size_t pos, std::int64_t extra_left, std::int64_t cost_so_far) {
    if (++nodes > options.max_nodes) {
      aborted = true;
      return;
    }
    if (pos == plan.group.size()) {
      if (cost_so_far < best_cost) {
        best_cost = cost_so_far;
        best = current;
      }
      return;
    }
    const std::vector<std::int64_t>& counts = plan.counts[pos];
    const std::vector<std::int64_t>& costs = plan.costs[pos];
    for (std::size_t k = counts.size(); k-- > 0;) {  // greediest branch first
      const std::int64_t extra = counts[k] - 1;
      if (extra > extra_left) continue;
      const std::int64_t child_cost = cost_so_far + costs[k];
      const std::int64_t child_extra = extra_left - extra;
      const std::size_t limit =
          static_cast<std::size_t>(std::min(child_extra + 1, plan.limit_max));
      if (child_cost + plan.suffix_bound[pos + 1][limit] >= best_cost) continue;
      current[pos] = counts[k];
      dfs(pos + 1, child_extra, child_cost);
      if (aborted) return;
    }
  }
};

// The search for one budget around a DP-optimal seed. `result.allocation`
// must arrive stamped "BB-RA" with the seed's register counts.
void search_around_seed(const RefModel& model, std::int64_t budget,
                        const BnbOptions& options, BnbResult& result) {
  const SearchPlan plan = build_plan(model, budget);
  Search search(plan, options);
  for (std::size_t pos = 0; pos < plan.group.size(); ++pos) {
    search.best[pos] = result.allocation.at(plan.group[pos]);
    search.best_cost +=
        model.accesses(plan.group[pos], search.best[pos], CountMode::kSteady);
  }

  const std::int64_t extra_root = budget - model.group_count();
  result.lower_bound = plan.suffix_bound.front()[static_cast<std::size_t>(
      std::min(extra_root + 1, plan.limit_max))];
  search.dfs(0, extra_root, 0);

  for (std::size_t pos = 0; pos < plan.group.size(); ++pos) {
    result.allocation.regs[static_cast<std::size_t>(plan.group[pos])] = search.best[pos];
  }
  result.accesses = search.best_cost;
  result.nodes = search.nodes;
  result.certified = !search.aborted;
}

}  // namespace

BnbResult allocate_bnb_certified(const RefModel& model, std::int64_t budget,
                                 const BnbOptions& options) {
  BnbResult result;
  result.allocation = allocate_optimal_dp(model, budget);  // validates the budget
  result.allocation.algorithm = "BB-RA";
  search_around_seed(model, budget, options, result);
  return result;
}

Allocation allocate_bnb(const RefModel& model, std::int64_t budget) {
  return allocate_bnb_certified(model, budget).allocation;
}

AllocationFrontier allocate_bnb_frontier(const RefModel& model, std::int64_t max_budget,
                                         const BnbOptions& options) {
  AllocationFrontier frontier = make_frontier(model, max_budget, "BB-RA");
  // One shared DP frontier seeds every budget's incumbent; its slices are
  // byte-identical to standalone DP runs (tests/test_frontier.cc), so each
  // budget below reproduces allocate_bnb(model, b) exactly.
  const AllocationFrontier seeds = allocate_optimal_dp_frontier(model, max_budget);
  for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
    BnbResult result;
    result.allocation = seeds.at(b);
    result.allocation.algorithm = "BB-RA";
    search_around_seed(model, b, options, result);
    push_frontier_budget(frontier, result.allocation.regs);
  }
  return frontier;
}

}  // namespace srra
