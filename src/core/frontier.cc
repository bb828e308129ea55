#include "core/frontier.h"

#include <algorithm>

#include "core/bnb_optimal.h"
#include "core/linear_scan.h"
#include "support/error.h"
#include "support/str.h"

namespace srra {

AllocationFrontier make_frontier(const RefModel& model, std::int64_t max_budget,
                                 const char* algorithm) {
  (void)feasibility_allocation(model, max_budget);  // budget >= group_count
  AllocationFrontier frontier;
  frontier.algorithm = algorithm;
  frontier.min_budget = model.group_count();
  frontier.max_budget = max_budget;
  frontier.index.reserve(static_cast<std::size_t>(max_budget - frontier.min_budget) + 1);
  return frontier;
}

void push_frontier_budget(AllocationFrontier& frontier,
                          const std::vector<std::int64_t>& regs) {
  if (frontier.steps.empty() || frontier.steps.back().regs != regs) {
    Allocation step;
    step.algorithm = frontier.algorithm;
    step.budget = frontier.min_budget + static_cast<std::int64_t>(frontier.index.size());
    step.regs = regs;
    frontier.steps.push_back(std::move(step));
  }
  frontier.index.push_back(static_cast<std::int32_t>(frontier.steps.size()) - 1);
}

Allocation AllocationFrontier::at(std::int64_t budget) const {
  check(covers(budget), [&] {
    return cat(algorithm, " frontier covers budgets [", min_budget, ", ", max_budget, "], not ",
               budget);
  });
  Allocation a = steps[static_cast<std::size_t>(
      index[static_cast<std::size_t>(budget - min_budget)])];
  a.budget = budget;
  return a;
}

AllocationFrontier allocate_feasibility_frontier(const RefModel& model,
                                                 std::int64_t max_budget) {
  AllocationFrontier frontier = make_frontier(model, max_budget, "feasibility");
  const std::vector<std::int64_t> ones(static_cast<std::size_t>(model.group_count()), 1);
  for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
    push_frontier_budget(frontier, ones);
  }
  return frontier;
}

namespace {

// The benefit-sorted plan both greedy allocators replay per budget: group
// order, per-group full requirements, and the cutoff where the ratios stop
// being profitable. Computed once per frontier (or per single-budget call).
struct GreedyPlan {
  std::vector<int> order;
  std::size_t active = 0;           ///< groups before the first bc <= 0
  std::vector<std::int64_t> full;   ///< beta_full per group

  explicit GreedyPlan(const RefModel& model)
      : order(model.sorted_by_benefit()),
        active(order.size()),
        full(static_cast<std::size_t>(model.group_count())) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (model.bc_ratio(order[i]) <= 0.0) {
        active = i;
        break;
      }
    }
    for (int g = 0; g < model.group_count(); ++g) {
      full[static_cast<std::size_t>(g)] = model.beta_full(g);
    }
  }
};

// One O(G) FR-RA replay: feasibility registers, then full coverage in
// benefit order while it fits.
void fr_replay(const GreedyPlan& plan, std::int64_t budget,
               std::vector<std::int64_t>& regs) {
  std::fill(regs.begin(), regs.end(), std::int64_t{1});
  std::int64_t left = budget - static_cast<std::int64_t>(regs.size());
  for (std::size_t i = 0; i < plan.active; ++i) {
    const auto g = static_cast<std::size_t>(plan.order[i]);
    const std::int64_t need = plan.full[g] - 1;
    if (need <= 0 || need > left) continue;
    regs[g] += need;
    left -= need;
  }
}

// One O(G) PR-RA replay: FR-RA, then pour the leftovers into the next
// profitable references in the same order.
void pr_replay(const GreedyPlan& plan, std::int64_t budget,
               std::vector<std::int64_t>& regs) {
  fr_replay(plan, budget, regs);
  std::int64_t used = 0;
  for (const std::int64_t r : regs) used += r;
  std::int64_t left = budget - used;
  for (std::size_t i = 0; i < plan.active && left > 0; ++i) {
    const auto g = static_cast<std::size_t>(plan.order[i]);
    const std::int64_t room = plan.full[g] - regs[g];
    if (room <= 0) continue;
    const std::int64_t give = std::min(room, left);
    regs[g] += give;
    left -= give;
  }
}

// Shared scaffold of the two greedy entry-point flavours: a single-budget
// allocation or a whole frontier from the same replay.
template <typename Replay>
Allocation greedy_at(const RefModel& model, std::int64_t budget, const char* algorithm,
                     const Replay& replay) {
  Allocation a = feasibility_allocation(model, budget);
  a.algorithm = algorithm;
  GreedyPlan plan(model);
  replay(plan, budget, a.regs);
  return a;
}

template <typename Replay>
AllocationFrontier greedy_frontier(const RefModel& model, std::int64_t max_budget,
                                   const char* algorithm, const Replay& replay) {
  AllocationFrontier frontier = make_frontier(model, max_budget, algorithm);
  GreedyPlan plan(model);
  std::vector<std::int64_t> regs(static_cast<std::size_t>(model.group_count()));
  for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
    replay(plan, b, regs);
    push_frontier_budget(frontier, regs);
  }
  return frontier;
}

}  // namespace

// The per-budget greedy allocators share the replay with their frontier
// builders: one call is one O(G) pass, not a sliced frontier.

Allocation allocate_fr(const RefModel& model, std::int64_t budget) {
  return greedy_at(model, budget, "FR-RA", fr_replay);
}

Allocation allocate_pr(const RefModel& model, std::int64_t budget) {
  return greedy_at(model, budget, "PR-RA", pr_replay);
}

AllocationFrontier allocate_fr_frontier(const RefModel& model, std::int64_t max_budget) {
  return greedy_frontier(model, max_budget, "FR-RA", fr_replay);
}

AllocationFrontier allocate_pr_frontier(const RefModel& model, std::int64_t max_budget) {
  return greedy_frontier(model, max_budget, "PR-RA", pr_replay);
}

AllocationFrontier allocate_knapsack_frontier(const RefModel& model,
                                              std::int64_t max_budget) {
  AllocationFrontier frontier = make_frontier(model, max_budget, "KS-RA");
  const int groups = model.group_count();
  const std::int64_t capacity = max_budget - groups;

  struct Item {
    int group;
    std::int64_t weight;
    std::int64_t value;
  };
  std::vector<Item> items;
  for (int g = 0; g < groups; ++g) {
    const std::int64_t weight = model.beta_full(g) - 1;
    const std::int64_t value = model.saved(g);
    if (weight <= 0 || value <= 0 || weight > capacity) continue;
    items.push_back(Item{g, weight, value});
  }

  // One DP at the top capacity; the keep matrix serves every budget. An
  // item never sets a bit below its own weight, so reconstructing from
  // column c replays exactly the standalone run whose item list drops the
  // too-heavy items for capacity c.
  const auto cap = static_cast<std::size_t>(capacity);
  const std::size_t row_words = cap / 64 + 1;
  std::vector<std::int64_t> dp(cap + 1, 0);
  std::vector<std::uint64_t> keep(items.size() * row_words, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto w = static_cast<std::size_t>(items[i].weight);
    std::uint64_t* row = keep.data() + i * row_words;
    for (std::size_t c = cap + 1; c-- > w;) {
      const std::int64_t with = dp[c - w] + items[i].value;
      if (with > dp[c]) {
        dp[c] = with;
        row[c / 64] |= std::uint64_t{1} << (c % 64);
      }
    }
  }

  std::vector<std::int64_t> regs(static_cast<std::size_t>(groups));
  for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
    std::fill(regs.begin(), regs.end(), std::int64_t{1});
    std::size_t c = static_cast<std::size_t>(b - groups);
    for (std::size_t i = items.size(); i-- > 0;) {
      const std::uint64_t* row = keep.data() + i * row_words;
      if ((row[c / 64] >> (c % 64) & 1) == 0) continue;
      regs[static_cast<std::size_t>(items[i].group)] += items[i].weight;
      c -= static_cast<std::size_t>(items[i].weight);
    }
    push_frontier_budget(frontier, regs);
  }
  return frontier;
}

AllocationFrontier allocate_optimal_dp_frontier(const RefModel& model,
                                                std::int64_t max_budget) {
  AllocationFrontier frontier = make_frontier(model, max_budget, "DP-RA");
  const int groups = model.group_count();

  // The DP's inner loop reads the dense curve directly — no per-query memo
  // locks on the hot path.
  const AccessCurve& curve = model.access_curve(max_budget);

  // Per group, the useful register range is [1, min(beta_full, budget)].
  std::vector<std::int64_t> cap(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    cap[static_cast<std::size_t>(g)] = std::min<std::int64_t>(model.beta_full(g), max_budget);
  }

  // dp[b] = minimal steady accesses for the first `g` groups using exactly
  // the feasibility register plus b extra registers in total. Because the
  // best-so-far propagation keeps every column monotone, the dp state and
  // choice rows at column e never depend on columns above e — so one run at
  // the top budget contains every smaller budget's run verbatim, and the
  // per-budget reconstructions below are byte-identical to standalone runs.
  const std::int64_t extra_budget = max_budget - groups;
  const auto width = static_cast<std::size_t>(extra_budget + 1);
  constexpr std::int64_t kInf = std::int64_t{1} << 60;
  std::vector<std::int64_t> dp(width, 0);
  std::vector<std::int64_t> choice(static_cast<std::size_t>(groups) * width, 0);

  for (int g = 0; g < groups; ++g) {
    std::vector<std::int64_t> next(width, kInf);
    std::int64_t* row = choice.data() + static_cast<std::size_t>(g) * width;
    const std::int64_t max_extra = cap[static_cast<std::size_t>(g)] - 1;
    for (std::int64_t b = 0; b <= extra_budget; ++b) {
      if (dp[static_cast<std::size_t>(b)] >= kInf) continue;
      // Tightened inner bound: takes past extra_budget - b overflow the
      // budget and were skipped one comparison at a time before.
      const std::int64_t take_limit = std::min(max_extra, extra_budget - b);
      for (std::int64_t take = 0; take <= take_limit; ++take) {
        const std::int64_t cost =
            dp[static_cast<std::size_t>(b)] + curve.steady(g, 1 + take);
        auto& cell = next[static_cast<std::size_t>(b + take)];
        if (cost < cell) {
          cell = cost;
          row[static_cast<std::size_t>(b + take)] = take;
        }
      }
    }
    // Allow leaving budget unused: propagate best-so-far forward so that
    // next[b] is monotone (using fewer registers is always permitted).
    for (std::size_t b = 1; b < width; ++b) {
      if (next[b] > next[b - 1]) {
        next[b] = next[b - 1];
        row[b] = -1;  // marker: look left
      }
    }
    dp = std::move(next);
  }

  // Reconstruct every budget from its own column.
  std::vector<std::int64_t> regs(static_cast<std::size_t>(groups));
  for (std::int64_t budget = frontier.min_budget; budget <= max_budget; ++budget) {
    std::fill(regs.begin(), regs.end(), std::int64_t{1});
    std::int64_t b = budget - groups;
    for (int g = groups - 1; g >= 0; --g) {
      const std::int64_t* row = choice.data() + static_cast<std::size_t>(g) * width;
      while (row[static_cast<std::size_t>(b)] < 0) --b;
      const std::int64_t take = row[static_cast<std::size_t>(b)];
      regs[static_cast<std::size_t>(g)] += take;
      b -= take;
    }
    std::int64_t used = 0;
    for (const std::int64_t r : regs) used += r;
    check(used <= budget, "DP reconstruction exceeded the budget");
    push_frontier_budget(frontier, regs);
  }
  return frontier;
}

AllocationFrontier allocate_cpa_frontier(const RefModel& model, std::int64_t max_budget,
                                         const CpaOptions& options) {
  AllocationFrontier frontier = make_frontier(model, max_budget, "CPA-RA");
  const int groups = model.group_count();

  // One traced run at the top budget. A round's critical graph, candidate
  // cuts and chosen cut are functions of the current assignment only — the
  // remaining budget only decides whether the round applies fully, water-
  // fills, or stops — so every smaller budget replays a prefix of this
  // trace against the very same states.
  std::vector<CpaRound> trace;
  (void)allocate_cpa_traced(model, max_budget, options, trace);

  std::vector<std::int64_t> regs(static_cast<std::size_t>(groups));
  std::vector<int> members;
  for (std::int64_t b = frontier.min_budget; b <= max_budget; ++b) {
    std::fill(regs.begin(), regs.end(), std::int64_t{1});
    std::int64_t left = b - groups;
    for (const CpaRound& round : trace) {
      if (left <= 0) break;
      std::int64_t required = 0;
      for (const int g : round.chosen) {
        required += model.beta_full(g) - regs[static_cast<std::size_t>(g)];
      }
      if (required <= left) {
        for (const int g : round.chosen) {
          const std::int64_t need = model.beta_full(g) - regs[static_cast<std::size_t>(g)];
          regs[static_cast<std::size_t>(g)] += need;
          left -= need;
        }
        continue;
      }
      // Divide the remaining registers equally among the cut's members
      // (water-filling, beta_full caps, earliest reference gets remainders)
      // — identical to the traced allocator's partial round.
      members = round.chosen;
      std::sort(members.begin(), members.end(), [&](int x, int y) {
        return model.groups()[static_cast<std::size_t>(x)].first_order <
               model.groups()[static_cast<std::size_t>(y)].first_order;
      });
      bool progress = true;
      while (left > 0 && progress) {
        progress = false;
        for (const int g : members) {
          if (left <= 0) break;
          auto& r = regs[static_cast<std::size_t>(g)];
          if (r < model.beta_full(g)) {
            ++r;
            --left;
            progress = true;
          }
        }
      }
      break;
    }
    push_frontier_budget(frontier, regs);
  }
  return frontier;
}

AllocationFrontier allocate_frontier(Algorithm algorithm, const RefModel& model,
                                     std::int64_t max_budget) {
  switch (algorithm) {
    case Algorithm::kFeasibility: return allocate_feasibility_frontier(model, max_budget);
    case Algorithm::kFrRa: return allocate_fr_frontier(model, max_budget);
    case Algorithm::kPrRa: return allocate_pr_frontier(model, max_budget);
    case Algorithm::kCpaRa: return allocate_cpa_frontier(model, max_budget);
    case Algorithm::kKnapsack: return allocate_knapsack_frontier(model, max_budget);
    case Algorithm::kOptimalDp: return allocate_optimal_dp_frontier(model, max_budget);
    case Algorithm::kLinearScan: return allocate_linear_scan_frontier(model, max_budget);
    case Algorithm::kBnbOptimal: return allocate_bnb_frontier(model, max_budget);
  }
  fail("unknown Algorithm");
}

}  // namespace srra
