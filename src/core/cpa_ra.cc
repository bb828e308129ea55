#include "core/cpa_ra.h"

#include <algorithm>
#include <limits>
#include <set>

#include "support/error.h"

namespace srra {

namespace {

// Incremental registers needed to fully cover every group of `cut`.
std::int64_t cut_requirement(const RefModel& model, const Allocation& a,
                             const std::vector<int>& cut) {
  std::int64_t req = 0;
  for (int g : cut) req += model.beta_full(g) - a.regs[static_cast<std::size_t>(g)];
  return req;
}

int first_order_key(const RefModel& model, const std::vector<int>& cut) {
  int best = std::numeric_limits<int>::max();
  for (int g : cut) {
    best = std::min(best, model.groups()[static_cast<std::size_t>(g)].first_order);
  }
  return best;
}

}  // namespace

Allocation allocate_cpa_traced(const RefModel& model, std::int64_t budget,
                               const CpaOptions& options, std::vector<CpaRound>& trace) {
  Allocation a = feasibility_allocation(model, budget);
  a.algorithm = "CPA-RA";
  std::int64_t left = budget - a.total();

  const Dfg dfg = Dfg::build(model.kernel(), model.groups());

  for (int round = 0; round < options.max_rounds && left > 0; ++round) {
    const std::vector<std::int64_t> weights =
        node_weights(dfg, model, a.regs, options.latency);
    const CriticalGraph cg = critical_graph(dfg, weights);

    // Reducible candidates: reference nodes that still cost memory on the
    // critical path and whose group has unexploited reuse.
    CutOptions cut_options = options.cuts;
    cut_options.candidates.assign(static_cast<std::size_t>(dfg.node_count()), false);
    bool any_candidate = false;
    for (const DfgNode& n : dfg.nodes()) {
      if (!n.is_ref() || !cg.in_cg[static_cast<std::size_t>(n.id)]) continue;
      if (weights[static_cast<std::size_t>(n.id)] <= 0) continue;
      const bool reducible =
          model.reuse()[static_cast<std::size_t>(n.group)].has_reuse() &&
          a.regs[static_cast<std::size_t>(n.group)] < model.beta_full(n.group);
      if (!reducible) continue;
      cut_options.candidates[static_cast<std::size_t>(n.id)] = true;
      any_candidate = true;
    }
    if (!any_candidate) break;

    const std::vector<std::vector<int>> node_cuts = find_cuts(dfg, cg, weights, cut_options);
    if (node_cuts.empty()) break;

    // Collapse node cuts to unique group cuts.
    std::set<std::vector<int>> group_cut_set;
    for (const auto& cut : node_cuts) {
      std::set<int> groups;
      for (int id : cut) groups.insert(dfg.node(id).group);
      group_cut_set.insert(std::vector<int>(groups.begin(), groups.end()));
    }
    const std::vector<std::vector<int>> group_cuts(group_cut_set.begin(), group_cut_set.end());

    // Pick the cut with the minimum incremental register requirement; ties
    // go to the smaller cut, then to the cut holding the earliest reference.
    const std::vector<int>* best = nullptr;
    for (const auto& cut : group_cuts) {
      if (best == nullptr) {
        best = &cut;
        continue;
      }
      const std::int64_t req_c = cut_requirement(model, a, cut);
      const std::int64_t req_b = cut_requirement(model, a, *best);
      const bool better =
          req_c < req_b ||
          (req_c == req_b &&
           (cut.size() < best->size() ||
            (cut.size() == best->size() &&
             first_order_key(model, cut) < first_order_key(model, *best))));
      if (better) best = &cut;
    }
    check(best != nullptr, "cut selection failed");

    CpaRound record;
    record.cp_length = cg.length;
    record.cut_groups = group_cuts;
    record.chosen = *best;
    record.required = cut_requirement(model, a, *best);

    if (record.required <= left) {
      for (int g : *best) {
        const std::int64_t need = model.beta_full(g) - a.regs[static_cast<std::size_t>(g)];
        a.regs[static_cast<std::size_t>(g)] += need;
        left -= need;
      }
    } else {
      // Divide the remaining registers equally among the cut's members
      // (water-filling, beta_full caps, earliest reference gets remainders).
      record.partial = true;
      std::vector<int> members = *best;
      std::sort(members.begin(), members.end(), [&](int x, int y) {
        return model.groups()[static_cast<std::size_t>(x)].first_order <
               model.groups()[static_cast<std::size_t>(y)].first_order;
      });
      bool progress = true;
      while (left > 0 && progress) {
        progress = false;
        for (int g : members) {
          if (left <= 0) break;
          auto& r = a.regs[static_cast<std::size_t>(g)];
          if (r < model.beta_full(g)) {
            ++r;
            --left;
            progress = true;
          }
        }
      }
    }
    trace.push_back(std::move(record));
  }
  return a;
}

Allocation allocate_cpa(const RefModel& model, std::int64_t budget,
                        const CpaOptions& options) {
  std::vector<CpaRound> trace;
  return allocate_cpa_traced(model, budget, options, trace);
}

}  // namespace srra
