#include "analysis/refs.h"

#include <algorithm>

#include "ir/printer.h"
#include "support/error.h"
#include "support/str.h"

namespace srra {

namespace {

int find_or_add_group(std::vector<RefGroup>& groups, const Kernel& kernel,
                      const ArrayAccess& access) {
  for (const RefGroup& g : groups) {
    if (g.access == access) return g.id;
  }
  RefGroup group;
  group.id = static_cast<int>(groups.size());
  group.access = access;
  group.display = access_to_string(kernel, access);
  groups.push_back(std::move(group));
  return groups.back().id;
}

}  // namespace

std::vector<RefGroup> collect_ref_groups(const Kernel& kernel) {
  std::vector<RefGroup> groups;
  int order = 0;
  for (int s = 0; s < static_cast<int>(kernel.body().size()); ++s) {
    const Stmt& stmt = kernel.body()[static_cast<std::size_t>(s)];
    // Track which groups have been written earlier in the iteration so the
    // forwarding rule (same-iteration read-after-write is a wire) is known.
    stmt.rhs->for_each_ref([&](const ArrayAccess& access) {
      const int id = find_or_add_group(groups, kernel, access);
      RefGroup& g = groups[static_cast<std::size_t>(id)];
      if (g.occurrences.empty()) g.first_order = order;
      g.occurrences.push_back(RefOccurrence{s, order, false});
      ++g.reads_per_iter;
      ++order;
    });
    const int id = find_or_add_group(groups, kernel, stmt.lhs);
    RefGroup& g = groups[static_cast<std::size_t>(id)];
    if (g.occurrences.empty()) g.first_order = order;
    g.occurrences.push_back(RefOccurrence{s, order, true});
    ++g.writes_per_iter;
    ++order;
  }

  // Count forwarded reads: a read occurrence that has an earlier write
  // occurrence of the same group within the iteration body.
  for (RefGroup& g : groups) {
    int first_write_order = -1;
    for (const RefOccurrence& occ : g.occurrences) {
      if (occ.is_write) {
        first_write_order = occ.order;
        break;
      }
    }
    if (first_write_order < 0) continue;
    for (const RefOccurrence& occ : g.occurrences) {
      if (!occ.is_write && occ.order > first_write_order) ++g.forwarded_reads_per_iter;
    }
  }
  return groups;
}

std::vector<FlatOccurrence> flatten(const std::vector<RefGroup>& groups) {
  std::vector<FlatOccurrence> flat;
  for (const RefGroup& g : groups) {
    for (const RefOccurrence& occ : g.occurrences) {
      flat.push_back(FlatOccurrence{g.id, occ.stmt, occ.order, occ.is_write});
    }
  }
  std::sort(flat.begin(), flat.end(),
            [](const FlatOccurrence& a, const FlatOccurrence& b) { return a.order < b.order; });
  return flat;
}

int total_occurrences(const std::vector<RefGroup>& groups) {
  int total = 0;
  for (const RefGroup& g : groups) total += static_cast<int>(g.occurrences.size());
  return total;
}

const RefGroup& group_named(const std::vector<RefGroup>& groups, const std::string& display) {
  for (const RefGroup& g : groups) {
    if (g.display == display) return g;
  }
  fail(cat("no reference group named ", display));
}

}  // namespace srra
