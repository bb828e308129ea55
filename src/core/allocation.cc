#include "core/allocation.h"

#include <numeric>

#include "support/error.h"
#include "support/str.h"

namespace srra {

std::int64_t Allocation::total() const {
  return std::accumulate(regs.begin(), regs.end(), std::int64_t{0});
}

std::int64_t Allocation::at(int g) const {
  check(g >= 0 && g < static_cast<int>(regs.size()), "group id out of range");
  return regs[static_cast<std::size_t>(g)];
}

void Allocation::validate(const RefModel& model) const {
  check(static_cast<int>(regs.size()) == model.group_count(),
        "allocation size must match group count");
  for (int g = 0; g < model.group_count(); ++g) {
    const std::int64_t n = regs[static_cast<std::size_t>(g)];
    check(n >= 1, [&] { return cat("group ", g, " lacks its feasibility register"); });
    check(n <= model.beta_full(g), [&] {
      return cat("group ", g, " allocated beyond full scalar replacement");
    });
  }
  check(total() <= budget, "allocation exceeds the register budget");
}

std::string Allocation::distribution() const {
  std::vector<std::string> parts;
  parts.reserve(regs.size());
  for (std::int64_t r : regs) parts.push_back(std::to_string(r));
  return join(parts, "/");
}

Allocation feasibility_allocation(const RefModel& model, std::int64_t budget) {
  check(budget >= model.group_count(), [&] {
    return cat("budget ", budget, " cannot give every of the ", model.group_count(),
               " references its feasibility register");
  });
  Allocation a;
  a.algorithm = "feasibility";
  a.budget = budget;
  a.regs.assign(static_cast<std::size_t>(model.group_count()), 1);
  return a;
}

}  // namespace srra
