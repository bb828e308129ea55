#include "driver/pipeline.h"

#include <algorithm>
#include <optional>

#include "core/frontier.h"
#include "support/str.h"

namespace srra {

DesignPoint evaluate_design(const RefModel& model, Algorithm algorithm,
                            Allocation allocation, const PipelineOptions& options) {
  DesignPoint point;
  point.algorithm = algorithm;
  point.allocation = std::move(allocation);
  point.allocation.validate(model);
  point.cycles = estimate_cycles(model, point.allocation, options.cycles);
  point.hw = estimate_hw(model, point.allocation, options.device, options.area,
                         options.clock);
  return point;
}

DesignPoint run_pipeline(const RefModel& model, Algorithm algorithm,
                         const PipelineOptions& options) {
  return evaluate_design(model, algorithm, allocate(algorithm, model, options.budget),
                         options);
}

Kernel transform_for_pipeline(const Kernel& kernel,
                              srra::span<const LoopTransform> transforms) {
  PeeledNest nest = transform_nest_for_pipeline(kernel, transforms);
  check(!nest.peeled(), [&] {
    return cat("transform sequence '", to_string(transforms),
               "' needs remainder peeling on kernel ", kernel.name(),
               " (multi-piece nest); this entry point takes single nests only");
  });
  return std::move(nest.main);
}

PeeledNest transform_nest_for_pipeline(const Kernel& kernel,
                                       srra::span<const LoopTransform> transforms) {
  std::optional<PeeledNest> nest = apply_if_safe(kernel, transforms);
  check(nest.has_value(), [&] {
    return cat("transform sequence '", to_string(transforms), "' is illegal for kernel ",
               kernel.name());
  });
  return std::move(*nest);
}

DesignPoint combine_pieces(std::vector<DesignPoint> pieces) {
  check(!pieces.empty(), "combine_pieces: no pieces");
  std::size_t widest = 0;
  CycleReport total = pieces.front().cycles;
  for (std::size_t p = 1; p < pieces.size(); ++p) {
    const CycleReport& c = pieces[p].cycles;
    total.mem_cycles += c.mem_cycles;
    total.ram_accesses += c.ram_accesses;
    total.exec_cycles += c.exec_cycles;
    total.iterations += c.iterations;
    if (pieces[p].allocation.total() > pieces[widest].allocation.total()) widest = p;
  }
  DesignPoint out = std::move(pieces[widest]);
  out.cycles = total;
  return out;
}

std::vector<DesignPoint> run_paper_variants(const RefModel& model,
                                            const PipelineOptions& options) {
  std::vector<DesignPoint> points;
  for (Algorithm alg : paper_variants()) {
    points.push_back(run_pipeline(model, alg, options));
  }
  return points;
}

std::vector<DesignPoint> run_budget_sweep(const RefModel& model,
                                          const std::vector<Algorithm>& algorithms,
                                          const std::vector<std::int64_t>& budgets,
                                          const PipelineOptions& options) {
  std::vector<DesignPoint> points;
  points.reserve(algorithms.size() * budgets.size());
  std::int64_t max_budget = -1;
  for (const std::int64_t budget : budgets) {
    if (budget >= model.group_count()) max_budget = std::max(max_budget, budget);
  }
  if (max_budget < 0) return points;  // every budget is below feasibility

  for (const Algorithm algorithm : algorithms) {
    // One frontier evaluation covers the whole budget axis; each point is a
    // slice (byte-identical to a per-budget allocator run).
    const AllocationFrontier frontier = allocate_frontier(algorithm, model, max_budget);
    for (const std::int64_t budget : budgets) {
      if (budget < model.group_count()) continue;  // below feasibility
      PipelineOptions point_options = options;
      point_options.budget = budget;
      points.push_back(
          evaluate_design(model, algorithm, frontier.at(budget), point_options));
    }
  }
  return points;
}

std::string required_registers_string(const RefModel& model) {
  std::vector<std::string> parts;
  parts.reserve(static_cast<std::size_t>(model.group_count()));
  for (int g = 0; g < model.group_count(); ++g) {
    parts.push_back(std::to_string(model.beta_full(g)));
  }
  return join(parts, "/");
}

}  // namespace srra
