#include "replay.h"

#include <algorithm>
#include <cctype>
#include <optional>

#include "core/frontier.h"
#include "dse/space.h"
#include "ir/parser.h"
#include "kernels/kernels.h"
#include "support/error.h"

namespace perfbench {

using srra::Algorithm;
using srra::service::Request;
using srra::service::RequestOp;

std::string join_ints(const std::vector<std::int64_t>& values) {
  std::string out;
  for (const std::int64_t v : values) out += (out.empty() ? "" : ",") + std::to_string(v);
  return out;
}

std::string algo_tag(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFeasibility: return "feasibility";
    case Algorithm::kFrRa: return "fr";
    case Algorithm::kPrRa: return "pr";
    case Algorithm::kCpaRa: return "cpa";
    case Algorithm::kKnapsack: return "ks";
    case Algorithm::kOptimalDp: return "dp";
    case Algorithm::kLinearScan: return "ls";
    case Algorithm::kBnbOptimal: return "bnb";
  }
  return "unknown";
}

srra::DesignPoint traced_evaluate_design(const srra::RefModel& model, Algorithm algorithm,
                                         srra::Allocation allocation,
                                         const srra::PipelineOptions& options, const Tap& tap) {
  const TapScope span(tap, "driver.evaluate_design");
  const Tap inner = span.inner();
  srra::DesignPoint point;
  point.algorithm = algorithm;
  point.allocation = std::move(allocation);
  point.allocation.validate(model);
  {
    const TapScope s(inner, "sched.estimate_cycles");
    point.cycles = srra::estimate_cycles(model, point.allocation, options.cycles);
  }
  {
    const TapScope s(inner, "hw.estimate");
    point.hw = srra::estimate_hw(model, point.allocation, options.device, options.area,
                                 options.clock);
  }
  return point;
}

// ------------------------------------------------------------ service replica

struct ServiceReplica::Slot {
  Request request;
  bool query = false;
  const Resolved* variant = nullptr;
  Algorithm algorithm = Algorithm::kCpaRa;
  std::vector<std::int64_t> budgets;
  std::string key;
  bool hit = false;
  std::string payload;
  int job = -1;
};

ServiceReplica::ServiceReplica(const std::string& store_dir, std::int64_t store_max_entries,
                               std::int64_t memory_max_entries)
    : store_(store_dir, srra::service::StoreOptions{store_max_entries, false}),
      memory_max_entries_(memory_max_entries) {}

namespace {

std::string canon_name(const std::string& name) {
  std::string key;
  for (const char c : name) {
    key += c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return key == "mmt" ? "mat" : key;
}

}  // namespace

const ServiceReplica::Resolved& ServiceReplica::resolve(const std::string& kernel_field,
                                                         const std::string& transforms) {
  const std::string memo_key = kernel_field + '\x1f' + transforms;
  const auto it = variants_.find(memo_key);
  if (it != variants_.end()) return *it->second;

  auto variant = std::make_unique<Resolved>();
  srra::Kernel base;
  if (kernel_field.find('{') != std::string::npos) {
    base = srra::parse_kernel(kernel_field);
    variant->display_name = base.name();
  } else if (canon_name(kernel_field) == "example") {
    base = srra::kernels::paper_example();
    variant->display_name = "example";
  } else {
    for (srra::kernels::NamedKernel& nk : srra::kernels::all_kernels()) {
      if (canon_name(nk.name) == canon_name(kernel_field)) {
        base = std::move(nk.kernel);
        variant->display_name = nk.name;
      }
    }
    srra::check(!variant->display_name.empty(), "replay: unknown kernel " + kernel_field);
  }
  std::vector<srra::LoopTransform> sequence;
  if (transforms.find_first_not_of(" \t") != std::string::npos) {
    sequence = srra::parse_transforms(transforms);
  }
  if (!sequence.empty()) {
    const srra::span<const srra::LoopTransform> seq(sequence.data(), sequence.size());
    variant->kernel = srra::transform_for_pipeline(base, seq);
    variant->transforms = srra::to_string(seq);
  } else {
    variant->kernel = std::move(base);
  }
  variant->hash = srra::structural_hash(variant->kernel);
  const Resolved& ref = *variant;
  variants_.emplace(memo_key, std::move(variant));
  return ref;
}

void ServiceReplica::memory_insert(const std::string& key, const std::string& payload,
                                   std::int64_t cost) {
  if (memory_.count(key) != 0) return;
  // The server's policy: lowest cost-per-byte first, then least recently
  // used, then oldest arrival.
  while (static_cast<std::int64_t>(memory_.size()) >= memory_max_entries_ && !memory_.empty()) {
    auto victim = memory_.begin();
    double victim_score = 0;
    bool first = true;
    for (auto it = memory_.begin(); it != memory_.end(); ++it) {
      const MemEntry& e = it->second;
      const double score = static_cast<double>(e.cost) /
                           static_cast<double>(std::max<std::size_t>(1, e.payload.size()));
      if (first || score < victim_score ||
          (score == victim_score &&
           (e.last_use < victim->second.last_use ||
            (e.last_use == victim->second.last_use && e.seq < victim->second.seq)))) {
        victim = it;
        victim_score = score;
        first = false;
      }
    }
    memory_.erase(victim);
  }
  memory_.emplace(key, MemEntry{payload, std::max<std::int64_t>(1, cost), ++tick_, ++seq_});
}

std::string ServiceReplica::evaluate(const srra::RefModel& model, const Resolved& variant,
                                     const Slot& slot, const Tap& tap) {
  // evaluate_query's body, with run_pipeline / run_budget_sweep unrolled
  // into their public calls.
  srra::service::QueryReport report;
  report.kernel_name = variant.display_name;
  report.transforms = variant.transforms;
  report.kernel_hash = variant.hash;
  report.algorithm = srra::algorithm_name(slot.algorithm);
  report.fetch = slot.request.fetch;
  report.frontier = slot.request.frontier;
  report.outer_trip = model.kernel().loop(0).trip_count();

  srra::PipelineOptions options;
  options.cycles.concurrent_operand_fetch = slot.request.fetch;
  const std::string tag = algo_tag(slot.algorithm);
  if (!slot.request.frontier) {
    const std::int64_t budget = slot.request.budget;
    report.budget = budget;
    options.budget = budget;
    try {
      srra::Allocation allocation;
      {
        const TapScope s(tap, "core.allocate." + tag);
        allocation = srra::allocate(slot.algorithm, model, budget);
      }
      report.points.emplace_back(
          budget, traced_evaluate_design(model, slot.algorithm, std::move(allocation), options,
                                         tap));
    } catch (const srra::Error& e) {
      report.feasible = false;
      report.error = e.what();
    }
  } else {
    std::int64_t max_budget = -1;
    for (const std::int64_t b : slot.budgets) {
      if (b >= model.group_count()) max_budget = std::max(max_budget, b);
    }
    if (max_budget >= 0) {
      std::optional<srra::AllocationFrontier> frontier;
      {
        const TapScope s(tap, "core.frontier." + tag);
        frontier = srra::allocate_frontier(slot.algorithm, model, max_budget);
      }
      for (const std::int64_t b : slot.budgets) {
        if (b < model.group_count()) continue;
        srra::Allocation allocation;
        {
          const TapScope s(tap, "core.frontier_slice");
          allocation = frontier->at(b);
        }
        srra::PipelineOptions point_options = options;
        point_options.budget = b;
        report.points.emplace_back(
            b, traced_evaluate_design(model, slot.algorithm, std::move(allocation),
                                      point_options, tap));
      }
    }
  }
  const TapScope s(tap, "proto.query_payload");
  return srra::service::query_payload(report);
}

std::vector<bool> ServiceReplica::replay_batch(const std::vector<std::string>& payloads,
                                               const std::vector<Tap>& taps) {
  if (variants_.size() > 512) variants_.clear();
  std::vector<Slot> slots(payloads.size());

  // Phase 1: parse, resolve, key.
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    Slot& slot = slots[i];
    {
      const TapScope s(taps[i], "proto.parse_request");
      slot.request = srra::service::parse_request(payloads[i]);
    }
    if (slot.request.op != RequestOp::kQuery || !slot.request.key.empty()) continue;
    slot.query = true;
    {
      const TapScope s(taps[i], "ir.resolve");
      slot.variant = &resolve(slot.request.kernel, slot.request.transforms);
    }
    const TapScope s(taps[i], "proto.cache_key");
    slot.algorithm = srra::parse_algorithm(slot.request.algorithm);
    Request canonical = slot.request;
    canonical.transforms = slot.variant->transforms;
    canonical.algorithm = srra::algorithm_name(slot.algorithm);
    if (slot.request.frontier) {
      slot.budgets = srra::dse::parse_budget_spec(slot.request.budgets);
      canonical.budgets = join_ints(slot.budgets);
    }
    slot.key = srra::service::cache_key(slot.variant->hash, slot.variant->display_name,
                                        canonical);
  }

  // Phase 2: memory, then store; unique misses become jobs.
  std::vector<std::size_t> job_slots;
  std::unordered_map<std::string, int> job_by_key;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (!slot.query) continue;
    const bool traced = taps[i].trace != nullptr;
    lookups += traced;
    const auto mem = memory_.find(slot.key);
    if (mem != memory_.end()) {
      slot.hit = true;
      slot.payload = mem->second.payload;
      mem->second.last_use = ++tick_;
      memory_hits += traced;
      continue;
    }
    std::int64_t cost = 1;
    const std::int64_t t0 = now_ns();
    std::optional<std::string> stored = store_.get(slot.key, &cost);
    if (traced) {
      taps[i].trace->add(stored ? "store.get_hit" : "store.get_miss", t0, now_ns(),
                         taps[i].parent, taps[i].request);
    }
    if (stored) {
      slot.hit = true;
      slot.payload = std::move(*stored);
      memory_insert(slot.key, slot.payload, cost);
      store_hits += traced;
      continue;
    }
    const auto [it, inserted] = job_by_key.emplace(slot.key, static_cast<int>(job_slots.size()));
    if (inserted) {
      job_slots.push_back(i);
      computed_jobs += traced;
    }
    slot.job = it->second;
  }

  // Phase 3: one fresh RefModel per variant group, jobs in group order.
  std::vector<std::string> computed(job_slots.size());
  std::vector<bool> grouped(job_slots.size(), false);
  for (std::size_t j = 0; j < job_slots.size(); ++j) {
    if (grouped[j]) continue;
    const Resolved* variant = slots[job_slots[j]].variant;
    const Tap& group_tap = taps[job_slots[j]];
    std::optional<TapScope> build(std::in_place, group_tap, "analysis.model_build");
    const srra::RefModel model(variant->kernel.clone());
    build.reset();
    for (std::size_t k = j; k < job_slots.size(); ++k) {
      if (grouped[k] || slots[job_slots[k]].variant != variant) continue;
      grouped[k] = true;
      computed[k] = evaluate(model, *variant, slots[job_slots[k]], taps[job_slots[k]]);
    }
  }

  // Phase 4: publish in first-occurrence order.
  for (std::size_t j = 0; j < job_slots.size(); ++j) {
    const Slot& slot = slots[job_slots[j]];
    std::int64_t cost = 1;
    if (slot.request.frontier) cost *= 100;
    if (slot.algorithm == Algorithm::kBnbOptimal) cost *= 100;
    memory_insert(slot.key, computed[j], cost);
    const TapScope s(taps[job_slots[j]], "store.put");
    store_.put(slot.key, computed[j], cost);
  }

  // Phase 5: envelopes.
  std::vector<bool> hits(slots.size(), false);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    if (!slot.query) continue;
    hits[i] = slot.hit;
    srra::service::ResponseMeta meta;
    meta.id = slot.request.id;
    meta.key = slot.key;
    meta.cache_status = slot.hit ? "hit" : "miss";
    const TapScope s(taps[i], "proto.make_query_response");
    srra::service::make_query_response(
        meta, slot.hit ? slot.payload : computed[static_cast<std::size_t>(slot.job)]);
  }
  return hits;
}

}  // namespace perfbench
