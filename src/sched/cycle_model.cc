#include "sched/cycle_model.h"

#include <algorithm>
#include <map>

#include "analysis/periodic.h"
#include "analysis/walker.h"
#include "sched/schedule.h"
#include "support/error.h"

namespace srra {

namespace {

// Hashed flat schedule cache: open addressing with linear probing over
// contiguous arrays. Keys are the iteration profile's RAM bits packed into
// words plus the boundary-flush count; values are schedule lengths. The
// tree-map this replaces paid a node allocation plus O(log n) vector<bool>
// comparisons per iteration of the nest.
class ScheduleCache {
 public:
  explicit ScheduleCache(int node_count)
      : words_(static_cast<std::size_t>(node_count + 63) / 64 + 1) {
    rehash(64);
  }

  // Packs `profile` into the reusable probe key.
  void pack(const IterationProfile& profile) {
    probe_.assign(words_, 0);
    for (std::size_t n = 0; n < profile.ram_access.size(); ++n) {
      if (profile.ram_access[n]) probe_[n / 64] |= std::uint64_t{1} << (n % 64);
    }
    probe_.back() = static_cast<std::uint64_t>(profile.boundary_flushes);
  }

  /// Looks up the packed probe key; false on miss.
  bool lookup(std::int64_t& out) const {
    std::size_t slot = hash(probe_) & mask_;
    while (used_[slot]) {
      if (key_equals(slot)) {
        out = values_[slot];
        return true;
      }
      slot = (slot + 1) & mask_;
    }
    return false;
  }

  /// Inserts the packed probe key (must not be present).
  void insert(std::int64_t value) {
    if ((size_ + 1) * 10 >= capacity() * 7) rehash(capacity() * 2);
    insert_key(probe_, value);
    ++size_;
  }

 private:
  std::size_t capacity() const { return mask_ + 1; }

  static std::uint64_t hash(const std::vector<std::uint64_t>& key) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the words
    for (const std::uint64_t w : key) {
      h ^= w;
      h *= 1099511628211ull;
    }
    return h;
  }

  bool key_equals(std::size_t slot) const {
    const std::uint64_t* stored = &keys_[slot * words_];
    for (std::size_t w = 0; w < words_; ++w) {
      if (stored[w] != probe_[w]) return false;
    }
    return true;
  }

  void insert_key(const std::vector<std::uint64_t>& key, std::int64_t value) {
    std::size_t slot = hash(key) & mask_;
    while (used_[slot]) slot = (slot + 1) & mask_;
    std::copy(key.begin(), key.end(), keys_.begin() + static_cast<std::ptrdiff_t>(slot * words_));
    values_[slot] = value;
    used_[slot] = 1;
  }

  void rehash(std::size_t new_capacity) {
    const std::vector<std::uint64_t> old_keys = std::move(keys_);
    const std::vector<std::int64_t> old_values = std::move(values_);
    const std::vector<std::uint8_t> old_used = std::move(used_);
    const std::size_t old_capacity = old_used.size();
    mask_ = new_capacity - 1;
    keys_.assign(new_capacity * words_, 0);
    values_.assign(new_capacity, 0);
    used_.assign(new_capacity, 0);
    std::vector<std::uint64_t> key(words_);
    for (std::size_t slot = 0; slot < old_capacity; ++slot) {
      if (!old_used[slot]) continue;
      std::copy(old_keys.begin() + static_cast<std::ptrdiff_t>(slot * words_),
                old_keys.begin() + static_cast<std::ptrdiff_t>((slot + 1) * words_),
                key.begin());
      insert_key(key, old_values[slot]);
    }
  }

  std::size_t words_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> probe_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::int64_t> values_;
  std::vector<std::uint8_t> used_;
};

// What a walk accumulates. The collapse scales every field alike, so a
// field is exact whenever the walk is.
struct WalkTotals {
  std::int64_t mem_cycles = 0;
  std::int64_t exec_cycles = 0;
  std::int64_t ram_accesses = 0;
  std::int64_t overlapped_reads = 0;  ///< steady reads concurrent fetch hides

  WalkTotals operator-(const WalkTotals& base) const {
    return WalkTotals{mem_cycles - base.mem_cycles, exec_cycles - base.exec_cycles,
                      ram_accesses - base.ram_accesses,
                      overlapped_reads - base.overlapped_reads};
  }
  void add_scaled(const WalkTotals& delta, std::int64_t factor) {
    mem_cycles += delta.mem_cycles * factor;
    exec_cycles += delta.exec_cycles * factor;
    ram_accesses += delta.ram_accesses * factor;
    overlapped_reads += delta.overlapped_reads * factor;
  }
};

std::vector<int> arrays_of_groups(const std::vector<RefGroup>& groups) {
  std::vector<int> arrays(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) arrays[g] = groups[g].access.array_id;
  return arrays;
}

// C0: the iteration's compute-only schedule length (no RAM access). The
// serial FSM charges it once per iteration, plus the iteration's memory
// cycles.
std::int64_t compute_only_length(const Dfg& dfg, const std::vector<int>& array_of_group,
                                 const LatencyModel& latency) {
  IterationProfile compute_profile;
  compute_profile.ram_access.assign(static_cast<std::size_t>(dfg.node_count()), false);
  return schedule_iteration(dfg, compute_profile, array_of_group, latency);
}

// Shared per-iteration evaluation machinery of the reference and collapsed
// walks: classifies one iteration's accesses through the window trackers of
// the walked groups and charges them. A report walk covers every group; an
// overlap walk covers only the coupled groups, and only its
// overlapped_reads total is meaningful.
class CycleWalker {
 public:
  CycleWalker(const RefModel& model, const Dfg& dfg, const std::vector<RefStrategy>& strategies,
              const std::vector<int>& walked, const CycleOptions& options)
      : options_(options),
        dfg_(dfg),
        cache_(dfg_.node_count()),
        array_of_group_(arrays_of_groups(model.groups())) {
    const std::vector<RefGroup>& groups = model.groups();
    std::vector<int> tracker_of_group(groups.size(), -1);
    trackers_.reserve(walked.size());
    for (const int g : walked) {
      tracker_of_group[static_cast<std::size_t>(g)] = static_cast<int>(trackers_.size());
      trackers_.emplace_back(model.kernel(), groups[static_cast<std::size_t>(g)],
                             strategies[static_cast<std::size_t>(g)]);
    }
    const std::vector<FlatOccurrence> flat = flatten(groups);
    occurrence_nodes_.resize(flat.size());
    for (const FlatOccurrence& occ : flat) {
      const int t = tracker_of_group[static_cast<std::size_t>(occ.group)];
      if (t >= 0) accesses_.push_back(Access{occ, t});
      check(occ.order >= 0 && occ.order < static_cast<int>(flat.size()),
            "occurrence order out of range");
      occurrence_nodes_[static_cast<std::size_t>(occ.order)] =
          OccurrenceNodes{dfg_.node_for_occurrence(occ.order), dfg_.consumer_op(occ.order)};
    }
    profile_.ram_access.assign(static_cast<std::size_t>(dfg_.node_count()), false);
    sink_ = EventSink(on_event_fn_);
  }

  /// Runs one iteration of the nest and charges it to the totals.
  void run_iteration(srra::span<const std::int64_t> iter) {
    reads_.clear();
    writes_ = 0;
    flushes_ = 0;
    std::fill(profile_.ram_access.begin(), profile_.ram_access.end(), false);

    for (WindowTracker& t : trackers_) t.begin_iteration(iter, sink_);
    for (const Access& a : accesses_) {
      trackers_[static_cast<std::size_t>(a.tracker)].on_access(
          iter, a.occ.is_write, a.occ.stmt, a.occ.order, sink_);
    }
    charge();
  }

  /// Trailing flushes: every event is back-peeled (never steady), so this
  /// cannot change the totals — called for model fidelity only.
  void finish() {
    for (WindowTracker& t : trackers_) t.finish(sink_);
  }

  std::vector<WindowTracker>& trackers() { return trackers_; }
  WalkTotals& totals() { return totals_; }

 private:
  void on_event(const AccessEvent& e) {
    if (!is_ram_access(e.kind) || !e.steady) return;
    ++totals_.ram_accesses;
    if (e.order < 0) {  // boundary flush
      ++flushes_;
      return;
    }
    const OccurrenceNodes& nodes = occurrence_nodes_[static_cast<std::size_t>(e.order)];
    switch (e.kind) {
      case AccessKind::kMissRead:
      case AccessKind::kFill:
        reads_.push_back(PendingRead{nodes.consumer,
                                     array_of_group_[static_cast<std::size_t>(e.group)]});
        profile_.ram_access[static_cast<std::size_t>(nodes.node)] = true;
        break;
      case AccessKind::kMissWrite:
      case AccessKind::kFlush:
        ++writes_;
        profile_.ram_access[static_cast<std::size_t>(nodes.node)] = true;
        break;
      default:
        break;
    }
  }

  // Reads of this iteration that concurrent fetch hides (paper §3): grouped
  // by consuming op, fetches from distinct RAM blocks overlap while
  // same-block fetches serialize, so an op's reads cost its largest
  // same-array run and the rest are hidden. Reads that feed no op (direct
  // copies) never overlap. The handful of reads per iteration is sorted
  // into (op, array) runs in a reused scratch vector.
  std::int64_t overlapped_reads() {
    op_reads_.clear();
    for (const PendingRead& r : reads_) {
      if (r.consumer >= 0) op_reads_.emplace_back(r.consumer, r.array);
    }
    std::sort(op_reads_.begin(), op_reads_.end());
    std::int64_t hidden = 0;
    std::size_t i = 0;
    while (i < op_reads_.size()) {
      const int op = op_reads_[i].first;
      std::int64_t reads = 0;
      std::int64_t worst = 0;
      while (i < op_reads_.size() && op_reads_[i].first == op) {
        const int array = op_reads_[i].second;
        std::int64_t count = 0;
        while (i < op_reads_.size() && op_reads_[i].first == op &&
               op_reads_[i].second == array) {
          ++count;
          ++i;
        }
        reads += count;
        worst = std::max(worst, count);
      }
      hidden += reads - worst;
    }
    return hidden;
  }

  void charge() {
    const LatencyModel& lat = options_.latency;
    const std::int64_t hidden = options_.concurrent_operand_fetch ? overlapped_reads() : 0;
    totals_.overlapped_reads += hidden;

    // ---- Tmem ----
    const std::int64_t read_cycles =
        (static_cast<std::int64_t>(reads_.size()) - hidden) * lat.mem_read;
    const std::int64_t iter_mem =
        read_cycles + writes_ * lat.mem_write + flushes_ * lat.mem_write;
    totals_.mem_cycles += iter_mem;

    // ---- Texec ----
    std::int64_t length = 0;
    if (options_.fsm_serial_memory) {
      // Monet-style FSM: memory states serialize with the datapath; the
      // compute critical path is iteration-invariant and cached.
      if (compute_only_length_ < 0) {
        compute_only_length_ = compute_only_length(dfg_, array_of_group_, lat);
      }
      length = compute_only_length_ + iter_mem;
    } else {
      profile_.boundary_flushes = static_cast<int>(flushes_);
      cache_.pack(profile_);
      if (!cache_.lookup(length)) {
        length = schedule_iteration(dfg_, profile_, array_of_group_, lat);
        cache_.insert(length);
      }
    }
    totals_.exec_cycles += length + options_.loop_overhead;
  }

  struct PendingRead {
    int consumer = -1;  // op node id, -1 = direct-to-write copy
    int array = -1;
  };

  // One walked occurrence and the tracker that classifies it.
  struct Access {
    FlatOccurrence occ;
    int tracker = 0;
  };

  // An occurrence's DFG node and consuming op (-1: none), looked up once.
  struct OccurrenceNodes {
    int node = -1;
    int consumer = -1;
  };

  // Named callable the non-owning sink_ references (never moved: the
  // walker is constructed in place and lives for the whole walk).
  struct OnEventFn {
    CycleWalker* walker;
    void operator()(const AccessEvent& e) const { walker->on_event(e); }
  };

  const CycleOptions& options_;
  const Dfg& dfg_;
  ScheduleCache cache_;
  std::vector<int> array_of_group_;
  std::vector<WindowTracker> trackers_;
  std::vector<Access> accesses_;
  std::vector<OccurrenceNodes> occurrence_nodes_;  ///< by occurrence order
  OnEventFn on_event_fn_{this};
  EventSink sink_;

  // Per-iteration scratch.
  std::vector<PendingRead> reads_;
  std::vector<std::pair<int, int>> op_reads_;  // (consumer op, array) runs
  std::int64_t writes_ = 0;
  std::int64_t flushes_ = 0;
  IterationProfile profile_;
  std::int64_t compute_only_length_ = -1;
  WalkTotals totals_;
};

// Reference walk: the whole iteration space, one iteration at a time. In
// the original formulation finish() ran before the last iteration's charge;
// its events are all back-peeled and dropped by the sink, so charging the
// last iteration first is equivalent.
WalkTotals walk_full(CycleWalker& walker, const Kernel& kernel) {
  std::vector<std::int64_t> iter = first_iteration(kernel);
  do {
    walker.run_iteration(iter);
  } while (next_iteration(kernel, iter));
  walker.finish();
  return walker.totals();
}

// Collapsed walk (DESIGN.md §8): the walker's iteration is the step of the
// nested collapse, the engine the access counters run on too. Trackers are
// independent of each other, so the collapse is exact for any subset of
// the groups: the overlap walk covers the coupled groups alone.
WalkTotals walk_collapsed(CycleWalker& walker, const Kernel& kernel) {
  const auto step = [&walker](srra::span<const std::int64_t> iter) {
    walker.run_iteration(iter);
  };
  const auto finish = [&walker] { walker.finish(); };
  return collapse_walk(kernel, srra::span<WindowTracker>(walker.trackers()), walker.totals(),
                       step, finish);
}

CycleReport to_report(const WalkTotals& totals, const Kernel& kernel) {
  CycleReport report;
  report.mem_cycles = totals.mem_cycles;
  report.ram_accesses = totals.ram_accesses;
  report.exec_cycles = totals.exec_cycles;
  report.iterations = kernel.iteration_count();
  return report;
}

std::vector<int> all_groups(const RefModel& model) {
  std::vector<int> ids(static_cast<std::size_t>(model.group_count()));
  for (std::size_t g = 0; g < ids.size(); ++g) ids[g] = static_cast<int>(g);
  return ids;
}

// The groups concurrent fetch can couple: those with a read feeding an op
// that also reads a different array. Every read of any other group costs
// exactly one access latency, serial or concurrent — an op whose reads all
// hit one array serializes them either way — so only these groups' events
// can hide a read. A superset is harmless (a walked group that never
// shares an op hides nothing), so forwarded reads are not filtered out.
std::vector<int> coupled_groups(const Dfg& dfg, const std::vector<RefGroup>& groups) {
  // Per op node: the first array it reads, and whether it reads another.
  const auto nodes = static_cast<std::size_t>(dfg.node_count());
  std::vector<int> first_array(nodes, -1);
  std::vector<bool> mixed(nodes, false);
  const auto for_each_read_op = [&](const RefGroup& group, const auto& visit) {
    for (const RefOccurrence& occ : group.occurrences) {
      const int op = occ.is_write ? -1 : dfg.consumer_op(occ.order);
      if (op >= 0) visit(static_cast<std::size_t>(op));
    }
  };
  for (const RefGroup& group : groups) {
    for_each_read_op(group, [&](std::size_t op) {
      if (first_array[op] < 0) first_array[op] = group.access.array_id;
      if (first_array[op] != group.access.array_id) mixed[op] = true;
    });
  }
  std::vector<int> ids;
  for (const RefGroup& group : groups) {
    bool coupled = false;
    for_each_read_op(group, [&](std::size_t op) { coupled = coupled || mixed[op]; });
    if (coupled) ids.push_back(group.id);
  }
  return ids;
}

// Memo keys on the model's cycle memo. Report entries hold a whole
// CycleReport keyed by every cycle-model knob plus every group's strategy;
// overlap entries hold the collapsed overlap walk's total keyed by the
// coupled groups' strategies alone (the coupled set is fixed per model and
// the count of hidden reads depends on no latency or overhead knob).
constexpr std::int64_t kReportTag = 0;
constexpr std::int64_t kOverlapTag = 1;

void append_strategy(std::vector<std::int64_t>& key, const RefStrategy& s) {
  key.push_back(s.carry_level);
  key.push_back(s.held_limit);
}

std::vector<std::int64_t> report_key(const std::vector<RefStrategy>& strategies,
                                     const CycleOptions& options) {
  std::vector<std::int64_t> key;
  key.reserve(9 + 2 * strategies.size());
  key.push_back(kReportTag);
  key.push_back(options.concurrent_operand_fetch ? 1 : 0);
  key.push_back(options.fsm_serial_memory ? 1 : 0);
  key.push_back(options.loop_overhead);
  key.push_back(options.latency.mem_read);
  key.push_back(options.latency.mem_write);
  key.push_back(options.latency.add);
  key.push_back(options.latency.mul);
  key.push_back(options.latency.div);
  for (const RefStrategy& s : strategies) append_strategy(key, s);
  return key;
}

// S: the steady reads concurrent fetch hides over the whole nest, from a
// collapsed joint walk of the coupled groups only (memoized).
std::int64_t overlapped_reads(const RefModel& model, const Dfg& dfg,
                              const std::vector<RefStrategy>& strategies,
                              const CycleOptions& options) {
  const std::vector<int> coupled = coupled_groups(dfg, model.groups());
  if (coupled.empty()) return 0;
  std::vector<std::int64_t> key{kOverlapTag};
  for (const int g : coupled) append_strategy(key, strategies[static_cast<std::size_t>(g)]);
  std::vector<std::int64_t> record;
  if (model.cycle_memo().lookup(key, record) && record.size() == 1) return record[0];
  CycleWalker walker(model, dfg, strategies, coupled, options);
  const std::int64_t hidden = walk_collapsed(walker, model.kernel()).overlapped_reads;
  model.cycle_memo().store(key, {hidden});
  return hidden;
}

// Default path (serial FSM, DESIGN.md §6): Tmem and Texec are the per-group
// counter totals minus the concurrent-fetch overlap. Each group's tracker
// is independent of every other group's, so the per-group counters the
// model already holds equal the joint walk's totals; only the overlap
// couples groups, and it needs no walk at all under serial fetch.
CycleReport decomposed_report(const RefModel& model, const Dfg& dfg,
                              srra::span<const std::int64_t> regs,
                              const std::vector<RefStrategy>& strategies,
                              const CycleOptions& options) {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  for (int g = 0; g < model.group_count(); ++g) {
    const GroupCounts& c = model.counts(g, regs[static_cast<std::size_t>(g)]);
    reads += c.miss_reads + c.steady_fills;
    writes += c.miss_writes + c.steady_flushes;
  }
  const std::int64_t hidden = options.concurrent_operand_fetch
                                  ? overlapped_reads(model, dfg, strategies, options)
                                  : 0;
  const LatencyModel& lat = options.latency;
  CycleReport report;
  report.iterations = model.kernel().iteration_count();
  report.ram_accesses = reads + writes;
  report.mem_cycles = lat.mem_read * (reads - hidden) + lat.mem_write * writes;
  const std::int64_t compute =
      compute_only_length(dfg, arrays_of_groups(model.groups()), lat);
  report.exec_cycles = report.iterations * (compute + options.loop_overhead) + report.mem_cycles;
  return report;
}

}  // namespace

CycleReport estimate_cycles(const RefModel& model, const Allocation& allocation,
                            const CycleOptions& options) {
  check(static_cast<int>(allocation.regs.size()) == model.group_count(),
        "allocation size mismatch");

  // The report is a function of the chosen strategies, not the raw register
  // counts: saturated budgets collapse onto one memo entry. The batched
  // lookup takes the model's cache lock once for the whole vector (or none
  // at all when a published access curve covers the allocation).
  const std::vector<RefStrategy> strategies = model.strategies(allocation.regs);

  if (options.full_iteration_walk) {
    const Dfg dfg = Dfg::build(model.kernel(), model.groups());
    CycleWalker walker(model, dfg, strategies, all_groups(model), options);
    return to_report(walk_full(walker, model.kernel()), model.kernel());
  }

  const std::vector<std::int64_t> key = report_key(strategies, options);
  std::vector<std::int64_t> record;
  if (model.cycle_memo().lookup(key, record) && record.size() == 4) {
    CycleReport report;
    report.mem_cycles = record[0];
    report.ram_accesses = record[1];
    report.exec_cycles = record[2];
    report.iterations = record[3];
    return report;
  }

  const Dfg dfg = Dfg::build(model.kernel(), model.groups());
  CycleReport report;
  if (options.fsm_serial_memory) {
    report = decomposed_report(model, dfg, allocation.regs, strategies, options);
  } else {
    // The list-schedule ablation schedules each iteration's exact RAM
    // profile, which couples every group: the joint walk stays.
    CycleWalker walker(model, dfg, strategies, all_groups(model), options);
    report = to_report(walk_collapsed(walker, model.kernel()), model.kernel());
  }
  model.cycle_memo().store(
      key, {report.mem_cycles, report.ram_accesses, report.exec_cycles, report.iterations});
  return report;
}

}  // namespace srra
