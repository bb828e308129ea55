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

// Shared per-iteration evaluation machinery of the reference and collapsed
// walks: classifies one iteration's accesses through the window trackers
// and charges its memory and schedule cycles to the report.
class CycleWalker {
 public:
  CycleWalker(const RefModel& model, const std::vector<RefStrategy>& strategies,
              const CycleOptions& options)
      : kernel_(model.kernel()),
        groups_(model.groups()),
        options_(options),
        dfg_(Dfg::build(kernel_, groups_)),
        cache_(dfg_.node_count()) {
    array_of_group_.resize(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      array_of_group_[g] = groups_[g].access.array_id;
    }
    trackers_.reserve(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      trackers_.emplace_back(kernel_, groups_[g], strategies[g]);
    }
    flat_ = flatten(groups_);
    profile_.ram_access.assign(static_cast<std::size_t>(dfg_.node_count()), false);
    sink_ = EventSink(on_event_fn_);
    report_.iterations = kernel_.iteration_count();
  }

  /// Runs one iteration of the nest and charges it to the report.
  void run_iteration(srra::span<const std::int64_t> iter) {
    reads_.clear();
    writes_ = 0;
    flushes_ = 0;
    std::fill(profile_.ram_access.begin(), profile_.ram_access.end(), false);

    for (WindowTracker& t : trackers_) t.begin_iteration(iter, sink_);
    for (const FlatOccurrence& occ : flat_) {
      trackers_[static_cast<std::size_t>(occ.group)].on_access(iter, occ.is_write, occ.stmt,
                                                               occ.order, sink_);
    }
    charge();
  }

  /// Trailing flushes: every event is back-peeled (never steady), so this
  /// cannot change the report — called for model fidelity only.
  void finish() {
    for (WindowTracker& t : trackers_) t.finish(sink_);
  }

  std::vector<WindowTracker>& trackers() { return trackers_; }
  CycleReport& report() { return report_; }

 private:
  void on_event(const AccessEvent& e) {
    if (!is_ram_access(e.kind) || !e.steady) return;
    ++report_.ram_accesses;
    if (e.order < 0) {  // boundary flush
      ++flushes_;
      return;
    }
    const int node = dfg_.node_for_occurrence(e.order);
    switch (e.kind) {
      case AccessKind::kMissRead:
      case AccessKind::kFill:
        reads_.push_back(PendingRead{dfg_.consumer_op(e.order),
                                     array_of_group_[static_cast<std::size_t>(e.group)]});
        profile_.ram_access[static_cast<std::size_t>(node)] = true;
        break;
      case AccessKind::kMissWrite:
      case AccessKind::kFlush:
        ++writes_;
        profile_.ram_access[static_cast<std::size_t>(node)] = true;
        break;
      default:
        break;
    }
  }

  void charge() {
    const LatencyModel& lat = options_.latency;

    // ---- Tmem ----
    std::int64_t read_cycles = 0;
    if (options_.concurrent_operand_fetch) {
      // Group by consuming op; within a group, fetches from distinct RAM
      // blocks overlap, same-block fetches serialize. The handful of reads
      // per iteration is sorted into (op, array) runs in a reused scratch
      // vector — this used to build two levels of std::map per iteration
      // of the nest.
      std::int64_t solo = 0;
      op_reads_.clear();
      for (const PendingRead& r : reads_) {
        if (r.consumer < 0) {
          ++solo;
        } else {
          op_reads_.emplace_back(r.consumer, r.array);
        }
      }
      std::sort(op_reads_.begin(), op_reads_.end());
      std::size_t i = 0;
      while (i < op_reads_.size()) {
        const int op = op_reads_[i].first;
        std::int64_t worst = 0;
        while (i < op_reads_.size() && op_reads_[i].first == op) {
          const int array = op_reads_[i].second;
          std::int64_t count = 0;
          while (i < op_reads_.size() && op_reads_[i].first == op &&
                 op_reads_[i].second == array) {
            ++count;
            ++i;
          }
          worst = std::max(worst, count);
        }
        read_cycles += worst * lat.mem_read;
      }
      read_cycles += solo * lat.mem_read;
    } else {
      read_cycles = static_cast<std::int64_t>(reads_.size()) * lat.mem_read;
    }
    const std::int64_t iter_mem =
        read_cycles + writes_ * lat.mem_write + flushes_ * lat.mem_write;
    report_.mem_cycles += iter_mem;

    // ---- Texec ----
    std::int64_t length = 0;
    if (options_.fsm_serial_memory) {
      // Monet-style FSM: memory states serialize with the datapath; the
      // compute critical path is iteration-invariant and cached.
      if (compute_only_length_ < 0) {
        IterationProfile compute_profile;
        compute_profile.ram_access.assign(static_cast<std::size_t>(dfg_.node_count()), false);
        compute_only_length_ =
            schedule_iteration(dfg_, compute_profile, array_of_group_, lat);
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
    report_.exec_cycles += length + options_.loop_overhead;
  }

  struct PendingRead {
    int consumer = -1;  // op node id, -1 = direct-to-write copy
    int array = -1;
  };

  // Named callable the non-owning sink_ references (never moved: the
  // walker is constructed in place and lives for the whole walk).
  struct OnEventFn {
    CycleWalker* walker;
    void operator()(const AccessEvent& e) const { walker->on_event(e); }
  };

  const Kernel& kernel_;
  const std::vector<RefGroup>& groups_;
  const CycleOptions& options_;
  const Dfg dfg_;
  ScheduleCache cache_;
  std::vector<int> array_of_group_;
  std::vector<WindowTracker> trackers_;
  std::vector<FlatOccurrence> flat_;
  OnEventFn on_event_fn_{this};
  EventSink sink_;

  // Per-iteration scratch.
  std::vector<PendingRead> reads_;
  std::vector<std::pair<int, int>> op_reads_;  // (consumer op, array) runs
  std::int64_t writes_ = 0;
  std::int64_t flushes_ = 0;
  IterationProfile profile_;
  std::int64_t compute_only_length_ = -1;
  CycleReport report_;
};

// Reference walk: the whole iteration space, one iteration at a time. In
// the original formulation finish() ran before the last iteration's charge;
// its events are all back-peeled and dropped by the sink, so charging the
// last iteration first is equivalent.
CycleReport walk_full(CycleWalker& walker, const Kernel& kernel) {
  std::vector<std::int64_t> iter = first_iteration(kernel);
  do {
    walker.run_iteration(iter);
  } while (next_iteration(kernel, iter));
  walker.finish();
  return walker.report();
}

// Collapsed walk (DESIGN.md §8): steady-state detection applied at *every*
// loop level at and below the outermost carrying one, with the loops above
// it scaled as identical instances. Exact for the same reason the access
// counters collapse: element indices are affine, so advancing any single
// loop by one step shifts every group's elements by a constant — once the
// trackers' combined normalized state repeats across two successive values
// of a loop (its first and last values walked concretely for the peeled
// fill/flush accounting), the remaining middle values replay the same
// charges translated. Collapsing recursively level by level makes the walk
// cost a product of per-level repeat-detection lengths (typically 3-4)
// instead of the full sub-space below the carrying level.
class CollapsedWalk {
 public:
  CollapsedWalk(CycleWalker& walker, const RefModel& model, int top_level)
      : walker_(walker), kernel_(model.kernel()), top_level_(top_level) {
    const std::size_t groups = model.groups().size();
    deltas_.resize(static_cast<std::size_t>(kernel_.depth()));
    collapsible_.assign(static_cast<std::size_t>(kernel_.depth()), true);
    for (int l = top_level_; l < kernel_.depth(); ++l) {
      deltas_[static_cast<std::size_t>(l)].resize(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        deltas_[static_cast<std::size_t>(l)][g] =
            element_shift_per_step(kernel_, model.groups()[g], l);
        // A group mid-carry at this level (its carrying loop is outer) pins
        // a fixed first-touch window: its state can only repeat under
        // translation when the level does not move its elements at all.
        // One moving mid-carry group makes detection at this level
        // impossible, so don't pay for signatures there.
        const RefStrategy& s = walker.trackers()[g].strategy();
        if (s.holds() && s.carry_level < l &&
            deltas_[static_cast<std::size_t>(l)][g] != 0) {
          collapsible_[static_cast<std::size_t>(l)] = false;
        }
      }
    }
    iter_ = first_iteration(kernel_);
  }

  void run() { walk_level(top_level_); }

 private:
  void walk_level(int level) {
    if (level == kernel_.depth()) {
      walker_.run_iteration(iter_);
      return;
    }
    const Loop& loop = kernel_.loop(level);
    const std::int64_t trip = loop.trip_count();
    if (trip <= 3 || !collapsible_[static_cast<std::size_t>(level)]) {
      // Nothing to gain: either detection could at best elide zero middle
      // values, or a moving mid-carry window makes a repeat impossible —
      // the signature bookkeeping would be pure overhead.
      for (std::int64_t k = 0; k < trip; ++k) {
        iter_[static_cast<std::size_t>(level)] = loop.value_at(k);
        walk_level(level + 1);
      }
      return;
    }
    CycleReport& report = walker_.report();
    const std::vector<std::int64_t>& deltas = deltas_[static_cast<std::size_t>(level)];
    // This level's per-value charges, stashed by the walk for the
    // fast-forward (locals, so every recursion depth has its own).
    std::int64_t mem_k = 0;
    std::int64_t exec_k = 0;
    std::int64_t ram_k = 0;
    collapse_carry_loop(
        trip,
        [&](std::int64_t k) {
          iter_[static_cast<std::size_t>(level)] = loop.value_at(k);
          const std::int64_t mem0 = report.mem_cycles;
          const std::int64_t exec0 = report.exec_cycles;
          const std::int64_t ram0 = report.ram_accesses;
          walk_level(level + 1);
          mem_k = report.mem_cycles - mem0;
          exec_k = report.exec_cycles - exec0;
          ram_k = report.ram_accesses - ram0;
        },
        [&](std::int64_t k) {
          // Joint strict state signature of every tracker, normalized by
          // this level's per-step element shifts (walker.h): equality
          // certifies that the remaining middle values replay translated.
          std::vector<std::int64_t> state;
          for (std::size_t g = 0; g < walker_.trackers().size(); ++g) {
            walker_.trackers()[g].append_state_signature(k * deltas[g], state);
          }
          return state;
        },
        [&](std::int64_t, std::int64_t repeats) {
          report.mem_cycles += mem_k * repeats;
          report.exec_cycles += exec_k * repeats;
          report.ram_accesses += ram_k * repeats;
          for (std::size_t g = 0; g < walker_.trackers().size(); ++g) {
            walker_.trackers()[g].translate_held(repeats * deltas[g]);
          }
        });
  }

  CycleWalker& walker_;
  const Kernel& kernel_;
  int top_level_;
  std::vector<std::vector<std::int64_t>> deltas_;  ///< per level: per-group shift
  std::vector<bool> collapsible_;  ///< per level: repeat detection can fire
  std::vector<std::int64_t> iter_;
};

CycleReport walk_collapsed(CycleWalker& walker, const RefModel& model,
                           const std::vector<RefStrategy>& strategies) {
  const Kernel& kernel = model.kernel();
  for (int l = 0; l < kernel.depth(); ++l) {
    if (kernel.loop(l).trip_count() <= 0) return walk_full(walker, kernel);
  }

  // The instance-scaling level: every group's stream repeats identically
  // across instances of the loops above its own carrying level, hence
  // across instances of the loops above the outermost one. Groups that
  // hold nothing repeat every iteration and do not constrain the level.
  int level = kernel.depth();
  for (const RefStrategy& s : strategies) {
    if (s.holds()) level = std::min(level, s.carry_level);
  }
  std::int64_t instances = 1;
  for (int l = 0; l < level; ++l) instances *= kernel.loop(l).trip_count();

  CycleReport& report = walker.report();

  if (level == kernel.depth()) {
    // No cross-iteration state anywhere: one iteration stands for all.
    std::vector<std::int64_t> iter = first_iteration(kernel);
    walker.run_iteration(iter);
  } else {
    CollapsedWalk(walker, model, level).run();
  }
  walker.finish();

  report.mem_cycles *= instances;
  report.exec_cycles *= instances;
  report.ram_accesses *= instances;
  return report;
}

// Memo key: every cycle-model knob plus the per-group strategies — the
// only inputs the report depends on besides the model itself.
std::vector<std::int64_t> memo_key(const std::vector<RefStrategy>& strategies,
                                   const CycleOptions& options) {
  std::vector<std::int64_t> key;
  key.reserve(8 + 2 * strategies.size());
  key.push_back(options.concurrent_operand_fetch ? 1 : 0);
  key.push_back(options.fsm_serial_memory ? 1 : 0);
  key.push_back(options.loop_overhead);
  key.push_back(options.latency.mem_read);
  key.push_back(options.latency.mem_write);
  key.push_back(options.latency.add);
  key.push_back(options.latency.mul);
  key.push_back(options.latency.div);
  for (const RefStrategy& s : strategies) {
    key.push_back(s.carry_level);
    key.push_back(s.held_limit);
  }
  return key;
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

  const bool collapse = !options.full_iteration_walk;
  std::vector<std::int64_t> key;
  if (collapse) {
    key = memo_key(strategies, options);
    std::vector<std::int64_t> record;
    if (model.cycle_memo().lookup(key, record) && record.size() == 4) {
      CycleReport report;
      report.mem_cycles = record[0];
      report.ram_accesses = record[1];
      report.exec_cycles = record[2];
      report.iterations = record[3];
      return report;
    }
  }

  CycleWalker walker(model, strategies, options);
  const CycleReport report = collapse ? walk_collapsed(walker, model, strategies)
                                      : walk_full(walker, model.kernel());
  if (collapse) {
    model.cycle_memo().store(
        key, {report.mem_cycles, report.ram_accesses, report.exec_cycles, report.iterations});
  }
  return report;
}

}  // namespace srra
