// Tests of the normative access model (DESIGN.md §6) against the numbers
// derivable from the paper's worked example (Figure 2(c)): the per-group
// steady-state RAM access counts under the FR/PR/CPA register assignments.
// WalkerFuzz checks the tracker's resident index against a linear-scan
// reference tracker on random kernels (SRRA_FUZZ_SEED / SRRA_FUZZ_ITERS).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/walker.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "kernels/kernels.h"
#include "random_kernel.h"
#include "support/rng.h"
#include "support/str.h"

namespace srra {
namespace {

struct Ctx {
  Kernel kernel;
  std::vector<RefGroup> groups;
  std::vector<ReuseInfo> reuse;
};

Ctx make_ctx(Kernel kernel) {
  Ctx s{std::move(kernel), {}, {}};
  s.groups = collect_ref_groups(s.kernel);
  s.reuse = analyze_all_reuse(s.kernel, s.groups);
  return s;
}

std::vector<std::int64_t> regs_by_name(const Ctx& s,
                                       const std::vector<std::pair<std::string, std::int64_t>>& m) {
  std::vector<std::int64_t> regs(s.groups.size(), 0);
  for (const auto& [name, n] : m) {
    regs[static_cast<std::size_t>(group_named(s.groups, name).id)] = n;
  }
  return regs;
}

std::int64_t steady(const Ctx& s, const std::vector<GroupCounts>& counts,
                    const std::string& name) {
  return counts[static_cast<std::size_t>(group_named(s.groups, name).id)].steady_total();
}

// The example kernel runs the outer loop twice (one peeled + one steady), so
// per-outer-iteration numbers are counts / 2.

TEST(Walker, ExampleFrAssignmentReproducesPaperCounts) {
  const Ctx s = make_ctx(kernels::paper_example());
  const auto regs = regs_by_name(
      s, {{"a[k]", 30}, {"b[k][j]", 1}, {"c[j]", 20}, {"d[i][k]", 1}, {"e[i][j][k]", 1}});
  const auto counts = simulate_accesses(s.kernel, s.groups, s.reuse, regs);
  EXPECT_EQ(steady(s, counts, "a[k]"), 0);
  EXPECT_EQ(steady(s, counts, "c[j]"), 0);
  EXPECT_EQ(steady(s, counts, "b[k][j]"), 1200);   // 600 per outer iteration
  EXPECT_EQ(steady(s, counts, "d[i][k]"), 1200);   // writes only; read is forwarded
  EXPECT_EQ(steady(s, counts, "e[i][j][k]"), 1200);
  // Total serial memory accesses: 3 * 600 per outer iteration = paper's 1800.
  std::int64_t total = 0;
  for (const auto& c : counts) total += c.steady_total();
  EXPECT_EQ(total / 2, 1800);
}

TEST(Walker, ExamplePrAssignmentReproducesPaperCounts) {
  const Ctx s = make_ctx(kernels::paper_example());
  const auto regs = regs_by_name(
      s, {{"a[k]", 30}, {"b[k][j]", 1}, {"c[j]", 20}, {"d[i][k]", 12}, {"e[i][j][k]", 1}});
  const auto counts = simulate_accesses(s.kernel, s.groups, s.reuse, regs);
  // d holds 12 of its 30 window elements: 18 missing columns x 20 j-values.
  EXPECT_EQ(steady(s, counts, "d[i][k]"), 2 * 360);
  std::int64_t total = 0;
  for (const auto& c : counts) total += c.steady_total();
  EXPECT_EQ(total / 2, 1560);  // paper's PR-RA Tmem
}

TEST(Walker, ExampleCpaAssignmentSerialCounts) {
  const Ctx s = make_ctx(kernels::paper_example());
  const auto regs = regs_by_name(
      s, {{"a[k]", 16}, {"b[k][j]", 16}, {"c[j]", 1}, {"d[i][k]", 30}, {"e[i][j][k]", 1}});
  const auto counts = simulate_accesses(s.kernel, s.groups, s.reuse, regs);
  EXPECT_EQ(steady(s, counts, "a[k]"), 2 * 280);   // 14 missing x 20 j
  EXPECT_EQ(steady(s, counts, "b[k][j]"), 2 * 584);
  EXPECT_EQ(steady(s, counts, "c[j]"), 0);         // 1 register exploits the k-level reuse
  EXPECT_EQ(steady(s, counts, "d[i][k]"), 0);      // fully scalar-replaced
  EXPECT_EQ(steady(s, counts, "e[i][j][k]"), 2 * 600);
  // Serial sum is 1464/outer; the paper's 1184 needs operand concurrency
  // (cycle model, tested in test_cycle_model).
}

TEST(Walker, SingleRegisterIsOperandLatchNotHolding) {
  const Ctx s = make_ctx(kernels::paper_example());
  // b with 1 register must behave exactly like b with 0 registers.
  const auto r1 = regs_by_name(s, {{"b[k][j]", 1}});
  const auto r0 = regs_by_name(s, {{"b[k][j]", 0}});
  const auto c1 = simulate_accesses(s.kernel, s.groups, s.reuse, r1);
  const auto c0 = simulate_accesses(s.kernel, s.groups, s.reuse, r0);
  EXPECT_EQ(steady(s, c1, "b[k][j]"), steady(s, c0, "b[k][j]"));
}

TEST(Walker, SingleRegisterHoldingOptIn) {
  const Ctx s = make_ctx(kernels::paper_example());
  ModelOptions options;
  options.single_register_holding = true;
  const auto regs = regs_by_name(s, {{"b[k][j]", 1}});
  const auto counts = simulate_accesses(s.kernel, s.groups, s.reuse, regs, options);
  // Holding b[0][0]: its i=0 use is the (peeled) fill and its i=1 use hits,
  // so 2 of the 1200 uses never miss.
  EXPECT_EQ(steady(s, counts, "b[k][j]"), 1198);
}

TEST(Walker, ForwardedReadsNeverTouchRam) {
  const Ctx s = make_ctx(kernels::paper_example());
  const auto regs = std::vector<std::int64_t>(s.groups.size(), 0);
  const auto counts = simulate_accesses(s.kernel, s.groups, s.reuse, regs);
  const GroupCounts& d = counts[static_cast<std::size_t>(group_named(s.groups, "d[i][k]").id)];
  EXPECT_EQ(d.forwards, s.kernel.iteration_count());
  EXPECT_EQ(d.miss_reads, 0);
  EXPECT_EQ(d.miss_writes, s.kernel.iteration_count());
}

TEST(Walker, SlidingWindowRotatesWithOneSteadyFillPerIteration) {
  // FIR x[i+j] with a 16-register partial window: each outer iteration fills
  // exactly one new element (the tail rotates), plus 16 misses.
  const Ctx s = make_ctx(kernels::fir());
  const auto regs = regs_by_name(s, {{"x[i + j]", 16}});
  const GroupCounts c = count_group_accesses(
      s.kernel, group_named(s.groups, "x[i + j]"),
      s.reuse[static_cast<std::size_t>(group_named(s.groups, "x[i + j]").id)], 16);
  (void)regs;
  const std::int64_t outer = 1024;
  EXPECT_EQ(c.steady_fills, outer - 1);       // no fill at i == 0 (peeled)
  EXPECT_EQ(c.miss_reads, outer * (32 - 16)); // 16 taps uncovered each i
  EXPECT_EQ(c.flushes, 0);                    // read-only window
}

TEST(Walker, FullWindowEliminatesAllSteadyAccesses) {
  const Ctx s = make_ctx(kernels::fir());
  const RefGroup& cg = group_named(s.groups, "c[j]");
  const GroupCounts c = count_group_accesses(
      s.kernel, cg, s.reuse[static_cast<std::size_t>(cg.id)], 32);
  EXPECT_EQ(c.steady_total(), 0);
  EXPECT_EQ(c.fills, 32);  // filled once, in the peeled first iteration
}

TEST(Walker, AccumulatorFullyCapturedByOneRegister) {
  const Ctx s = make_ctx(kernels::fir());
  const RefGroup& yg = group_named(s.groups, "y[i]");
  const GroupCounts c = count_group_accesses(
      s.kernel, yg, s.reuse[static_cast<std::size_t>(yg.id)], 1);
  EXPECT_EQ(c.steady_total(), 0);
  EXPECT_EQ(c.fills, 1024);    // initial load per window (first j, peeled)
  EXPECT_EQ(c.flushes, 1024);  // final store per window (last j, peeled)
}

TEST(Walker, WriteAllocationNeedsNoFill) {
  const Ctx s = make_ctx(kernels::paper_example());
  const RefGroup& dg = group_named(s.groups, "d[i][k]");
  const GroupCounts c = count_group_accesses(
      s.kernel, dg, s.reuse[static_cast<std::size_t>(dg.id)], 30);
  EXPECT_EQ(c.fills, 0);       // first touch is a write
  EXPECT_EQ(c.flushes, 2 * 30);
  EXPECT_EQ(c.steady_total(), 0);
}

TEST(Walker, TotalModeCountsFillAndFlushTraffic) {
  const Ctx s = make_ctx(kernels::paper_example());
  const RefGroup& ag = group_named(s.groups, "a[k]");
  const GroupCounts c = count_group_accesses(
      s.kernel, ag, s.reuse[static_cast<std::size_t>(ag.id)], 30);
  EXPECT_EQ(c.total(), 30);        // one fill per element, ever
  EXPECT_EQ(c.steady_total(), 0);  // all at the peeled first outer iteration
}

TEST(Walker, StrategySelection) {
  const Ctx s = make_ctx(kernels::paper_example());
  const ReuseInfo& rc = s.reuse[static_cast<std::size_t>(group_named(s.groups, "c[j]").id)];
  // 1 register -> full at the innermost carrying level.
  const RefStrategy s1 = choose_strategy(rc, 1);
  EXPECT_EQ(s1.carry_level, 2);
  EXPECT_EQ(s1.held_limit, 1);
  // 20 registers -> full at the outermost level.
  const RefStrategy s20 = choose_strategy(rc, 20);
  EXPECT_EQ(s20.carry_level, 0);
  EXPECT_EQ(s20.held_limit, 20);
  // 10 registers -> innermost full still preferred over nothing.
  const RefStrategy s10 = choose_strategy(rc, 10);
  EXPECT_EQ(s10.carry_level, 2);
  // No reuse -> never holds.
  const ReuseInfo& re = s.reuse[static_cast<std::size_t>(group_named(s.groups, "e[i][j][k]").id)];
  EXPECT_FALSE(choose_strategy(re, 64).holds());
}

TEST(Walker, IterationAdvance) {
  const Kernel k = parse_kernel(R"(
    kernel it {
      array a[6];
      for i in 0..4 step 2 { for j in 1..3 { a[i + j] = 0; } }
    }
  )");
  std::vector<std::int64_t> iter = first_iteration(k);
  EXPECT_EQ(iter, (std::vector<std::int64_t>{0, 1}));
  std::vector<std::vector<std::int64_t>> seen{iter};
  while (next_iteration(k, iter)) seen.push_back(iter);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[1], (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(seen[2], (std::vector<std::int64_t>{2, 1}));
  EXPECT_EQ(seen[3], (std::vector<std::int64_t>{2, 2}));
}

// Test-only reference tracker: the window policy with the resident set
// kept as a plain vector and found by linear scan, as WindowTracker did
// before it indexed residents by element. The collapsed-vs-full oracles
// cannot catch a tracker bug (both paths drive the same WindowTracker), so
// the differential test below compares the two trackers directly.
class LinearScanTracker {
 public:
  LinearScanTracker(const Kernel& kernel, const RefGroup& group, RefStrategy strategy)
      : kernel_(kernel), group_(group), strategy_(strategy) {}

  void begin_iteration(const std::vector<std::int64_t>& iteration,
                       std::vector<AccessEvent>& out) {
    wrote_.clear();
    if (!initialized_ || !strategy_.holds()) {
      initialized_ = true;
      cur_ = iteration;
      return;
    }
    const auto l = static_cast<std::size_t>(strategy_.carry_level);
    const bool window_changed =
        !std::equal(cur_.begin(), cur_.begin() + static_cast<std::ptrdiff_t>(l),
                    iteration.begin());
    if (window_changed) flush_all(!at_last_carry_value(), out);
    if (window_changed || cur_[l] != iteration[l]) rank_order_.clear();
    cur_ = iteration;
  }

  void on_access(const std::vector<std::int64_t>& iteration, bool is_write, int stmt,
                 int order, std::vector<AccessEvent>& out) {
    AccessEvent event;
    event.group = group_.id;
    event.element = element_at(kernel_, group_.access, iteration);
    event.stmt = stmt;
    event.order = order;
    const bool wrote =
        std::find(wrote_.begin(), wrote_.end(), event.element) != wrote_.end();
    if (!is_write && wrote) {
      event.kind = AccessKind::kForward;
      event.steady = false;
      out.push_back(event);
      return;
    }
    if (is_write && !wrote) wrote_.push_back(event.element);
    bool in_window = std::find(rank_order_.begin(), rank_order_.end(), event.element) !=
                     rank_order_.end();
    if (strategy_.holds() && !in_window &&
        static_cast<std::int64_t>(rank_order_.size()) < strategy_.held_limit) {
      rank_order_.push_back(event.element);
      in_window = true;
    }
    if (!strategy_.holds() || !in_window) {
      event.kind = is_write ? AccessKind::kMissWrite : AccessKind::kMissRead;
      event.steady = true;
      out.push_back(event);
      return;
    }
    ++seq_;
    const auto held = std::find_if(held_.begin(), held_.end(),
                                   [&](const Held& h) { return h.element == event.element; });
    if (held != held_.end()) {
      held->last_touch = seq_;
      held->dirty = held->dirty || is_write;
      event.kind = is_write ? AccessKind::kRegWrite : AccessKind::kRegHit;
      event.steady = false;
      out.push_back(event);
      return;
    }
    if (static_cast<std::int64_t>(held_.size()) >= strategy_.held_limit) {
      const auto victim = std::min_element(
          held_.begin(), held_.end(),
          [](const Held& a, const Held& b) { return a.last_touch < b.last_touch; });
      if (victim->dirty) out.push_back(flush_event(victim->element, !at_last_carry_value()));
      held_.erase(victim);
      ++evictions_;
    }
    held_.push_back(Held{event.element, is_write, seq_});
    event.kind = is_write ? AccessKind::kRegWrite : AccessKind::kFill;
    event.steady = !is_write && !at_first_carry_value();
    out.push_back(event);
  }

  void finish(std::vector<AccessEvent>& out) {
    if (initialized_ && strategy_.holds()) flush_all(!at_last_carry_value(), out);
  }

  std::int64_t evictions() const { return evictions_; }

  void translate_held(std::int64_t delta) {
    for (Held& h : held_) h.element += delta;
    for (std::int64_t& element : rank_order_) element += delta;
  }

  void append_state_signature(std::int64_t offset, std::vector<std::int64_t>& out) const {
    out.push_back(static_cast<std::int64_t>(rank_order_.size()));
    for (const std::int64_t element : rank_order_) out.push_back(element - offset);
    out.push_back(static_cast<std::int64_t>(held_.size()));
    std::uint64_t base = 0;
    for (std::size_t i = 0; i < held_.size(); ++i) {
      if (i == 0 || held_[i].last_touch < base) base = held_[i].last_touch;
    }
    for (const Held& h : held_) {
      out.push_back(h.element - offset);
      out.push_back(h.dirty ? 1 : 0);
      out.push_back(static_cast<std::int64_t>(h.last_touch - base));
    }
  }

 private:
  struct Held {
    std::int64_t element;
    bool dirty;
    std::uint64_t last_touch;
  };

  AccessEvent flush_event(std::int64_t element, bool steady) const {
    AccessEvent flush;
    flush.kind = AccessKind::kFlush;
    flush.group = group_.id;
    flush.element = element;
    flush.steady = steady;
    return flush;
  }
  void flush_all(bool steady, std::vector<AccessEvent>& out) {
    for (const Held& h : held_) {
      if (h.dirty) out.push_back(flush_event(h.element, steady));
    }
    held_.clear();
  }
  bool at_first_carry_value() const {
    const int l = strategy_.carry_level;
    return cur_[static_cast<std::size_t>(l)] == kernel_.loop(l).lower;
  }
  bool at_last_carry_value() const {
    const Loop& loop = kernel_.loop(strategy_.carry_level);
    return cur_[static_cast<std::size_t>(strategy_.carry_level)] ==
           loop.value_at(loop.trip_count() - 1);
  }

  const Kernel& kernel_;
  const RefGroup& group_;
  RefStrategy strategy_;
  bool initialized_ = false;
  std::vector<std::int64_t> cur_;
  std::vector<std::int64_t> rank_order_;
  std::vector<Held> held_;
  std::vector<std::int64_t> wrote_;
  std::uint64_t seq_ = 0;
  std::int64_t evictions_ = 0;
};

std::string describe(const std::vector<AccessEvent>& events) {
  std::ostringstream os;
  for (const AccessEvent& e : events) {
    os << " (" << static_cast<int>(e.kind) << " e" << e.element << (e.steady ? " s" : " -")
       << " o" << e.order << ")";
  }
  return os.str();
}

bool same_events(const std::vector<AccessEvent>& a, const std::vector<AccessEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const AccessEvent& x, const AccessEvent& y) {
                      return x.kind == y.kind && x.group == y.group &&
                             x.element == y.element && x.steady == y.steady &&
                             x.stmt == y.stmt && x.order == y.order;
                    });
}

// Drives the indexed tracker and the linear-scan reference through the
// whole iteration space under one strategy, interleaving random
// translate_held calls, and compares every event and the state signature
// after every iteration. Returns the reference's eviction count.
std::int64_t expect_trackers_agree(const Kernel& kernel, const RefGroup& group,
                                   RefStrategy strategy, Rng& rng,
                                   const std::string& context) {
  WindowTracker indexed(kernel, group, strategy);
  LinearScanTracker reference(kernel, group, strategy);
  std::vector<AccessEvent> got;
  std::vector<AccessEvent> want;
  const auto collect = [&got](const AccessEvent& e) { got.push_back(e); };
  const EventSink sink(collect);
  std::vector<std::int64_t> iter = first_iteration(kernel);
  std::int64_t step = 0;
  do {
    got.clear();
    want.clear();
    indexed.begin_iteration(iter, sink);
    reference.begin_iteration(iter, want);
    for (const RefOccurrence& occ : group.occurrences) {
      const AccessEvent returned = indexed.on_access(iter, occ.is_write, occ.stmt, occ.order, sink);
      reference.on_access(iter, occ.is_write, occ.stmt, occ.order, want);
      EXPECT_TRUE(same_events({returned}, {want.back()})) << context;
    }
    EXPECT_TRUE(same_events(got, want))
        << context << " iteration " << step << "\n  indexed:" << describe(got)
        << "\n  linear: " << describe(want);
    if (rng.uniform(0, 7) == 0) {
      const std::int64_t delta = rng.uniform(-3, 3);
      indexed.translate_held(delta);
      reference.translate_held(delta);
    }
    const std::int64_t offset = rng.uniform(-4, 4);
    std::vector<std::int64_t> got_state;
    std::vector<std::int64_t> want_state;
    indexed.append_state_signature(offset, got_state);
    reference.append_state_signature(offset, want_state);
    EXPECT_EQ(got_state, want_state) << context << " iteration " << step;
    if (::testing::Test::HasFailure()) return reference.evictions();
    ++step;
  } while (next_iteration(kernel, iter));
  got.clear();
  want.clear();
  indexed.finish(sink);
  reference.finish(want);
  EXPECT_TRUE(same_events(got, want)) << context << " finish\n  indexed:" << describe(got)
                                      << "\n  linear: " << describe(want);
  return reference.evictions();
}

TEST(WalkerFuzz, IndexedResidentSetMatchesLinearScan) {
  const int iters = fuzz_iters();
  std::int64_t strategies = 0;
  std::int64_t evictions = 0;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_seed() + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(cat("fuzz seed ", seed, " — replay with SRRA_FUZZ_SEED=", seed,
                     " SRRA_FUZZ_ITERS=1 ./test_walker"));
    Rng rng(seed * 60493 + 29);
    const Ctx s = make_ctx(testing::random_kernel(rng));
    for (std::size_t g = 0; g < s.groups.size(); ++g) {
      const ReuseInfo& info = s.reuse[g];
      // No holding, then every window size from a single register to one
      // past full coverage at every carrying level: full, partial (evicting)
      // and oversized windows.
      std::vector<RefStrategy> candidates{RefStrategy{}};
      for (const CarryLevel& cl : info.levels) {
        for (std::int64_t held = 1; held <= info.beta_full() + 1; ++held) {
          candidates.push_back(RefStrategy{cl.level, held});
        }
      }
      for (const RefStrategy& strategy : candidates) {
        evictions += expect_trackers_agree(
            s.kernel, s.groups[g], strategy, rng,
            cat(s.groups[g].display, " carry ", strategy.carry_level, " held ",
                strategy.held_limit, "\n", kernel_to_string(s.kernel)));
        ++strategies;
        if (HasFailure()) return;
      }
    }
  }
  // The sweep is only meaningful if it exercised evicting windows.
  EXPECT_GT(evictions, 0);
  EXPECT_GT(strategies, iters);
}

}  // namespace
}  // namespace srra
