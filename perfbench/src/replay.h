// Traced replays: the library's own call sequences, re-issued from the
// benchmark with a span around every public call, so each layer's time is
// measured from outside the program. Every call is made exactly once, in
// the order production makes it, so memoized layers (the RefModel cycle
// memo, the access curves) are timed cold the way production hits them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/pipeline.h"
#include "service/proto.h"
#include "service/store.h"
#include "trace.h"

namespace perfbench {

/// Where one request's spans go. A tap without a trace records nothing
/// (set-up traffic is replayed to keep state in step, but not traced).
struct Tap {
  Trace* trace = nullptr;
  int parent = -1;
  std::int64_t request = -1;
};

/// Span over a scope on a tap.
class TapScope {
 public:
  TapScope(const Tap& tap, std::string name)
      : tap_(tap), id_(tap.trace ? tap.trace->begin(std::move(name), tap.parent, tap.request)
                                 : -1) {}
  ~TapScope() {
    if (tap_.trace) tap_.trace->end(id_);
  }
  TapScope(const TapScope&) = delete;
  TapScope& operator=(const TapScope&) = delete;
  /// A tap whose spans are children of this one.
  Tap inner() const { return tap_.trace ? Tap{tap_.trace, id_, tap_.request} : Tap{}; }

 private:
  Tap tap_;
  int id_;
};

/// "8,16,24": the canonical spelling of a budget axis.
std::string join_ints(const std::vector<std::int64_t>& values);

/// Metric tag of an allocator ("fr", "cpa", ...).
std::string algo_tag(srra::Algorithm algorithm);

/// evaluate_design's body (validate, cycle model, hardware estimate) with a
/// "driver.evaluate_design" span whose self time is the validation.
srra::DesignPoint traced_evaluate_design(const srra::RefModel& model,
                                         srra::Algorithm algorithm,
                                         srra::Allocation allocation,
                                         const srra::PipelineOptions& options, const Tap& tap);

/// A replica of Server::handle_batch's call order over its own caches: an
/// in-memory payload map with the server's eviction policy and a real
/// ResultStore in its own directory, both with the server's caps.
class ServiceReplica {
 public:
  ServiceReplica(const std::string& store_dir, std::int64_t store_max_entries,
                 std::int64_t memory_max_entries);

  /// Replays one recorded batch; taps[i] receives request i's spans.
  /// Returns, per request, whether the replica answered it from a cache, so
  /// the caller can check it against what the server answered.
  std::vector<bool> replay_batch(const std::vector<std::string>& payloads,
                                 const std::vector<Tap>& taps);

  /// Lookup outcomes of traced requests, and the unique misses they caused.
  std::int64_t lookups = 0;
  std::int64_t memory_hits = 0;
  std::int64_t store_hits = 0;
  std::int64_t computed_jobs = 0;

 private:
  struct Resolved {
    std::string display_name;
    std::string transforms;
    std::uint64_t hash = 0;
    srra::Kernel kernel;
  };
  struct MemEntry {
    std::string payload;
    std::int64_t cost = 1;
    std::int64_t last_use = 0;
    std::int64_t seq = 0;
  };
  struct Slot;

  const Resolved& resolve(const std::string& kernel_field, const std::string& transforms);
  void memory_insert(const std::string& key, const std::string& payload, std::int64_t cost);
  std::string evaluate(const srra::RefModel& model, const Resolved& variant, const Slot& slot,
                       const Tap& tap);

  srra::service::ResultStore store_;
  std::int64_t memory_max_entries_;
  std::unordered_map<std::string, MemEntry> memory_;
  std::int64_t tick_ = 0;
  std::int64_t seq_ = 0;
  std::unordered_map<std::string, std::unique_ptr<Resolved>> variants_;
};

}  // namespace perfbench
