// srrad server core (DESIGN.md §12): evaluates batches of wire-protocol
// requests over the allocation engine, with two cache layers (an in-memory
// payload map and the persistent ResultStore) and in-flight coalescing.
//
// Batch semantics are what make responses deterministic: every request of a
// batch is keyed, looked up against the cache state *at batch start*, and
// unique missing keys are computed exactly once on the thread pool — a
// thundering herd of identical queries computes once and every duplicate
// reports the same cache status ("miss" when the key was absent, "hit" when
// present). Compute jobs that share a kernel variant also share one
// RefModel, so a batch mixing algorithms/budgets of one kernel pays for its
// analysis once (the dse/explore sharding idea, applied across requests).
// Responses are therefore byte-identical for any jobs value and any
// arrival order of the same request multiset against the same starting
// store (tested in test_service.cc); only the opt-in "timing" field and the
// health op break that, by design.
//
// The serve loops (stdio frames, Unix socket, TCP) all feed handle_batch:
// one readiness sweep = one batch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/proto.h"
#include "service/store.h"
#include "support/thread_pool.h"

namespace srra::service {

struct ServerOptions {
  /// Thread-pool lanes for batch compute (<= 0 = all cores).
  int jobs = 1;
  /// Persistent store directory; empty = in-memory caching only.
  std::string store_dir;
  /// Eviction cap of the persistent store.
  std::int64_t store_max_entries = 4096;
  /// Durability: fsync store entries (StoreOptions::fsync).
  bool store_fsync = false;
  /// Eviction cap of the in-memory payload cache.
  std::int64_t memory_max_entries = 1 << 16;
  /// Consecutive store-write failures before the server flips to
  /// compute-only mode (skips the store entirely; <= 0 disables the
  /// breaker and every put keeps hitting the failing disk).
  int store_failure_threshold = 3;
  /// While compute-only: every Nth would-be put goes through as a probe;
  /// one success flips the store back to normal service.
  int store_probe_every = 16;
  /// Socket serve loops: a connection holding a *partial* frame longer
  /// than this is sent an error and closed, so one stalled client cannot
  /// pin buffer memory forever (0 = no deadline).
  int read_deadline_ms = 30000;
};

/// Store service state (the "health" op reports this).
enum class StoreMode {
  kDisabled,  ///< no store configured (or it failed to open)
  kOk,        ///< store serving reads and writes
  kDegraded,  ///< compute-only after repeated failures; probing its way back
};

/// Monotonic service counters (the "health" op reports these).
struct ServerStats {
  std::int64_t requests = 0;   ///< frames handled (all ops)
  std::int64_t queries = 0;    ///< query-op requests
  std::int64_t hits = 0;       ///< served from memory or store
  std::int64_t misses = 0;     ///< absent at batch start (computed or probed)
  std::int64_t computed = 0;   ///< unique evaluations actually run
  std::int64_t coalesced = 0;  ///< duplicate in-batch queries folded away
  std::int64_t errors = 0;     ///< ok:false responses
  std::int64_t store_put_failures = 0;  ///< failed persistent writes
  std::int64_t store_degraded = 0;      ///< times the breaker opened
  std::int64_t store_probes = 0;        ///< probe puts while degraded
  std::int64_t deadline_closes = 0;     ///< connections closed by deadline
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handles one batch of request payloads; returns one response payload
  /// per request, in request order. Never throws on bad requests — those
  /// become ok:false responses.
  std::vector<std::string> handle_batch(const std::vector<std::string>& requests);

  /// handle_batch of one.
  std::string handle(const std::string& request);

  /// True once a shutdown request has been served (serve loops exit).
  bool shutdown_requested() const { return shutdown_; }

  /// Frame loop over a stream pair (`srrad --stdio`, tests): reads one
  /// frame, then greedily drains whatever is already buffered into the
  /// same batch; writes response frames in request order and flushes per
  /// batch. Returns the process exit code (0 on EOF or shutdown, 2 on a
  /// torn/malformed frame, after sending an error response).
  int serve_stream(std::istream& in, std::ostream& out);

  /// Poll-based socket accept loops (one batch per readiness sweep).
  /// serve_unix binds `path` (unlinking a stale socket first); serve_tcp
  /// binds 127.0.0.1:`port`. Both return the process exit code.
  int serve_unix(const std::string& path);
  int serve_tcp(int port);

  /// Streams the peer's stored entries into this daemon's store and memory
  /// cache via paged `op:"pull"` requests, best-scoring entries first, so a
  /// fresh shard answers warm from its first request (DESIGN.md §15). Each
  /// cache adopts the longest prefix that fits under its cap, so smaller
  /// caps keep the peer's best entries; pulling stops when both are full.
  /// `endpoint` is a Unix socket path (contains '/') or "host:port".
  /// Returns the number of entries adopted into at least one cache; throws
  /// srra::Error when the peer cannot be reached (callers typically warn
  /// and serve cold).
  int warm_from_peer(const std::string& endpoint);

  const ServerStats& stats() const { return stats_; }
  const ResultStore& store() const { return store_; }
  ResultStore& store() { return store_; }
  StoreMode store_mode() const { return store_mode_; }

 private:
  struct ResolvedVariant;  // memoized (kernel text, transforms) resolution
  struct Slot;             // per-request batch state

  /// One in-memory payload-cache entry, evicted by the store's policy
  /// (service/eviction.h).
  struct MemEntry {
    std::string payload;
    CacheMeta meta;
  };

  const ResolvedVariant& resolve_variant(const std::string& kernel_field,
                                         const std::string& transforms);
  void cache_insert(const std::string& key, const std::string& payload,
                    std::int64_t cost);
  /// Store read honoring the health state machine (degraded = skip).
  std::optional<std::string> store_get(const std::string& key,
                                       std::int64_t* cost_out);
  /// Store write through the health state machine: failures count toward
  /// the breaker; while degraded, only every Nth put probes the disk, and
  /// one probe success closes the breaker again.
  void store_put(const std::string& key, const std::string& payload,
                 std::int64_t cost);
  std::string health_response(const std::string& id);
  /// One `op:"pull"` page: stored entries in keep order (eviction.h), each
  /// payload carried as a JSON string (verbatim bytes) with its hash.
  std::string pull_response(const Request& request);
  int serve_fd(int listen_fd);

  ServerOptions options_;
  ResultStore store_;
  ThreadPool pool_;
  bool shutdown_ = false;
  ServerStats stats_;
  StoreMode store_mode_ = StoreMode::kDisabled;
  int consecutive_store_failures_ = 0;
  int puts_since_probe_ = 0;

  std::unordered_map<std::string, MemEntry> memory_cache_;
  std::int64_t memory_tick_ = 0;  ///< LRU clock; an entry's seq is its first tick

  std::unordered_map<std::string, std::unique_ptr<ResolvedVariant>> variants_;
};

}  // namespace srra::service
