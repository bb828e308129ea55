// Persistent result store for the srrad daemon (DESIGN.md §12, §15): an
// on-disk cache of srra-query/v1 payloads keyed by the proto cache key,
// safe to share between several daemon processes. Layout:
//
//   <dir>/FORMAT            version stamp ("srrad-store/v2\n")
//   <dir>/LOCK              flock target: the cross-process mutation lease
//   <dir>/JOURNAL           append-only mutation log (replayed by peers)
//   <dir>/INDEX             crash-safe snapshot of the in-memory index
//   <dir>/k<key16>.entry    one entry per key:
//                           "srrad-entry/v2 <key16> <bytes> <cost> <seq>\n<payload>"
//
// Properties the tests pin (test_service.cc, test_fault.cc, test_shared.cc):
//  * crash safety — entries are written to a temp file and renamed into
//    place, so a torn write can only ever produce a *corrupt* entry, never
//    a half-visible one; every crash point of the write path (see
//    support/faultio.h) recovers to a store that answers byte-identically;
//  * corrupt tolerance — an entry that fails validation (bad stamp, wrong
//    key, short payload; or, checked by the server, a body that is not a
//    JSON object) reads as a miss and is dropped, never a crash;
//  * version migration — a FORMAT stamp from another version clears the
//    store (cold restart) instead of serving payloads of a stale schema;
//  * bounded size — at most max_entries entries; inserting past the cap
//    evicts by the policy of service/eviction.h (lowest cost-per-byte
//    score, then least recently used, then oldest arrival);
//  * deterministic order — arrival sequence numbers are persisted in the
//    entry header and the index, so eviction order survives restarts
//    regardless of filesystem timestamp resolution (no mtime involved);
//  * multi-process sharing — every mutation (put, evict, corrupt drop)
//    happens under an flock lease on <dir>/LOCK and is logged to the
//    append-only JOURNAL; peers discover each other's entries by replaying
//    the journal suffix (one stat per cold lookup, no readdir), and
//    eviction is epoch-stamped so two daemons never double-evict or
//    resurrect a condemned key;
//  * read-mostly index — the INDEX snapshot (rewritten under the lease on
//    clean close and every few hundred mutations) makes warm startup a
//    single small file read plus a name-only tmp sweep; the expensive
//    directory scan that reads every entry header runs only when the
//    index or journal is missing or corrupt (counted in index_rebuilds());
//  * debris-free startup — stale *.tmp files left by a crash are swept
//    (and counted) when the store opens;
//  * graceful I/O degradation — a failed write (ENOSPC, EIO, torn disk)
//    reads as "not stored" with the errno kept for health reporting; a
//    store directory that cannot even be stamped degrades to disabled
//    instead of taking the daemon down.
//
// All raw I/O goes through support/faultio, so a fault plan can
// deterministically inject short reads, EINTR storms, ENOSPC/EIO and
// mid-write crashes (DESIGN.md §14).
//
// Not thread-safe within one process: the server serializes all store
// access on its loop thread (compute runs on the pool, store I/O does
// not). Cross-process safety is the flock lease's job.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/eviction.h"

namespace srra::service {

inline constexpr const char kStoreFormat[] = "srrad-store/v2";
inline constexpr const char kEntryFormat[] = "srrad-entry/v2";
inline constexpr const char kIndexFormat[] = "srrad-index/v1";

struct StoreOptions {
  /// Eviction cap, in entries. Must be >= 1 — the constructor throws on a
  /// smaller value (CLI layers validate first, naming the flag).
  std::int64_t max_entries = 4096;
  /// Durability: fsync every entry file (and its directory after the
  /// rename) before reporting it stored. Off by default — the store is a
  /// cache, and a lost entry is only a recompute; turn it on when the
  /// store must survive power loss, not just process crashes.
  bool fsync = false;
};

/// One index row, as exposed to manifests and the pull op.
struct StoreEntryInfo {
  std::string key;
  std::int64_t bytes = 0;  ///< payload bytes (header excluded)
  std::int64_t cost = 1;   ///< recompute cost estimate, abstract units
  std::int64_t seq = 0;    ///< arrival sequence number (eviction tie-break)
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store at `dir`; empty `dir` disables
  /// persistence (every get misses, every put is a no-op). Throws
  /// srra::Error when the directory cannot be created or scanned, or when
  /// options.max_entries < 1; a directory that cannot be *stamped* (e.g.
  /// disk full) degrades to a disabled store instead (open_failed()
  /// reports why).
  explicit ResultStore(std::string dir, StoreOptions options = {});
  /// Convenience: options with just the eviction cap set.
  ResultStore(std::string dir, std::int64_t max_entries);
  /// Writes a final INDEX snapshot (best effort) and releases the lock fd.
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  bool enabled() const { return !dir_.empty(); }

  /// The payload stored under `key`, or nullopt. A corrupt entry is
  /// dropped (counted in corrupt_dropped()) and reported as a miss. A key
  /// this process has never seen triggers one journal-suffix replay before
  /// the miss is declared — that is how a daemon discovers entries a peer
  /// published (one fstat when the journal is unchanged). `cost_out`, when
  /// non-null, receives the entry's recompute cost estimate on a hit.
  std::optional<std::string> get(const std::string& key,
                                 std::int64_t* cost_out = nullptr);

  /// Inserts or overwrites `key`, evicting the lowest-scoring entries
  /// beyond the cap first. `cost` is the recompute cost estimate carried
  /// in the entry header (>= 1; the eviction score is cost/bytes). Returns
  /// false when the entry was NOT persisted — disabled store, or an I/O
  /// failure (a full disk must not take the daemon down; the server's
  /// health state machine watches this signal).
  bool put(const std::string& key, const std::string& payload,
           std::int64_t cost = 1);

  /// Drops `key` as corrupt (counted in corrupt_dropped()): for a caller
  /// whose own validation rejected the payload get() returned. A no-op when
  /// a peer already removed the key.
  void drop_corrupt(const std::string& key);

  /// The current index, sorted by key (deterministic manifests). Replays
  /// any outstanding journal suffix first, so peers' entries are included.
  std::vector<StoreEntryInfo> snapshot();

  std::int64_t entries() const { return static_cast<std::int64_t>(index_.size()); }
  std::int64_t evictions() const { return evictions_; }
  /// Evictions where the cost/bytes score singled the victim out vs. ties
  /// broken by recency (evictions() == evicted_by_cost() + evicted_lru()).
  std::int64_t evicted_by_cost() const { return evicted_by_cost_; }
  std::int64_t evicted_lru() const { return evicted_lru_; }
  std::int64_t corrupt_dropped() const { return corrupt_dropped_; }
  /// Stale *.tmp crash leftovers removed by the startup sweep.
  std::int64_t tmp_swept() const { return tmp_swept_; }
  /// put() calls that failed on I/O (not counting disabled-store no-ops).
  std::int64_t write_failures() const { return write_failures_; }
  /// Full directory scans (every entry header read) because the INDEX or
  /// JOURNAL was missing or corrupt — the slow path the index exists to
  /// avoid.
  std::int64_t index_rebuilds() const { return index_rebuilds_; }
  /// strerror of the most recent failed write, "" when none.
  const std::string& last_write_error() const { return last_write_error_; }
  /// True when the store directory existed but could not be stamped; the
  /// store then behaves as disabled.
  bool open_failed() const { return open_failed_; }

 private:
  std::string entry_path(const std::string& key) const;
  std::string index_path() const;
  std::string journal_path() const;
  /// Loads the INDEX snapshot; false when missing, corrupt, or covering
  /// more journal than exists (wiped journal behind it).
  bool load_index();
  /// Applies complete journal lines past journal_offset_. A torn tail (a
  /// peer mid-append or crashed mid-append) stays unapplied until sealed.
  void replay_journal();
  void apply_journal_line(const std::string& line);
  /// Appends one record under the (held) lease, sealing any torn tail.
  bool journal_append(const std::string& line);
  /// Directory pass at open (under the lease): sweeps *.tmp, adopts orphan
  /// entries (file without an index row — a crash between rename and
  /// journal append), and drops index rows whose file is gone. True when
  /// it adopted at least one orphan.
  bool reconcile_with_directory();
  /// Reads and validates one entry header; fills `meta` (last_use = 0).
  bool read_entry_meta(const std::string& key, CacheMeta* meta) const;
  void write_index_snapshot();
  /// Evicts until one insert fits; under the held lease.
  void evict_for_insert();
  /// Unlinks + journals the removal of `key` (corrupt drop or eviction).
  void remove_entry(const std::string& key);

  std::string dir_;
  StoreOptions options_;
  std::unordered_map<std::string, CacheMeta> index_;
  int lock_fd_ = -1;
  int journal_fd_ = -1;
  std::int64_t journal_offset_ = 0;  ///< journal bytes already applied
  std::int64_t next_seq_ = 1;
  std::int64_t epoch_ = 0;  ///< eviction epoch (max seen across daemons)
  std::int64_t tick_ = 0;   ///< process-local LRU clock
  std::int64_t mutations_ = 0;  ///< since the last INDEX snapshot
  std::int64_t evictions_ = 0;
  std::int64_t evicted_by_cost_ = 0;
  std::int64_t evicted_lru_ = 0;
  std::int64_t corrupt_dropped_ = 0;
  std::int64_t tmp_swept_ = 0;
  std::int64_t write_failures_ = 0;
  std::int64_t index_rebuilds_ = 0;
  std::string last_write_error_;
  bool open_failed_ = false;

  friend class StoreLease;
};

}  // namespace srra::service
