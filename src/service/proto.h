// srrad wire protocol (DESIGN.md §12): length-prefixed JSON frames carrying
// allocation queries against the full pipeline. One frame is
//
//   <decimal payload byte count> '\n' <payload bytes>
//
// in both directions, over a Unix/TCP socket or a stdin/stdout pipe. The
// payload is one JSON object. Everything here is shared between the daemon
// (service/server.h), the client (service/client.h) and the `srra run
// --format=json` CLI path, so the two frontends serialize query results
// through literally the same code and can never drift.
//
// Request object ("op" defaults to "query"):
//   {"op": "query", "id": "tag",            -- id echoed verbatim
//    "kernel": "fir" | "kernel k { ... }",  -- builtin name or inline DSL
//    "transforms": "i(1,0);t(1,8)",         -- canonical encoding, "" = none
//    "algorithm": "cpa",                    -- any registry spelling
//    "mode": "budget" | "frontier",
//    "budget": 64,                          -- budget mode
//    "budgets": "8:128",                    -- frontier mode axis spec
//    "fetch": true,                         -- concurrent operand fetch
//    "probe": false,                        -- cache-only: never compute
//    "key": "0123456789abcdef",             -- probe an exact cache key
//    "timing": false}                       -- include elapsed_us
//   {"op": "health"}   -- server counters (jobs/requests/queries/hits/
//                         misses/computed/coalesced/...), store mode
//                         (ok|degraded|disabled), store/failure counters,
//                         hit rate, eviction-policy counters (DESIGN.md
//                         §14, §15)
//   {"op": "pull", "limit": 256, "offset": 0}
//                      -- page of stored entries in keep order (the
//                         reverse of service/eviction.h's rank, recency
//                         left out): a cold daemon's warmup stream
//                         (DESIGN.md §15); payloads travel as JSON strings
//                         so the cached bytes survive verbatim
//   {"op": "shutdown"} -- respond, then stop the serve loop
//
// Response envelope:
//   {"schema": "srra-service/v1", "id": ..., "ok": true,
//    "cache": {"status": "hit"|"miss", "key": "..."},
//    "elapsed_us": 123,                     -- only when the request asked
//    "query": { ...srra-query/v1 object... }}
// or {"schema": "srra-service/v1", "id": ..., "ok": false, "error": "..."}.
//
// The "query" member — the srra-query/v1 single-object report — is the unit
// the persistent store caches, a pure function of the cache key: byte-
// identical for any --jobs value, request arrival order, or store state
// (tested in test_service.cc).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/pipeline.h"
#include "support/json.h"

namespace srra::service {

inline constexpr const char kServiceSchema[] = "srra-service/v1";
inline constexpr const char kQuerySchema[] = "srra-query/v1";

// ------------------------------------------------------------------ framing

/// Upper bound on one frame's payload (a kernel DSL text or a frontier
/// report; 16 MiB is orders of magnitude above both). read_frame rejects
/// larger announcements instead of allocating attacker-controlled sizes.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{16} << 20;

/// Writes one frame (length line + payload). Does not flush.
void write_frame(std::ostream& os, std::string_view payload);

/// Reads one frame. Returns std::nullopt on clean end-of-stream (EOF before
/// the first length byte); throws srra::Error on a malformed length line,
/// an oversized announcement, or a payload truncated mid-frame.
std::optional<std::string> read_frame(std::istream& is);

/// Cuts one complete frame off the front of `buffer` (the socket-side
/// incremental variant of read_frame). Returns 1 and fills `payload` when a
/// whole frame was available, 0 when more bytes are needed, -1 on malformed
/// framing (non-digit length bytes, oversized announcement).
int extract_frame(std::string& buffer, std::string& payload);

// ----------------------------------------------------------------- requests

enum class RequestOp { kQuery, kHealth, kShutdown, kPull };

/// One parsed request. Defaults reproduce the paper's setup (CPA-RA at
/// budget 64, concurrent fetch), matching the `srra run` CLI defaults.
struct Request {
  RequestOp op = RequestOp::kQuery;
  std::string id;                 ///< echoed verbatim; empty = omitted
  std::string kernel;             ///< builtin name or inline DSL text
  std::string key;                ///< probe an exact cache key (cache-only)
  std::string transforms;         ///< canonical transform encoding, "" = none
  std::string algorithm = "cpa";  ///< registry spelling
  bool frontier = false;          ///< mode: false = budget, true = frontier
  std::int64_t budget = 64;       ///< budget mode
  std::string budgets = "8:128";  ///< frontier mode axis spec
  bool fetch = true;              ///< concurrent operand fetch
  bool probe = false;             ///< cache-only: report miss, never compute
  bool timing = false;            ///< include elapsed_us in the envelope
  std::int64_t limit = 256;       ///< pull op: max entries per page
  std::int64_t offset = 0;        ///< pull op: entries to skip (paging)
};

/// Parses and validates one request payload. Unknown members, wrong types,
/// and inconsistent field combinations throw srra::Error (the server turns
/// that into an ok:false response, not a dropped connection).
Request parse_request(const std::string& payload);

/// The cache key of a query: FNV-1a over the structural hash of the
/// *transformed* kernel, the kernel's display name (structural_hash is
/// name-insensitive, but the cached payload names the kernel), the
/// transform encoding, algorithm, mode, budget axis and fetch mode, plus a
/// format-version salt — bump kKeyVersion whenever the payload schema or
/// any model semantics change, and a warm store degrades to misses instead
/// of serving stale shapes. 16 lowercase hex characters.
inline constexpr const char kKeyVersion[] = "srrad-key/v2";
std::string cache_key(std::uint64_t kernel_hash, std::string_view kernel_name,
                      const Request& request);

/// FNV-1a content hash of a stored payload, 16 lowercase hex characters —
/// the integrity stamp in `srrad --export-manifest` output and the pull
/// op's entries, so a warmed shard can prove it holds the peer's bytes.
std::string payload_hash(std::string_view payload);

/// True when `payload` parses as one JSON object: the gate a payload passes
/// where it enters a daemon from outside (a store read, a pulled page)
/// before make_query_response splices it unparsed. Payloads computed in
/// process are query_payload output and need no check.
bool valid_query_payload(std::string_view payload);

// ------------------------------------------------- query report (cached unit)

/// A fully evaluated query: identity plus per-budget design points.
struct QueryReport {
  std::string kernel_name;
  std::string transforms;        ///< canonical encoding, "" = none
  std::uint64_t kernel_hash = 0; ///< structural hash of the transformed kernel
  std::string algorithm;         ///< display name, e.g. "CPA-RA"
  bool fetch = true;
  bool frontier = false;
  std::int64_t budget = 0;       ///< budget mode only
  std::int64_t outer_trip = 1;   ///< outermost trip count (Tmem/outer column)
  bool feasible = true;          ///< budget mode: budget covers feasibility
  std::string error;             ///< diagnostic when infeasible (Error::message)
  /// (budget, design) rows: exactly one when feasible in budget mode; one
  /// per feasible budget of the axis in frontier mode.
  std::vector<std::pair<std::int64_t, DesignPoint>> points;
};

/// A resolved, canonicalized query ready to evaluate: identity (for the
/// report header) plus the evaluation axis.
struct QueryInput {
  std::string kernel_name;
  std::string transforms;         ///< canonical encoding, "" = none
  std::uint64_t kernel_hash = 0;  ///< structural hash of the transformed kernel
  Algorithm algorithm = Algorithm::kCpaRa;
  bool fetch = true;
  bool frontier = false;
  std::int64_t budget = 64;             ///< budget mode
  std::vector<std::int64_t> budgets;    ///< frontier mode
};

/// Evaluates one query against the pipeline: budget mode runs run_pipeline
/// (an infeasible budget degrades to feasible:false with the diagnostic,
/// like dse/explore); frontier mode runs run_budget_sweep, keeping one row
/// per feasible budget. Shared by the server's compute jobs and the
/// `srra run --format=json` CLI path, so the two can never drift.
QueryReport evaluate_query(const RefModel& model, const QueryInput& input);

/// Emits the numeric design-point fields (registers ... block_rams) of one
/// evaluated design — the exact field set and formatting of the DSE points
/// report (dse/report.cc calls this too, so the schemas cannot drift).
void write_design_point_fields(JsonWriter& json, const DesignPoint& design,
                               std::int64_t outer_trip);

/// Emits the srra-query/v1 single-object report.
void write_query_report(JsonWriter& json, const QueryReport& report);

/// write_query_report rendered standalone (what the store persists).
std::string query_payload(const QueryReport& report);

// ---------------------------------------------------------------- responses

/// Envelope metadata the server attaches around a cached payload.
struct ResponseMeta {
  std::string id;
  std::string cache_status;        ///< "hit" | "miss" (empty = no cache line)
  std::string key;
  std::int64_t elapsed_us = -1;    ///< < 0 = omit
};

/// Assembles the success envelope around a query payload ("" = no "query"
/// member). The payload is spliced, not parsed (JsonWriter::splice): it must
/// be query_payload output, or have been validated where it entered the
/// daemon (a store read or a pull page).
std::string make_query_response(const ResponseMeta& meta, const std::string& payload);

/// Assembles an ok:false envelope.
std::string make_error_response(const std::string& id, const std::string& message);

/// Assembles an ok:true envelope with one extra object member (health,
/// shutdown acknowledgements): {"schema", "id"?, "ok": true, <member>: value}.
std::string make_value_response(const std::string& id, const std::string& member,
                                const JsonValue& value);

}  // namespace srra::service
