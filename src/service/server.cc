#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "dse/space.h"
#include "ir/parser.h"
#include "service/client.h"
#include "ir/transform.h"
#include "kernels/kernels.h"
#include "support/error.h"
#include "support/faultio.h"
#include "support/str.h"

namespace srra::service {

namespace {

std::string join_int64(const std::vector<std::int64_t>& values) {
  std::string out;
  for (const std::int64_t v : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(v);
  }
  return out;
}

// Reads `key` from `store`. Responses and pull pages splice payloads
// unparsed, so bytes from disk are checked here, where they enter: a body
// mangled in place is dropped as corrupt and reads as a miss.
std::optional<std::string> get_valid(ResultStore& store, const std::string& key,
                                     std::int64_t* cost_out = nullptr) {
  std::optional<std::string> payload = store.get(key, cost_out);
  if (payload.has_value() && !valid_query_payload(*payload)) {
    store.drop_corrupt(key);
    return std::nullopt;
  }
  return payload;
}

}  // namespace

// (kernel text, transform encoding) resolved once and memoized across
// batches: display name, canonical transforms, the transformed kernel and
// its structural hash — everything the cache key and a compute job need.
struct Server::ResolvedVariant {
  std::string display_name;
  std::string transforms;  ///< canonical encoding ("" = none)
  std::uint64_t hash = 0;
  Kernel kernel;  ///< transformed
};

// Per-request batch state.
struct Server::Slot {
  Request request;
  bool ok = false;     ///< parsed and (for queries) resolved
  std::string error;   ///< parse/resolve diagnostic when !ok
  const ResolvedVariant* variant = nullptr;  ///< null for key-only probes
  Algorithm algorithm = Algorithm::kCpaRa;
  std::string algorithm_display;
  std::vector<std::int64_t> budgets;  ///< frontier-mode canonical axis
  std::string key;
  bool hit = false;
  std::string payload;  ///< served payload (cached)
  int job = -1;         ///< compute-job index, -1 = none
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      store_(options_.store_dir,
             StoreOptions{options_.store_max_entries, options_.store_fsync}),
      pool_(options_.jobs) {
  store_mode_ = store_.enabled() ? StoreMode::kOk : StoreMode::kDisabled;
}

Server::~Server() = default;

std::optional<std::string> Server::store_get(const std::string& key,
                                             std::int64_t* cost_out) {
  // Compute-only mode skips reads too: a disk that fails writes is not a
  // disk to trust for reads, and every skipped call is latency saved.
  if (store_mode_ != StoreMode::kOk) return std::nullopt;
  return get_valid(store_, key, cost_out);
}

void Server::store_put(const std::string& key, const std::string& payload,
                       std::int64_t cost) {
  if (store_mode_ == StoreMode::kDisabled) return;
  if (store_mode_ == StoreMode::kDegraded) {
    if (++puts_since_probe_ < options_.store_probe_every) return;
    puts_since_probe_ = 0;
    ++stats_.store_probes;
  }
  if (store_.put(key, payload, cost)) {
    consecutive_store_failures_ = 0;
    store_mode_ = StoreMode::kOk;  // probe (or ordinary put) succeeded
    return;
  }
  ++stats_.store_put_failures;
  ++consecutive_store_failures_;
  if (store_mode_ == StoreMode::kOk && options_.store_failure_threshold > 0 &&
      consecutive_store_failures_ >= options_.store_failure_threshold) {
    store_mode_ = StoreMode::kDegraded;
    puts_since_probe_ = 0;
    ++stats_.store_degraded;
  }
}

std::string Server::health_response(const std::string& id) {
  const char* mode = store_mode_ == StoreMode::kOk         ? "ok"
                     : store_mode_ == StoreMode::kDegraded ? "degraded"
                                                           : "disabled";
  JsonValue health = JsonValue::make_object();
  health.set("store_mode", JsonValue::make_string(mode));
  health.set("store_entries", JsonValue::make_int(store_.entries()));
  health.set("store_evictions", JsonValue::make_int(store_.evictions()));
  health.set("evicted_by_cost", JsonValue::make_int(store_.evicted_by_cost()));
  health.set("evicted_lru", JsonValue::make_int(store_.evicted_lru()));
  health.set("index_rebuilds", JsonValue::make_int(store_.index_rebuilds()));
  health.set("store_corrupt_dropped", JsonValue::make_int(store_.corrupt_dropped()));
  health.set("store_tmp_swept", JsonValue::make_int(store_.tmp_swept()));
  health.set("store_put_failures", JsonValue::make_int(stats_.store_put_failures));
  health.set("store_consecutive_failures",
             JsonValue::make_int(consecutive_store_failures_));
  health.set("store_degraded", JsonValue::make_int(stats_.store_degraded));
  health.set("store_probes", JsonValue::make_int(stats_.store_probes));
  if (!store_.last_write_error().empty()) {
    health.set("store_last_error", JsonValue::make_string(store_.last_write_error()));
  }
  health.set("jobs", JsonValue::make_int(pool_.jobs()));
  health.set("requests", JsonValue::make_int(stats_.requests));
  health.set("queries", JsonValue::make_int(stats_.queries));
  health.set("hits", JsonValue::make_int(stats_.hits));
  health.set("misses", JsonValue::make_int(stats_.misses));
  const std::int64_t looked_up = stats_.hits + stats_.misses;
  health.set("store_hit_rate",
             JsonValue::make_double(
                 looked_up == 0 ? 0.0
                                : static_cast<double>(stats_.hits) /
                                      static_cast<double>(looked_up)));
  health.set("computed", JsonValue::make_int(stats_.computed));
  health.set("coalesced", JsonValue::make_int(stats_.coalesced));
  health.set("errors", JsonValue::make_int(stats_.errors));
  health.set("deadline_closes", JsonValue::make_int(stats_.deadline_closes));
  health.set("fault_plan", JsonValue::make_bool(faultio::plan_installed()));
  return make_value_response(id, "health", health);
}

namespace {

/// Per-page payload byte budget of the pull op: several pages stream a big
/// store without ever approaching the 16 MiB frame cap.
constexpr std::int64_t kMaxPullBytes = std::int64_t{4} << 20;

}  // namespace

std::string Server::pull_response(const Request& request) {
  // Stored entries in keep order (service/eviction.h): the entries a
  // restarted store would evict last come first, so a cold peer pulling a
  // prefix adopts exactly the entries most worth keeping. Paged by entry
  // count (limit/offset) and a payload byte cap.
  std::vector<StoreEntryInfo> rows = store_.snapshot();
  sort_keep_order(rows.begin(), rows.end(), [](const StoreEntryInfo& row) {
    return CacheMeta{row.bytes, row.cost, row.seq};
  });

  JsonValue page = JsonValue::make_object();
  page.set("total", JsonValue::make_int(static_cast<std::int64_t>(rows.size())));
  JsonValue entries = JsonValue::make_array();
  std::int64_t consumed = request.offset;
  std::int64_t page_bytes = 0;
  std::int64_t emitted = 0;
  for (std::size_t i = static_cast<std::size_t>(std::min<std::int64_t>(
           request.offset, static_cast<std::int64_t>(rows.size())));
       i < rows.size(); ++i) {
    if (emitted >= request.limit) break;
    // Always make progress: the first entry of a page ignores the byte cap.
    if (emitted > 0 && page_bytes + rows[i].bytes > kMaxPullBytes) break;
    ++consumed;
    std::optional<std::string> payload = get_valid(store_, rows[i].key);
    if (!payload.has_value()) continue;  // evicted or corrupt
    JsonValue entry = JsonValue::make_object();
    entry.set("key", JsonValue::make_string(rows[i].key));
    entry.set("cost", JsonValue::make_int(rows[i].cost));
    entry.set("hash", JsonValue::make_string(payload_hash(*payload)));
    // The payload travels as a JSON string: escaped on the wire, decoded
    // back to the exact stored bytes, so warmed answers stay byte-identical.
    entry.set("payload", JsonValue::make_string(*payload));
    page_bytes += static_cast<std::int64_t>(payload->size());
    ++emitted;
    entries.push_back(std::move(entry));
  }
  page.set("next_offset", JsonValue::make_int(consumed));
  page.set("entries", std::move(entries));
  return make_value_response(request.id, "pull", page);
}

int Server::warm_from_peer(const std::string& endpoint) {
  ClientOptions copts;
  copts.retries = 2;
  Client client = [&] {
    if (endpoint.find('/') != std::string::npos) {
      return Client::connect_unix(endpoint, copts);
    }
    const std::size_t colon = endpoint.rfind(':');
    check(colon != std::string::npos && colon + 1 < endpoint.size(), [&] {
      return cat("bad --warm-from endpoint '", endpoint, "' (want a socket path or host:port)");
    });
    int port = 0;
    for (std::size_t i = colon + 1; i < endpoint.size(); ++i) {
      check(std::isdigit(static_cast<unsigned char>(endpoint[i])) != 0, [&] {
        return cat("bad --warm-from port in '", endpoint, "'");
      });
      port = port * 10 + (endpoint[i] - '0');
      check(port < 65536, [&] { return cat("bad --warm-from port in '", endpoint, "'"); });
    }
    return Client::connect_tcp(endpoint.substr(0, colon), port, copts);
  }();

  // The stream is best-first, so past a full cache every entry would evict
  // a better one already adopted: each cache keeps the prefix that fits,
  // and pulling stops once neither has room.
  const auto memory_full = [&] {
    return static_cast<std::int64_t>(memory_cache_.size()) >=
           options_.memory_max_entries;
  };
  const auto store_full = [&] {
    return store_mode_ != StoreMode::kOk ||
           store_.entries() >= options_.store_max_entries;
  };
  int adopted = 0;
  std::int64_t offset = 0;
  while (!memory_full() || !store_full()) {
    const std::string response = client.roundtrip(
        cat("{\"op\": \"pull\", \"offset\": ", offset, ", \"limit\": 256}"));
    const JsonValue doc = parse_json(response);
    const JsonValue* ok = doc.find("ok");
    if (ok == nullptr || !ok->as_bool()) {
      const JsonValue* error = doc.find("error");
      fail(cat("peer rejected pull: ",
               error != nullptr && error->is_string() ? error->as_string()
                                                      : response));
    }
    const JsonValue* page = doc.find("pull");
    check(page != nullptr && page->is_object(),
          "peer pull response has no 'pull' member");
    const JsonValue* total = page->find("total");
    const JsonValue* next_offset = page->find("next_offset");
    const JsonValue* entries = page->find("entries");
    check(total != nullptr && next_offset != nullptr && entries != nullptr &&
              entries->is_array(),
          "peer pull page is missing total/next_offset/entries");
    for (const JsonValue& entry : entries->items()) {
      const JsonValue* key = entry.find("key");
      const JsonValue* cost = entry.find("cost");
      const JsonValue* hash = entry.find("hash");
      const JsonValue* payload = entry.find("payload");
      check(key != nullptr && cost != nullptr && hash != nullptr &&
                payload != nullptr,
            "peer pull entry is missing key/cost/hash/payload");
      // Integrity gate: adopt only bytes that hash to what the peer
      // claimed and that are a JSON object — a torn frame, a buggy peer or
      // a peer's corrupt entry must not seed this store.
      if (payload_hash(payload->as_string()) != hash->as_string() ||
          !valid_query_payload(payload->as_string())) {
        continue;
      }
      const bool memory_room = !memory_full();
      const bool store_room = !store_full();
      if (memory_room) cache_insert(key->as_string(), payload->as_string(), cost->as_int());
      if (store_room) store_put(key->as_string(), payload->as_string(), cost->as_int());
      if (memory_room || store_room) ++adopted;
    }
    if (entries->items().empty() || next_offset->as_int() >= total->as_int() ||
        next_offset->as_int() <= offset) {
      break;
    }
    offset = next_offset->as_int();
  }
  return adopted;
}

const Server::ResolvedVariant& Server::resolve_variant(const std::string& kernel_field,
                                                       const std::string& transforms) {
  const std::string memo_key = cat(kernel_field, '\x1f', transforms);
  const auto it = variants_.find(memo_key);
  if (it != variants_.end()) return *it->second;

  auto variant = std::make_unique<ResolvedVariant>();

  // Inline DSL text (it contains '{'; builtin names never do) or a builtin
  // name. File paths are deliberately not accepted — clients resolve files
  // to DSL text before sending, the daemon never reads client paths.
  Kernel base;
  if (kernel_field.find('{') != std::string::npos) {
    base = parse_kernel(kernel_field);
    variant->display_name = base.name();
  } else {
    std::optional<kernels::NamedKernel> builtin = kernels::find_builtin(kernel_field);
    check(builtin.has_value(), [&] {
      return cat("unknown kernel '", kernel_field,
                 "' (want a builtin name or inline kernel-DSL text)");
    });
    base = std::move(builtin->kernel);
    variant->display_name = std::move(builtin->name);
  }

  std::vector<LoopTransform> sequence;
  if (!trim(transforms).empty()) sequence = parse_transforms(transforms);
  if (!sequence.empty()) {
    variant->kernel = transform_for_pipeline(
        base, srra::span<const LoopTransform>(sequence.data(), sequence.size()));
    variant->transforms =
        to_string(srra::span<const LoopTransform>(sequence.data(), sequence.size()));
  } else {
    variant->kernel = std::move(base);
  }
  variant->hash = structural_hash(variant->kernel);

  const ResolvedVariant& ref = *variant;
  variants_.emplace(memo_key, std::move(variant));
  return ref;
}

void Server::cache_insert(const std::string& key, const std::string& payload,
                          std::int64_t cost) {
  if (memory_cache_.count(key) != 0) return;
  while (static_cast<std::int64_t>(memory_cache_.size()) >=
             options_.memory_max_entries &&
         !memory_cache_.empty()) {
    memory_cache_.erase(eviction_ends(memory_cache_, &MemEntry::meta).first);
  }
  const std::int64_t tick = ++memory_tick_;
  memory_cache_.emplace(
      key, MemEntry{payload, CacheMeta{static_cast<std::int64_t>(payload.size()),
                                       std::max<std::int64_t>(1, cost), tick, tick}});
}

std::vector<std::string> Server::handle_batch(const std::vector<std::string>& requests) {
  const auto t0 = std::chrono::steady_clock::now();

  // The variant memo hands out stable pointers for the duration of one
  // batch; trim it only between batches.
  if (variants_.size() > 512) variants_.clear();

  // Phase 1 — parse, resolve and key every request (serial; kernel
  // resolution is memoized, so repeated texts cost one lookup).
  std::vector<Slot> slots(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Slot& slot = slots[i];
    try {
      slot.request = parse_request(requests[i]);
      if (slot.request.op != RequestOp::kQuery) {
        slot.ok = true;
        continue;
      }
      if (!slot.request.key.empty()) {
        slot.key = slot.request.key;  // probe an exact key, nothing to resolve
        slot.ok = true;
        continue;
      }
      const ResolvedVariant& variant =
          resolve_variant(slot.request.kernel, slot.request.transforms);
      slot.variant = &variant;
      slot.algorithm = parse_algorithm(slot.request.algorithm);
      slot.algorithm_display = algorithm_name(slot.algorithm);

      // The key is computed over *canonical* spellings, so "cpa" and
      // "CPA-RA", or "8:32" and "8,16,32", share one cache entry.
      Request canonical = slot.request;
      canonical.transforms = variant.transforms;
      canonical.algorithm = slot.algorithm_display;
      if (slot.request.frontier) {
        slot.budgets = dse::parse_budget_spec(slot.request.budgets);
        canonical.budgets = join_int64(slot.budgets);
      }
      slot.key = cache_key(variant.hash, variant.display_name, canonical);
      slot.ok = true;
    } catch (const Error& e) {
      slot.error = e.message();
      // Salvage the id for the error response when the document itself was
      // well-formed JSON (validation failures usually are).
      try {
        const JsonValue doc = parse_json(requests[i]);
        if (const JsonValue* id = doc.find("id"); id && id->is_string()) {
          slot.request.id = id->as_string();
        }
      } catch (const Error&) {
      }
    }
  }

  // Phase 2 — look every query up against the cache state at batch start;
  // unique missing keys become compute jobs, duplicates coalesce.
  std::vector<int> job_slots;  // slot index that first demanded each job
  std::unordered_map<std::string, int> job_by_key;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (!slot.ok || slot.request.op != RequestOp::kQuery) continue;
    const auto mem = memory_cache_.find(slot.key);
    if (mem != memory_cache_.end()) {
      slot.hit = true;
      slot.payload = mem->second.payload;
      mem->second.meta.last_use = ++memory_tick_;
      continue;
    }
    std::int64_t stored_cost = 1;
    if (std::optional<std::string> stored = store_get(slot.key, &stored_cost)) {
      slot.hit = true;
      slot.payload = *stored;
      // Promote with the persisted cost; already persistent.
      cache_insert(slot.key, slot.payload, stored_cost);
      continue;
    }
    if (slot.request.probe) continue;  // cache-only: report the miss
    const auto [it, inserted] =
        job_by_key.emplace(slot.key, static_cast<int>(job_slots.size()));
    if (inserted) {
      job_slots.push_back(static_cast<int>(i));
    } else {
      ++stats_.coalesced;
    }
    slot.job = it->second;
  }

  // Phase 3 — compute unique jobs on the pool, grouped by kernel variant:
  // jobs of one variant share one RefModel (and therefore one analysis
  // pass), exactly like dse/explore's per-variant sharding. Each job
  // writes only its own slot, so results are identical for any lane count.
  std::vector<std::vector<int>> groups;
  {
    std::unordered_map<const ResolvedVariant*, std::size_t> group_of;
    for (std::size_t j = 0; j < job_slots.size(); ++j) {
      const ResolvedVariant* variant = slots[static_cast<std::size_t>(job_slots[j])].variant;
      const auto [it, inserted] = group_of.emplace(variant, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(static_cast<int>(j));
    }
  }
  std::vector<std::string> computed(job_slots.size());
  std::vector<std::string> compute_errors(job_slots.size());
  pool_.parallel_for(static_cast<std::int64_t>(groups.size()), [&](std::int64_t g) {
    const std::vector<int>& jobs = groups[static_cast<std::size_t>(g)];
    const ResolvedVariant& variant =
        *slots[static_cast<std::size_t>(job_slots[static_cast<std::size_t>(jobs.front())])]
             .variant;
    const RefModel model(variant.kernel.clone());
    for (const int j : jobs) {
      const Slot& slot = slots[static_cast<std::size_t>(job_slots[static_cast<std::size_t>(j)])];
      try {
        QueryInput input;
        input.kernel_name = variant.display_name;
        input.transforms = variant.transforms;
        input.kernel_hash = variant.hash;
        input.algorithm = slot.algorithm;
        input.fetch = slot.request.fetch;
        input.frontier = slot.request.frontier;
        input.budget = slot.request.budget;
        input.budgets = slot.budgets;
        computed[static_cast<std::size_t>(j)] = query_payload(evaluate_query(model, input));
      } catch (const Error& e) {
        compute_errors[static_cast<std::size_t>(j)] = e.message();
      }
    }
  });

  // Phase 4 — publish computed payloads (serial, first-occurrence order,
  // so the store's eviction order is arrival-deterministic too). The
  // recompute cost estimate drives eviction in both cache layers: a
  // frontier sweep evaluates the whole budget axis and BB-RA certifies an
  // optimum, each roughly two orders of magnitude more work than one
  // single-budget heuristic point — those entries should be the last out.
  for (std::size_t j = 0; j < job_slots.size(); ++j) {
    if (!compute_errors[j].empty()) continue;
    const Slot& slot = slots[static_cast<std::size_t>(job_slots[j])];
    std::int64_t cost = 1;
    if (slot.request.frontier) cost *= 100;
    if (slot.algorithm == Algorithm::kBnbOptimal) cost *= 100;
    cache_insert(slot.key, computed[j], cost);
    store_put(slot.key, computed[j], cost);
    ++stats_.computed;
  }

  // Phase 5 — assemble responses in request order.
  const std::int64_t elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count();
  std::vector<std::string> responses(requests.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    ++stats_.requests;
    if (!slot.ok) {
      ++stats_.errors;
      responses[i] = make_error_response(slot.request.id, slot.error);
      continue;
    }
    if (slot.request.op == RequestOp::kHealth) {
      responses[i] = health_response(slot.request.id);
      continue;
    }
    if (slot.request.op == RequestOp::kPull) {
      responses[i] = pull_response(slot.request);
      continue;
    }
    if (slot.request.op == RequestOp::kShutdown) {
      shutdown_ = true;
      responses[i] =
          make_value_response(slot.request.id, "shutdown", JsonValue::make_bool(true));
      continue;
    }
    ++stats_.queries;
    if (slot.job >= 0 && !compute_errors[static_cast<std::size_t>(slot.job)].empty()) {
      ++stats_.errors;
      responses[i] = make_error_response(
          slot.request.id, compute_errors[static_cast<std::size_t>(slot.job)]);
      continue;
    }
    ResponseMeta meta;
    meta.id = slot.request.id;
    meta.key = slot.key;
    meta.elapsed_us = slot.request.timing ? elapsed_us : -1;
    if (slot.hit) {
      ++stats_.hits;
      meta.cache_status = "hit";
      responses[i] = make_query_response(meta, slot.payload);
    } else if (slot.job >= 0) {
      ++stats_.misses;
      meta.cache_status = "miss";
      responses[i] = make_query_response(meta, computed[static_cast<std::size_t>(slot.job)]);
    } else {
      ++stats_.misses;  // cache-only probe that found nothing
      meta.cache_status = "miss";
      responses[i] = make_query_response(meta, "");
    }
  }
  return responses;
}

std::string Server::handle(const std::string& request) {
  return handle_batch({request}).front();
}

int Server::serve_stream(std::istream& in, std::ostream& out) {
  for (;;) {
    std::vector<std::string> batch;
    try {
      std::optional<std::string> first = read_frame(in);
      if (!first.has_value()) return 0;  // clean EOF
      batch.push_back(std::move(*first));
      // Greedily drain already-buffered frames into the same batch, so a
      // pipelining client gets request batching (and coalescing) for free.
      while (in.rdbuf() != nullptr && in.rdbuf()->in_avail() > 0) {
        std::optional<std::string> more = read_frame(in);
        if (!more.has_value()) break;
        batch.push_back(std::move(*more));
      }
    } catch (const Error& e) {
      // Framing is broken — there is no way to resync a length-prefixed
      // stream. Report and exit.
      write_frame(out, make_error_response("", std::string(e.message())));
      out.flush();
      return 2;
    }
    for (const std::string& response : handle_batch(batch)) {
      write_frame(out, response);
    }
    out.flush();
    if (shutdown_) return 0;
  }
}

// --------------------------------------------------------------- socket loop

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Sends all bytes on a (nonblocking) socket, poll-waiting on short writes.
// Goes through the fault shim so a plan can inject short writes, EINTR
// storms and torn frames; MSG_NOSIGNAL (not a SIGPIPE handler) keeps a
// peer that hung up mid-response from killing the daemon.
bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = faultio::send(faultio::Site::kServerWrite, fd,
                                    bytes.data() + off, bytes.size() - off,
                                    MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
      continue;
    }
    return false;  // peer went away
  }
  return true;
}

struct Conn {
  int fd = -1;
  std::string buffer;
  bool dead = false;
  /// Set while `buffer` holds a *partial* frame: the moment the deadline
  /// clock started for this connection.
  std::chrono::steady_clock::time_point partial_since{};
  bool has_partial = false;
};

}  // namespace

int Server::serve_fd(int listen_fd) {
  std::vector<Conn> conns;
  const auto close_all = [&] {
    for (Conn& conn : conns) ::close(conn.fd);
    conns.clear();
    ::close(listen_fd);
  };

  for (;;) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    for (const Conn& conn : conns) fds.push_back({conn.fd, POLLIN, 0});
    // Sleep forever unless some connection is sitting on a partial frame —
    // then wake in time to enforce its read deadline.
    int timeout_ms = -1;
    if (options_.read_deadline_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (const Conn& conn : conns) {
        if (!conn.has_partial) continue;
        const auto deadline =
            conn.partial_since + std::chrono::milliseconds(options_.read_deadline_ms);
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - now)
                              .count();
        const int bounded = left < 1 ? 1 : static_cast<int>(std::min<long long>(left, 60000));
        if (timeout_ms < 0 || bounded < timeout_ms) timeout_ms = bounded;
      }
    }
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      close_all();
      return 2;
    }

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;
        if (!set_nonblocking(fd)) {
          ::close(fd);
          continue;
        }
        Conn conn;
        conn.fd = fd;
        conns.push_back(std::move(conn));
      }
    }

    // Drain every readable connection, then cut complete frames — one
    // readiness sweep builds one batch, which is what coalesces a
    // thundering herd of concurrent identical queries into one compute.
    const std::size_t polled = fds.size() - 1;
    for (std::size_t k = 0; k < polled; ++k) {
      Conn& conn = conns[k];
      if (!(fds[k + 1].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        char chunk[65536];
        const ssize_t n =
            faultio::recv(faultio::Site::kServerRead, conn.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
          conn.buffer.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        conn.dead = true;  // peer closed (n == 0) or hard error
        break;
      }
    }

    std::vector<std::pair<std::size_t, std::string>> batch;  // (conn, payload)
    for (std::size_t k = 0; k < conns.size(); ++k) {
      Conn& conn = conns[k];
      for (;;) {
        std::string payload;
        const int got = extract_frame(conn.buffer, payload);
        if (got == 0) break;
        if (got < 0) {
          send_all(conn.fd, [&] {
            std::ostringstream frame;
            write_frame(frame, make_error_response("", "malformed frame"));
            return frame.str();
          }());
          conn.dead = true;
          break;
        }
        batch.emplace_back(k, std::move(payload));
      }
      // Track whether leftover bytes form a partial frame; the deadline
      // clock starts when one appears and resets when it completes.
      if (conn.buffer.empty()) {
        conn.has_partial = false;
      } else if (!conn.has_partial) {
        conn.has_partial = true;
        conn.partial_since = std::chrono::steady_clock::now();
      }
    }

    // Read deadlines: a connection stuck mid-frame past the deadline gets
    // one error frame and the door — one stalled (or malicious) client
    // must not pin buffer memory or a server slot forever.
    if (options_.read_deadline_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (Conn& conn : conns) {
        if (conn.dead || !conn.has_partial) continue;
        if (now - conn.partial_since <
            std::chrono::milliseconds(options_.read_deadline_ms)) {
          continue;
        }
        std::ostringstream frame;
        write_frame(frame, make_error_response(
                               "", cat("read deadline exceeded after ",
                                       options_.read_deadline_ms,
                                       " ms with a partial frame buffered")));
        send_all(conn.fd, frame.str());
        conn.dead = true;
        ++stats_.deadline_closes;
      }
    }

    if (!batch.empty()) {
      std::vector<std::string> payloads;
      payloads.reserve(batch.size());
      for (auto& [k, payload] : batch) payloads.push_back(std::move(payload));
      const std::vector<std::string> responses = handle_batch(payloads);
      for (std::size_t b = 0; b < batch.size(); ++b) {
        Conn& conn = conns[batch[b].first];
        if (conn.dead) continue;
        std::ostringstream frame;
        write_frame(frame, responses[b]);
        if (!send_all(conn.fd, frame.str())) conn.dead = true;
      }
    }

    for (std::size_t k = conns.size(); k-- > 0;) {
      if (conns[k].dead) {
        ::close(conns[k].fd);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }

    if (shutdown_) {
      close_all();
      return 0;
    }
  }
}

int Server::serve_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  check(path.size() < sizeof addr.sun_path, [&] {
    return cat("socket path too long (max ", sizeof addr.sun_path - 1, "): ", path);
  });
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  check(fd >= 0, [&] { return cat("socket(): ", std::strerror(errno)); });
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    fail(cat("cannot listen on unix socket '", path, "': ", why));
  }
  const int code = serve_fd(fd);
  ::unlink(path.c_str());
  return code;
}

int Server::serve_tcp(int port) {
  check(port > 0 && port < 65536, [&] { return cat("bad TCP port: ", port); });
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(static_cast<std::uint16_t>(port));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  check(fd >= 0, [&] { return cat("socket(): ", std::strerror(errno)); });
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    fail(cat("cannot listen on 127.0.0.1:", port, ": ", why));
  }
  return serve_fd(fd);
}

}  // namespace srra::service
