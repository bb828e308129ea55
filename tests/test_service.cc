// Tests for the srrad service stack (DESIGN.md §12): wire protocol framing
// and request validation, the persistent result store (crash/corruption
// tolerance, versioning, eviction), and the batching server core. Pins the
// PR's acceptance contract:
//  * responses are byte-identical for any --jobs value and any request
//    arrival order against the same starting store;
//  * a daemon restarted on a warm store serves hits with byte-identical
//    payloads;
//  * a corrupt store entry degrades to a miss (recompute), never a crash;
//  * `srra run --format=json` and a service response's "query" member are
//    the same bytes (shared serialization in service/proto);
//  * the spliced envelope equals the DOM round trip it replaced, and a
//    RefModel shared by a batch's jobs answers byte-identically to a fresh
//    one;
//  * payloads entering from disk or a peer are validated before they are
//    spliced: a mangled body is a miss, never a crash or a forwarded blob.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/registry.h"
#include "dse/cli.h"
#include "dse/space.h"
#include "ir/transform.h"
#include "kernels/kernels.h"
#include "random_kernel.h"
#include "service/client.h"
#include "service/eviction.h"
#include "service/proto.h"
#include "service/server.h"
#include "service/store.h"
#include "support/error.h"
#include "support/json.h"
#include "support/str.h"

namespace srra::service {
namespace {

namespace fs = std::filesystem;

// A fresh store directory under the test temp dir (wiped on entry, so
// reruns start cold).
std::string fresh_store(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "srra_service_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string query(const std::string& kernel, const std::string& algorithm,
                  std::int64_t budget, const std::string& id = "") {
  JsonValue request = JsonValue::make_object();
  if (!id.empty()) request.set("id", JsonValue::make_string(id));
  request.set("kernel", JsonValue::make_string(kernel));
  request.set("algorithm", JsonValue::make_string(algorithm));
  request.set("budget", JsonValue::make_int(budget));
  return request.to_string();
}

const JsonValue* member(const JsonValue& doc, const char* name) {
  const JsonValue* value = doc.find(name);
  EXPECT_NE(value, nullptr) << "missing member '" << name << "' in " << doc.to_string();
  return value;
}

std::string cache_status(const std::string& response) {
  const JsonValue doc = parse_json(response);
  return member(*member(doc, "cache"), "status")->as_string();
}

std::string cache_key_of(const std::string& response) {
  const JsonValue doc = parse_json(response);
  return member(*member(doc, "cache"), "key")->as_string();
}

// warm_from_peer, retried until the peer's serve thread is listening.
int warm_when_listening(Server& server, const std::string& peer_path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return server.warm_from_peer(peer_path);
    } catch (const Error&) {
      if (attempt > 100) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

// ------------------------------------------------------------------ framing

TEST(Proto, FrameRoundTrip) {
  std::stringstream stream;
  write_frame(stream, "hello");
  write_frame(stream, "");
  write_frame(stream, std::string(1000, 'x'));
  EXPECT_EQ(read_frame(stream).value(), "hello");
  EXPECT_EQ(read_frame(stream).value(), "");
  EXPECT_EQ(read_frame(stream).value(), std::string(1000, 'x'));
  EXPECT_FALSE(read_frame(stream).has_value());  // clean EOF
}

TEST(Proto, ReadFrameRejectsTornAndMalformedFrames) {
  std::istringstream torn("10\nabc");  // announces 10 bytes, delivers 3
  EXPECT_THROW(read_frame(torn), Error);
  std::istringstream bad_length("12x\npayload");
  EXPECT_THROW(read_frame(bad_length), Error);
  std::istringstream oversized("999999999\n");
  EXPECT_THROW(read_frame(oversized), Error);
  std::istringstream mid_header("12");  // EOF inside the length line
  EXPECT_THROW(read_frame(mid_header), Error);
}

TEST(Proto, ExtractFrameIsIncremental) {
  std::string buffer;
  std::string payload;
  std::ostringstream frame;
  write_frame(frame, "abc");
  const std::string bytes = frame.str();
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    buffer += bytes[i];
    ASSERT_EQ(extract_frame(buffer, payload), 0) << "after " << i + 1 << " bytes";
  }
  buffer += bytes.back();
  EXPECT_EQ(extract_frame(buffer, payload), 1);
  EXPECT_EQ(payload, "abc");
  EXPECT_TRUE(buffer.empty());

  std::string garbage = "x\n";
  EXPECT_EQ(extract_frame(garbage, payload), -1);
}

// ----------------------------------------------------------------- requests

TEST(Proto, ParseRequestValidates) {
  EXPECT_EQ(parse_request(R"({"kernel": "fir"})").kernel, "fir");
  EXPECT_EQ(parse_request(R"({"op": "health"})").op, RequestOp::kHealth);
  EXPECT_THROW(parse_request(R"({"op": "stats"})"), Error);  // folded into health

  EXPECT_THROW(parse_request("not json"), Error);
  EXPECT_THROW(parse_request(R"([1, 2])"), Error);              // not an object
  EXPECT_THROW(parse_request(R"({"kernel": "fir", "banana": 1})"), Error);
  EXPECT_THROW(parse_request(R"({})"), Error);                  // no kernel/key
  EXPECT_THROW(parse_request(R"({"kernel": "fir", "key": "0123456789abcdef"})"),
               Error);                                          // mutually exclusive
  EXPECT_THROW(parse_request(R"({"key": "0123456789abcdef"})"), Error);  // needs probe
  EXPECT_THROW(parse_request(R"({"key": "XYZ"})"), Error);      // malformed key
  EXPECT_THROW(parse_request(R"({"kernel": "fir", "budget": 0})"), Error);
  EXPECT_THROW(
      parse_request(R"({"kernel": "fir", "mode": "frontier", "budget": 8})"),
      Error);  // frontier takes budgets
  EXPECT_THROW(parse_request(R"({"kernel": "fir", "budgets": "8:32"})"),
               Error);  // budget mode takes budget
  EXPECT_THROW(parse_request(R"({"op": "health", "kernel": "fir"})"), Error);
}

// ---------------------------------------------------------- eviction policy

TEST(Eviction, RankIsScoreThenLeastRecentlyUsedThenArrival) {
  // CacheMeta is {bytes, cost, seq, last_use}.
  const CacheMeta cheap{100, 1, 9, 9};     // score 0.01, newest and hottest
  const CacheMeta pricey{100, 100, 1, 1};  // score 1, oldest and coldest
  EXPECT_TRUE(evicts_before(cheap, pricey));  // the score decides first
  EXPECT_FALSE(evicts_before(pricey, cheap));
  const CacheMeta cold{100, 1, 9, 2};
  const CacheMeta hot{100, 1, 1, 5};
  EXPECT_TRUE(evicts_before(cold, hot));  // equal score: least recently used
  EXPECT_FALSE(evicts_before(hot, cold));
  const CacheMeta older{100, 1, 3, 4};
  const CacheMeta newer{100, 1, 4, 4};
  EXPECT_TRUE(evicts_before(older, newer));  // then oldest arrival
  EXPECT_FALSE(evicts_before(newer, older));
  EXPECT_FALSE(evicts_before(older, older));  // a strict order
  // Cost per byte, an empty payload counting as one byte.
  EXPECT_DOUBLE_EQ((CacheMeta{4, 2, 1, 0}.score()), 0.5);
  EXPECT_DOUBLE_EQ((CacheMeta{0, 7, 1, 0}.score()), 7.0);
}

// The split behind the store's evicted_by_cost / evicted_lru counters: an
// eviction counts as by-cost exactly when the victim scores below the
// entry that would be evicted last.
TEST(Eviction, EndsSplitTheVictimFromTheLastEntryOut) {
  std::map<std::string, CacheMeta> entries = {
      {"a", {100, 1, 1, 3}}, {"b", {100, 100, 2, 1}}, {"c", {100, 1, 3, 2}}};
  auto [victim, last_out] = eviction_ends(entries);
  EXPECT_EQ(victim->first, "c");    // cheap and least recently used
  EXPECT_EQ(last_out->first, "b");  // the expensive one outlives both
  EXPECT_LT(victim->second.score(), last_out->second.score());  // by cost

  entries.erase("b");  // equal scores left: recency alone picks the victim
  std::tie(victim, last_out) = eviction_ends(entries);
  EXPECT_EQ(victim->first, "c");
  EXPECT_EQ(last_out->first, "a");
  EXPECT_EQ(victim->second.score(), last_out->second.score());  // LRU

  // Equal in every field: the first in iteration order goes first.
  entries = {{"x", {10, 1, 1, 1}}, {"y", {10, 1, 1, 1}}};
  EXPECT_EQ(eviction_ends(entries).first->first, "x");

  // A projection reaches metadata stored inside a larger value.
  struct Wrapped {
    CacheMeta meta;
  };
  std::map<int, Wrapped> wrapped = {{1, {{10, 5, 1, 1}}}, {2, {{10, 1, 2, 2}}}};
  EXPECT_EQ(eviction_ends(wrapped, &Wrapped::meta).first->first, 2);
}

TEST(Eviction, KeepOrderIsTheReverseRankWithoutRecency) {
  struct Row {
    std::string key;
    CacheMeta meta;
  };
  std::vector<Row> rows = {
      {"cheap-old-hot", {100, 1, 1, 50}},  // recency cannot lift it
      {"pricey", {100, 100, 2, 0}},
      {"cheap-new", {100, 1, 3, 0}},
  };
  sort_keep_order(rows.begin(), rows.end(), &Row::meta);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "pricey");     // score descending,
  EXPECT_EQ(rows[1].key, "cheap-new");  // then newest arrival
  EXPECT_EQ(rows[2].key, "cheap-old-hot");
}

// ----------------------------------------------------------------- the store

TEST(Store, PutGetAndRestartPersistence) {
  const std::string dir = fresh_store("putget");
  const std::string key(16, 'a');
  {
    ResultStore store(dir);
    EXPECT_FALSE(store.get(key).has_value());
    store.put(key, "payload-1");
    EXPECT_EQ(store.get(key).value(), "payload-1");
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.entries(), 1);
  EXPECT_EQ(reopened.get(key).value(), "payload-1");
}

TEST(Store, CorruptEntryDegradesToMiss) {
  const std::string dir = fresh_store("corrupt");
  const std::string key(16, 'b');
  {
    ResultStore store(dir);
    store.put(key, "good payload");
  }
  {
    std::ofstream scribble(fs::path(dir) / ("k" + key + ".entry"),
                           std::ios::binary | std::ios::trunc);
    scribble << "garbage bytes, no header";
  }
  ResultStore store(dir);
  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(store.corrupt_dropped(), 1);
  EXPECT_EQ(store.entries(), 0);  // dropped, so the next put recreates it
  store.put(key, "recomputed");
  EXPECT_EQ(store.get(key).value(), "recomputed");
}

TEST(Store, FormatVersionMismatchClearsStaleEntries) {
  const std::string dir = fresh_store("version");
  const std::string key(16, 'c');
  {
    ResultStore store(dir);
    store.put(key, "stale-schema payload");
  }
  {
    std::ofstream stamp(fs::path(dir) / "FORMAT", std::ios::trunc);
    stamp << "srrad-store/v0\n";  // a previous format version
  }
  ResultStore store(dir);
  EXPECT_EQ(store.entries(), 0);
  EXPECT_FALSE(store.get(key).has_value());
}

TEST(Store, EvictsOldestBeyondCap) {
  const std::string dir = fresh_store("evict");
  ResultStore store(dir, /*max_entries=*/2);
  const std::string k1(16, '1');
  const std::string k2(16, '2');
  const std::string k3(16, '3');
  store.put(k1, "one");
  store.put(k2, "two");
  store.put(k3, "three");
  EXPECT_EQ(store.entries(), 2);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_FALSE(store.get(k1).has_value());  // FIFO victim
  EXPECT_EQ(store.get(k2).value(), "two");
  EXPECT_EQ(store.get(k3).value(), "three");
}

TEST(Store, CostAwareEvictionRetainsExpensiveEntries) {
  const std::string dir = fresh_store("cost_evict");
  ResultStore store(dir, /*max_entries=*/2);
  const std::string cheap1(16, '1');
  const std::string pricey(16, '2');
  const std::string cheap2(16, '3');
  const std::string cheap3(16, '4');
  const std::string payload(64, 'p');  // equal bytes: the score is the cost
  store.put(cheap1, payload, /*cost=*/1);
  store.put(pricey, payload, /*cost=*/100);
  // Over the cap: the cheap entry loses to the 100x-recompute-cost one,
  // even though the pricey entry is older — this is what keeps a frontier
  // or BB-RA result resident while single-budget points churn.
  store.put(cheap2, payload, /*cost=*/1);
  EXPECT_FALSE(store.get(cheap1).has_value());
  EXPECT_TRUE(store.get(pricey).has_value());
  store.put(cheap3, payload, /*cost=*/1);
  EXPECT_FALSE(store.get(cheap2).has_value());
  EXPECT_TRUE(store.get(pricey).has_value());
  EXPECT_EQ(store.evictions(), 2);
  EXPECT_EQ(store.evicted_by_cost(), 2);
  EXPECT_EQ(store.evicted_lru(), 0);

  // The persisted cost rides the entry header back out on a hit.
  std::int64_t cost = 0;
  EXPECT_TRUE(store.get(pricey, &cost).has_value());
  EXPECT_EQ(cost, 100);
}

TEST(Store, EvictionOrderDeterministicAcrossRestart) {
  // Equal cost, equal bytes, and a reopened process (so every last_use tick
  // is reset): the tie falls to the persisted arrival sequence number, not
  // to filesystem timestamps — restarts cannot reorder eviction.
  const std::string dir = fresh_store("seq_evict");
  const std::string k1(16, 'a');
  const std::string k2(16, 'b');
  const std::string k3(16, 'c');
  const std::string k4(16, 'd');
  const std::string payload(64, 'q');
  {
    ResultStore store(dir, /*max_entries=*/3);
    store.put(k2, payload);  // seq 1 (arrival order, not key order)
    store.put(k1, payload);  // seq 2
    store.put(k3, payload);  // seq 3
  }
  ResultStore reopened(dir, /*max_entries=*/3);
  EXPECT_EQ(reopened.index_rebuilds(), 0);  // warm INDEX, no directory scan
  reopened.put(k4, payload);
  EXPECT_FALSE(reopened.get(k2).has_value());  // first arrival is the victim
  EXPECT_TRUE(reopened.get(k1).has_value());
  EXPECT_TRUE(reopened.get(k3).has_value());
  EXPECT_EQ(reopened.evicted_lru(), 1);  // a pure tie-break eviction
}

TEST(Store, ConstructorRejectsNonPositiveCap) {
  const std::string dir = fresh_store("badcap");
  EXPECT_THROW(ResultStore(dir, /*max_entries=*/0), Error);
  StoreOptions options;
  options.max_entries = -5;
  EXPECT_THROW(ResultStore(dir, options), Error);
}

TEST(Store, SnapshotIsSortedAndCarriesCosts) {
  const std::string dir = fresh_store("snapshot");
  ResultStore store(dir);
  store.put(std::string(16, 'b'), "bee", /*cost=*/7);
  store.put(std::string(16, 'a'), "ayy", /*cost=*/3);
  const std::vector<StoreEntryInfo> rows = store.snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, std::string(16, 'a'));
  EXPECT_EQ(rows[0].cost, 3);
  EXPECT_EQ(rows[0].bytes, 3);
  EXPECT_EQ(rows[0].seq, 2);
  EXPECT_EQ(rows[1].key, std::string(16, 'b'));
  EXPECT_EQ(rows[1].cost, 7);
  EXPECT_EQ(rows[1].seq, 1);
}

// --------------------------------------------------------------- the server

// The headline determinism guarantee: the same request multiset, any jobs
// value, any arrival order, a fresh store each time — responses match by
// id, byte for byte.
TEST(Server, ResponsesByteIdenticalAcrossJobsAndArrivalOrder) {
  std::vector<std::string> requests = {
      query("fir", "cpa", 64, "a"),
      query("mat", "fr", 32, "b"),
      query("fir", "cpa", 64, "c"),  // duplicate of "a": coalesces
      query("fir", "pr", 64, "d"),
      R"({"id": "e", "kernel": "example", "mode": "frontier", "budgets": "8:32"})",
      query("fir", "cpa", 2, "f"),   // infeasible budget: feasible:false
      R"({"id": "g", "kernel": "fir", "probe": true})",  // cold probe: miss
      R"({"id": "h", "kernel": "nosuchkernel"})",        // resolve error
  };

  const auto by_id = [](const std::vector<std::string>& responses) {
    std::vector<std::pair<std::string, std::string>> tagged;
    for (const std::string& response : responses) {
      const JsonValue doc = parse_json(response);
      tagged.emplace_back(member(doc, "id")->as_string(), response);
    }
    std::sort(tagged.begin(), tagged.end());
    return tagged;
  };

  ServerOptions one;
  one.jobs = 1;
  one.store_dir = fresh_store("det_jobs1");
  Server server_one(one);
  const auto base = by_id(server_one.handle_batch(requests));

  ServerOptions four;
  four.jobs = 4;
  four.store_dir = fresh_store("det_jobs4");
  Server server_four(four);
  EXPECT_EQ(by_id(server_four.handle_batch(requests)), base);

  std::vector<std::string> reversed(requests.rbegin(), requests.rend());
  ServerOptions shuffled;
  shuffled.jobs = 4;
  shuffled.store_dir = fresh_store("det_order");
  Server server_shuffled(shuffled);
  EXPECT_EQ(by_id(server_shuffled.handle_batch(reversed)), base);

  // And the expected statuses: the duplicate reports the batch-start state
  // (miss), the error request is ok:false. Error text is the bare message,
  // free of the build's source paths and line numbers.
  EXPECT_EQ(cache_status(server_one.handle(query("fir", "cpa", 64))), "hit");
  for (const auto& [id, response] : base) {
    const JsonValue doc = parse_json(response);
    EXPECT_EQ(member(doc, "ok")->as_bool(), id != "h") << response;
    EXPECT_EQ(response.find(".cc:"), std::string::npos) << response;
  }
}

TEST(Server, CoalescesDuplicateInFlightWork) {
  ServerOptions options;
  options.jobs = 4;
  Server server(options);  // no store: memory cache only
  const std::vector<std::string> responses = server.handle_batch({
      query("fir", "cpa", 64),
      query("fir", "cpa", 64),
      query("fir", "cpa", 64),
      query("mat", "cpa", 64),
  });
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0], responses[1]);
  EXPECT_EQ(responses[1], responses[2]);
  EXPECT_EQ(cache_status(responses[0]), "miss");  // absent at batch start
  EXPECT_EQ(server.stats().computed, 2);   // one per unique key
  EXPECT_EQ(server.stats().coalesced, 2);  // two duplicates folded away
  EXPECT_EQ(server.stats().misses, 4);
}

TEST(Server, CanonicalSpellingsShareOneCacheEntry) {
  Server server(ServerOptions{});
  EXPECT_EQ(cache_status(server.handle(query("fir", "cpa", 64))), "miss");
  // Same query under different spellings: algorithm display name, kernel
  // case, explicit default fetch — all hit the first entry.
  EXPECT_EQ(cache_status(server.handle(query("FIR", "CPA-RA", 64))), "hit");
  EXPECT_EQ(cache_status(server.handle(
                R"({"kernel": "fir", "algorithm": "cpa", "budget": 64, "fetch": true})")),
            "hit");
  EXPECT_EQ(server.stats().computed, 1);

  // Frontier axis spellings canonicalize too: 8:32 doubles to 8,16,32.
  EXPECT_EQ(cache_status(server.handle(
                R"({"kernel": "fir", "mode": "frontier", "budgets": "8:32"})")),
            "miss");
  EXPECT_EQ(cache_status(server.handle(
                R"({"kernel": "fir", "mode": "frontier", "budgets": "8,16,32"})")),
            "hit");
}

TEST(Server, RestartOnWarmStoreServesIdenticalPayloads) {
  const std::string dir = fresh_store("restart");
  std::string cold_response;
  std::string key;
  {
    ServerOptions options;
    options.store_dir = dir;
    Server server(options);
    cold_response = server.handle(query("dec_fir", "cpa", 48));
    EXPECT_EQ(cache_status(cold_response), "miss");
    key = cache_key_of(cold_response);
  }
  ServerOptions options;
  options.store_dir = dir;
  Server server(options);
  const std::string warm_response = server.handle(query("dec_fir", "cpa", 48));
  EXPECT_EQ(cache_status(warm_response), "hit");
  EXPECT_EQ(server.stats().computed, 0);  // nothing evaluated

  // Identical except the cache status; the cached query payload matches.
  const JsonValue cold = parse_json(cold_response);
  const JsonValue warm = parse_json(warm_response);
  EXPECT_EQ(member(cold, "query")->to_string(), member(warm, "query")->to_string());
  EXPECT_EQ(cache_key_of(warm_response), key);

  // A key probe against the warm store hits without any kernel text.
  const std::string probe_response =
      server.handle(cat(R"({"key": ")", key, R"(", "probe": true})"));
  EXPECT_EQ(cache_status(probe_response), "hit");
  EXPECT_EQ(member(parse_json(probe_response), "query")->to_string(),
            member(cold, "query")->to_string());
}

TEST(Server, CorruptStoreEntryRecomputesInsteadOfCrashing) {
  const std::string dir = fresh_store("server_corrupt");
  std::string cold_query;
  std::string key;
  {
    ServerOptions options;
    options.store_dir = dir;
    Server server(options);
    const std::string response = server.handle(query("imi", "cpa", 64));
    cold_query = member(parse_json(response), "query")->to_string();
    key = cache_key_of(response);
  }
  {
    std::ofstream scribble(fs::path(dir) / ("k" + key + ".entry"),
                           std::ios::binary | std::ios::trunc);
    scribble << "\0\xff torn write \0" << std::flush;
  }
  ServerOptions options;
  options.store_dir = dir;
  Server server(options);
  const std::string response = server.handle(query("imi", "cpa", 64));
  EXPECT_EQ(cache_status(response), "miss");  // corrupt entry = cold key
  EXPECT_EQ(member(parse_json(response), "query")->to_string(), cold_query);
  EXPECT_EQ(server.store().corrupt_dropped(), 1);
  EXPECT_EQ(server.stats().computed, 1);
}

TEST(Server, RunJsonAndServicePayloadAreTheSameBytes) {
  // Satellite (a): the CLI emits the service's srra-query/v1 object through
  // the same proto serialization, so the two can never drift.
  std::ostringstream out, err;
  const int code = srra::dse::run_cli(
      {"run", "--kernel=fir", "--algos=cpa", "--budget=64", "--format=json"}, out, err);
  ASSERT_EQ(code, 0) << err.str();

  Server server(ServerOptions{});
  const std::string response = server.handle(query("fir", "cpa", 64));
  const JsonValue envelope = parse_json(response);
  EXPECT_EQ(member(envelope, "query")->to_string() + "\n", out.str());
}

TEST(Server, InlineKernelDslAndTransforms) {
  Server server(ServerOptions{});
  const std::string dsl_query = cat(
      R"({"kernel": ")",
      json_escape(kernels::kernel_source("fir")),
      R"(", "algorithm": "cpa", "budget": 64})");
  const std::string by_text = server.handle(dsl_query);
  const std::string by_name = server.handle(query("fir", "cpa", 64));
  // Same structure (same structural hash), but the DSL text declares
  // `kernel fir` while the builtin displays as "FIR" — the payloads name
  // the kernel differently, so they are distinct cache entries. The design
  // points themselves are identical.
  const JsonValue text_query = *member(parse_json(by_text), "query");
  const JsonValue name_query = *member(parse_json(by_name), "query");
  EXPECT_NE(cache_key_of(by_text), cache_key_of(by_name));
  EXPECT_EQ(member(text_query, "structural_hash")->as_string(),
            member(name_query, "structural_hash")->as_string());
  EXPECT_EQ(member(text_query, "point")->to_string(),
            member(name_query, "point")->to_string());

  const std::string transformed = server.handle(
      R"x({"kernel": "mat", "transforms": "i(1,0,2)", "algorithm": "cpa", "budget": 64})x");
  const JsonValue doc = parse_json(transformed);
  EXPECT_TRUE(member(doc, "ok")->as_bool());
  EXPECT_EQ(member(*member(doc, "query"), "transforms")->as_string(), "i(1,0,2)");
}

TEST(Server, ServeStreamFramesAndShutdownOp) {
  std::stringstream in, outs;
  write_frame(in, query("fir", "cpa", 64, "q1"));
  write_frame(in, query("fir", "cpa", 64, "q2"));
  write_frame(in, R"({"op": "shutdown", "id": "bye"})");

  Server server(ServerOptions{});
  EXPECT_EQ(server.serve_stream(in, outs), 0);
  EXPECT_TRUE(server.shutdown_requested());

  std::vector<std::string> responses;
  for (;;) {
    std::optional<std::string> frame = read_frame(outs);
    if (!frame.has_value()) break;
    responses.push_back(std::move(*frame));
  }
  ASSERT_EQ(responses.size(), 3u);
  for (const std::string& response : responses) {
    EXPECT_TRUE(member(parse_json(response), "ok")->as_bool()) << response;
  }
  EXPECT_TRUE(member(parse_json(responses[2]), "shutdown")->as_bool());
}

TEST(Server, ServeStreamReportsMalformedFraming) {
  std::stringstream in, outs;
  in << "notaframe";
  Server server(ServerOptions{});
  EXPECT_EQ(server.serve_stream(in, outs), 2);
  const std::optional<std::string> error_frame = read_frame(outs);
  ASSERT_TRUE(error_frame.has_value());
  EXPECT_FALSE(member(parse_json(*error_frame), "ok")->as_bool());
  EXPECT_EQ(error_frame->find(".cc:"), std::string::npos) << *error_frame;
}

TEST(Server, UnixSocketEndToEnd) {
  const std::string dir = fresh_store("socket");
  fs::create_directories(dir);
  const std::string path = dir + "/srrad.sock";

  ServerOptions options;
  options.jobs = 2;
  Server server(options);
  std::thread daemon([&] { server.serve_unix(path); });
  // Wait for the listener (bind happens quickly; connect retries cover it).
  Client client = [&] {
    for (int attempt = 0;; ++attempt) {
      try {
        return Client::connect_unix(path);
      } catch (const Error&) {
        if (attempt > 100) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }();

  const std::vector<std::string> responses = client.roundtrip_batch({
      query("fir", "cpa", 64, "s1"),
      query("fir", "cpa", 64, "s2"),
  });
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(member(parse_json(responses[0]), "id")->as_string(), "s1");
  EXPECT_EQ(member(parse_json(responses[1]), "id")->as_string(), "s2");
  EXPECT_EQ(member(parse_json(responses[0]), "query")->to_string(),
            member(parse_json(responses[1]), "query")->to_string());

  const std::string bye = client.roundtrip(R"({"op": "shutdown"})");
  EXPECT_TRUE(member(parse_json(bye), "shutdown")->as_bool());
  daemon.join();
  EXPECT_FALSE(fs::exists(path));  // socket unlinked on clean exit
}

// ------------------------------------------- cost-aware caching and warmup

// The acceptance pin of the cost-aware eviction work: under store pressure
// from cheap single-budget queries, the ~100x-recompute-cost frontier and
// BB-RA entries are the ones that survive in BOTH cache layers.
TEST(Server, FrontierAndBnbEntriesSurviveCachePressure) {
  ServerOptions options;
  options.jobs = 1;
  options.store_dir = fresh_store("pressure");
  options.store_max_entries = 3;
  options.memory_max_entries = 3;
  Server server(options);

  const std::string frontier_q =
      R"({"kernel": "fir", "mode": "frontier", "budgets": "8:32"})";
  const std::string bnb_q = query("mat", "bnb", 48);
  EXPECT_EQ(cache_status(server.handle(frontier_q)), "miss");
  EXPECT_EQ(cache_status(server.handle(bnb_q)), "miss");
  // Churn far past the cap with cost-1 entries.
  for (const std::int64_t budget : {16, 24, 32, 40, 48, 56}) {
    server.handle(query("fir", "cpa", budget));
  }
  EXPECT_GT(server.store().evictions(), 0);
  EXPECT_GT(server.store().evicted_by_cost(), 0);
  // The expensive entries are still resident; the churned ones are not.
  EXPECT_EQ(cache_status(server.handle(frontier_q)), "hit");
  EXPECT_EQ(cache_status(server.handle(bnb_q)), "hit");
  EXPECT_EQ(cache_status(server.handle(query("fir", "cpa", 16))), "miss");
}

// Same policy with no store at all: the in-memory payload cache evicts by
// recompute-cost-per-byte too.
TEST(Server, MemoryCacheRetainsExpensiveEntriesUnderPressure) {
  ServerOptions options;
  options.jobs = 1;
  options.memory_max_entries = 2;
  Server server(options);  // no store_dir: memory cache only

  const std::string frontier_q =
      R"({"kernel": "fir", "mode": "frontier", "budgets": "8:32"})";
  server.handle(frontier_q);
  server.handle(query("fir", "cpa", 16));
  server.handle(query("fir", "cpa", 24));  // over the cap: evicts a cheap one
  EXPECT_EQ(cache_status(server.handle(frontier_q)), "hit");
  EXPECT_EQ(cache_status(server.handle(query("fir", "cpa", 16))), "miss");
}

TEST(Server, PullOpPagesStoredEntriesBestScoreFirst) {
  ServerOptions options;
  options.jobs = 1;
  options.store_dir = fresh_store("pull");
  Server server(options);
  server.handle(query("fir", "cpa", 64));  // cost 1
  server.handle(query("mat", "bnb", 48));  // cost 100
  server.handle(query("imi", "cpa", 32));  // cost 1

  const std::string page1 = server.handle(R"({"op": "pull", "limit": 2})");
  const JsonValue doc1 = parse_json(page1);
  ASSERT_TRUE(member(doc1, "ok")->as_bool()) << page1;
  const JsonValue& pull1 = *member(doc1, "pull");
  EXPECT_EQ(member(pull1, "total")->as_int(), 3);
  EXPECT_EQ(member(pull1, "next_offset")->as_int(), 2);
  const JsonValue& entries1 = *member(pull1, "entries");
  ASSERT_EQ(entries1.items().size(), 2u);
  // The BB-RA entry leads: highest recompute-cost-per-byte score.
  EXPECT_EQ(member(entries1.items()[0], "cost")->as_int(), 100);
  for (const JsonValue& entry : entries1.items()) {
    EXPECT_EQ(payload_hash(member(entry, "payload")->as_string()),
              member(entry, "hash")->as_string());
  }

  const std::string page2 = server.handle(R"({"op": "pull", "limit": 2, "offset": 2})");
  const JsonValue doc2 = parse_json(page2);
  const JsonValue& pull2 = *member(doc2, "pull");
  EXPECT_EQ(member(pull2, "entries")->items().size(), 1u);
  EXPECT_EQ(member(pull2, "next_offset")->as_int(), 3);

  // Equal cost and size: the newest arrival leads. That is the reverse of
  // eviction order with recency left out, the order a restarted peer keeps.
  const std::string older(16, '0');  // key order would put it first
  const std::string newer(16, 'f');
  const std::string payload = R"({"p": 1})";  // score 100/8 tops all three queries
  ASSERT_TRUE(server.store().put(older, payload, /*cost=*/100));
  ASSERT_TRUE(server.store().put(newer, payload, /*cost=*/100));
  const JsonValue tied = parse_json(server.handle(R"({"op": "pull", "limit": 2})"));
  const JsonValue& tied_entries = *member(*member(tied, "pull"), "entries");
  ASSERT_EQ(tied_entries.items().size(), 2u);
  EXPECT_EQ(member(tied_entries.items()[0], "key")->as_string(), newer);
  EXPECT_EQ(member(tied_entries.items()[1], "key")->as_string(), older);

  // Pull requests take no query members; queries take no pull members.
  EXPECT_FALSE(
      member(parse_json(server.handle(R"({"op": "pull", "kernel": "fir"})")), "ok")
          ->as_bool());
  EXPECT_FALSE(
      member(parse_json(server.handle(R"({"kernel": "fir", "limit": 3})")), "ok")
          ->as_bool());
}

TEST(Server, WarmFromPeerServesByteIdenticalAnswersOnFirstPass) {
  const std::string dir = fresh_store("warm_peer");
  fs::create_directories(dir);
  const std::string path = dir + "/peer.sock";

  ServerOptions peer_options;
  peer_options.jobs = 1;
  peer_options.store_dir = dir + "/store-a";
  Server peer(peer_options);
  const std::vector<std::string> warm_queries = {
      query("fir", "cpa", 64, "w1"),
      R"({"id": "w2", "kernel": "mat", "mode": "frontier", "budgets": "8:32"})",
      query("imi", "bnb", 48, "w3"),
  };
  std::vector<std::string> expected;
  for (const std::string& q : warm_queries) {
    expected.push_back(member(parse_json(peer.handle(q)), "query")->to_string());
  }
  std::thread daemon([&] { peer.serve_unix(path); });

  ServerOptions cold_options;
  cold_options.jobs = 1;
  cold_options.store_dir = dir + "/store-b";
  Server cold(cold_options);
  EXPECT_EQ(warm_when_listening(cold, path), 3);
  EXPECT_EQ(cold.store().entries(), 3);

  // First pass on the warmed daemon: all hits, zero computes, and the
  // served query objects are byte-for-byte the peer's.
  for (std::size_t i = 0; i < warm_queries.size(); ++i) {
    const std::string response = cold.handle(warm_queries[i]);
    EXPECT_EQ(cache_status(response), "hit") << warm_queries[i];
    EXPECT_EQ(member(parse_json(response), "query")->to_string(), expected[i]);
  }
  EXPECT_EQ(cold.stats().computed, 0);

  Client shutdown_client = Client::connect_unix(path);
  shutdown_client.roundtrip(R"({"op": "shutdown"})");
  daemon.join();
}

// The pull stream is best-first, so a daemon with smaller caps must keep
// its prefix: past a full cache, each later entry would evict a better one
// already adopted.
TEST(Server, WarmFromPeerIntoSmallerCachesKeepsTheBestEntries) {
  const std::string dir = fresh_store("warm_small");
  fs::create_directories(dir);
  const std::string path = dir + "/peer.sock";

  ServerOptions peer_options;
  peer_options.jobs = 1;
  peer_options.store_dir = dir + "/store-a";
  Server peer(peer_options);
  // Scores, cost per payload byte: 100/529 = 0.189 for the best, 1/542 =
  // 0.001845 for the worst and 1/535 = 0.001869 for the second.
  const std::string best = query("mat", "bnb", 48);
  const std::string worst = query("fir", "cpa", 64);
  const std::string second = query("imi", "cpa", 32);
  std::vector<std::string> kept_keys = {cache_key_of(peer.handle(best))};
  peer.handle(worst);
  kept_keys.push_back(cache_key_of(peer.handle(second)));
  std::thread daemon([&] { peer.serve_unix(path); });

  ServerOptions small_options;
  small_options.jobs = 1;
  small_options.store_dir = dir + "/store-b";
  small_options.store_max_entries = 2;
  small_options.memory_max_entries = 2;
  Server small(small_options);
  EXPECT_EQ(warm_when_listening(small, path), 2);

  std::vector<std::string> stored;
  for (const StoreEntryInfo& row : small.store().snapshot()) stored.push_back(row.key);
  std::sort(kept_keys.begin(), kept_keys.end());
  EXPECT_EQ(stored, kept_keys);
  EXPECT_EQ(cache_status(small.handle(best)), "hit");
  EXPECT_EQ(cache_status(small.handle(second)), "hit");
  EXPECT_EQ(small.stats().computed, 0);
  EXPECT_EQ(cache_status(small.handle(worst)), "miss");

  Client shutdown_client = Client::connect_unix(path);
  shutdown_client.roundtrip(R"({"op": "shutdown"})");
  daemon.join();
}

TEST(Server, HealthReportsHitRateAndEvictionPolicyCounters) {
  ServerOptions options;
  options.jobs = 1;
  options.store_dir = fresh_store("health_counters");
  options.store_max_entries = 1;
  options.memory_max_entries = 1;
  Server server(options);
  server.handle(query("fir", "cpa", 64));  // miss
  server.handle(query("fir", "cpa", 32));  // miss, evicts (pure LRU tie)
  server.handle(query("fir", "cpa", 32));  // hit

  const JsonValue doc = parse_json(server.handle(R"({"op": "health"})"));
  const JsonValue& health = *member(doc, "health");
  EXPECT_NEAR(member(health, "store_hit_rate")->as_double(), 1.0 / 3.0, 1e-9);
  EXPECT_EQ(member(health, "evicted_by_cost")->as_int() +
                member(health, "evicted_lru")->as_int(),
            member(health, "store_evictions")->as_int());
  EXPECT_EQ(member(health, "store_evictions")->as_int(), 1);
  EXPECT_EQ(member(health, "index_rebuilds")->as_int(), 0);
}

// ----------------------------------------------------- splice vs DOM path

// The envelope as make_query_response built it before the splice, kept as
// the reference: parse the payload into a DOM, set it as the "query"
// member, render the whole document.
std::string dom_query_response(const ResponseMeta& meta, const std::string& payload) {
  JsonValue envelope = JsonValue::make_object();
  envelope.set("schema", JsonValue::make_string(kServiceSchema));
  if (!meta.id.empty()) envelope.set("id", JsonValue::make_string(meta.id));
  envelope.set("ok", JsonValue::make_bool(true));
  if (!meta.cache_status.empty()) {
    JsonValue cache = JsonValue::make_object();
    cache.set("status", JsonValue::make_string(meta.cache_status));
    cache.set("key", JsonValue::make_string(meta.key));
    envelope.set("cache", std::move(cache));
  }
  if (meta.elapsed_us >= 0) envelope.set("elapsed_us", JsonValue::make_int(meta.elapsed_us));
  if (!payload.empty()) envelope.set("query", parse_json(payload));
  return envelope.to_string() + "\n";
}

// Every envelope shape (id or none, cache line or none, elapsed_us or none).
void expect_splice_matches_dom(const std::string& payload) {
  for (const char* id : {"", "a1", "q\"uote\\back \xc3\xa9"}) {
    for (const char* status : {"", "hit", "miss"}) {
      for (const std::int64_t elapsed_us : {std::int64_t{-1}, std::int64_t{0}, std::int64_t{1234}}) {
        ResponseMeta meta;
        meta.id = id;
        meta.cache_status = status;
        meta.key = "0123456789abcdef";
        meta.elapsed_us = elapsed_us;
        ASSERT_EQ(make_query_response(meta, payload), dom_query_response(meta, payload))
            << "payload:\n" << payload;
      }
    }
  }
}

QueryInput input_for(const RefModel& model, const std::string& name, Algorithm algorithm) {
  QueryInput input;
  input.kernel_name = name;
  input.kernel_hash = structural_hash(model.kernel());
  input.algorithm = algorithm;
  return input;
}

TEST(Splice, EmptyPayloadMeansNoQueryMember) {
  expect_splice_matches_dom("");
  ResponseMeta meta;
  meta.cache_status = "miss";
  EXPECT_EQ(parse_json(make_query_response(meta, "")).find("query"), nullptr);
}

TEST(Splice, EqualsDomRoundTripForEveryAlgorithmAndMode) {
  for (const char* name : {"fir", "example", "mat"}) {
    const RefModel model(std::move(kernels::find_builtin(name)->kernel));
    for (const Algorithm algorithm : all_algorithms()) {
      for (const bool fetch : {true, false}) {
        QueryInput input = input_for(model, name, algorithm);
        input.fetch = fetch;
        for (const std::int64_t budget : {2, 16, 64}) {  // 2 is infeasible
          input.budget = budget;
          expect_splice_matches_dom(query_payload(evaluate_query(model, input)));
        }
        input.frontier = true;
        for (int points = 1; points <= 8; ++points) {
          input.budgets.clear();
          for (int p = 1; p <= points; ++p) input.budgets.push_back(8 * p);
          expect_splice_matches_dom(query_payload(evaluate_query(model, input)));
        }
      }
    }
  }
}

TEST(Splice, EqualsDomRoundTripForHostileErrorText) {
  QueryReport report;
  report.kernel_name = "k\"\\\n\t\x01\xc3\xa9\xf0\x9f\x98\x80";
  report.transforms = "t(1,8)";
  report.algorithm = "CPA-RA";
  report.budget = 2;
  report.feasible = false;
  for (const char* error : {"", "budget 2 cannot give every reference a register",
                            "q\"uote \\ back\\slash \n newline \r\t tab \x01\x1f ctrl",
                            "caf\xc3\xa9 \xf0\x9f\x98\x80 \x7f del", "{\n  \"fake\": 1\n}\n"}) {
    report.error = error;
    expect_splice_matches_dom(query_payload(report));
  }
}

TEST(Splice, EqualsDomRoundTripOnRandomKernels) {
  for (int i = 0; i < fuzz_iters(); ++i) {
    Rng rng(fuzz_seed() + static_cast<std::uint64_t>(i) * 7919 + 5);
    const RefModel model(srra::testing::random_kernel(rng));
    for (const Algorithm algorithm : paper_variants()) {
      QueryInput input = input_for(model, "fuzz", algorithm);
      input.budget = model.group_count() + rng.uniform(-1, 24);
      expect_splice_matches_dom(query_payload(evaluate_query(model, input)));
      input.frontier = true;
      input.budgets = {1, 4, 8, 16, 32};
      expect_splice_matches_dom(query_payload(evaluate_query(model, input)));
    }
  }
}

// -------------------------------------------------- shared model vs fresh

struct MixQuery {
  const char* kernel;
  const char* transforms;
  const char* algorithm;
  std::int64_t budget;  ///< 0 = frontier mode over `budgets`
  const char* budgets;
  bool fetch;
};

std::string mix_request(const MixQuery& q) {
  JsonValue request = JsonValue::make_object();
  request.set("kernel", JsonValue::make_string(q.kernel));
  request.set("transforms", JsonValue::make_string(q.transforms));
  request.set("algorithm", JsonValue::make_string(q.algorithm));
  if (q.budget > 0) {
    request.set("budget", JsonValue::make_int(q.budget));
  } else {
    request.set("mode", JsonValue::make_string("frontier"));
    request.set("budgets", JsonValue::make_string(q.budgets));
  }
  request.set("fetch", JsonValue::make_bool(q.fetch));
  return request.to_string();
}

// The query object a fresh model answers: `srra run --format=json` for a
// budget, evaluate_query on a new RefModel for a frontier.
std::string fresh_answer(const MixQuery& q) {
  if (q.budget > 0) {
    std::vector<std::string> args = {"run", cat("--kernel=", q.kernel),
                                     cat("--algos=", q.algorithm), cat("--budget=", q.budget),
                                     q.fetch ? "--fetch=on" : "--fetch=off", "--format=json"};
    if (*q.transforms != '\0') args.push_back(cat("--transforms=", q.transforms));
    std::ostringstream out, err;
    EXPECT_EQ(srra::dse::run_cli(args, out, err), 0) << err.str();
    return out.str();
  }
  kernels::NamedKernel builtin = *kernels::find_builtin(q.kernel);
  const std::vector<LoopTransform> sequence = parse_transforms(q.transforms);
  Kernel kernel = sequence.empty()
                      ? std::move(builtin.kernel)
                      : transform_for_pipeline(builtin.kernel, srra::span<const LoopTransform>(
                                                                   sequence.data(), sequence.size()));
  const RefModel model(std::move(kernel));
  QueryInput input = input_for(model, builtin.name, parse_algorithm(q.algorithm));
  input.transforms = q.transforms;
  input.fetch = q.fetch;
  input.frontier = true;
  input.budgets = dse::parse_budget_spec(q.budgets);
  return query_payload(evaluate_query(model, input));
}

// Jobs of one variant share one RefModel within a batch, so later jobs run
// on a model earlier jobs have filled; the answers must not depend on it.
TEST(Server, SharedModelsAnswerLikeFreshOnes) {
  const std::vector<MixQuery> mix = {
      {"fir", "", "cpa", 32, "", true},        {"fir", "", "fr", 32, "", true},
      {"fir", "", "ks", 48, "", false},        {"fir", "", "pr", 0, "8:64:8", true},
      {"mat", "", "cpa", 16, "", true},        {"mat", "", "fr", 0, "8:32", false},
      {"mat", "i(1,0,2)", "pr", 24, "", true}, {"mat", "i(1,0,2)", "ls", 64, "", true},
      {"imi", "", "ks", 0, "8:64:8", true},    {"imi", "", "cpa", 40, "", false},
      {"bic", "", "fr", 2, "", true},          {"bic", "", "pr", 24, "", true},
      {"fir", "t(1,8)", "cpa", 64, "", true},  {"fir", "t(1,8)", "fr", 16, "", true},
  };
  ServerOptions options;
  options.jobs = 2;
  Server forward(options);
  Server backward(options);
  std::vector<std::string> forward_answers(mix.size());
  std::vector<std::string> backward_answers(mix.size());
  // Batches of three, in both orders, so each job meets a model in a
  // different state.
  for (std::size_t start = 0; start < mix.size(); start += 3) {
    std::vector<std::string> batch;
    std::vector<std::string> reversed;
    const std::size_t end = std::min(mix.size(), start + 3);
    for (std::size_t i = start; i < end; ++i) {
      batch.push_back(mix_request(mix[i]));
      reversed.push_back(mix_request(mix[mix.size() - 1 - i]));
    }
    const std::vector<std::string> a = forward.handle_batch(batch);
    const std::vector<std::string> b = backward.handle_batch(reversed);
    for (std::size_t i = start; i < end; ++i) {
      forward_answers[i] = a[i - start];
      backward_answers[mix.size() - 1 - i] = b[i - start];
    }
  }
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const std::string expected = fresh_answer(mix[i]);
    EXPECT_EQ(member(parse_json(forward_answers[i]), "query")->to_string() + "\n", expected)
        << mix_request(mix[i]);
    EXPECT_EQ(member(parse_json(backward_answers[i]), "query")->to_string() + "\n", expected)
        << mix_request(mix[i]);
  }
}

std::int64_t health_member(Server& server, const char* name) {
  const JsonValue doc = parse_json(server.handle(R"({"op": "health"})"));
  return member(*member(doc, "health"), name)->as_int();
}

// ------------------------------------------------ payload validation

TEST(Server, MangledStoreBodyOfTheSameLengthIsAMiss) {
  const std::string dir = fresh_store("server_mangled");
  std::string cold_query;
  std::string key;
  {
    ServerOptions options;
    options.store_dir = dir;
    Server server(options);
    const std::string response = server.handle(query("fir", "cpa", 32));
    cold_query = member(parse_json(response), "query")->to_string();
    key = cache_key_of(response);
  }
  const fs::path entry = fs::path(dir) / ("k" + key + ".entry");
  std::string bytes;
  {
    std::ifstream in(entry, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::size_t body = bytes.find('\n') + 1;
  ASSERT_EQ(bytes[body], '{');
  bytes[body] = '#';  // header and length intact: only the body is wrong
  std::ofstream(entry, std::ios::binary | std::ios::trunc) << bytes << std::flush;

  ServerOptions options;
  options.store_dir = dir;
  Server server(options);
  const std::string response = server.handle(query("fir", "cpa", 32));
  EXPECT_EQ(cache_status(response), "miss");
  EXPECT_EQ(member(parse_json(response), "query")->to_string(), cold_query);
  EXPECT_EQ(server.store().corrupt_dropped(), 1);
  EXPECT_EQ(server.stats().computed, 1);
  EXPECT_EQ(health_member(server, "store_corrupt_dropped"), 1);
  // The daemon keeps serving, and the recomputed entry is a hit.
  EXPECT_EQ(cache_status(server.handle(query("fir", "cpa", 32))), "hit");
  EXPECT_EQ(cache_status(server.handle(query("mat", "cpa", 32))), "miss");
}

TEST(Server, WarmFromPeerSkipsPayloadsThatAreNotJson) {
  const std::string dir = fresh_store("warm_not_json");
  fs::create_directories(dir);
  const std::string path = dir + "/peer.sock";

  ServerOptions peer_options;
  peer_options.store_dir = dir + "/store-a";
  Server peer(peer_options);
  const std::string good_key = cache_key_of(peer.handle(query("fir", "cpa", 64)));
  const std::string bad_key = "0123456789abcdef";
  ASSERT_TRUE(peer.store().put(bad_key, "#not json, but its hash is consistent", 1000));
  std::thread daemon([&] { peer.serve_unix(path); });

  ServerOptions cold_options;
  cold_options.store_dir = dir + "/store-b";
  Server cold(cold_options);
  EXPECT_EQ(warm_when_listening(cold, path), 1);
  EXPECT_EQ(cold.store().entries(), 1);
  EXPECT_TRUE(cold.store().get(good_key).has_value());
  EXPECT_FALSE(cold.store().get(bad_key).has_value());
  const std::string probe = cold.handle(
      cat(R"({"key": ")", bad_key, R"(", "probe": true})"));
  EXPECT_EQ(cache_status(probe), "miss");
  EXPECT_EQ(parse_json(probe).find("query"), nullptr);

  Client shutdown_client = Client::connect_unix(path);
  shutdown_client.roundtrip(R"({"op": "shutdown"})");
  daemon.join();

  // The peer checks what it offers too: the pull that read the mangled
  // body dropped it as corrupt, so no page carries it.
  EXPECT_EQ(health_member(peer, "store_corrupt_dropped"), 1);
  const JsonValue page = parse_json(peer.handle(R"({"op": "pull"})"));
  const JsonValue& entries = *member(*member(page, "pull"), "entries");
  ASSERT_EQ(entries.items().size(), 1u);
  EXPECT_EQ(member(entries.items()[0], "key")->as_string(), good_key);
}

TEST(Server, InfeasiblePayloadCarriesTheBareMessage) {
  Server server(ServerOptions{});
  const JsonValue doc = parse_json(server.handle(query("bic", "pr", 2)));
  const JsonValue& payload = *member(doc, "query");
  EXPECT_FALSE(member(payload, "feasible")->as_bool());
  const std::string& error = member(payload, "error")->as_string();
  EXPECT_EQ(error.find(".cc:"), std::string::npos) << error;
  EXPECT_EQ(error, "budget 2 cannot give every of the 3 references its feasibility register");
}

}  // namespace
}  // namespace srra::service
