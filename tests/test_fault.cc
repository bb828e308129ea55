// Fault-injection and hardening tests (DESIGN.md §14): the deterministic
// fault plan itself, the store's behavior under injected I/O failure and
// mid-write crashes (relaunch torture over every registered crash point),
// the server's store-health state machine (compute-only degradation and
// probing recovery), socket read deadlines, SIGPIPE-free disconnect
// handling, frame-boundary torture, and the client's deadline/retry
// machinery. Everything here is seeded and replayable — a failure
// reproduces bit-for-bit.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/proto.h"
#include "service/server.h"
#include "service/store.h"
#include "support/error.h"
#include "support/faultio.h"
#include "support/json.h"
#include "support/str.h"

namespace srra::service {
namespace {

namespace fs = std::filesystem;

// Every test leaves the process plan-free, even on assertion failure —
// a leaked plan would poison every later test in the binary.
struct PlanGuard {
  PlanGuard() { faultio::reset(); }
  ~PlanGuard() { faultio::reset(); }
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "srra_fault_" + name;
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

int count_tmp(const std::string& dir) {
  int n = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++n;
  }
  return n;
}

// ---------------------------------------------------------------- the plan

TEST(FaultPlan, GrammarValidates) {
  PlanGuard guard;
  EXPECT_THROW(faultio::install_plan("bogus"), Error);
  EXPECT_THROW(faultio::install_plan("nosuch.site=eio"), Error);
  EXPECT_THROW(faultio::install_plan("store.write=frobnicate"), Error);
  EXPECT_THROW(faultio::install_plan("store.write=eio@p=2"), Error);
  EXPECT_THROW(faultio::install_plan("store.write=eio@n=0"), Error);
  EXPECT_THROW(faultio::install_plan("crash=nosuch.point:1"), Error);
  EXPECT_THROW(faultio::install_plan("crash=store.write.open"), Error);

  EXPECT_FALSE(faultio::plan_installed());
  faultio::install_plan(
      "seed=7; store.write=enospc@p=1; client.read=eintr@n=1@max=10,short@p=0.5; "
      "crash=store.write.rename:2");
  EXPECT_TRUE(faultio::plan_installed());
  faultio::reset();
  EXPECT_FALSE(faultio::plan_installed());

  EXPECT_STREQ(faultio::site_name(faultio::Site::kStoreWrite), "store.write");
  EXPECT_STREQ(faultio::site_name(faultio::Site::kClientConnect), "client.connect");
  EXPECT_EQ(faultio::registered_crash_points().size(), 5u);
}

TEST(FaultPlan, SeededDecisionsReplayIdentically) {
  PlanGuard guard;
  const std::string payload(300, 'x');
  const auto run = [&](const std::string& name) {
    const std::string dir = fresh_dir(name);
    ResultStore store(dir);  // stamp FORMAT before the plan is live
    faultio::install_plan("seed=9; store.write=eio@p=0.5");
    std::vector<bool> outcomes;
    for (int i = 0; i < 20; ++i) {
      std::string key = cat(i < 10 ? "000000000000000" : "00000000000000", i);
      outcomes.push_back(store.put(key, payload));
    }
    faultio::reset();
    return outcomes;
  };
  const std::vector<bool> first = run("replay_a");
  const std::vector<bool> second = run("replay_b");
  EXPECT_EQ(first, second);
  // p=0.5 over 40 draws: both outcomes occur (and deterministically so).
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

// --------------------------------------------------------- store under fault

TEST(StoreFault, RidesOutShortWritesAndEintrStorms) {
  PlanGuard guard;
  const std::string dir = fresh_dir("short_eintr");
  ResultStore store(dir);
  const std::string key(16, 'a');
  const std::string payload(4096, 'p');
  faultio::install_plan(
      "seed=3; store.write=short@p=0.7,eintr@n=3@max=50; "
      "store.read=short@p=0.7,eintr@n=2@max=50");
  EXPECT_TRUE(store.put(key, payload));
  EXPECT_EQ(store.get(key).value(), payload);
  EXPECT_GT(faultio::fires(faultio::Site::kStoreWrite), 0);
}

TEST(StoreFault, EnospcDegradesPutWithoutDebris) {
  PlanGuard guard;
  const std::string dir = fresh_dir("enospc");
  ResultStore store(dir);
  const std::string key(16, 'b');
  faultio::install_plan("store.write=enospc@p=1");
  EXPECT_FALSE(store.put(key, "payload"));
  EXPECT_EQ(store.write_failures(), 1);
  EXPECT_FALSE(store.last_write_error().empty());
  EXPECT_EQ(count_tmp(dir), 0);  // the failed write cleaned up its tmp
  EXPECT_FALSE(store.get(key).has_value());

  faultio::reset();
  EXPECT_TRUE(store.put(key, "payload"));
  EXPECT_EQ(store.get(key).value(), "payload");
}

TEST(StoreFault, RenameFailureKeepsItsErrnoAndCleansUp) {
  PlanGuard guard;
  const std::string dir = fresh_dir("rename_fail");
  ResultStore store(dir);
  const std::string key(16, 'c');
  faultio::install_plan("store.rename=eio@p=1");
  EXPECT_FALSE(store.put(key, "payload"));
  // The diagnostic is the *rename's* errno, not whatever the tmp cleanup
  // left behind (the ec-reuse bug this PR fixes).
  EXPECT_EQ(store.last_write_error(), std::strerror(EIO));
  EXPECT_EQ(count_tmp(dir), 0);
}

TEST(StoreFault, TornWriteIsCaughtByEntryValidation) {
  PlanGuard guard;
  const std::string dir = fresh_dir("torn");
  ResultStore store(dir);
  const std::string key(16, 'd');
  faultio::install_plan("store.write=torn@n=1");
  // A torn file write *claims* success — the store believes the entry is
  // good until a read validates it.
  EXPECT_TRUE(store.put(key, std::string(512, 'q')));
  faultio::reset();
  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(store.corrupt_dropped(), 1);
  EXPECT_TRUE(store.put(key, "recomputed"));
  EXPECT_EQ(store.get(key).value(), "recomputed");
}

TEST(StoreFault, StartupSweepsStaleTmpDebris) {
  PlanGuard guard;
  const std::string dir = fresh_dir("sweep");
  const std::string key(16, 'e');
  {
    ResultStore store(dir);
    store.put(key, "survivor");
  }
  {
    std::ofstream stale(fs::path(dir) / ("k" + std::string(16, 'f') + ".entry.tmp"));
    stale << "half a write";
    std::ofstream junk(fs::path(dir) / "junk.tmp");
    junk << "other debris";
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.tmp_swept(), 2);
  EXPECT_EQ(count_tmp(dir), 0);
  EXPECT_EQ(reopened.get(key).value(), "survivor");
}

TEST(StoreFault, UnstampableDirectoryDegradesToDisabled) {
  PlanGuard guard;
  const std::string dir = fresh_dir("unstampable");
  faultio::install_plan("store.write=enospc@p=1");
  ResultStore store(dir);  // FORMAT stamp fails on the "full disk"
  EXPECT_TRUE(store.open_failed());
  EXPECT_FALSE(store.enabled());
  EXPECT_FALSE(store.put(std::string(16, 'a'), "payload"));
  EXPECT_FALSE(store.get(std::string(16, 'a')).has_value());
}

// --------------------------------------------------------- crash-point torture

// Every registered crash point, in-process: fork, crash the child mid-put,
// then reopen the store in the parent and prove full recovery — no tmp
// debris and byte-identical payloads (directly, or after one recompute).
TEST(CrashTorture, StoreRecoversFromEveryCrashPoint) {
  PlanGuard guard;
  const std::string payload(600, 'z');
  const std::string key(16, '7');
  for (const std::string& point : faultio::registered_crash_points()) {
    const std::string dir = fresh_dir("crash_" + std::to_string(&point - faultio::registered_crash_points().data()));
    { ResultStore stamp(dir); }  // pre-stamp so the put is the first write

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: arm the crash point and hit it. No gtest, no destructors.
      faultio::install_plan(cat("crash=", point, ":1"));
      ResultStore store(dir);
      store.put(key, payload);
      std::_Exit(0);  // reached only if the crash point failed to fire
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << point;
    EXPECT_EQ(WEXITSTATUS(status), 134) << point;

    ResultStore reopened(dir);
    if (point == "store.write.publish") {
      // Crash after the rename: the entry is durably in place, the startup
      // scan indexes it, and the bytes are exactly what was being written.
      EXPECT_EQ(reopened.tmp_swept(), 0) << point;
      ASSERT_TRUE(reopened.get(key).has_value()) << point;
      EXPECT_EQ(reopened.get(key).value(), payload) << point;
    } else {
      // Crash before the rename: exactly one tmp leftover, swept on open;
      // the key reads as a miss and a recompute restores identical bytes.
      EXPECT_EQ(reopened.tmp_swept(), 1) << point;
      EXPECT_FALSE(reopened.get(key).has_value()) << point;
      ASSERT_TRUE(reopened.put(key, payload)) << point;
      EXPECT_EQ(reopened.get(key).value(), payload) << point;
    }
    EXPECT_EQ(count_tmp(dir), 0) << point;
  }
}

// Every registered crash point, end-to-end: crash a real srrad daemon
// mid-store-write, relaunch it over the same store directory, and assert
// the relaunched daemon answers byte-identically with zero tmp debris.
TEST(CrashTorture, DaemonRelaunchAnswersByteIdentically) {
  PlanGuard guard;
  const std::string request = query("fir", "cpa", 64, "t1");

  // The expected srra-query/v1 bytes, via the in-process server (shared
  // serialization: any daemon must produce exactly these).
  Server baseline{ServerOptions{}};
  const std::string expected =
      member(parse_json(baseline.handle(request)), "query")->to_string();

  for (const std::string& point : faultio::registered_crash_points()) {
    SCOPED_TRACE(point);
    const std::string dir = fresh_dir("daemon_" + point);
    { ResultStore stamp(dir); }  // pre-stamp: the entry put is write #1

    const std::string req1 = dir + ".req1";
    const std::string req2 = dir + ".req2";
    const std::string out1 = dir + ".out1";
    const std::string out2 = dir + ".out2";
    {
      std::ofstream frames(req1, std::ios::binary | std::ios::trunc);
      write_frame(frames, request);
    }
    {
      std::ofstream frames(req2, std::ios::binary | std::ios::trunc);
      write_frame(frames, request);
      write_frame(frames, R"({"op": "shutdown"})");
    }

    const int crashed = std::system(
        cat("SRRA_FAULT_PLAN='crash=", point, ":1' '", SRRA_SRRAD_BIN,
            "' --stdio --store='", dir, "' < '", req1, "' > '", out1,
            "' 2>/dev/null")
            .c_str());
    ASSERT_TRUE(WIFEXITED(crashed));
    EXPECT_EQ(WEXITSTATUS(crashed), 134);

    const int relaunched = std::system(cat("'", SRRA_SRRAD_BIN, "' --stdio --store='",
                                           dir, "' < '", req2, "' > '", out2,
                                           "' 2>/dev/null")
                                           .c_str());
    ASSERT_TRUE(WIFEXITED(relaunched));
    EXPECT_EQ(WEXITSTATUS(relaunched), 0);

    std::ifstream in(out2, std::ios::binary);
    const std::optional<std::string> response = read_frame(in);
    ASSERT_TRUE(response.has_value());
    const JsonValue doc = parse_json(*response);
    EXPECT_TRUE(member(doc, "ok")->as_bool());
    EXPECT_EQ(member(doc, "query")->to_string(), expected);
    EXPECT_EQ(count_tmp(dir), 0);  // the relaunch swept any crash leftovers
  }
}

// ----------------------------------------------- server health & degradation

std::string health_of(Server& server) {
  const std::string response = server.handle(R"({"op": "health"})");
  const JsonValue doc = parse_json(response);
  EXPECT_TRUE(member(doc, "ok")->as_bool());
  return member(doc, "health")->to_string();
}

TEST(Degrade, HealthReportsDisabledWithoutStore) {
  PlanGuard guard;
  Server server{ServerOptions{}};
  const JsonValue health = parse_json(health_of(server));
  EXPECT_EQ(member(health, "store_mode")->as_string(), "disabled");
  EXPECT_FALSE(member(health, "fault_plan")->as_bool());
}

TEST(Degrade, TotalWriteFailureFlipsToComputeOnlyAndProbesBack) {
  PlanGuard guard;
  ServerOptions options;
  options.jobs = 1;
  options.store_dir = fresh_dir("degrade");
  options.store_failure_threshold = 3;
  options.store_probe_every = 2;
  Server server(options);
  EXPECT_EQ(server.store_mode(), StoreMode::kOk);

  // 100% store-write failure: every computed query fails its put. After
  // the third consecutive failure the breaker opens — the daemon keeps
  // answering queries, compute-only.
  faultio::install_plan("store.write=enospc@p=1");
  for (int budget = 20; budget < 24; ++budget) {
    const JsonValue doc = parse_json(server.handle(query("fir", "cpa", budget)));
    EXPECT_TRUE(member(doc, "ok")->as_bool());
  }
  EXPECT_EQ(server.store_mode(), StoreMode::kDegraded);
  {
    const JsonValue health = parse_json(health_of(server));
    EXPECT_EQ(member(health, "store_mode")->as_string(), "degraded");
    EXPECT_GE(member(health, "store_put_failures")->as_int(), 3);
    EXPECT_NE(health.find("store_last_error"), nullptr);
    EXPECT_TRUE(member(health, "fault_plan")->as_bool());
  }

  // Disk "repaired": with probe_every=2, every second would-be put probes;
  // the first successful probe closes the breaker.
  faultio::reset();
  for (int budget = 30; budget < 34 && server.store_mode() != StoreMode::kOk;
       ++budget) {
    server.handle(query("fir", "cpa", budget));
  }
  EXPECT_EQ(server.store_mode(), StoreMode::kOk);
  {
    const JsonValue health = parse_json(health_of(server));
    EXPECT_EQ(member(health, "store_mode")->as_string(), "ok");
    EXPECT_GE(member(health, "store_probes")->as_int(), 1);
    EXPECT_GE(member(health, "store_degraded")->as_int(), 1);
  }
  // Entries written after recovery really persist.
  EXPECT_GT(server.store().entries(), 0);
}

TEST(Degrade, FreshStoreOnFullDiskStillServesQueries) {
  PlanGuard guard;
  // The store directory cannot even be stamped: the daemon must come up
  // disabled, not die in the constructor.
  faultio::install_plan("store.write=enospc@p=1");
  ServerOptions options;
  options.store_dir = fresh_dir("fulldisk");
  Server server(options);
  faultio::reset();
  EXPECT_EQ(server.store_mode(), StoreMode::kDisabled);
  const JsonValue doc = parse_json(server.handle(query("fir", "cpa", 64)));
  EXPECT_TRUE(member(doc, "ok")->as_bool());
  const JsonValue health = parse_json(health_of(server));
  EXPECT_EQ(member(health, "store_mode")->as_string(), "disabled");
  EXPECT_NE(health.find("store_last_error"), nullptr);
}

// ------------------------------------------------------- frame-boundary torture

TEST(Framing, EveryTruncatedPrefixFailsCleanly) {
  std::ostringstream frame;
  write_frame(frame, R"({"op": "health"})");
  const std::string bytes = frame.str();
  for (std::size_t keep = 1; keep < bytes.size(); ++keep) {
    std::istringstream in(bytes.substr(0, keep));
    std::ostringstream out;
    Server server{ServerOptions{}};
    EXPECT_EQ(server.serve_stream(in, out), 2) << "prefix of " << keep << " bytes";
    std::istringstream reply(out.str());
    const std::optional<std::string> error_frame = read_frame(reply);
    ASSERT_TRUE(error_frame.has_value()) << "prefix of " << keep << " bytes";
    EXPECT_FALSE(member(parse_json(*error_frame), "ok")->as_bool());
  }
}

TEST(Framing, OversizedLengthHeaderIsRejected) {
  std::istringstream in("999999999\n");
  std::ostringstream out;
  Server server{ServerOptions{}};
  EXPECT_EQ(server.serve_stream(in, out), 2);
  const std::string text = out.str();
  EXPECT_NE(text.find("kMaxFrameBytes"), std::string::npos);
}

// ------------------------------------------------------------ socket serving

int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (attempt > 200) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::string drain_fd(int fd) {
  std::string bytes;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    bytes.append(chunk, static_cast<std::size_t>(n));
  }
  return bytes;
}

TEST(Socket, MidFrameDisconnectDoesNotKillTheDaemon) {
  PlanGuard guard;
  const std::string dir = fresh_dir("sigpipe");
  fs::create_directories(dir);
  const std::string path = dir + "/srrad.sock";
  Server server{ServerOptions{}};
  std::thread daemon([&] { server.serve_unix(path); });

  // Send a whole request, then hang up before reading the response: the
  // response write hits a dead peer. MSG_NOSIGNAL turns that into a failed
  // send on that connection — were it a SIGPIPE, this whole test binary
  // would die, which is the assertion.
  {
    const int fd = raw_connect(path);
    ASSERT_GE(fd, 0);
    std::ostringstream frame;
    write_frame(frame, query("fir", "cpa", 64));
    const std::string bytes = frame.str();
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  }

  // And a *torn* mid-frame disconnect: half a frame, then gone.
  {
    const int fd = raw_connect(path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, "40\n{\"ker", 8, MSG_NOSIGNAL), 8);
    ::close(fd);
  }

  // The daemon is still alive and serving.
  Client client = Client::connect_unix(path);
  const JsonValue doc = parse_json(client.roundtrip(query("fir", "cpa", 64)));
  EXPECT_TRUE(member(doc, "ok")->as_bool());
  client.roundtrip(R"({"op": "shutdown"})");
  daemon.join();
}

TEST(Socket, ReadDeadlineClosesStalledConnection) {
  PlanGuard guard;
  const std::string dir = fresh_dir("deadline");
  fs::create_directories(dir);
  const std::string path = dir + "/srrad.sock";
  ServerOptions options;
  options.read_deadline_ms = 150;
  Server server(options);
  std::thread daemon([&] { server.serve_unix(path); });

  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);
  // A partial frame, then silence: the server must send one error frame
  // and close, not hold the half-frame buffer forever.
  ASSERT_EQ(::send(fd, "50\nabc", 6, MSG_NOSIGNAL), 6);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::string buffered = drain_fd(fd);  // until the server closes the conn
  ::close(fd);
  std::string payload;
  ASSERT_EQ(extract_frame(buffered, payload), 1);
  EXPECT_NE(payload.find("read deadline exceeded"), std::string::npos);

  Client client = Client::connect_unix(path);
  client.roundtrip(R"({"op": "shutdown"})");
  daemon.join();
  EXPECT_EQ(server.stats().deadline_closes, 1);
}

TEST(Socket, MalformedHeaderGetsErrorFrameAndTheDoor) {
  PlanGuard guard;
  const std::string dir = fresh_dir("badheader");
  fs::create_directories(dir);
  const std::string path = dir + "/srrad.sock";
  Server server{ServerOptions{}};
  std::thread daemon([&] { server.serve_unix(path); });

  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);
  // An oversized length announcement: the server must refuse to buffer it.
  ASSERT_EQ(::send(fd, "999999999\n", 10, MSG_NOSIGNAL), 10);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  std::string buffered = drain_fd(fd);
  ::close(fd);
  std::string payload;
  ASSERT_EQ(extract_frame(buffered, payload), 1);
  EXPECT_NE(payload.find("malformed frame"), std::string::npos);

  Client client = Client::connect_unix(path);
  client.roundtrip(R"({"op": "shutdown"})");
  daemon.join();
}

// ------------------------------------------------------------ client hardening

TEST(ClientRetry, BackoffScheduleIsDeterministicAndBounded) {
  ClientOptions options;
  options.backoff_ms = 20;
  options.backoff_seed = 42;
  for (int attempt = 0; attempt < 6; ++attempt) {
    const std::int64_t delay = retry_delay_ms(attempt, options);
    EXPECT_EQ(delay, retry_delay_ms(attempt, options));  // pure function
    const std::int64_t base = std::int64_t{20} << attempt;
    EXPECT_GE(delay, base);
    EXPECT_LT(delay, base + 20);  // jitter < backoff_ms
  }
  options.backoff_ms = 0;
  EXPECT_EQ(retry_delay_ms(3, options), 0);
}

TEST(ClientRetry, ReconnectsResendsAndIsNotRecomputed) {
  PlanGuard guard;
  const std::string dir = fresh_dir("retry");
  fs::create_directories(dir);
  const std::string path = dir + "/srrad.sock";
  Server server{ServerOptions{}};
  std::thread daemon([&] { server.serve_unix(path); });

  ClientOptions options;
  options.retries = 2;
  options.backoff_ms = 1;
  Client client = [&] {
    for (int attempt = 0;; ++attempt) {
      try {
        return Client::connect_unix(path, options);
      } catch (const Error&) {
        if (attempt > 100) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }();

  // The first receive dies on an injected EIO; the client reconnects,
  // re-sends, and gets the answer. The daemon saw the query twice but
  // computed once — duplicates coalesce or hit the cache, which is what
  // makes blind re-sending safe.
  faultio::install_plan("client.read=eio@max=1");
  const std::string response = client.roundtrip(query("fir", "cpa", 64, "r1"));
  faultio::reset();
  EXPECT_EQ(client.retries_used(), 1);
  const JsonValue doc = parse_json(response);
  EXPECT_TRUE(member(doc, "ok")->as_bool());

  const std::string health_response = client.roundtrip(R"({"op": "health"})");
  const JsonValue health = *member(parse_json(health_response), "health");
  EXPECT_EQ(member(health, "computed")->as_int(), 1);

  client.roundtrip(R"({"op": "shutdown"})");
  daemon.join();
}

TEST(ClientRetry, IoDeadlineBoundsAStarvedReceive) {
  PlanGuard guard;
  const std::string dir = fresh_dir("starve");
  fs::create_directories(dir);
  const std::string path = dir + "/srrad.sock";
  Server server{ServerOptions{}};
  std::thread daemon([&] { server.serve_unix(path); });

  ClientOptions options;
  options.io_timeout_ms = 100;
  Client client = [&] {
    for (int attempt = 0;; ++attempt) {
      try {
        return Client::connect_unix(path, options);
      } catch (const Error&) {
        if (attempt > 100) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }();

  // Every receive is starved (injected EAGAIN, always): the deadline, not
  // an infinite loop, must end the roundtrip.
  faultio::install_plan("client.read=eagain@p=1");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.roundtrip(query("fir", "cpa", 64)), Error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  faultio::reset();
  EXPECT_GE(elapsed, 90);

  Client closer = Client::connect_unix(path);
  closer.roundtrip(R"({"op": "shutdown"})");
  daemon.join();
}

TEST(ClientRetry, ConnectFailureReportsAfterBoundedRetries) {
  PlanGuard guard;
  ClientOptions options;
  options.connect_timeout_ms = 200;
  EXPECT_THROW(Client::connect_unix("/nonexistent/srrad.sock", options), Error);
}

}  // namespace
}  // namespace srra::service
