#include "support/faultio.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "support/error.h"
#include "support/rng.h"
#include "support/str.h"

namespace srra::faultio {

namespace {

constexpr int kSiteCount = static_cast<int>(Site::kCount);

constexpr const char* kSiteNames[kSiteCount] = {
    "client.connect", "client.read", "client.write",
    "server.read",    "server.write",
    "store.read",     "store.write", "store.rename", "store.flush",
    "store.journal",
};

// The store write path's checkpoints, in write order (store.cc invokes
// them; keep the two lists in sync).
const std::vector<std::string> kCrashPoints = {
    "store.write.open",     // tmp file created, no payload bytes yet
    "store.write.partial",  // half the payload written (torn tmp)
    "store.write.sync",     // full payload written, before any fsync
    "store.write.rename",   // flushed tmp in place, before the rename
    "store.write.publish",  // renamed into place, before the index update
};

enum class Kind { kShort, kEintr, kEagain, kEnospc, kEio, kDelay, kTorn };

struct Fault {
  Kind kind = Kind::kShort;
  int delay_ms = 0;            ///< kDelay only
  double probability = -1.0;   ///< < 0 = unconditional
  std::int64_t every_nth = 0;  ///< > 0 = fire on every Nth op at the site
  std::int64_t max_fires = -1; ///< >= 0 = total-fire cap
  std::int64_t ops_seen = 0;
  std::int64_t fired = 0;
};

struct CrashRule {
  std::string point;
  std::int64_t nth = 1;
  std::int64_t hits = 0;
};

struct Plan {
  Rng rng{0};
  std::vector<Fault> faults[kSiteCount];
  std::vector<CrashRule> crashes;
};

/// What one consult decided: injected errno, byte cap, torn write, and any
/// accumulated delay (slept by the caller, outside the plan lock).
struct Outcome {
  int err = 0;
  std::size_t cap = SIZE_MAX;
  bool torn = false;
  int delay_ms = 0;
};

std::mutex g_mu;
std::unique_ptr<Plan> g_plan;
std::int64_t g_fires[kSiteCount] = {};

std::int64_t parse_u64(std::string_view text, std::string_view what) {
  const std::string t(text);
  check(!t.empty() && t.size() <= 18 &&
            t.find_first_not_of("0123456789") == std::string::npos, [&] {
    return cat("fault plan: bad ", what, " value '", t, "'");
  });
  return std::atoll(t.c_str());
}

double parse_prob(std::string_view text) {
  const std::string t(text);
  char* end = nullptr;
  const double p = std::strtod(t.c_str(), &end);
  check(end != t.c_str() && *end == '\0' && p >= 0.0 && p <= 1.0, [&] {
    return cat("fault plan: bad probability '", t, "' (want 0..1)");
  });
  return p;
}

Fault parse_fault(std::string_view token) {
  Fault fault;
  bool first = true;
  for (const std::string& part : split(std::string(token), '@')) {
    const std::string_view body = trim(part);
    if (first) {
      first = false;
      if (body == "short") fault.kind = Kind::kShort;
      else if (body == "eintr") fault.kind = Kind::kEintr;
      else if (body == "eagain") fault.kind = Kind::kEagain;
      else if (body == "enospc") fault.kind = Kind::kEnospc;
      else if (body == "eio") fault.kind = Kind::kEio;
      else if (body == "torn") fault.kind = Kind::kTorn;
      else if (starts_with(body, "delay=")) {
        fault.kind = Kind::kDelay;
        fault.delay_ms = static_cast<int>(parse_u64(body.substr(6), "delay"));
      } else {
        fail(cat("fault plan: unknown fault kind '", std::string(body),
                 "' (want short|eintr|eagain|enospc|eio|delay=MS|torn)"));
      }
      continue;
    }
    if (starts_with(body, "p=")) {
      fault.probability = parse_prob(body.substr(2));
    } else if (starts_with(body, "n=")) {
      fault.every_nth = parse_u64(body.substr(2), "n");
      check(fault.every_nth >= 1, "fault plan: @n must be >= 1");
    } else if (starts_with(body, "max=")) {
      fault.max_fires = parse_u64(body.substr(4), "max");
    } else {
      fail(cat("fault plan: unknown qualifier '@", std::string(body),
               "' (want @p=FLOAT, @n=N, @max=N)"));
    }
  }
  check(!first, "fault plan: empty fault token");
  return fault;
}

int site_index(std::string_view name) {
  for (int s = 0; s < kSiteCount; ++s) {
    if (name == kSiteNames[s]) return s;
  }
  return -1;
}

std::unique_ptr<Plan> parse_plan(const std::string& text) {
  auto plan = std::make_unique<Plan>();
  std::uint64_t seed = 0;
  for (const std::string& item : split(text, ';')) {
    const std::string_view body = trim(item);
    if (body.empty()) continue;
    if (starts_with(body, "seed=")) {
      seed = static_cast<std::uint64_t>(parse_u64(body.substr(5), "seed"));
      continue;
    }
    if (starts_with(body, "crash=")) {
      const std::string_view rest = body.substr(6);
      const std::size_t colon = rest.rfind(':');
      check(colon != std::string_view::npos, [&] {
        return cat("fault plan: crash item needs POINT:N, got '", std::string(rest), "'");
      });
      CrashRule rule;
      rule.point = std::string(trim(rest.substr(0, colon)));
      rule.nth = parse_u64(trim(rest.substr(colon + 1)), "crash count");
      check(rule.nth >= 1, "fault plan: crash count must be >= 1");
      check(std::find(kCrashPoints.begin(), kCrashPoints.end(), rule.point) !=
                kCrashPoints.end(), [&] {
        return cat("fault plan: unknown crash point '", rule.point, "'");
      });
      plan->crashes.push_back(std::move(rule));
      continue;
    }
    const std::size_t eq = body.find('=');
    check(eq != std::string_view::npos, [&] {
      return cat("fault plan: bad item '", std::string(body), "'");
    });
    const int site = site_index(trim(body.substr(0, eq)));
    check(site >= 0, [&] {
      return cat("fault plan: unknown site '", std::string(trim(body.substr(0, eq))), "'");
    });
    for (const std::string& token : split(std::string(body.substr(eq + 1)), ',')) {
      plan->faults[site].push_back(parse_fault(trim(token)));
    }
  }
  plan->rng = Rng(seed);
  return plan;
}

// Decides the fate of one operation at `site`: walks the site's faults in
// plan order, first terminal fault wins; delay faults accumulate and keep
// scanning. `requested` bounds the short-read/short-write cap draw.
Outcome consult(Site site, std::size_t requested) {
  Outcome out;
  int delay_ms = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (g_plan == nullptr) return out;
    for (Fault& fault : g_plan->faults[static_cast<int>(site)]) {
      ++fault.ops_seen;
      if (fault.max_fires >= 0 && fault.fired >= fault.max_fires) continue;
      if (fault.every_nth > 0 && fault.ops_seen % fault.every_nth != 0) continue;
      if (fault.probability >= 0.0 && g_plan->rng.uniform01() >= fault.probability) {
        continue;
      }
      ++fault.fired;
      ++g_fires[static_cast<int>(site)];
      if (fault.kind == Kind::kDelay) {
        delay_ms += fault.delay_ms;
        continue;
      }
      switch (fault.kind) {
        case Kind::kShort:
          out.cap = requested <= 1
                        ? requested
                        : 1 + static_cast<std::size_t>(g_plan->rng.next() %
                                                       (requested - 1));
          break;
        case Kind::kEintr: out.err = EINTR; break;
        case Kind::kEagain: out.err = EAGAIN; break;
        case Kind::kEnospc: out.err = ENOSPC; break;
        case Kind::kEio: out.err = EIO; break;
        case Kind::kTorn: out.torn = true; break;
        case Kind::kDelay: break;  // handled above
      }
      break;  // terminal fault decided this op
    }
  }
  out.delay_ms = delay_ms;
  return out;
}

void apply_delay(const Outcome& out) {
  if (out.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(out.delay_ms));
  }
}

}  // namespace

const char* site_name(Site site) { return kSiteNames[static_cast<int>(site)]; }

void install_plan(const std::string& text) {
  std::unique_ptr<Plan> plan;
  const std::string_view body = trim(text);
  if (!body.empty()) plan = parse_plan(std::string(body));
  std::lock_guard<std::mutex> lock(g_mu);
  g_plan = std::move(plan);
  for (std::int64_t& f : g_fires) f = 0;
}

void install_plan_from_env() {
  const char* text = std::getenv("SRRA_FAULT_PLAN");
  if (text != nullptr && *text != '\0') install_plan(text);
}

void reset() { install_plan(""); }

bool plan_installed() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_plan != nullptr;
}

std::int64_t fires(Site site) {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_fires[static_cast<int>(site)];
}

void crash_point(const char* name) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_plan == nullptr || g_plan->crashes.empty()) return;
  for (CrashRule& rule : g_plan->crashes) {
    if (rule.point != name) continue;
    if (++rule.hits == rule.nth) {
      // No destructors, no atexit, no buffered-stream flushes: the closest
      // deterministic stand-in for losing power mid-write.
      std::_Exit(134);
    }
  }
}

const std::vector<std::string>& registered_crash_points() { return kCrashPoints; }

ssize_t read(Site site, int fd, void* buf, std::size_t count) {
  const Outcome out = consult(site, count);
  apply_delay(out);
  if (out.err != 0) {
    errno = out.err;
    return -1;
  }
  return ::read(fd, buf, std::min(count, out.cap));
}

ssize_t write(Site site, int fd, const void* buf, std::size_t count) {
  const Outcome out = consult(site, count);
  apply_delay(out);
  if (out.err != 0) {
    errno = out.err;
    return -1;
  }
  if (out.torn) {
    // A torn file write claims full success but leaves half the bytes —
    // the silent-corruption shape the store's entry validation must catch.
    const std::size_t half = count <= 1 ? count : count / 2;
    if (::write(fd, buf, half) < 0) return -1;
    return static_cast<ssize_t>(count);
  }
  return ::write(fd, buf, std::min(count, out.cap));
}

ssize_t recv(Site site, int fd, void* buf, std::size_t count, int flags) {
  const Outcome out = consult(site, count);
  apply_delay(out);
  if (out.err != 0) {
    errno = out.err;
    return -1;
  }
  return ::recv(fd, buf, std::min(count, out.cap), flags);
}

ssize_t send(Site site, int fd, const void* buf, std::size_t count, int flags) {
  const Outcome out = consult(site, count);
  apply_delay(out);
  if (out.err != 0) {
    errno = out.err;
    return -1;
  }
  if (out.torn) {
    // A torn frame: half the bytes reach the peer, then the write side
    // closes — the peer must fail cleanly, not hang or misparse.
    const std::size_t half = count <= 1 ? count : count / 2;
    const ssize_t n = ::send(fd, buf, half, flags);
    ::shutdown(fd, SHUT_WR);
    return n;
  }
  return ::send(fd, buf, std::min(count, out.cap), flags);
}

int rename(Site site, const char* from, const char* to) {
  const Outcome out = consult(site, 0);
  apply_delay(out);
  if (out.err != 0) {
    errno = out.err;
    return -1;
  }
  return ::rename(from, to);
}

int fsync(Site site, int fd) {
  const Outcome out = consult(site, 0);
  apply_delay(out);
  if (out.err != 0) {
    errno = out.err;
    return -1;
  }
  return ::fsync(fd);
}

int connect(Site site, int fd, const struct sockaddr* addr, socklen_t len) {
  const Outcome out = consult(site, 0);
  apply_delay(out);
  if (out.err != 0) {
    errno = out.err;
    return -1;
  }
  return ::connect(fd, addr, len);
}

}  // namespace srra::faultio
