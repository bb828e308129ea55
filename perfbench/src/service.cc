// The three srrad workloads: warm_hits, cold_misses and mixed_churn. One
// process holds the daemon (an in-process Server on a Unix socket in the
// run's own directory) and the load: `lanes` client threads, one
// connection each, closed loop — every client waits for its reply before
// sending the next request, as `srra client` and DSE scripts do.
//
// The untraced pass serves through Server::serve_unix, the production
// loop. The traced pass serves through a copy of that loop in this file
// that times each Server::handle_batch call and records the batch, so the
// server's order of calls can be replayed span by span afterwards.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "dse/space.h"
#include "kernels/kernels.h"
#include "replay.h"
#include "service/client.h"
#include "service/server.h"
#include "stats.h"
#include "support/error.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace {

using srra::Algorithm;
using srra::service::Client;

enum class Kind { kWarm, kCold, kMixed };

// Allocators a generated query may name: the heuristic allocators. The
// trivial feasibility baseline is left out, and so are the optimum
// certifiers DP-RA and BB-RA: one of their queries can cost 10-100 ms on
// the larger kernels, which would make the tail a measure of those rare
// queries alone and unsteady from run to run.
const std::vector<std::pair<const char*, Algorithm>> kAlgorithms = {
    {"fr", Algorithm::kFrRa},   {"pr", Algorithm::kPrRa},       {"cpa", Algorithm::kCpaRa},
    {"ks", Algorithm::kKnapsack}, {"ls", Algorithm::kLinearScan}};

// Transform sequences tried on every builtin kernel: the source nest and the
// single transforms of dse_pareto's axes (interchange, tiles 2/4/8/16 on
// either outer loop, unroll-and-jam 2/4 of the outer loop). The ones illegal
// for a kernel (or needing remainder peeling) are dropped.
const char* const kTransforms[] = {"",       "i(1,0)", "t(0,2)",  "t(0,4)",  "t(0,8)",
                                   "t(0,16)", "t(1,2)", "t(1,4)",  "t(1,8)",  "t(1,16)",
                                   "uj(0,2)", "uj(0,4)"};

// The query mix follows the repo's own traffic. Budgets span the 8..64
// register range of the DSE axis 8:64:8 (bench_service asks for 32 and 64).
// One query in seven is frontier-mode, as in bench_service's query set (per
// kernel: three allocators x two budgets, plus one frontier sweep); a
// frontier's axis is a lo:hi:8 sub-range of 8:64:8.
constexpr double kFrontierShare = 1.0 / 7;
constexpr std::int64_t kMinBudget = 8;
constexpr std::int64_t kMaxBudget = 64;
constexpr std::int64_t kAxisStep = 8;
constexpr double kVariantZipf = 1.0;        // skew over kernel variants (bench_service_multi's)
constexpr double kKeyZipf = 1.0;            // skew over warm/mixed keys
constexpr std::size_t kWarmKeys = 512;      // warm key set (fits the default cache)
constexpr std::size_t kMixedKeys = 1024;    // mixed universe ...
constexpr std::int64_t kMixedMemoryCap = 128;   // ... 8x the memory cache
constexpr std::int64_t kMixedStoreCap = 256;    // ... 4x the store
// Fixes the variant popularity order and the warm/mixed key sets: a run's
// seed drives only its draws, so runs with different seeds measure the
// same workload.
constexpr std::uint64_t kUniverseSeed = 0x5851f42d4c957f2dULL;
constexpr double kColdPoolPerSecond = 1000;  // cold queries drawn at set-up
// A measured run alternates kRounds rounds of timed set-ups with kRounds
// equal segments of the window, and reports the median set-up. The host's
// speed drifts in phases of a second or more; set-ups timed back to back
// land in one phase, and their median moved by a third between two sets
// of runs.
constexpr int kRounds = 8;
constexpr int kSetupsPerRound = 2;      // a prefill's batches finish at their slowest job
constexpr int kColdSetupsPerRound = 4;  // cold set-ups are short, so noisier
// peak_rss_mb is read when the window's kRssRequests-th request completes,
// so runs compare at equal work: the resident set grows by about 1 KB per
// cold request served, and a peak read at the window's end would show a
// faster server as a larger one.
constexpr std::int64_t kRssRequests = 4000;

struct Variant {
  std::string kernel_field;  ///< request "kernel" member
  std::string transforms;    ///< request "transforms" member
  std::string display_name;
  std::string canonical;     ///< canonical transform encoding
  std::uint64_t hash = 0;
  srra::Kernel kernel;       ///< transformed
};

std::vector<Variant> make_variants() {
  std::vector<std::pair<std::string, srra::Kernel>> bases;
  bases.emplace_back("example", srra::kernels::paper_example());
  for (srra::kernels::NamedKernel& nk : srra::kernels::all_kernels()) {
    bases.emplace_back(nk.name, std::move(nk.kernel));
  }
  std::vector<Variant> variants;
  for (const auto& [name, base] : bases) {
    for (const char* transforms : kTransforms) {
      Variant v;
      v.kernel_field = v.display_name = name;
      v.transforms = transforms;
      try {
        if (v.transforms.empty()) {
          v.kernel = base.clone();
        } else {
          const std::vector<srra::LoopTransform> seq = srra::parse_transforms(v.transforms);
          const srra::span<const srra::LoopTransform> view(seq.data(), seq.size());
          v.kernel = srra::transform_for_pipeline(base, view);
          v.canonical = srra::to_string(view);
        }
      } catch (const srra::Error&) {
        continue;  // illegal for this kernel
      }
      v.hash = srra::structural_hash(v.kernel);
      variants.push_back(std::move(v));
    }
  }
  return variants;
}

struct Query {
  std::size_t variant = 0;
  std::size_t algorithm = 0;  ///< index into kAlgorithms
  bool fetch = true;
  bool frontier = false;
  std::int64_t budget = 64;
  std::string budgets;        ///< frontier-mode spec as sent
  std::string payload;        ///< request bytes
  std::string key;            ///< the cache key the server must report
};

Query make_query(const std::vector<Variant>& variants, std::size_t variant,
                 std::size_t algorithm, bool fetch, bool frontier, std::int64_t budget,
                 std::string budgets) {
  const Variant& v = variants[variant];
  Query q{variant, algorithm, fetch, frontier, budget, std::move(budgets), "", ""};
  q.payload = "{\"kernel\": \"" + v.kernel_field + "\", \"transforms\": \"" + v.transforms +
              "\", \"algorithm\": \"" + kAlgorithms[algorithm].first + "\", " +
              (frontier ? "\"mode\": \"frontier\", \"budgets\": \"" + q.budgets + "\""
                        : "\"mode\": \"budget\", \"budget\": " + std::to_string(budget)) +
              ", \"fetch\": " + (fetch ? "true" : "false") + "}";
  srra::service::Request canonical;
  canonical.transforms = v.canonical;
  canonical.algorithm = srra::algorithm_name(kAlgorithms[algorithm].second);
  canonical.frontier = frontier;
  canonical.budget = budget;
  canonical.fetch = fetch;
  if (frontier) canonical.budgets = join_ints(srra::dse::parse_budget_spec(q.budgets));
  q.key = srra::service::cache_key(v.hash, v.display_name, canonical);
  return q;
}

/// Seeded query stream: Zipf over kernel variants, uniform over algorithm x
/// budget x fetch, a share in frontier mode. draw_unique() never repeats a
/// cache key. The variants' popularity order is fixed (kUniverseSeed), so
/// every run seed sees the same mix and only the draws change.
class QueryGen {
 public:
  QueryGen(const std::vector<Variant>& variants, std::uint64_t seed)
      : variants_(variants), rng_(seed), zipf_(variants.size(), kVariantZipf) {
    Rng order(kUniverseSeed);
    rank_ = permutation(variants.size(), order);
  }

  Query draw() {
    const std::size_t variant = rank_[zipf_.draw(rng_)];
    const auto algorithm = static_cast<std::size_t>(
        rng_.range(0, static_cast<std::int64_t>(kAlgorithms.size()) - 1));
    const bool fetch = rng_.range(0, 1) == 1;
    if (rng_.unit() < kFrontierShare) {
      // Two distinct points of the axis, uniform over the pairs.
      constexpr std::int64_t kPoints = (kMaxBudget - kMinBudget) / kAxisStep + 1;
      const std::int64_t a = rng_.range(0, kPoints - 1);
      std::int64_t b = rng_.range(0, kPoints - 2);
      if (b >= a) ++b;
      const std::string spec = std::to_string(kMinBudget + std::min(a, b) * kAxisStep) + ":" +
                               std::to_string(kMinBudget + std::max(a, b) * kAxisStep) + ":" +
                               std::to_string(kAxisStep);
      return make_query(variants_, variant, algorithm, fetch, true, kMaxBudget, spec);
    }
    return make_query(variants_, variant, algorithm, fetch, false,
                      rng_.range(kMinBudget, kMaxBudget), "");
  }

  Query draw_unique() {
    for (int attempt = 0; attempt < 100000; ++attempt) {
      Query q = draw();
      if (seen_.insert(q.key).second) return q;
    }
    throw std::runtime_error("query universe exhausted");
  }

 private:
  const std::vector<Variant>& variants_;
  Rng rng_;
  Zipf zipf_;
  std::vector<std::size_t> rank_;
  std::unordered_set<std::string> seen_;
};

// ------------------------------------------------------------------ oracle

std::string oracle_payload(const std::vector<Variant>& variants, const Query& q) {
  const Variant& v = variants[q.variant];
  const srra::RefModel model(v.kernel.clone());
  srra::service::QueryInput input;
  input.kernel_name = v.display_name;
  input.transforms = v.canonical;
  input.kernel_hash = v.hash;
  input.algorithm = kAlgorithms[q.algorithm].second;
  input.fetch = q.fetch;
  input.frontier = q.frontier;
  input.budget = q.budget;
  if (q.frontier) input.budgets = srra::dse::parse_budget_spec(q.budgets);
  return srra::service::query_payload(srra::service::evaluate_query(model, input));
}

std::string envelope(const Query& q, const char* status, const std::string& payload) {
  srra::service::ResponseMeta meta;
  meta.cache_status = status;
  meta.key = q.key;
  return srra::service::make_query_response(meta, payload);
}

// ------------------------------------------------------------------ daemon

bool send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
    } else {
      return false;
    }
  }
  return true;
}

/// One handle_batch call of the traced serve loop.
struct BatchRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::size_t, std::int64_t>> frames;  ///< (connection, ordinal)
  std::vector<std::string> payloads;
};

Client connect(const std::string& socket) {
  for (int attempt = 0;; ++attempt) {
    try {
      return Client::connect_unix(socket);
    } catch (const srra::Error&) {
      if (attempt >= 2500) throw;  // ~5 s for the serve thread to bind
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

class Daemon {
 public:
  Daemon(srra::service::ServerOptions options, std::string socket, bool traced)
      : server_(std::move(options)), socket_(std::move(socket)) {
    if (!traced) {
      thread_ = std::thread([this] { guard([this] { server_.serve_unix(socket_); }); });
      return;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    srra::check(fd >= 0 && socket_.size() < sizeof addr.sun_path, "socket setup failed");
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 64) != 0 || ::fcntl(fd, F_SETFL, O_NONBLOCK) != 0) {
      ::close(fd);
      srra::fail(std::string("cannot listen on ") + socket_ + ": " + std::strerror(errno));
    }
    thread_ = std::thread([this, fd] { guard([this, fd] { serve_traced(fd); }); });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sends the shutdown op and joins the serve thread (idempotent).
  void stop() {
    if (!thread_.joinable()) return;
    try {
      connect(socket_).roundtrip("{\"op\": \"shutdown\"}");
    } catch (const std::exception& e) {
      error_ = std::string("shutdown failed: ") + e.what();
    }
    thread_.join();
  }

  /// The traced loop's batch records; valid after stop().
  std::vector<BatchRecord> take_batches() { return std::move(batches_); }
  const std::string& error() const { return error_; }
  const std::string& socket() const { return socket_; }

 private:
  template <class Fn>
  void guard(Fn fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  // Server::serve_fd's shape: one readiness sweep over every connection
  // builds one batch; responses go back in request order.
  void serve_traced(int listen_fd) {
    struct Conn {
      int fd = -1;
      std::string buffer;
      std::int64_t frames = 0;
      bool open = true;
    };
    std::vector<Conn> conns;
    while (!server_.shutdown_requested()) {
      std::vector<pollfd> fds{{listen_fd, POLLIN, 0}};
      std::vector<std::size_t> polled;
      for (std::size_t k = 0; k < conns.size(); ++k) {
        if (!conns[k].open) continue;
        fds.push_back({conns[k].fd, POLLIN, 0});
        polled.push_back(k);
      }
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[0].revents & POLLIN) {
        for (int fd; (fd = ::accept(listen_fd, nullptr, nullptr)) >= 0;) {
          ::fcntl(fd, F_SETFL, O_NONBLOCK);
          conns.push_back(Conn{fd, "", 0, true});
        }
      }
      for (std::size_t p = 0; p < polled.size(); ++p) {
        if (!(fds[p + 1].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Conn& conn = conns[polled[p]];
        for (;;) {
          char chunk[65536];
          const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
          if (n > 0) {
            conn.buffer.append(chunk, static_cast<std::size_t>(n));
          } else if (n < 0 && errno == EINTR) {
            continue;
          } else {
            if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) conn.open = false;
            break;
          }
        }
      }
      BatchRecord record;
      for (std::size_t k = 0; k < conns.size(); ++k) {
        std::string payload;
        while (srra::service::extract_frame(conns[k].buffer, payload) == 1) {
          record.frames.emplace_back(k, conns[k].frames++);
          record.payloads.push_back(std::move(payload));
        }
      }
      if (record.payloads.empty()) continue;
      record.start_ns = now_ns();
      const std::vector<std::string> responses = server_.handle_batch(record.payloads);
      record.end_ns = now_ns();
      for (std::size_t b = 0; b < responses.size(); ++b) {
        std::ostringstream frame;
        srra::service::write_frame(frame, responses[b]);
        Conn& conn = conns[record.frames[b].first];
        if (conn.open && !send_all(conn.fd, frame.str())) conn.open = false;
      }
      batches_.push_back(std::move(record));
    }
    for (const Conn& conn : conns) ::close(conn.fd);
    ::close(listen_fd);
    ::unlink(socket_.c_str());
  }

  srra::service::Server server_;
  std::string socket_;
  std::vector<BatchRecord> batches_;
  std::string error_;
  std::thread thread_;  // last: uses every member above
};

// --------------------------------------------------------------- one setup

/// Everything set up before the timed window: inputs, daemon, clients,
/// and (warm/mixed) a filled cache.
struct Setup {
  std::vector<Variant> variants;
  std::vector<Query> keys;            ///< warm/mixed key set, in Zipf rank order
  std::vector<std::string> recorded;  ///< warm: the hit envelope of each key
  std::unique_ptr<QueryGen> cold;     ///< cold: the never-repeating stream
  std::mutex cold_mu;
  std::vector<Query> cold_queries;    ///< cold: the stream drawn so far
  std::size_t cold_next = 0;          ///< cold: next stream index to send
  std::unique_ptr<Daemon> daemon;
  std::vector<Client> clients;
  std::vector<std::int64_t> frames_sent;  ///< per client connection
  std::int64_t memory_cap = 0;
  std::int64_t store_cap = 0;
  std::atomic<std::int64_t> completed{0};  ///< window requests answered
  double rss_at_count_mb = 0;              ///< peak when kRssRequests were answered

  std::vector<std::string> batch(std::size_t client, const std::vector<std::string>& payloads) {
    frames_sent[client] += static_cast<std::int64_t>(payloads.size());
    return clients[client].roundtrip_batch(payloads);
  }
  std::string roundtrip(std::size_t client, const std::string& payload) {
    ++frames_sent[client];
    return clients[client].roundtrip(payload);
  }
};

std::unique_ptr<Setup> make_setup(Kind kind, const RunConfig& config, bool traced,
                                  const std::string& dir) {
  auto s = std::make_unique<Setup>();
  s->variants = make_variants();
  if (kind == Kind::kCold) {
    // Pre-drawn stream prefix; the loop extends it if a fast build uses it up.
    s->cold = std::make_unique<QueryGen>(s->variants, stream_seed(config.seed, 1));
    const auto pool = static_cast<std::size_t>(config.seconds * kColdPoolPerSecond);
    for (std::size_t i = 0; i < pool; ++i) s->cold_queries.push_back(s->cold->draw_unique());
  } else {
    QueryGen gen(s->variants, kUniverseSeed);
    const std::size_t n = kind == Kind::kWarm ? kWarmKeys : kMixedKeys;
    for (std::size_t i = 0; i < n; ++i) s->keys.push_back(gen.draw_unique());
  }

  srra::service::ServerOptions options;
  options.jobs = config.lanes;
  options.store_dir = dir + "/store";
  if (kind == Kind::kMixed) {
    options.memory_max_entries = kMixedMemoryCap;
    options.store_max_entries = kMixedStoreCap;
  }
  s->memory_cap = options.memory_max_entries;
  s->store_cap = options.store_max_entries;
  s->daemon = std::make_unique<Daemon>(options, dir + "/srrad.sock", traced);
  for (int k = 0; k < config.clients; ++k) {
    s->clients.push_back(connect(s->daemon->socket()));
    s->frames_sent.push_back(0);
  }

  const auto payloads_of = [&](std::size_t begin, std::size_t end, bool reverse) {
    std::vector<std::string> out;
    for (std::size_t i = begin; i < end; ++i) {
      out.push_back(s->keys[reverse ? end - 1 - (i - begin) : i].payload);
    }
    return out;
  };
  constexpr std::size_t kChunk = 64;
  if (kind == Kind::kWarm) {
    // Fill, then record each key's hit envelope.
    for (std::size_t i = 0; i < s->keys.size(); i += kChunk) {
      s->batch(0, payloads_of(i, std::min(i + kChunk, s->keys.size()), false));
    }
    for (std::size_t i = 0; i < s->keys.size(); i += kChunk) {
      for (std::string& r : s->batch(0, payloads_of(i, std::min(i + kChunk, s->keys.size()), false))) {
        s->recorded.push_back(std::move(r));
      }
    }
  } else if (kind == Kind::kMixed) {
    // Least popular first, so the hottest keys end up cached.
    const std::size_t fill = 2 * static_cast<std::size_t>(kMixedStoreCap);
    for (std::size_t end = fill; end > 0; end -= std::min(end, kChunk)) {
      s->batch(0, payloads_of(end - std::min(end, kChunk), end, true));
    }
  }
  return s;
}

void teardown(Setup& s) {
  s.clients.clear();
  s.daemon->stop();
}

// ------------------------------------------------------------------ window

struct Sample {
  std::size_t query = 0;    ///< key index (warm/mixed) or cold stream index
  std::int64_t ordinal = 0; ///< frame number on its connection
  std::int64_t t0 = 0;      ///< before roundtrip
  std::int64_t t1 = 0;      ///< after roundtrip
  std::int64_t t2 = 0;      ///< after the traced parse_json
  std::uint64_t digest = 0;
  std::size_t bytes = 0;
  std::int64_t rows = 0;    ///< design points the response carries
  bool hit = false;
};

struct ClientLog {
  Rng rng{0};  ///< the client's key draws, continued from segment to segment
  std::vector<Sample> samples;
  std::int64_t errors = 0;      ///< client deadline / connection failures
  std::int64_t mismatches = 0;  ///< warm responses differing from the record
  std::string error;
};

bool is_hit(const std::string& response) {
  return std::string_view(response).substr(0, 200).find("\"status\": \"hit\"") !=
         std::string_view::npos;
}

void client_loop(Kind kind, Setup& s, std::size_t k, bool traced, std::int64_t deadline,
                 ClientLog& log) {
  const Zipf zipf(std::max<std::size_t>(s.keys.size(), 1), kKeyZipf);
  std::string payload;
  while (now_ns() < deadline) {
    Sample sample;
    if (kind == Kind::kCold) {
      const std::lock_guard<std::mutex> lock(s.cold_mu);
      sample.query = s.cold_next++;
      if (sample.query == s.cold_queries.size()) s.cold_queries.push_back(s.cold->draw_unique());
      payload = s.cold_queries[sample.query].payload;
    } else {
      sample.query = zipf.draw(log.rng);
      payload = s.keys[sample.query].payload;
    }
    sample.ordinal = s.frames_sent[k]++;
    std::string response;
    sample.t0 = now_ns();
    try {
      response = s.clients[k].roundtrip(payload);
    } catch (const std::exception& e) {
      ++log.errors;
      log.error = e.what();
      return;
    }
    sample.t1 = now_ns();
    if (traced) srra::parse_json(response);
    sample.t2 = now_ns();
    sample.bytes = response.size();
    sample.hit = is_hit(response);
    for (std::size_t pos = 0; (pos = response.find("\"exec_cycles\"", pos)) != std::string::npos;
         ++pos) {
      ++sample.rows;
    }
    if (kind == Kind::kWarm) {
      if (response != s.recorded[sample.query]) ++log.mismatches;
    } else {
      sample.digest = digest(response);
    }
    log.samples.push_back(sample);
    if (++s.completed == kRssRequests) s.rss_at_count_mb = peak_rss_mb();
  }
}

struct Pass {
  std::vector<ClientLog> logs;       ///< one per client
  std::int64_t window_ns = 0;        ///< summed over the window's segments
  std::vector<double> latencies_us;  ///< sorted; filled by finish()
};

/// Runs one segment of the window: every client, closed loop, for
/// `seconds`. The segment lasts until its last reply.
void measure(Kind kind, Setup& s, double seconds, bool traced, Pass& pass) {
  std::vector<std::size_t> before;
  for (const ClientLog& log : pass.logs) before.push_back(log.samples.size());
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < s.clients.size(); ++k) {
    threads.emplace_back(client_loop, kind, std::ref(s), k, traced, deadline,
                         std::ref(pass.logs[k]));
  }
  for (std::thread& t : threads) t.join();
  std::int64_t end = start;
  for (std::size_t k = 0; k < pass.logs.size(); ++k) {
    for (std::size_t i = before[k]; i < pass.logs[k].samples.size(); ++i) {
      end = std::max(end, pass.logs[k].samples[i].t1);
    }
  }
  pass.window_ns += end - start;
}

void finish(Pass& pass) {
  for (const ClientLog& log : pass.logs) {
    for (const Sample& sample : log.samples) {
      pass.latencies_us.push_back(static_cast<double>(sample.t1 - sample.t0) / 1e3);
    }
  }
  std::sort(pass.latencies_us.begin(), pass.latencies_us.end());
}

/// The daemon's health counters, read over the wire.
std::map<std::string, double> health(Setup& s) {
  const srra::JsonValue doc = srra::parse_json(s.roundtrip(0, "{\"op\": \"health\"}"));
  std::map<std::string, double> out;
  if (const srra::JsonValue* h = doc.find("health")) {
    for (const auto& [name, value] : h->members()) {
      if (value.is_number()) out[name] = value.as_double();
    }
  }
  return out;
}

// ----------------------------------------------------------------- oracles

/// Byte-checks every response of the pass against the in-process reference
/// (query_payload(evaluate_query(...)) inside the envelope for its key).
void verify(Kind kind, Setup& s, const Pass& pass, int lanes, RunResult& result) {
  std::int64_t errors = 0, mismatches = 0, samples = 0;
  for (const ClientLog& log : pass.logs) {
    errors += log.errors;
    mismatches += log.mismatches;
    samples += static_cast<std::int64_t>(log.samples.size());
    if (!log.error.empty()) result.mismatch("client error: " + log.error);
  }
  result.attempted += samples + errors;

  srra::ThreadPool pool(lanes);
  if (kind == Kind::kWarm) {
    // The recorded envelopes themselves against the reference.
    std::atomic<std::int64_t> bad{0};
    pool.parallel_for(static_cast<std::int64_t>(s.keys.size()), [&](std::int64_t i) {
      const Query& q = s.keys[static_cast<std::size_t>(i)];
      if (s.recorded[static_cast<std::size_t>(i)] !=
          envelope(q, "hit", oracle_payload(s.variants, q))) {
        ++bad;
      }
    });
    if (bad > 0) result.mismatch(std::to_string(bad.load()) + " recorded warm envelopes");
  } else {
    // Reference digests per distinct query, then every sample against them.
    const std::vector<Query>& queries = kind == Kind::kCold ? s.cold_queries : s.keys;
    std::vector<char> used(queries.size(), 0);
    for (const ClientLog& log : pass.logs) {
      for (const Sample& sample : log.samples) used[sample.query] = 1;
    }
    std::vector<std::uint64_t> hit_digest(queries.size()), miss_digest(queries.size());
    pool.parallel_for(static_cast<std::int64_t>(queries.size()), [&](std::int64_t n) {
      const auto i = static_cast<std::size_t>(n);
      if (!used[i]) return;
      const std::string payload = oracle_payload(s.variants, queries[i]);
      hit_digest[i] = digest(envelope(queries[i], "hit", payload));
      miss_digest[i] = digest(envelope(queries[i], "miss", payload));
    });
    for (const ClientLog& log : pass.logs) {
      for (const Sample& sample : log.samples) {
        const bool cold_hit = kind == Kind::kCold && sample.hit;
        const std::uint64_t want =
            sample.hit ? hit_digest[sample.query] : miss_digest[sample.query];
        if (cold_hit || sample.digest != want) ++mismatches;
      }
    }
  }
  if (mismatches > 0) result.mismatch(std::to_string(mismatches) + " responses");
  result.failed += errors + mismatches;
}

/// The paper's quality metric as the service answers it: frontier queries
/// for every Table-1 kernel and paper allocator (budgets 8..64 step 8),
/// reduced to the geomean over kernel x {8,16,32,64} of the least exec
/// cycles among returned designs within the budget. Payloads are checked
/// against the reference too.
double probe_quality(Setup& s, RunResult& result) {
  std::vector<Query> probes;
  for (const srra::kernels::NamedKernel& nk : srra::kernels::table1_kernels()) {
    std::size_t variant = 0;
    while (variant < s.variants.size() && (s.variants[variant].kernel_field != nk.name ||
                                           !s.variants[variant].transforms.empty())) {
      ++variant;
    }
    srra::check(variant < s.variants.size(), "probe kernel " + nk.name + " has no variant");
    for (std::size_t a = 0; a < 3; ++a) {  // fr, pr, cpa
      probes.push_back(make_query(s.variants, variant, a, true, true, 64, "8:64:8"));
    }
  }
  std::vector<std::string> payloads;
  for (const Query& q : probes) payloads.push_back(q.payload);
  const std::vector<std::string> responses = s.batch(0, payloads);
  result.attempted += static_cast<std::int64_t>(probes.size());

  std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>> points;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::string payload = oracle_payload(s.variants, probes[i]);
    if (responses[i] != envelope(probes[i], "miss", payload) &&
        responses[i] != envelope(probes[i], "hit", payload)) {
      ++result.failed;
      result.mismatch("quality probe " + probes[i].payload);
      continue;
    }
    const srra::JsonValue doc = srra::parse_json(responses[i]);
    for (const srra::JsonValue& p : doc.find("query")->find("points")->items()) {
      points[s.variants[probes[i].variant].display_name].emplace_back(
          p.find("registers")->as_int(), p.find("exec_cycles")->as_int());
    }
  }
  return frontier_geomean(points);
}

// ------------------------------------------------------------------ passes

struct PassOutcome {
  Pass pass;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double quality = 0;
  std::map<std::string, double> health_before, health_after;
  std::vector<BatchRecord> batches;
  std::unique_ptr<Setup> setup;
};

/// Runs `rounds` rounds, each `setups_per_round` timed set-ups and then one
/// segment of the window. The first round's last set-up serves the whole
/// window; later rounds' set-ups are torn down before their segment, and
/// the peak restarts at every segment, so it never covers a set-up.
PassOutcome run_pass(Kind kind, const RunConfig& config, bool traced, int rounds,
                     int setups_per_round, const std::string& tag, RunResult& result) {
  PassOutcome out;
  std::vector<double> setup_times;
  const auto setup_round = [&](int round) {
    std::unique_ptr<Setup> setup;
    for (int i = 0; i < setups_per_round; ++i) {
      if (setup) {
        teardown(*setup);
        setup.reset();  // one spare set-up alive at a time
      }
      const std::string dir = tag + std::to_string(round) + "." + std::to_string(i);
      std::filesystem::create_directories(dir);
      const std::int64_t t0 = now_ns();
      setup = make_setup(kind, config, traced, dir);
      setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return setup;
  };
  out.setup = setup_round(0);
  Setup& s = *out.setup;
  if (traced) out.health_before = health(s);
  out.pass.logs.resize(s.clients.size());
  for (std::size_t k = 0; k < s.clients.size(); ++k) {
    out.pass.logs[k].rng = Rng(stream_seed(config.seed, 100 + k));
  }
  bool reset = true;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      const std::unique_ptr<Setup> spare = setup_round(round);
      teardown(*spare);
    }
    reset = reset_peak_rss() && reset;
    measure(kind, s, config.seconds / rounds, traced, out.pass);
  }
  finish(out.pass);
  out.setup_s = median(setup_times);
  if (!reset) result.notes.push_back("peak_rss_mb includes set-up: no peak reset");
  out.peak_rss_mb = s.rss_at_count_mb;
  if (out.peak_rss_mb == 0) {
    out.peak_rss_mb = peak_rss_mb();
    result.notes.push_back("peak_rss_mb read at the window's end: fewer than " +
                           std::to_string(kRssRequests) + " requests");
  }
  if (traced) out.health_after = health(s);
  out.quality = probe_quality(s, result);
  teardown(s);
  if (!s.daemon->error().empty()) result.mismatch("daemon: " + s.daemon->error());
  out.batches = s.daemon->take_batches();
  verify(kind, s, out.pass, config.lanes, result);
  return out;
}

// --------------------------------------------------------------- per layer

/// Builds the traced pass's spans (live client/server records, then the
/// replay of every recorded batch) and turns them into per-layer metrics.
void per_layer(PassOutcome& traced, double untraced_p50, const RunConfig& config,
               RunResult& result) {
  Setup& s = *traced.setup;
  Trace trace;
  std::map<std::pair<std::size_t, std::int64_t>, std::size_t> batch_of;
  for (std::size_t b = 0; b < traced.batches.size(); ++b) {
    for (const auto& frame : traced.batches[b].frames) batch_of[frame] = b;
  }
  std::map<std::pair<std::size_t, std::int64_t>, Tap> taps;
  std::map<std::pair<std::size_t, std::int64_t>, bool> live_hit;  ///< the server's answer
  std::int64_t request = 0, response_bytes = 0;
  for (std::size_t k = 0; k < traced.pass.logs.size(); ++k) {
    for (const Sample& sample : traced.pass.logs[k].samples) {
      const int root = trace.add("request", sample.t0, sample.t2, -1, request);
      const int rt = trace.add("client.roundtrip", sample.t0, sample.t1, root, request);
      const auto b = batch_of.find({k, sample.ordinal});
      if (b != batch_of.end()) {
        const BatchRecord& batch = traced.batches[b->second];
        trace.add("server.handle_batch", batch.start_ns, batch.end_ns, rt, request);
      }
      trace.add("json.parse_response", sample.t1, sample.t2, root, request);
      taps[{k, sample.ordinal}] = Tap{&trace, root, request};
      live_hit[{k, sample.ordinal}] = sample.hit;
      response_bytes += static_cast<std::int64_t>(sample.bytes);
      ++request;
    }
  }

  // The replica re-implements the server's batch logic, so it is checked
  // against the live run: every traced request must get the server's hit or
  // miss, and the totals must match the server's health counters.
  ServiceReplica replica("replica-store", s.store_cap, s.memory_cap);
  double batch_ns = 0, batch_frames = 0, window_batches = 0;
  std::int64_t disagreements = 0;
  for (const BatchRecord& batch : traced.batches) {
    std::vector<Tap> batch_taps;
    bool in_window = false;
    for (const auto& frame : batch.frames) {
      const auto t = taps.find(frame);
      batch_taps.push_back(t == taps.end() ? Tap{} : t->second);
      in_window = in_window || t != taps.end();
    }
    if (in_window) {
      batch_ns += static_cast<double>(batch.end_ns - batch.start_ns);
      batch_frames += static_cast<double>(batch.frames.size());
      ++window_batches;
    }
    const std::vector<bool> hits = replica.replay_batch(batch.payloads, batch_taps);
    for (std::size_t f = 0; f < batch.frames.size(); ++f) {
      const auto live = live_hit.find(batch.frames[f]);
      if (live != live_hit.end() && live->second != hits[f]) ++disagreements;
    }
  }
  const auto delta = [&](const char* name) {
    return traced.health_after[name] - traced.health_before[name];
  };
  if (disagreements > 0) {
    result.mismatch("replica and server disagree on hit/miss for " +
                    std::to_string(disagreements) + " requests");
  }
  if (static_cast<double>(replica.memory_hits + replica.store_hits) != delta("hits") ||
      static_cast<double>(replica.computed_jobs) != delta("computed")) {
    result.mismatch("replica hits/computed " +
                    std::to_string(replica.memory_hits + replica.store_hits) + "/" +
                    std::to_string(replica.computed_jobs) + ", server " +
                    std::to_string(delta("hits")) + "/" + std::to_string(delta("computed")));
  }

  const std::filesystem::path dump =
      std::filesystem::path(config.out_dir) / (config.workload + ".spans.tsv");
  std::ofstream os(dump);
  trace.write_tsv(os);

  const std::map<std::string, LayerTime> layers = by_name(trace.spans());
  const double requests = static_cast<double>(std::max<std::int64_t>(request, 1));
  const double looked_up = delta("hits") + delta("misses");

  std::map<std::string, double> values;
  values["client.wire_self_us"] = mean_self_us(layers, "client.roundtrip");
  values["server.handle_batch_us"] = window_batches > 0 ? batch_ns / 1e3 / window_batches : 0;
  values["server.batch_size"] = window_batches > 0 ? batch_frames / window_batches : 0;
  values["server.coalesced"] = delta("coalesced");
  values["cache.hit_frac"] = looked_up > 0 ? delta("hits") / looked_up : 0;
  values["cache.store_hit_frac"] =
      replica.lookups > 0
          ? static_cast<double>(replica.store_hits) / static_cast<double>(replica.lookups)
          : 0;
  values["cache.computed"] = delta("computed");
  values["json.response_bytes"] = static_cast<double>(response_bytes) / requests;
  values["store.evictions"] = delta("store_evictions");
  values["trace.overhead_us"] =
      traced.pass.latencies_us.empty() ? 0
                                       : quantile(traced.pass.latencies_us, 0.5) - untraced_p50;
  values["trace.requests"] = static_cast<double>(request);
  emit_per_layer(layers, values, result);
}

}  // namespace

// ------------------------------------------------------------------- entry

void run_service_workload(const RunConfig& config, RunResult& result) {
  const Kind kind = config.workload == "warm_hits"     ? Kind::kWarm
                    : config.workload == "cold_misses" ? Kind::kCold
                                                       : Kind::kMixed;
  if (!config.trace) {
    PassOutcome out =
        run_pass(kind, config, /*traced=*/false, kRounds,
                 kind == Kind::kCold ? kColdSetupsPerRound : kSetupsPerRound, "setup", result);
    const std::vector<double>& lat = out.pass.latencies_us;
    if (!tail_is_resolved(lat.size(), 0.99)) {
      result.mismatch("only " + std::to_string(lat.size()) +
                      " samples: fewer than 10 lie beyond p99");
      return;
    }
    const double window_s = static_cast<double>(out.pass.window_ns) / 1e9;
    std::int64_t rows = 0;
    for (const ClientLog& log : out.pass.logs) {
      for (const Sample& sample : log.samples) rows += sample.rows;
    }
    result.add("setup_s", out.setup_s, "s");
    result.add("req_per_s", static_cast<double>(lat.size()) / window_s, "1/s");
    result.add("latency_p50_us", quantile(lat, 0.5), "us");
    result.add("latency_p99_us", quantile(lat, 0.99), "us");
    result.add("peak_rss_mb", out.peak_rss_mb, "MB");
    result.add("points_per_s", static_cast<double>(rows) / window_s, "1/s");
    result.add("frontier_cycles_geomean", out.quality, "cycles");
    result.notes.push_back("kernel variants " + std::to_string(out.setup->variants.size()) +
                           ", samples " + std::to_string(lat.size()) + " (beyond p99 " +
                           std::to_string(samples_beyond(lat.size(), 0.99)) + "), window " +
                           std::to_string(window_s) + " s, " + std::to_string(config.clients) +
                           " clients");
    return;
  }
  // Both passes get half the window, so a traced run lasts as long as a
  // measured one.
  RunConfig half = config;
  half.seconds = config.seconds / 2;
  PassOutcome base = run_pass(kind, half, /*traced=*/false, 1, 1, "base", result);
  const double base_p50 =
      base.pass.latencies_us.empty() ? 0 : quantile(base.pass.latencies_us, 0.5);
  base.setup.reset();
  PassOutcome traced = run_pass(kind, half, /*traced=*/true, 1, 1, "traced", result);
  per_layer(traced, base_p50, config, result);
}

}  // namespace perfbench
