// srrad: the batch/streaming allocation service (DESIGN.md §12, §15).
// Serves length-prefixed JSON query frames over a Unix socket, loopback
// TCP, or stdin/stdout, against a persistent on-disk result store that is
// safe to share between several srrad processes.
//
//   srrad --stdio [--store=DIR] [--jobs=N]
//   srrad --socket=/tmp/srrad.sock --store=/var/cache/srrad --jobs=0
//   srrad --tcp=7433 --store=store
//   srrad --store=store --export-manifest
//   srrad --socket=/tmp/b.sock --store=fresh --warm-from=/tmp/a.sock
//
// Query it with `srra client` (see README "Running the service").
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "service/proto.h"
#include "service/server.h"
#include "service/store.h"
#include "support/error.h"
#include "support/faultio.h"
#include "support/str.h"

namespace {

const char kUsage[] =
    "usage: srrad (--stdio | --socket=PATH | --tcp=PORT | --export-manifest)\n"
    "             [flags]\n"
    "\n"
    "flags:\n"
    "  --stdio          serve frames on stdin/stdout (one-shot pipe mode)\n"
    "  --socket=PATH    listen on a Unix domain socket\n"
    "  --tcp=PORT       listen on 127.0.0.1:PORT\n"
    "  --store=DIR      persistent result store directory (default: none,\n"
    "                   in-memory caching only); safe to share between\n"
    "                   several srrad processes\n"
    "  --store-max-entries=N  store eviction cap in entries (default 4096,\n"
    "                   min 1; --store-max is an accepted alias)\n"
    "  --memory-max-entries=N  in-memory payload cache cap in entries\n"
    "                   (default 65536, min 1)\n"
    "  --fsync          fsync every store entry (and its directory) before\n"
    "                   reporting it stored; default off — the store is a\n"
    "                   cache, a lost entry is only a recompute\n"
    "  --jobs=N         compute threads per batch (default 0 = all cores;\n"
    "                   responses are byte-identical for any value)\n"
    "  --read-deadline-ms=N  close a connection stuck mid-frame after N ms\n"
    "                   (default 30000; 0 = never)\n"
    "  --export-manifest  print a deterministic JSON manifest of the store\n"
    "                   (keys, costs, payload hashes, sorted by key) and\n"
    "                   exit; requires --store\n"
    "  --warm-from=ENDPOINT  before serving, stream the peer daemon's\n"
    "                   stored entries (best recompute-cost-per-byte first)\n"
    "                   into this store via paged pull requests; ENDPOINT\n"
    "                   is a socket path or host:port. An unreachable peer\n"
    "                   is a warning — the daemon serves cold, not dead\n"
    "\n"
    "The SRRA_FAULT_PLAN environment variable installs a deterministic\n"
    "fault-injection plan over every I/O edge (DESIGN.md §14) — test and\n"
    "soak tooling only.\n";

long long parse_count(const std::string& text, const char* what, long long min_value) {
  srra::check(!text.empty() && text.size() <= 9 &&
                  text.find_first_not_of("0123456789") == std::string::npos,
              [&] { return srra::cat("bad ", what, " value: ", text); });
  const long long value = std::atoll(text.c_str());
  srra::check(value >= min_value, [&] {
    return srra::cat("bad ", what, " value: ", text, " (must be >= ", min_value, ")");
  });
  return value;
}

// The srrad-manifest/v1 document: every stored entry's key, size, cost and
// payload hash, sorted by key — two stores holding the same entries print
// byte-identical manifests, which is how replication jobs and tests prove a
// warmup actually transferred the peer's bytes. Arrival sequence numbers
// are deliberately absent: they record local history (a warmed store
// receives entries best-score-first), not content.
int export_manifest(const std::string& store_dir) {
  srra::check(!store_dir.empty(), "--export-manifest requires --store=DIR");
  srra::service::ResultStore store(store_dir);
  srra::check(!store.open_failed(),
              [&] { return srra::cat("cannot open store '", store_dir, "'"); });
  std::cout << "{\n  \"schema\": \"srrad-manifest/v1\",\n  \"entries\": [";
  bool first = true;
  for (const srra::service::StoreEntryInfo& row : store.snapshot()) {
    const auto payload = store.get(row.key);
    if (!payload.has_value()) continue;  // dropped as corrupt mid-scan
    std::cout << (first ? "" : ",") << "\n    {\"key\": \"" << row.key
              << "\", \"bytes\": " << row.bytes << ", \"cost\": " << row.cost
              << ", \"hash\": \"" << srra::service::payload_hash(*payload)
              << "\"}";
    first = false;
  }
  std::cout << (first ? "]\n}\n" : "\n  ]\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client hanging up mid-response must surface as a failed write on
  // that connection, never a process-killing SIGPIPE (socket sends already
  // use MSG_NOSIGNAL; this covers the stdio pipe path too).
  std::signal(SIGPIPE, SIG_IGN);

  const std::vector<std::string> args(argv + 1, argv + argc);
  bool stdio = false;
  bool manifest = false;
  std::string socket_path;
  std::string warm_from;
  int tcp_port = 0;
  srra::service::ServerOptions options;
  options.jobs = 0;  // a daemon defaults to all cores; results don't depend on it

  try {
    srra::faultio::install_plan_from_env();
    for (const std::string& arg : args) {
      if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      }
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
      if (name == "--stdio") {
        stdio = true;
      } else if (name == "--socket") {
        srra::check(!value.empty(), "--socket needs a path");
        socket_path = value;
      } else if (name == "--tcp") {
        tcp_port = static_cast<int>(parse_count(value, "--tcp", 1));
      } else if (name == "--store") {
        srra::check(!value.empty(), "--store needs a directory");
        options.store_dir = value;
      } else if (name == "--store-max-entries" || name == "--store-max") {
        options.store_max_entries = parse_count(value, name.c_str(), 1);
      } else if (name == "--memory-max-entries") {
        options.memory_max_entries = parse_count(value, "--memory-max-entries", 1);
      } else if (name == "--fsync") {
        srra::check(value.empty(), "--fsync takes no value");
        options.store_fsync = true;
      } else if (name == "--jobs") {
        options.jobs = static_cast<int>(parse_count(value, "--jobs", 0));
      } else if (name == "--read-deadline-ms") {
        options.read_deadline_ms =
            static_cast<int>(parse_count(value, "--read-deadline-ms", 0));
      } else if (name == "--export-manifest") {
        srra::check(value.empty(), "--export-manifest takes no value");
        manifest = true;
      } else if (name == "--warm-from") {
        srra::check(!value.empty(),
                    "--warm-from needs a peer endpoint (socket path or host:port)");
        warm_from = value;
      } else {
        srra::fail(srra::cat("unknown flag: ", arg));
      }
    }
    if (manifest) {
      srra::check(!stdio && socket_path.empty() && tcp_port == 0 && warm_from.empty(),
                  "--export-manifest runs alone (no serve mode, no --warm-from)");
      return export_manifest(options.store_dir);
    }
    const int modes = static_cast<int>(stdio) + static_cast<int>(!socket_path.empty()) +
                      static_cast<int>(tcp_port != 0);
    if (modes != 1) {
      std::cerr << "error: pick exactly one of --stdio, --socket, --tcp\n\n" << kUsage;
      return 2;
    }

    srra::service::Server server(std::move(options));
    if (!warm_from.empty()) {
      // Best effort by design: a fresh shard whose peer is down should
      // come up cold and compute, not refuse to start.
      try {
        const int adopted = server.warm_from_peer(warm_from);
        std::cerr << "srrad: warmed " << adopted << " entries from " << warm_from
                  << "\n";
      } catch (const srra::Error& e) {
        std::cerr << "srrad: warning: warm-from " << warm_from
                  << " failed, serving cold: " << e.what() << "\n";
      }
    }
    if (stdio) return server.serve_stream(std::cin, std::cout);
    if (!socket_path.empty()) {
      std::cerr << "srrad: listening on " << socket_path << "\n";
      return server.serve_unix(socket_path);
    }
    std::cerr << "srrad: listening on 127.0.0.1:" << tcp_port << "\n";
    return server.serve_tcp(tcp_port);
  } catch (const srra::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
