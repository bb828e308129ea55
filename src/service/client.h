// Blocking srrad client connection: one socket, frames out, frames in.
// Used by the `srra client` subcommand, `srrad --warm-from`, perfbench's
// load threads and test_service.cc / test_fault.cc. For pipe mode there is
// no connection object — clients write request frames to srrad's stdin and
// read response frames from its stdout (`srra client --emit` / `--decode`
// produce and consume exactly those byte streams).
//
// Robustness (DESIGN.md §14): connects, sends and receives all carry
// deadlines, and roundtrips retry with deterministic exponential backoff
// plus seeded jitter. Retrying is safe by construction — a query is a pure
// function of its cache key, so a re-sent request whose first attempt
// already computed is answered from the daemon's store, never recomputed
// (the structural-hash key is the idempotency token). All raw socket I/O
// goes through support/faultio, so fault plans can deterministically
// starve, tear, or stall a client under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace srra::service {

struct ClientOptions {
  /// Deadline for connect() to complete (0 = wait forever).
  int connect_timeout_ms = 5000;
  /// Per-call deadline for one send() or receive() to make progress to
  /// completion (0 = wait forever).
  int io_timeout_ms = 30000;
  /// Extra attempts after a failed roundtrip (0 = fail fast). Each retry
  /// reconnects and re-sends every unanswered request of the batch.
  int retries = 0;
  /// Base backoff before retry k (0-based): backoff_ms << k, plus a seeded
  /// uniform jitter in [0, backoff_ms) — deterministic for a fixed seed.
  int backoff_ms = 20;
  std::uint64_t backoff_seed = 0;
};

/// The exact delay before retry `attempt` (0-based) under `options`:
/// (backoff_ms << attempt) + jitter drawn from the attempt-indexed seeded
/// stream. Exposed so tests pin the schedule.
std::int64_t retry_delay_ms(int attempt, const ClientOptions& options);

class Client {
 public:
  /// Connect to a daemon on a Unix socket / loopback TCP port. Throws
  /// srra::Error when the connection fails (after the connect deadline).
  static Client connect_unix(const std::string& path, ClientOptions options = {});
  static Client connect_tcp(const std::string& host, int port,
                            ClientOptions options = {});
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Writes one request frame. Throws on a broken connection or a send
  /// deadline; does NOT retry (retries need the receive side — use
  /// roundtrip/roundtrip_batch).
  void send(const std::string& payload);

  /// Reads one response frame, blocking up to the I/O deadline. Throws on
  /// EOF, torn framing, or deadline.
  std::string receive();

  /// send + receive, with up to options.retries reconnect-and-resend
  /// attempts under the deterministic backoff schedule.
  std::string roundtrip(const std::string& payload);

  /// Sends every request back-to-back, then collects the responses — the
  /// whole burst tends to land in one server batch, which is how a client
  /// opts into coalescing. On a mid-batch failure, reconnects and re-sends
  /// only the unanswered suffix (answered responses are kept).
  std::vector<std::string> roundtrip_batch(const std::vector<std::string>& payloads);

  /// Retries performed so far (test/bench observability).
  int retries_used() const { return retries_used_; }

 private:
  Client(int fd, ClientOptions options) : fd_(fd), options_(options) {}

  void reconnect();
  void close_fd();

  int fd_ = -1;
  ClientOptions options_;
  std::string buffer_;  ///< bytes received past the last complete frame
  int retries_used_ = 0;
  /// Reconnect identity: kind 0 = unix(path in host_), kind 1 = tcp.
  int endpoint_kind_ = 0;
  std::string host_;
  int port_ = 0;
};

}  // namespace srra::service
