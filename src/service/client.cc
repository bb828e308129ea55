#include "service/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "service/proto.h"
#include "support/error.h"
#include "support/faultio.h"
#include "support/rng.h"
#include "support/str.h"

namespace srra::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Absolute deadline for one logical operation; timeout_ms == 0 waits
/// forever.
Clock::time_point deadline_from(int timeout_ms) {
  if (timeout_ms <= 0) return Clock::time_point::max();
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Remaining poll() timeout: -1 = forever, 0 = already expired.
int poll_timeout(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return -1;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  if (left <= 0) return 0;
  return left > 60000 ? 60000 : static_cast<int>(left);
}

/// Waits for `events` (POLLIN/POLLOUT) on fd up to the deadline. Throws on
/// deadline expiry; returns normally when the fd is ready (or has an
/// error/hangup pending — the following I/O call reports it precisely).
void wait_ready(int fd, short events, Clock::time_point deadline, const char* doing) {
  for (;;) {
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int timeout = poll_timeout(deadline);
    check(timeout != 0, [&] { return cat("srrad client deadline exceeded while ", doing); });
    const int rc = ::poll(&p, 1, timeout);
    if (rc > 0) return;
    if (rc == 0) fail(cat("srrad client deadline exceeded while ", doing));
    if (errno == EINTR) continue;
    fail(cat("poll() while ", doing, ": ", std::strerror(errno)));
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  check(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0, [&] {
    return cat("fcntl(O_NONBLOCK): ", std::strerror(errno));
  });
}

/// Non-blocking connect with a deadline: initiate, poll for writability,
/// then read SO_ERROR for the actual outcome. The socket stays non-blocking
/// for the client's deadline-driven send/receive loops. EINTR/EAGAIN from
/// connect() (real or injected) retry the initiation within the deadline.
int dial(int fd, const sockaddr* addr, socklen_t len, const ClientOptions& options,
         const std::string& where) {
  set_nonblocking(fd);
  const Clock::time_point deadline = deadline_from(options.connect_timeout_ms);
  for (;;) {
    if (faultio::connect(faultio::Site::kClientConnect, fd, addr, len) == 0) return fd;
    if (errno == EINPROGRESS || errno == EALREADY) break;
    if (errno == EISCONN) return fd;
    if (errno == EINTR || errno == EAGAIN) {
      const int timeout = poll_timeout(deadline);
      if (timeout == 0) {
        ::close(fd);
        fail(cat("cannot connect to srrad at ", where, ": deadline exceeded"));
      }
      continue;
    }
    const std::string why = std::strerror(errno);
    ::close(fd);
    fail(cat("cannot connect to srrad at ", where, ": ", why));
  }
  try {
    wait_ready(fd, POLLOUT, deadline, "connecting");
  } catch (const Error&) {
    ::close(fd);
    fail(cat("cannot connect to srrad at ", where, ": deadline exceeded"));
  }
  int err = 0;
  socklen_t err_len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) err = errno;
  if (err != 0) {
    ::close(fd);
    fail(cat("cannot connect to srrad at ", where, ": ", std::strerror(err)));
  }
  return fd;
}

int dial_unix(const std::string& path, const ClientOptions& options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  check(path.size() < sizeof addr.sun_path, [&] {
    return cat("socket path too long (max ", sizeof addr.sun_path - 1, "): ", path);
  });
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  check(fd >= 0, [&] { return cat("socket(): ", std::strerror(errno)); });
  return dial(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr, options,
              cat("'", path, "'"));
}

int dial_tcp(const std::string& host, int port, const ClientOptions& options) {
  check(port > 0 && port < 65536, [&] { return cat("bad TCP port: ", port); });
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &found);
  check(rc == 0 && found != nullptr, [&] {
    return cat("cannot resolve '", host, "': ", ::gai_strerror(rc));
  });
  const int fd = ::socket(found->ai_family, found->ai_socktype, found->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(found);
    fail(cat("socket(): ", std::strerror(errno)));
  }
  try {
    dial(fd, found->ai_addr, found->ai_addrlen, options, cat(host, ":", port));
  } catch (...) {
    ::freeaddrinfo(found);
    throw;
  }
  ::freeaddrinfo(found);
  return fd;
}

}  // namespace

std::int64_t retry_delay_ms(int attempt, const ClientOptions& options) {
  if (options.backoff_ms <= 0) return 0;
  const int shift = attempt < 20 ? attempt : 20;  // cap the exponent
  // One jitter stream per attempt index: retry k's delay never depends on
  // how many draws earlier attempts made, so schedules are pinnable.
  Rng rng(options.backoff_seed ^
          (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(attempt + 1)));
  const std::int64_t jitter =
      static_cast<std::int64_t>(rng.next() % static_cast<std::uint64_t>(options.backoff_ms));
  return (static_cast<std::int64_t>(options.backoff_ms) << shift) + jitter;
}

Client Client::connect_unix(const std::string& path, ClientOptions options) {
  Client client(dial_unix(path, options), options);
  client.endpoint_kind_ = 0;
  client.host_ = path;
  return client;
}

Client Client::connect_tcp(const std::string& host, int port, ClientOptions options) {
  Client client(dial_tcp(host, port, options), options);
  client.endpoint_kind_ = 1;
  client.host_ = host;
  client.port_ = port;
  return client;
}

Client::~Client() { close_fd(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      buffer_(std::move(other.buffer_)),
      retries_used_(other.retries_used_),
      endpoint_kind_(other.endpoint_kind_),
      host_(std::move(other.host_)),
      port_(other.port_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = std::exchange(other.fd_, -1);
    options_ = other.options_;
    buffer_ = std::move(other.buffer_);
    retries_used_ = other.retries_used_;
    endpoint_kind_ = other.endpoint_kind_;
    host_ = std::move(other.host_);
    port_ = other.port_;
  }
  return *this;
}

void Client::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::reconnect() {
  close_fd();
  buffer_.clear();  // a torn partial frame from the dead connection is garbage
  fd_ = endpoint_kind_ == 0 ? dial_unix(host_, options_)
                            : dial_tcp(host_, port_, options_);
}

void Client::send(const std::string& payload) {
  check(fd_ >= 0, "srrad client is not connected");
  std::ostringstream frame;
  write_frame(frame, payload);
  const std::string bytes = frame.str();
  const Clock::time_point deadline = deadline_from(options_.io_timeout_ms);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = faultio::send(faultio::Site::kClientWrite, fd_,
                                    bytes.data() + off, bytes.size() - off,
                                    MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(fd_, POLLOUT, deadline, "sending a request");
      continue;
    }
    fail(cat("srrad connection lost while sending: ", std::strerror(errno)));
  }
}

std::string Client::receive() {
  check(fd_ >= 0, "srrad client is not connected");
  const Clock::time_point deadline = deadline_from(options_.io_timeout_ms);
  for (;;) {
    std::string payload;
    const int got = extract_frame(buffer_, payload);
    check(got >= 0, "malformed frame from srrad");
    if (got == 1) return payload;
    char chunk[65536];
    const ssize_t n =
        faultio::recv(faultio::Site::kClientRead, fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(fd_, POLLIN, deadline, "waiting for a response");
      continue;
    }
    check(n != 0, "srrad closed the connection mid-response");
    fail(cat("srrad connection lost while receiving: ", std::strerror(errno)));
  }
}

std::string Client::roundtrip(const std::string& payload) {
  return roundtrip_batch({payload}).front();
}

std::vector<std::string> Client::roundtrip_batch(const std::vector<std::string>& payloads) {
  std::vector<std::string> responses;
  responses.reserve(payloads.size());
  int attempt = 0;
  for (;;) {
    try {
      if (fd_ < 0) reconnect();
      // Re-send only the unanswered suffix. Safe even when the daemon DID
      // process a lost-response request: queries are pure functions of their
      // cache key, so the re-send is answered from the store/cache — the
      // structural-hash key is the idempotency token (DESIGN.md §14).
      for (std::size_t i = responses.size(); i < payloads.size(); ++i) send(payloads[i]);
      while (responses.size() < payloads.size()) responses.push_back(receive());
      return responses;
    } catch (const Error&) {
      close_fd();
      if (attempt >= options_.retries) throw;
      const std::int64_t delay = retry_delay_ms(attempt, options_);
      ++attempt;
      ++retries_used_;
      if (delay > 0) std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

}  // namespace srra::service
