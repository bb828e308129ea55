// In-memory spans for the traced benchmark run. A span records a name, its
// start and end, its parent span and the request that caused it. Spans are
// appended to a vector while the run goes and written out when it ends;
// nothing here is thread-safe, so each recorder belongs to one thread (the
// live client/server records are turned into spans after the run).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;           ///< index of the parent span, -1 for a root
  std::int64_t request = -1; ///< request id shared by one request's spans
};

class Trace {
 public:
  /// Opens a span starting now; returns its index (close it with end()).
  int begin(std::string name, int parent, std::int64_t request) {
    return add(std::move(name), now_ns(), 0, parent, request);
  }
  void end(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }

  /// Adds a span whose interval is already known.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns, int parent,
          std::int64_t request) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One line per span: index, parent, request, name, start, end (ns).
  void write_tsv(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children clipped to
/// the parent, overlapping children counted once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct LayerTime {
  std::int64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// Calls and summed self time per span name.
std::map<std::string, LayerTime> by_name(const std::vector<Span>& spans);

}  // namespace perfbench
