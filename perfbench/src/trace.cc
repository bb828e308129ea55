#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

void Trace::write_tsv(std::ostream& os) const {
  os << "span\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name << '\t'
       << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the covered prefix so far
    for (auto [lo, hi] : kids) {
      lo = std::max({lo, cursor, s.start_ns});
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      covered += hi - lo;
      cursor = hi;
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> by_name(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = out[spans[i].name];
    ++layer.calls;
    layer.self_ns += self[i];
  }
  return out;
}

}  // namespace perfbench
