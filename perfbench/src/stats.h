// Seeded draws and order statistics for the srra benchmark. Kept free of
// the library under test: the generator must not share code with what it
// measures, and the tests in ../tests pin every function here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// draw sequence on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }

 private:
  std::uint64_t state_;
};

/// Independent stream `index` of a run seed (one per client thread, one
/// per generator), so adding a thread never shifts another's draws.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
  Rng mix(seed ^ (0xd1b54a32d192ed03ULL * (index + 1)));
  return mix.next();
}

/// Zipf(s) over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t draw(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Seeded Fisher-Yates permutation of [0, n): which item gets which rank.
inline std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.next() % i)]);
  }
  return order;
}

/// Nearest-rank position of quantile q (0 < q <= 1) among n sorted samples:
/// the smallest 1-based rank r with r / n >= q, returned 0-based.
inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) return 0;
  auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  r = std::clamp<std::size_t>(r, 1, n);
  return r - 1;
}

/// Nearest-rank quantile of `sorted` (ascending; must be non-empty).
inline double quantile(const std::vector<double>& sorted, double q) {
  return sorted[rank_index(sorted.size(), q)];
}

/// Samples ranked strictly above the nearest-rank position of q: how many
/// observations the reported percentile has beyond it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

/// The choosing-metrics rule for a tail percentile: at least ten samples
/// must lie beyond it for the number to mean anything.
inline bool tail_is_resolved(std::size_t n, double q) { return samples_beyond(n, q) >= 10; }

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

/// Geometric mean of positive values (1 for an empty set).
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 1.0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// The paper's quality metric over (registers, exec cycles) design points
/// per kernel: for every kernel and budget in {8, 16, 32, 64}, the least
/// exec cycles among points using at most that many registers; the geomean
/// of those minima (budgets no point fits are skipped).
inline double frontier_geomean(
    const std::map<std::string, std::vector<std::pair<std::int64_t, std::int64_t>>>& points) {
  std::vector<double> best;
  for (const auto& entry : points) {
    for (const std::int64_t budget : {8, 16, 32, 64}) {
      std::int64_t least = -1;
      for (const auto& [regs, cycles] : entry.second) {
        if (regs <= budget && (least < 0 || cycles < least)) least = cycles;
      }
      if (least > 0) best.push_back(static_cast<double>(least));
    }
  }
  return geomean(best);
}

/// FNV-1a 64: the digest that stands in for a response kept for later
/// byte comparison (8 bytes per request, so a faster build storing more
/// responses does not show up as resident memory).
inline std::uint64_t digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
