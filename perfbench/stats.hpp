// The benchmark's own statistics: percentiles, the tail rule and the
// burst-robust blocked tail, the open-loop serving rules (growing
// backlog, rung pass/fail) and failure counting. Header-only so the harness and stats_test.cpp share one
// definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
/// +inf entries sort last, so a failed request counted as +inf latency
/// pushes the upper percentiles to +inf.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// A tail percentile robust to bursts of host interference: the median,
/// over consecutive blocks of `block` samples (time order), of each
/// block's p-th percentile; the last block takes the remainder. A tail the
/// program produces recurs in every block and shows; a stall of a shared
/// host confined to a few blocks does not move it. With fewer than two
/// full blocks this is the plain percentile.
inline double blocked_percentile(const std::vector<double>& v, double p,
                                 std::size_t block) {
  const std::size_t blocks = block ? v.size() / block : 0;
  if (blocks < 2) return percentile(v, p);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks ? v.end() : first + block;
    per_block.push_back(percentile({first, last}, p));
  }
  return median(per_block);
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least
/// ten of `n` samples beyond it; 0 when even the median has fewer.
inline double supported_tail(std::size_t n) {
  std::size_t best = 0;
  // Percentiles in per mille, so the count beyond one, n * (1000 - q) /
  // 1000, compares exactly in integers.
  for (const std::size_t q : {500, 900, 990, 999})
    if (n * (1000 - q) >= 10 * 1000) best = q;
  return static_cast<double>(best) / 10.0;
}

/// One offered rate of open-loop serving, as measured.
struct Rung {
  double rate = 0.0;             ///< offered requests per second
  std::size_t attempted = 0;     ///< requests issued
  std::size_t ok = 0;            ///< completed with a correct output
  /// Latency of every issued request in due-time order, ms from its due
  /// time; +inf for a request that did not complete ok.
  std::vector<double> latency_ms;
};

/// A backlog grows when the later half of the requests (by due time)
/// waits clearly longer than the earlier half: median latency of the
/// second half above 1.5x the first half's plus 2 ms. Failed requests
/// count as +inf, so an overload that turns into deadline misses or
/// shedding in the second half is a growing backlog too.
inline bool growing_backlog(const std::vector<double>& latency_ms) {
  if (latency_ms.size() < 4) return false;
  const std::size_t half = latency_ms.size() / 2;
  const std::vector<double> first(latency_ms.begin(),
                                  latency_ms.begin() + half);
  const std::vector<double> second(latency_ms.begin() + half,
                                   latency_ms.end());
  return median(second) > 1.5 * median(first) + 2.0;
}

/// A rung meets the serving target when at least 99 % of its requests
/// completed ok, its p99 latency (failures counting as +inf) is within
/// the limit, and its backlog is not growing.
inline bool rung_passes(const Rung& r, double latency_limit_ms) {
  if (r.attempted == 0) return false;
  if (static_cast<double>(r.ok) < 0.99 * static_cast<double>(r.attempted))
    return false;
  if (percentile(r.latency_ms, 99.0) > latency_limit_ms) return false;
  return !growing_backlog(r.latency_ms);
}

/// Operations the result reports: every correctness check made, plus
/// every serving request. A failure is a correctness miss, or a request
/// that did not complete ok at a served rate.
struct FailureCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

inline FailureCount count_failures(std::uint64_t checks,
                                   std::uint64_t check_misses,
                                   const std::vector<Rung>& operating) {
  FailureCount out{checks, check_misses};
  for (const Rung& r : operating) {
    out.attempted += r.attempted;
    out.failed += r.attempted - r.ok;
  }
  return out;
}

}  // namespace perfbench
