// Tests of the benchmark's own statistics (stats.hpp): the percentile,
// the tail rule and the blocked tail, the serving rung's pass rule with
// backlog detection, and failure counting. Exits non-zero on the first
// failed expectation.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

const double kInf = std::numeric_limits<double>::infinity();

/// A rung whose requests all take `ms`, the last `failed` of them failing.
Rung flat_rung(double rate, std::size_t n, double ms, std::size_t failed = 0) {
  Rung r;
  r.rate = rate;
  r.attempted = n;
  r.ok = n - failed;
  r.latency_ms.assign(n, ms);
  for (std::size_t i = n - failed; i < n; ++i) r.latency_ms[i] = kInf;
  return r;
}

void test_percentile() {
  expect(near(percentile({}, 50), 0.0), "empty percentile is 0");
  expect(near(percentile({4, 1, 3, 2}, 50), 2.5), "median interpolates");
  expect(near(percentile({1, 2, 3, 4, 5}, 100), 5.0), "p100 is the max");
  expect(near(percentile({1, 2, 3, 4, 5}, 0), 1.0), "p0 is the min");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  expect(near(percentile(v, 90), 91.0), "p90 of 1..101");
  expect(std::isinf(percentile({1, 2, kInf}, 100)), "+inf sorts last");
  expect(near(percentile({1, 2, kInf}, 0), 1.0), "+inf does not move p0");
}

void test_blocked_percentile() {
  // 5 blocks of 100: a uniform 1..100 ms pattern, one block a 50 ms stall.
  std::vector<double> v;
  for (int b = 0; b < 5; ++b)
    for (int i = 1; i <= 100; ++i) v.push_back(b == 2 ? 50.0 + i : i);
  const std::vector<double> one_block(v.begin(), v.begin() + 100);
  expect(near(blocked_percentile(v, 90, 100), percentile(one_block, 90)),
         "a stall in one block does not move the blocked p90");
  expect(percentile(v, 90) > blocked_percentile(v, 90, 100),
         "the same stall does move the plain p90");
  // A tail in every block (one slow call per ten) shows.
  std::vector<double> tail;
  for (int i = 0; i < 500; ++i) tail.push_back(i % 10 == 0 ? 30.0 : 10.0);
  expect(near(blocked_percentile(tail, 95, 100), 30.0),
         "a recurring tail shows in the blocked p95");
  expect(near(blocked_percentile({1, 2, 3, 4, 5}, 50, 100), 3.0),
         "under two blocks: the plain percentile");
  expect(near(blocked_percentile({1, 2, 3}, 50, 0), 2.0),
         "block 0: the plain percentile");
}

void test_supported_tail() {
  // The highest percentile with at least ten samples beyond it.
  expect(near(supported_tail(0), 0.0), "no samples: nothing");
  expect(near(supported_tail(19), 0.0), "19 samples: not even p50");
  expect(near(supported_tail(20), 50.0), "20 samples: p50");
  expect(near(supported_tail(99), 50.0), "99 samples: p50 only");
  expect(near(supported_tail(100), 90.0), "100 samples: p90");
  expect(near(supported_tail(999), 90.0), "999 samples: p90 only");
  expect(near(supported_tail(1000), 99.0), "1000 samples: p99");
  expect(near(supported_tail(9999), 99.0), "9999 samples: p99 only");
  expect(near(supported_tail(10000), 99.9), "10000 samples: p99.9");
}

void test_backlog() {
  expect(!growing_backlog(std::vector<double>(100, 10.0)),
         "flat latency is no backlog");
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(10.0 + i);
  expect(growing_backlog(ramp), "latency ramping 10 -> 109 ms is a backlog");
  std::vector<double> jitter;
  for (int i = 0; i < 100; ++i) jitter.push_back(i % 2 ? 11.0 : 9.0);
  expect(!growing_backlog(jitter), "jitter is no backlog");
  // Failures late in the rung count as +inf latency.
  expect(growing_backlog(flat_rung(1, 100, 10.0, 60).latency_ms),
         "late failures are a backlog");
  std::vector<double> small = {0.1, 0.2, 1.5, 1.9};
  expect(!growing_backlog(small), "sub-2 ms growth is within the slack");
}

void test_rung_pass() {
  expect(rung_passes(flat_rung(100, 1000, 20.0), 50.0), "fast rung passes");
  expect(!rung_passes(flat_rung(100, 1000, 60.0), 50.0),
         "p99 over the limit fails");
  // Failures count as +inf latency: with 1000 requests the p99 is
  // interpolated between the 990th and 991st, so a 10th failure already
  // breaks the limit.
  expect(rung_passes(flat_rung(100, 1000, 20.0, 9), 50.0),
         "9 of 1000 failed passes");
  expect(!rung_passes(flat_rung(100, 1000, 20.0, 10), 50.0),
         "10 of 1000 failed fails");
  expect(!rung_passes(Rung{}, 50.0), "an empty rung fails");
  std::vector<double> ramp;
  for (int i = 0; i < 1000; ++i) ramp.push_back(1.0 + i * 0.04);
  Rung growing{500, 1000, 1000, ramp};
  expect(!rung_passes(growing, 50.0),
         "a growing backlog fails even within the limit");
}

void test_count_failures() {
  const std::vector<Rung> operating = {flat_rung(300, 1000, 30, 2),
                                       flat_rung(500, 1000, 30)};
  const auto c = count_failures(50, 1, operating);
  expect(c.attempted == 50 + 2000, "attempted: checks plus every request");
  expect(c.failed == 1 + 2,
         "failed: check misses plus requests that did not complete ok");
  const auto none = count_failures(10, 0, {});
  expect(none.attempted == 10 && none.failed == 0, "no serving: checks only");
}

}  // namespace

int main() {
  test_percentile();
  test_blocked_percentile();
  test_supported_tail();
  test_backlog();
  test_rung_pass();
  test_count_failures();
  if (failures) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench stats tests passed\n");
  return 0;
}
