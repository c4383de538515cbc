// Unit checks of the benchmark harness: the tail-percentile rule, span self
// time, and the result line. Exits non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TailPercentileNeedsTenSamplesBeyond() {
  using perfbench::SamplesBeyond;
  using perfbench::TailPercentile;
  // p99 of n samples leaves n - ceil(0.99 n) beyond it: 1000 is the
  // smallest sample count that leaves ten.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(SamplesBeyond(0, 0.99) == 0);
  EXPECT(!TailPercentile(Ramp(999), 0.99).has_value());
  EXPECT(!TailPercentile({}, 0.99).has_value());
  auto p99 = TailPercentile(Ramp(1000), 0.99);
  EXPECT(p99.has_value() && *p99 == 990);
  // Order does not matter, and the median needs no tail.
  std::vector<double> shuffled = Ramp(2000);
  std::swap(shuffled[0], shuffled[1999]);
  p99 = TailPercentile(shuffled, 0.99);
  EXPECT(p99.has_value() && *p99 == 1980);
  EXPECT(TailPercentile(Ramp(21), 0.5).has_value());
  EXPECT(!TailPercentile(Ramp(20), 0.5, 11).has_value());
  EXPECT(perfbench::Median(Ramp(4)) == 2.5);
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
}

void SelfTimeSubtractsDirectChildren() {
  perfbench::SpanLog log(true);
  int root = log.Add("net.submit", 1, -1, 10.0, 10.010);
  log.AddReported("net.queue", root, 0.002);
  log.AddReported("exec.execute", root, 0.005);
  log.Add("net.submit", 2, -1, 20.0, 20.004);
  std::vector<double> self = log.SelfTimes("net.submit");
  EXPECT(self.size() == 2);
  EXPECT(std::fabs(self[0] - 0.003) < 1e-9);
  EXPECT(std::fabs(self[1] - 0.004) < 1e-9);
  // Reported children are laid end to end from the parent's start.
  const auto& spans = log.spans();
  EXPECT(spans[1].start == 10.0 && std::fabs(spans[2].start - 10.002) < 1e-9);

  perfbench::SpanLog other(true);
  int p = other.Begin("runtime.submit", 7);
  other.AddReported("optimizer.compile", p, 0.001);
  other.End(p);
  log.Merge(other);
  EXPECT(log.spans().back().parent == 4);

  perfbench::SpanLog off(false);
  EXPECT(off.Begin("x", 1) == -1);
  off.AddReported("y", -1, 1.0);
  EXPECT(off.spans().empty());
}

void ResultLineHasTheContractKeys() {
  std::string json = perfbench::ResultJson(
      true, 12, 0, {{"setup_s", 0.8127, "s"}, {"jobs_per_s", 1e6 / 3, "1/s"}});
  EXPECT(json ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"jobs_per_s\": "
         "{\"value\": 333333.3333333333, \"unit\": \"1/s\"}}}");
  EXPECT(std::strtod(perfbench::FormatDouble(0.1).c_str(), nullptr) == 0.1);
  EXPECT(perfbench::FormatDouble(NAN) == "null");
}

}  // namespace

int main() {
  TailPercentileNeedsTenSamplesBeyond();
  SelfTimeSubtractsDirectChildren();
  ResultLineHasTheContractKeys();
  if (failures == 0) std::printf("harness_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
