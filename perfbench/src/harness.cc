#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/clock.h"

namespace perfbench {

int Scaled(double base, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(base * scale)));
}

// --- SpanLog ---------------------------------------------------------------

int SpanLog::Begin(const char* name, uint64_t trace_id, int parent) {
  if (!enabled_) return -1;
  double now = cloudviews::MonotonicNowSeconds();
  spans_.push_back({name, trace_id, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = cloudviews::MonotonicNowSeconds();
}

int SpanLog::Add(const char* name, uint64_t trace_id, int parent,
                 double start, double end) {
  if (!enabled_) return -1;
  spans_.push_back({name, trace_id, parent, start, end});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::AddReported(const char* name, int parent, double seconds) {
  if (!enabled_ || parent < 0) return;
  const SpanRecord& p = spans_[static_cast<size_t>(parent)];
  double start = p.start;
  auto it = std::find_if(reported_cursor_.begin(), reported_cursor_.end(),
                         [&](const auto& c) { return c.first == parent; });
  if (it != reported_cursor_.end()) {
    start = it->second;
    it->second += seconds;
  } else {
    // Only the latest parent is ever extended, so the cursor list stays
    // short: drop cursors of earlier parents.
    reported_cursor_.clear();
    reported_cursor_.emplace_back(parent, start + seconds);
  }
  Add(name, p.trace_id, parent, start, start + seconds);
}

void SpanLog::Merge(const SpanLog& other) {
  const auto base = static_cast<int32_t>(spans_.size());
  for (SpanRecord s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> SpanLog::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<double> SpanLog::SelfTimes(std::string_view name) const {
  std::vector<double> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    int32_t p = spans_[i].parent;
    if (p >= 0) self[static_cast<size_t>(p)] -= spans_[i].end - spans_[i].start;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(self[i]);
  }
  return out;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double t0 = spans_.empty() ? 0 : spans_.front().start;
  for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start);
  std::fprintf(f, "name\ttrace\tparent\tstart_us\tend_us\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%d\t%.3f\t%.3f\n", s.name,
                 static_cast<unsigned long long>(s.trace_id), s.parent,
                 (s.start - t0) * 1e6, (s.end - t0) * 1e6);
  }
  return std::fclose(f) == 0;
}

// --- Statistics ------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     size_t min_beyond) {
  if (values.empty() || SamplesBeyond(values.size(), q) < min_beyond) {
    return std::nullopt;
  }
  size_t rank = values.size() - SamplesBeyond(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

// --- Host probes -----------------------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
// Keeps the spin loop's result observable so the loop is not elided.
volatile uint64_t spin_sink = 0;
}  // namespace

double SpinLoopMs() {
  double start = cloudviews::MonotonicNowSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  spin_sink = x;
  return (cloudviews::MonotonicNowSeconds() - start) * 1e3;
}

// --- Metrics ---------------------------------------------------------------

using MetricSpecs = std::vector<std::pair<std::string, std::string>>;

const MetricSpecs& EndToEndMetricSpecs() {
  static const MetricSpecs specs = {
      {"setup_s", "s"},
      {"jobs_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"cpu_ms_per_job", "ms"},
      {"peak_rss_mb", "MB"},
      {"stored_mb", "MB"},
  };
  return specs;
}

const MetricSpecs& PerLayerMetricSpecs() {
  static const MetricSpecs specs = [] {
    MetricSpecs s = {
        {"net.rtt_ms", "ms"},
        {"net.transport_ms", "ms"},
        {"net.queue_wait_ms", "ms"},
        {"net.codec_us", "us"},
        {"net.refused_frac", "ratio"},
        {"parser.parse_us", "us"},
        {"signature.compute_us", "us"},
        {"signature.enumerate_us", "us"},
        {"runtime.submit_ms", "ms"},
        {"runtime.self_ms", "ms"},
        {"runtime.plan_cache_full_frac", "ratio"},
        {"runtime.plan_cache_skeleton_frac", "ratio"},
        {"runtime.plan_cache_miss_frac", "ratio"},
        {"runtime.plan_cache_invalidations", "per_1k_jobs"},
        {"runtime.repository_jobs", "count"},
        {"metadata.probe_us", "us"},
        {"metadata.lock_denied_frac", "ratio"},
        {"metadata.epoch_bumps", "per_1k_jobs"},
        {"metadata.views_registered", "count"},
        {"optimizer.compile_ms", "ms"},
        {"optimizer.reuse_frac", "ratio"},
        {"optimizer.subsumed_frac", "ratio"},
        {"optimizer.reuse_rejected_frac", "ratio"},
        {"optimizer.views_materialized", "count"},
        {"exec.execute_ms", "ms"},
        {"exec.cpu_ms", "ms"},
    };
    for (const char* kind :
         {"extract", "filter", "project", "join", "aggregate", "sort",
          "exchange", "unionall", "process", "top", "spool", "viewread",
          "output", "reduce"}) {
      s.emplace_back(std::string("exec.op.") + kind + ".cpu_ms", "ms");
    }
    s.insert(s.end(), {
        {"exec.rows_per_cpu_s", "rows/s"},
        {"storage.streams", "count"},
        {"storage.write_us", "us"},
        {"storage.open_us", "us"},
        {"storage.view_mb", "MB"},
        {"storage.purge_ms", "ms"},
        {"analyzer.run_ms", "ms"},
        {"analyzer.subgraphs_mined", "count"},
        {"analyzer.views_selected", "count"},
    });
    // The traced run's own end-to-end figures, the untraced run's beside
    // them, and the gap (tracing overhead) for the three that tracing can
    // move; plus the host diagnostic loop timed before and after.
    for (const auto& [name, unit] : EndToEndMetricSpecs()) {
      s.emplace_back("traced." + name, unit);
    }
    for (const auto& [name, unit] : EndToEndMetricSpecs()) {
      s.emplace_back("untraced." + name, unit);
    }
    s.insert(s.end(), {
        {"overhead.jobs_per_s_frac", "ratio"},
        {"overhead.latency_p50_frac", "ratio"},
        {"overhead.cpu_ms_per_job_frac", "ratio"},
        {"host.spin_before_ms", "ms"},
        {"host.spin_after_ms", "ms"},
    });
    return s;
  }();
  return specs;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatDouble(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
