// Shared pieces of the CloudViews benchmark: run options, the benchmark's
// own span log, the percentile rule, process CPU/RSS probes, and the metric
// tables the three workloads report into.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A run is this many phases, each a fresh set-up followed by a measured
/// phase of a third of the run's work; setup_s reports the median set-up
/// and the other metrics pool the measured phases.
inline constexpr int kPhasesPerRun = 3;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the fixed work a run measures (see README.md): the same value
  /// always yields the same jobs, however fast the host runs them.
  int seconds = 18;
  bool trace = false;
  /// Multiplies every work size; below 1 gives the reduced-size runs of
  /// the benchmark's own tests.
  double scale = 1.0;
  /// Directory the traced run writes its span log to ("" = do not write).
  std::string trace_dir;
};

/// Seconds of work one measured phase is sized to.
inline double PhaseSeconds(const RunOptions& opt) {
  return static_cast<double>(opt.seconds) / kPhasesPerRun;
}

/// Scales a work size, never below `floor`.
int Scaled(double base, double scale, int floor);

// --- Spans -----------------------------------------------------------------

/// One span the benchmark recorded around a public call into a layer.
struct SpanRecord {
  const char* name = "";  // static string: the layer call
  uint64_t trace_id = 0;  // one id per job (0: not job-scoped)
  int32_t parent = -1;    // index into the same log; -1 for a root
  double start = 0;       // monotonic seconds
  double end = 0;
};

/// \brief In-memory span log, one per thread; merged and written at the
/// end of the run. A disabled log records nothing, so the untraced run pays
/// only a branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, uint64_t trace_id, int parent = -1);
  void End(int index);
  /// Records a closed span with explicit bounds.
  int Add(const char* name, uint64_t trace_id, int parent, double start,
          double end);
  /// Records a stage whose duration came back in a public result
  /// (compile_seconds, JobRunStats, WireTimings::queue_seconds) as a child
  /// of `parent`, laid out after the parent's previous such children.
  void AddReported(const char* name, int parent, double seconds);

  /// Appends `other`'s spans, re-basing its parent indices.
  void Merge(const SpanLog& other);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (seconds) of every span called `name`.
  std::vector<double> Durations(std::string_view name) const;
  /// Self time of every span called `name`: its duration minus the
  /// durations of its direct children.
  std::vector<double> SelfTimes(std::string_view name) const;

  /// Writes one tab-separated line per span (name, trace, parent, start
  /// and end in microseconds from the first span).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  /// Per parent: where the next reported child starts.
  std::vector<std::pair<int32_t, double>> reported_cursor_;
};

/// RAII span over a block.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t trace_id,
             int parent = -1)
      : log_(log), index_(log->Begin(name, trace_id, parent)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// --- Statistics ------------------------------------------------------------

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Nearest-rank `q`-quantile of `values`, or nullopt when fewer than
/// `min_beyond` samples lie strictly beyond that rank — the rule that a
/// tail percentile is reported only when at least ten samples exceed it.
std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     size_t min_beyond = 10);

/// Samples that lie beyond the nearest-rank `q`-quantile of `n` samples.
size_t SamplesBeyond(size_t n, double q);

// --- Host probes -----------------------------------------------------------

/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// Peak resident set of the process, in MB.
double PeakRssMb();
/// Wall milliseconds of a fixed CPU loop: a host-speed diagnostic.
double SpinLoopMs();

// --- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Name and unit of every end-to-end metric, in report order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricSpecs();
/// Name and unit of every per-layer metric the traced run reports.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricSpecs();

/// Renders the contract's result line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {...}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Shortest decimal rendering that round-trips a double.
std::string FormatDouble(double v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
