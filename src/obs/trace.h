#ifndef CLOUDVIEWS_OBS_TRACE_H_
#define CLOUDVIEWS_OBS_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace obs {

/// \brief One finished span: a named, timed section of a job's lifecycle
/// with key/value attributes and nested children.
///
/// The span taxonomy this repo emits is documented in DESIGN.md
/// ("Observability"): a `job` root with `metadata_lookup`, `optimize`
/// (containing the optimizer phases), `execute`, and `record` children.
struct SpanRecord {
  std::string name;
  double start_seconds = 0;
  double end_seconds = 0;
  /// Attribute values are pre-rendered to strings (ints exactly, doubles
  /// with %.9g), which keeps the record trivially serializable.
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::unique_ptr<SpanRecord>> children;

  /// Depth-first search by name; returns null when absent.
  const SpanRecord* Find(const std::string& span_name) const;
};

class Tracer;

/// \brief RAII handle over a live span. A default-constructed Span is
/// inactive: every operation is a no-op, which lets instrumented code run
/// unchanged when tracing is off.
///
/// Handles may be passed across threads; attribute writes and child
/// creation are serialized per trace. End() is idempotent and runs on
/// destruction. Ending a root span delivers the whole tree to the Tracer.
class Span {
 public:
  Span() = default;
  ~Span() { End(); }

  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool active() const { return record_ != nullptr; }

  /// Starts a nested span; the child must end before this span ends (spans
  /// still open when their root ends are closed at the root's end time).
  [[nodiscard]] Span StartChild(std::string name);

  /// Sets or overwrites one attribute. An `error` or `degraded` key marks
  /// the trace failed or degraded, which the tracer's retention favours.
  void SetAttribute(const std::string& key, const std::string& value);
  void SetAttribute(const std::string& key, const char* value);
  void SetAttribute(const std::string& key, int64_t value);
  void SetAttribute(const std::string& key, uint64_t value);
  void SetAttribute(const std::string& key, double value);
  void SetAttribute(const std::string& key, bool value);

  /// Stamps the end time (first call wins). For a root span, also closes
  /// any still-open descendants and publishes the trace to the tracer.
  void End();

  /// End() + returns the finished tree (root spans only; inactive or
  /// non-root spans return null). The tracer retains the same pointer
  /// until its retention releases it.
  std::shared_ptr<const SpanRecord> Finish();

 private:
  friend class Tracer;
  struct TraceState;

  Span(std::shared_ptr<TraceState> trace, SpanRecord* record, bool is_root)
      : trace_(std::move(trace)), record_(record), is_root_(is_root) {}

  /// Shared by every handle of one trace; the mutex serializes all tree
  /// mutation for the trace.
  std::shared_ptr<TraceState> trace_;
  SpanRecord* record_ = nullptr;
  bool is_root_ = false;
};

/// \brief Produces spans and retains a bounded set of finished traces:
/// the most recent ones and the notable older ones.
///
/// Thread-safe; each StartTrace is independent, so concurrent jobs build
/// disjoint span trees. Retention is bounded by `max_traces` so an
/// always-online service does not grow without bound, and tail-biased:
/// half of the bound keeps the latest traces, the other half keeps,
/// among the traces that leave the latest half, the failed and degraded
/// ones first (newest first), then the slowest by root duration (newer
/// first on a tie). A trace is failed or degraded when any of its spans
/// carries an `error` or `degraded` attribute; the span flags its trace
/// when the attribute is set, so delivery never walks the tree for it.
/// Every span of each finished trace is observed into
/// `cv_job_stage_seconds{stage=<span name>}`, each name's histogram
/// registered on its first span.
class Tracer {
 public:
  /// `clock` stamps the spans; tests pass a FakeMonotonicClock for
  /// deterministic span times. The stage histograms go into `metrics`, or
  /// into a registry the tracer owns when it is null. `max_traces` bounds
  /// the retained traces: the latest (max_traces + 1) / 2 plus
  /// max_traces / 2 notable ones.
  explicit Tracer(MonotonicClock* clock = MonotonicClock::Real(),
                  MetricsRegistry* metrics = nullptr, size_t max_traces = 128)
      : clock_(clock),
        metrics_(SharedOrOwned(metrics, &own_metrics_)),
        notable_capacity_(max_traces / 2),
        latest_capacity_(std::max<size_t>(max_traces - max_traces / 2, 1)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] Span StartTrace(std::string name);

  /// Every retained trace, oldest first (by delivery).
  std::vector<std::shared_ptr<const SpanRecord>> FinishedTraces() const
      EXCLUDES(mu_);
  /// The newest finished trace, or null before the first.
  std::shared_ptr<const SpanRecord> LatestTrace() const EXCLUDES(mu_);
  /// Traces released by the retention bound since construction.
  uint64_t dropped_traces() const EXCLUDES(mu_);

  MonotonicClock* clock() const { return clock_; }

 private:
  friend class Span;

  /// One retained trace with what retention ranks it by.
  struct Retained {
    std::shared_ptr<const SpanRecord> trace;
    uint64_t seq = 0;      // delivery order
    double seconds = 0;    // root duration
    bool notable = false;  // failed or degraded
  };

  /// Whether retention keeps `a` over `b`: failed or degraded before the
  /// rest, newer first among those; otherwise slower first, then newer.
  static bool KeepsOver(const Retained& a, const Retained& b);

  /// Publishes a finished root; `notable` when a span of it carries an
  /// `error` or `degraded` attribute.
  void Deliver(std::shared_ptr<const SpanRecord> root, bool notable)
      EXCLUDES(mu_);
  /// Offers a trace leaving the latest half to the notable half; returns
  /// the trace retention releases (it, one it displaces, or null).
  std::shared_ptr<const SpanRecord> KeepNotable(Retained leaving)
      REQUIRES(mu_);
  void ObserveStages(const SpanRecord& span) REQUIRES(mu_);

  MonotonicClock* clock_;
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  const size_t notable_capacity_;
  const size_t latest_capacity_;
  mutable Mutex mu_;
  /// The latest traces, oldest first.
  std::deque<Retained> latest_ GUARDED_BY(mu_);
  /// The notable half, a heap whose front is the trace retention would
  /// release first (KeepsOver orders it).
  std::vector<Retained> notable_ GUARDED_BY(mu_);
  uint64_t delivered_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, Histogram*> stages_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_TRACE_H_
