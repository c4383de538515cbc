#ifndef CLOUDVIEWS_OBS_METRICS_H_
#define CLOUDVIEWS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cloudviews {
namespace obs {

/// Label set of one time series, e.g. {{"stage", "optimize"}}. Stored
/// sorted by key; a registry lookup sorts its argument so call sites may
/// pass labels in any order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonically increasing event count. Mutation is one relaxed
/// atomic add — safe and cheap from any executor thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Point-in-time level (queue depth, busy workers, registered
/// views). Set/Add are lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // CAS loop: atomic<double>::fetch_add is C++20-library-dependent.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// RAII +1/-1 on a gauge — tracks how many threads are inside a region
/// (active jobs, in-flight requests).
class ScopedGaugeIncrement {
 public:
  explicit ScopedGaugeIncrement(Gauge* gauge) : gauge_(gauge) {
    gauge_->Add(1);
  }
  ~ScopedGaugeIncrement() { gauge_->Add(-1); }
  ScopedGaugeIncrement(const ScopedGaugeIncrement&) = delete;
  ScopedGaugeIncrement& operator=(const ScopedGaugeIncrement&) = delete;

 private:
  Gauge* gauge_;
};

/// Exponential bucket layout: bucket i covers values <= first_bound *
/// growth^i; one extra overflow bucket catches everything larger. The
/// defaults span 1us .. ~18min in powers of two — wide enough for every
/// duration this repo records under one layout, which keeps exposition
/// output mergeable across series.
struct HistogramOptions {
  double first_bound = 1e-6;
  double growth = 2.0;
  int num_buckets = 30;
};

/// \brief Fixed-bucket histogram; Observe is bucket-search plus two relaxed
/// atomic adds (no locks), so it can sit on executor hot paths.
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  void Observe(double value);

  /// Upper bounds of the finite buckets (the overflow bucket is +Inf).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One series in a snapshot: resolved labels plus either a scalar value or
/// the histogram state.
struct SeriesSnapshot {
  Labels labels;
  double value = 0;  // counter / gauge
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0;
};

/// All series of one metric name.
struct FamilySnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;
  std::vector<SeriesSnapshot> series;
};

/// \brief Thread-safe registry of named instruments.
///
/// Registration (GetCounter/GetGauge/GetHistogram) takes a short
/// shard-level lock; callers register once and cache the returned pointer,
/// after which every mutation is lock-free on the instrument itself.
/// Instruments live until the registry is destroyed, so cached pointers
/// never dangle. Asking for an existing name with a different instrument
/// type aborts — that is a programming error, not a runtime condition.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, Labels labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, Labels labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, Labels labels = {},
                          HistogramOptions opts = {},
                          const std::string& help = "");

  /// Consistent-enough view for exporters: families sorted by name, series
  /// sorted by label set, so rendered output is deterministic for a
  /// deterministic workload.
  std::vector<FamilySnapshot> Snapshot() const;

 private:
  struct Instrument {
    MetricType type;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable Mutex mu;
    /// name -> label-key -> instrument; map keeps snapshot order stable.
    std::map<std::string, std::map<std::string, Instrument>> metrics
        GUARDED_BY(mu);
  };

  Instrument* Register(const std::string& name, Labels* labels,
                       MetricType type, const std::string& help,
                       const HistogramOptions* opts);
  Shard& ShardFor(const std::string& name);

  static constexpr size_t kShards = 16;
  std::array<Shard, kShards> shards_;
};

/// The registry a component registers its instruments into, once, in its
/// constructor: `shared` when the caller passed one, otherwise a registry
/// the component owns, created into `*owned` (a component built on its
/// own, as in tests and benches). Either way no instrument is ever null.
MetricsRegistry* SharedOrOwned(MetricsRegistry* shared,
                               std::unique_ptr<MetricsRegistry>* owned);

/// Serializes sorted labels into the canonical key / exposition form
/// `key="value",...` (empty string for no labels). Values are escaped per
/// the Prometheus text format.
std::string RenderLabels(const Labels& labels);

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_METRICS_H_
