#ifndef CLOUDVIEWS_RUNTIME_WORKLOAD_REPOSITORY_H_
#define CLOUDVIEWS_RUNTIME_WORKLOAD_REPOSITORY_H_

#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "obs/metrics.h"
#include "optimizer/view_interfaces.h"
#include "runtime/subgraph_mining.h"

namespace cloudviews {

/// \brief Store of executed jobs + an incrementally-maintained feedback
/// index from normalized subgraph signature to observed statistics + the
/// mined subgraphs of every submit time.
///
/// Implements StatsProviderInterface: this is the data source of the
/// CloudViews feedback loop (Sec 5.1) — it reconciles the compile-time
/// query trees (plan nodes) with run-time statistics (per-operator stats)
/// by joining them on node ids, then keys the result by normalized
/// signature so *any* future job with a common subgraph benefits.
///
/// AddJob is the one place a job's subgraphs are enumerated: the pass that
/// feeds the feedback index also folds the job into the bucket of its
/// submit time, and Mine merges a window's buckets instead of re-reading
/// its plans.
class WorkloadRepository : public StatsProviderInterface {
 public:
  /// Registers the ingest counters (jobs, subgraph observations, feedback
  /// lookups) and the indexed-subgraphs gauge into a registry the
  /// repository owns, so they always exist; SetMetrics moves them.
  WorkloadRepository() { Register(&own_metrics_); }

  /// Re-registers the counters and gauge into the shared `metrics` and adds
  /// the `cv_repository_lock_wait_seconds` histogram, timed on
  /// `wall_clock` (null: the real clock). Null `metrics` changes nothing.
  /// Call before first use: counts do not carry over.
  void SetMetrics(obs::MetricsRegistry* metrics,
                  MonotonicClock* wall_clock = nullptr);

  void AddJob(JobRecord record) EXCLUDES(mu_);

  size_t NumJobs() const EXCLUDES(mu_);
  /// Snapshot of all records in ingest order (shared pointers; records are
  /// immutable once added).
  std::vector<std::shared_ptr<const JobRecord>> Jobs() const EXCLUDES(mu_);

  /// The subgraphs of the jobs submitted in [from, to), merged from their
  /// buckets (SubgraphBuckets::Merge); the defaults mine the whole
  /// history.
  MinedWindow Mine(
      LogicalTime from = std::numeric_limits<LogicalTime>::min(),
      LogicalTime to = std::numeric_limits<LogicalTime>::max()) const
      EXCLUDES(mu_);

  // StatsProviderInterface:
  std::optional<SubgraphObservedStats> Lookup(
      const Hash128& normalized_signature) const override EXCLUDES(mu_);

  /// Number of distinct subgraph templates with observed statistics.
  size_t NumIndexedSubgraphs() const EXCLUDES(mu_);

 private:
  struct Accumulator {
    double rows = 0, bytes = 0, latency = 0, cpu = 0;
    int64_t n = 0;
  };
  struct Instruments {
    obs::Counter* jobs_ingested = nullptr;
    obs::Counter* subgraphs_observed = nullptr;
    obs::Counter* lookups = nullptr;
    obs::Counter* lookup_hits = nullptr;
    obs::Gauge* indexed_subgraphs = nullptr;
    /// Null unless SetMetrics wired a shared registry.
    obs::Histogram* lock_wait = nullptr;
  };

  void Register(obs::MetricsRegistry* metrics);

  obs::MetricsRegistry own_metrics_;
  /// Set at construction and by SetMetrics before concurrent use,
  /// read-only afterwards; only the histogram may be null.
  Instruments obs_;
  MonotonicClock* wall_clock_ = MonotonicClock::Real();

  /// Guards the records, the feedback index and the buckets together:
  /// AddJob must publish a record, its statistics and its subgraphs
  /// atomically so concurrent Lookup and Mine calls never see a
  /// half-applied job.
  mutable Mutex mu_;
  std::unordered_map<Hash128, Accumulator, Hash128Hasher> feedback_
      GUARDED_BY(mu_);
  /// The job history. Its buckets point into the plans of its records,
  /// which are never dropped: a bound on memory must drop records and
  /// buckets together.
  SubgraphBuckets buckets_ GUARDED_BY(mu_);
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_WORKLOAD_REPOSITORY_H_
