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

/// \brief The history of executed jobs, mined at ingest: an
/// incrementally-maintained feedback index from normalized subgraph
/// signature to observed statistics + the mined subgraphs of every submit
/// time.
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
/// its plans. No job record is kept.
class WorkloadRepository : public StatsProviderInterface {
 public:
  /// Registers the ingest counters (jobs, subgraph observations, feedback
  /// lookups), the indexed-subgraphs gauge and the
  /// `cv_repository_lock_wait_seconds` histogram, timed on `wall_clock`,
  /// into `metrics` (or, when it is null, a registry the repository owns).
  explicit WorkloadRepository(
      obs::MetricsRegistry* metrics = nullptr,
      MonotonicClock* wall_clock = MonotonicClock::Real());

  /// Mines `record` into the feedback index and its submit time's bucket.
  /// Only the plan is kept, and only while a bucket points into it.
  void AddJob(const JobRecord& record) EXCLUDES(mu_);

  /// Jobs ingested so far (`cv_repository_jobs_ingested_total`).
  size_t NumJobs() const;

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
    obs::Histogram* lock_wait = nullptr;
  };

  MonotonicClock* wall_clock_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Instruments obs_;

  /// Guards the feedback index and the buckets together: AddJob must
  /// publish a job's statistics and its subgraphs atomically so concurrent
  /// Lookup and Mine calls never see a half-applied job.
  mutable Mutex mu_;
  std::unordered_map<Hash128, Accumulator, Hash128Hasher> feedback_
      GUARDED_BY(mu_);
  /// The job history: per job its facts and subgraph keys, and the plans
  /// the buckets point into. Dropping a bucket drops the plans it alone
  /// pins.
  SubgraphBuckets buckets_ GUARDED_BY(mu_);
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_WORKLOAD_REPOSITORY_H_
