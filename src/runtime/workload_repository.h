#ifndef CLOUDVIEWS_RUNTIME_WORKLOAD_REPOSITORY_H_
#define CLOUDVIEWS_RUNTIME_WORKLOAD_REPOSITORY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "exec/operator_stats.h"
#include "obs/metrics.h"
#include "optimizer/view_interfaces.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// \brief One executed job: its metadata, the compiled physical plan, and
/// the observed runtime statistics — exactly what the SCOPE workload
/// repository retains and the analyzer mines (Fig 6, left).
struct JobRecord {
  uint64_t job_id = 0;
  std::string cluster;
  std::string business_unit;
  std::string vc;
  std::string user;
  /// Recurring template identity ("same script template, new data").
  std::string template_id;
  int recurring_instance = 0;
  /// Cadence of the template (hourly/daily/weekly); drives lineage-based
  /// view expiry (Sec 5.4).
  LogicalTime recurrence_period = kSecondsPerDay;
  LogicalTime submit_time = 0;
  /// Tags for the metadata service's inverted index.
  std::vector<std::string> tags;
  /// Executed physical plan with node ids assigned.
  PlanNodePtr plan;
  JobRunStats run_stats;
};

/// \brief Store of executed jobs + an incrementally-maintained feedback
/// index from normalized subgraph signature to observed statistics.
///
/// Implements StatsProviderInterface: this is the data source of the
/// CloudViews feedback loop (Sec 5.1) — it reconciles the compile-time
/// query trees (plan nodes) with run-time statistics (per-operator stats)
/// by joining them on node ids, then keys the result by normalized
/// signature so *any* future job with a common subgraph benefits.
class WorkloadRepository : public StatsProviderInterface {
 public:
  /// Registers the ingest counters (jobs, subgraph observations, feedback
  /// lookups) and the indexed-subgraphs gauge into a registry the
  /// repository owns, so they always exist; SetMetrics moves them.
  WorkloadRepository() { Register(&own_metrics_); }

  /// Re-registers the counters and gauge into the shared `metrics` (null
  /// keeps them private). Call before first use: counts do not carry over.
  void SetMetrics(obs::MetricsRegistry* metrics);

  void AddJob(JobRecord record) EXCLUDES(mu_);

  size_t NumJobs() const EXCLUDES(mu_);
  /// Snapshot of all records (shared pointers; records are immutable once
  /// added).
  std::vector<std::shared_ptr<const JobRecord>> Jobs() const EXCLUDES(mu_);
  std::vector<std::shared_ptr<const JobRecord>> JobsInWindow(
      LogicalTime from, LogicalTime to) const EXCLUDES(mu_);

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
  };

  void Register(obs::MetricsRegistry* metrics);

  obs::MetricsRegistry own_metrics_;
  /// Never null; set at construction and by SetMetrics before concurrent
  /// use, read-only afterwards.
  Instruments obs_;

  /// Guards the job history and the feedback index together: AddJob must
  /// publish a record and its statistics atomically so concurrent Lookup
  /// calls never see a half-applied observation.
  mutable Mutex mu_;
  std::vector<std::shared_ptr<const JobRecord>> jobs_ GUARDED_BY(mu_);
  std::unordered_map<Hash128, Accumulator, Hash128Hasher> feedback_
      GUARDED_BY(mu_);
};

/// CPU seconds of the subtree rooted at `node` (pre-order node ids must be
/// assigned; exploits their contiguity within a subtree).
double SubtreeCpuSeconds(const PlanNode& node, const PlanRuntimeStats& stats);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_WORKLOAD_REPOSITORY_H_
