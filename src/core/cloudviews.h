#ifndef CLOUDVIEWS_CORE_CLOUDVIEWS_H_
#define CLOUDVIEWS_CORE_CLOUDVIEWS_H_

#include <memory>

#include "analyzer/analyzer.h"
#include "common/mutex.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "metadata/metadata_service.h"
#include "net/net_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/job_service.h"

namespace cloudviews {

struct CloudViewsConfig {
  OptimizerConfig optimizer;
  MetadataServiceConfig metadata;
  AnalyzerConfig analyzer;
  /// Execution options (worker threads, morsel size) for the job service's
  /// shared morsel-driven engine; the default runs single-threaded.
  ExecOptions exec;
  /// Attaches the tracer: each job and each analyzer run leaves a trace,
  /// whose spans feed `cv_job_stage_seconds`. Every other instrument is in
  /// metrics() either way.
  bool enable_observability = true;
  /// Wall-time source for the instruments, spans, job and operator timings
  /// AND for the metadata service's build-lock leases. Tests inject a
  /// FakeMonotonicClock for deterministic profiles and lease expiry.
  MonotonicClock* wall_clock = MonotonicClock::Real();
  /// Deterministic fault injector threaded through storage, metadata, and
  /// the executor (see src/fault/). Null (default) disables injection; the
  /// degradation machinery — retries, fallback-to-original-plan, lease
  /// reclamation — still protects against genuine failures.
  fault::FaultInjector* fault = nullptr;
  /// Backoff schedule for transient storage/metadata retries.
  fault::RetryPolicy retry;
  /// Network front door knobs (header-only; the server itself lives in
  /// src/net and is started separately via JobServiceServer).
  net::NetServerConfig net;
  /// Sleep seam between retry attempts; null sleeps for real. Tests inject
  /// a RecordingSleeper so fault runs never wait.
  fault::Sleeper* sleeper = nullptr;
};

/// \brief The end-to-end CLOUDVIEWS system (Fig 6): an analytics job
/// service with the analyzer + metadata service + runtime wired together.
///
/// Typical use:
/// \code
///   CloudViews cv;
///   ...write input streams via cv.storage()...
///   cv.Submit(job);                  // day 1: plain runs, history recorded
///   cv.RunAnalyzerAndLoad();         // mine overlaps, select views
///   cv.Submit(job2);                 // day 2: views materialize + reuse
/// \endcode
class CloudViews {
 public:
  explicit CloudViews(CloudViewsConfig config = {});

  SimulatedClock* clock() { return &clock_; }
  StorageManager* storage() { return storage_.get(); }
  MetadataService* metadata() { return metadata_.get(); }
  WorkloadRepository* repository() { return repository_.get(); }
  JobService* job_service() { return job_service_.get(); }
  /// System-wide instrument registry (export via obs::RenderPrometheus).
  obs::MetricsRegistry* metrics() { return &metrics_; }
  /// Job lifecycle traces; with observability on each Submit leaves one
  /// finished trace here (and on its JobResult).
  obs::Tracer* tracer() { return &tracer_; }
  const CloudViewsConfig& config() const { return config_; }

  /// Submits one job. CloudViews reuse/materialization is on by default;
  /// pass false to run exactly as before (the opt-in flag of Sec 4).
  Result<JobResult> Submit(const JobDefinition& def,
                           bool enable_cloudviews = true)
      EXCLUDES(stats_mu_);

  /// Full-options submit sharing the same analyzer-trigger accounting; the
  /// network front door uses this to pass its parent span through.
  Result<JobResult> Submit(const JobDefinition& def,
                           const JobServiceOptions& options)
      EXCLUDES(stats_mu_);

  /// Runs the analyzer over the whole repository (or a window) and loads
  /// the resulting annotations into the metadata service.
  AnalysisResult RunAnalyzerAndLoad() EXCLUDES(stats_mu_);
  AnalysisResult RunAnalyzerAndLoad(LogicalTime from, LogicalTime to)
      EXCLUDES(stats_mu_);

  /// Expires views: metadata entries first, then the backing files
  /// (Sec 5.4); also sweeps any other expired streams.
  size_t PurgeExpired();

  /// Offline materialization (Sec 6.2): builds every annotated view that
  /// `def`'s plan contains, as a standalone pre-job. Use with
  /// AnalyzerConfig::offline_mode so the online runtime only reuses.
  Result<int> BuildViewsOffline(const JobDefinition& def);

  /// Admin storage reclamation (Sec 5.4): drops minimum-utility registered
  /// views until at least `bytes_to_reclaim` of view storage is freed.
  /// Metadata is cleaned before the files are deleted. Returns the number
  /// of views dropped.
  size_t ReclaimViewStorage(double bytes_to_reclaim);

  /// Change detection heuristic of Sec 7.3: re-analysis is due when the
  /// fraction of recent jobs that materialized or reused views drops below
  /// `min_hit_rate` (the workload changed, signatures stopped matching).
  bool AnalysisLooksStale(double min_hit_rate = 0.05) const
      EXCLUDES(stats_mu_);

 private:
  CloudViewsConfig config_;
  SimulatedClock clock_;
  /// Declared before the components so instrumented destructors (e.g. the
  /// job service's thread pool draining its queue) still see live
  /// instruments.
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<MetadataService> metadata_;
  std::unique_ptr<WorkloadRepository> repository_;
  std::unique_ptr<JobService> job_service_;

  /// Guards the staleness counters fed by Submit and read by
  /// AnalysisLooksStale (concurrent submissions race on them otherwise).
  mutable Mutex stats_mu_;
  uint64_t jobs_since_analysis_ GUARDED_BY(stats_mu_) = 0;
  uint64_t view_hits_since_analysis_ GUARDED_BY(stats_mu_) = 0;
  bool analysis_loaded_ GUARDED_BY(stats_mu_) = false;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_CORE_CLOUDVIEWS_H_
