#ifndef CLOUDVIEWS_RUNTIME_JOB_SERVICE_H_
#define CLOUDVIEWS_RUNTIME_JOB_SERVICE_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/exec_options.h"
#include "exec/executor.h"
#include "metadata/metadata_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/job_counters.h"
#include "optimizer/optimizer.h"
#include "runtime/inflight_sharing.h"
#include "runtime/plan_cache.h"
#include "runtime/workload_repository.h"

namespace cloudviews {

/// \brief One job submission: a parameter-bound logical plan plus the
/// metadata the service keeps about it.
struct JobDefinition {
  std::string template_id;
  std::string cluster;
  std::string business_unit;
  std::string vc;
  std::string user;
  int recurring_instance = 0;
  LogicalTime recurrence_period = kSecondsPerDay;
  PlanNodePtr logical_plan;
  /// Tags for the metadata-service inverted index; defaulted from
  /// template/vc/user when empty.
  std::vector<std::string> tags;
};

/// Outcome of one job run. The JobCounters block reports what reuse did
/// for this job; docs/job_profile_schema.md defines every row. The
/// plan-shape rows (views_reused, views_reused_subsumed,
/// compensation_nodes_added, views_materialized) are read off
/// executed_plan, so on every path they describe the plan that ran; an
/// adopted follower builds nothing. The other rows come from the compile
/// whose plan ran and from the runtime (fallback, degraded lookup, the
/// piggyback funnel).
struct JobResult : JobCounters {
  uint64_t job_id = 0;
  PlanNodePtr executed_plan;
  JobRunStats run_stats;
  double compile_seconds = 0;           // optimizer wall time
  double metadata_lookup_seconds = 0;   // simulated service latency
  /// The plan came from the plan cache (full or skeleton tier): the
  /// logical rewrites were skipped, and on a full hit the metadata lookup
  /// and the whole optimizer too — the recurring-job fast path.
  bool plan_cache_hit = false;
  /// Metadata-service catalog epoch observed at submit (0 when the plan
  /// cache was disabled for this submission).
  uint64_t catalog_epoch = 0;
  /// This job adopted a concurrent identical job's execution (work
  /// sharing): compile + execute were skipped and executed_plan/run_stats
  /// are the leader's. The result is byte-identical to independent
  /// execution by construction (same plan, same data).
  bool shared_execution = false;
  /// Leader whose outcome this follower adopted (0 when not a follower,
  /// or when this job was itself the leader).
  uint64_t share_leader_job_id = 0;
  /// Leader side: followers that adopted this job's execution.
  int share_followers = 0;
  double estimated_cost = 0;
  /// The job's finished lifecycle trace (root span "job" with
  /// metadata_lookup / optimize / execute / record children); null when
  /// the service runs without a tracer.
  std::shared_ptr<const obs::SpanRecord> trace;
};

struct JobServiceOptions {
  /// The per-job opt-in flag of Sec 4: "the runtime part is triggered by
  /// providing a command line flag during job submission".
  bool enable_cloudviews = false;
  /// Record the executed plan + stats in the workload repository (feedback
  /// loop); normally on.
  bool record_in_repository = true;
  /// Use the repository's observed statistics during optimization; ablation
  /// knob for the feedback loop (Sec 5.1).
  bool use_feedback_statistics = true;
  /// Recurring-job fast path: serve repeated templates from the
  /// signature-keyed plan cache (epoch-validated; byte-identical results).
  /// Off forces a full optimize on every submission.
  bool enable_plan_cache = true;
  /// Work sharing across concurrent in-flight jobs: submissions whose
  /// whole-plan signature matches an in-flight execution adopt its result
  /// (one leader executes, followers wait) instead of recomputing it.
  /// Opt-in; results stay byte-identical either way. A follower waits at
  /// most 30 real seconds for its leader, then runs independently.
  bool enable_inflight_sharing = false;
  /// Build piggybacking: a job denied a build lock by a live builder waits
  /// (bounded) for the builder's ReportMaterialized and re-optimizes
  /// against the fresh view instead of running reuse-blind. Opt-in; every
  /// wait outcome other than "view registered" falls back to the
  /// pre-sharing behavior.
  bool enable_piggyback = false;
  /// Total real-wall-clock budget for all piggyback waits of one job.
  double piggyback_wait_seconds = 10;
  /// When set, the "job" span is created as a child of this span instead of
  /// a new trace root, so wire submissions nest the whole compile/execute
  /// lifecycle under the server's "net.request" span. The caller owns the
  /// parent and must keep it alive for the duration of SubmitJob; with a
  /// parent set, JobResult::trace stays null (only root spans yield a
  /// finished tree — the caller finishes its own root).
  obs::Span* parent_span = nullptr;
};

/// \brief The always-online job service: compile (with metadata lookup and
/// CloudViews rewriting), execute, publish views early, record history.
///
/// SubmitJob runs named stages over one JobState: share-join, compile (full
/// plan-cache hit, metadata lookup, skeleton hit, cold: the first tier that
/// succeeds serves the job), piggyback, execute with fallback, publish, and
/// record, ending in one success tail or one failure tail.
///
/// Thread-safe: concurrent SubmitJob calls model concurrent jobs on the
/// cluster, which is how the build-build synchronization of Sec 6.4 is
/// exercised.
class JobService {
 public:
  /// `metrics` receives the instruments of the service, its plan cache,
  /// its executors and its pool; `wall_clock` times submissions,
  /// compiles, runs and pool tasks. With a `tracer` each submission leaves
  /// one lifecycle trace; null records no spans. `fault` / `retry` /
  /// `sleeper` wire the fault-tolerance machinery: injection points (null:
  /// none), the transient-retry backoff schedule, and the sleep seam
  /// between attempts (null: real sleeps).
  JobService(SimulatedClock* clock, StorageManager* storage,
             MetadataService* metadata, WorkloadRepository* repository,
             obs::MetricsRegistry* metrics, MonotonicClock* wall_clock,
             obs::Tracer* tracer, OptimizerConfig optimizer_config,
             ExecOptions exec_options, fault::FaultInjector* fault,
             fault::RetryPolicy retry, fault::Sleeper* sleeper);

  Result<JobResult> SubmitJob(const JobDefinition& def,
                              const JobServiceOptions& options = {});

  /// Submits all jobs from worker threads simultaneously (concurrent
  /// recurring jobs with the same overlapping computation).
  std::vector<Result<JobResult>> SubmitConcurrent(
      const std::vector<JobDefinition>& defs,
      const JobServiceOptions& options = {});

  /// Offline materialization mode (Sec 6.2): extracts the annotated
  /// overlapping subgraphs of `def`'s plan "while excluding any remaining
  /// operation in the job" and materializes just those, before the actual
  /// workload runs. Returns the number of views built, or the metadata
  /// lookup's error before any build lock is taken. Annotations marked
  /// offline never materialize inline; this is how they get built.
  Result<int> MaterializeOfflineViews(const JobDefinition& def);

  uint64_t NumSubmitted() const { return next_job_id_.load() - 1; }

  /// Default tags used for the metadata inverted index.
  static std::vector<std::string> DefaultTags(const JobDefinition& def);

  /// Plan-cache introspection (hit/miss/invalidation statistics).
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// Work-sharing registry introspection; NumPending() must be 0 once all
  /// submissions have returned (no leaked share entries).
  const InflightSharing& inflight_sharing() const { return sharing_; }

 private:
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* succeeded = nullptr;
    obs::Counter* failed = nullptr;
    obs::Gauge* active = nullptr;
    obs::Histogram* latency = nullptr;
    /// One counter per CV_JOB_COUNTERS row, in table order.
    std::array<obs::Counter*, kNumJobCounters> job_counters{};
    obs::Counter* fallback_jobs = nullptr;
    obs::Counter* views_abandoned = nullptr;
    obs::Counter* sharing_leaders = nullptr;
    obs::Counter* sharing_followers = nullptr;
    obs::Counter* sharing_leader_failures = nullptr;
    obs::Counter* sharing_degraded = nullptr;
  };

  // SubmitJob's stages over one JobState, in order, then its two tails.
  struct JobState;
  bool JoinShare(JobState& job);
  Status Compile(JobState& job);
  bool ServeFullHit(JobState& job);
  void LookupViews(JobState& job);
  bool ServeSkeleton(JobState& job);
  Status CompileCold(JobState& job);
  void Piggyback(JobState& job);
  Status Execute(JobState& job);
  Status PublishShare(JobState& job);
  void PublishPlan(JobState& job);
  JobResult Succeed(JobState& job);
  Status Fail(JobState& job, Status status);

  /// Execution context for one run of `job_id`: storage, the shared pool,
  /// the fault seams, and (with a metadata service) the view publish and
  /// abandon callbacks of Sec 6.4.
  ExecContext MakeExecContext(uint64_t job_id);

  /// Registers a finished view with the metadata service; on rejection
  /// (stale lease, lost registration race; counted by the service as
  /// cv_metadata_stale_registrations_total) deletes the written file — the
  /// metadata decision is authoritative.
  void RegisterMaterializedView(const SpoolNode& spool,
                                const StreamData& view, uint64_t job_id);

  /// True when every ViewRead under `root` still resolves to the same live
  /// view in the metadata service. Guards serving a cached rewritten plan:
  /// view expiry, purges and drops bump no catalog epoch, so the epoch
  /// check alone cannot rule out a stale view scan.
  bool CachedViewReadsLive(const PlanNodePtr& root);

  SimulatedClock* clock_;
  StorageManager* storage_;
  MetadataService* metadata_;
  WorkloadRepository* repository_;
  /// The executors and the pool register their instruments here too.
  obs::MetricsRegistry* metrics_;
  MonotonicClock* wall_clock_;
  obs::Tracer* tracer_;
  Optimizer optimizer_;
  ExecOptions exec_options_;
  fault::FaultInjector* fault_;
  fault::RetryPolicy retry_;
  fault::Sleeper* sleeper_;
  Instruments obs_;
  /// Recurring-job fast path (thread-safe; see PlanCache).
  PlanCache plan_cache_;
  /// Work sharing across concurrent in-flight submissions (thread-safe).
  InflightSharing sharing_;
  std::atomic<uint64_t> next_job_id_{1};
  /// The worker pool every running job shares (the cluster's execution
  /// slots); null when jobs run single-threaded (worker_threads <= 1).
  const std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_JOB_SERVICE_H_
