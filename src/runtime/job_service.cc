#include "runtime/job_service.h"

#include <thread>

#include "fault/fault_injector.h"
#include "signature/signature.h"

namespace cloudviews {

namespace {

/// Upper bound on a follower's wait for its leader (real wall seconds); on
/// expiry the follower degrades to independent execution.
constexpr double kFollowerWaitSeconds = 30;

/// Reads the plan-shape rows off the plan `root`: its view reads, the
/// subsumed ones and the compensation operators above them, and (when
/// `builds`) its Spools, the views it materializes. Other rows are kept.
void ReadPlanShape(const PlanNodePtr& root, bool builds, JobCounters* out) {
  out->views_reused = out->views_reused_subsumed = 0;
  out->compensation_nodes_added = out->views_materialized = 0;
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kViewRead) {
      int compensation = static_cast<ViewReadNode*>(n)->compensation_nodes();
      ++out->views_reused;
      if (compensation > 0) ++out->views_reused_subsumed;
      out->compensation_nodes_added += compensation;
    } else if (n->kind() == OpKind::kSpool && builds) {
      ++out->views_materialized;
    }
  }
}

}  // namespace

/// One submission as it moves through the stages of SubmitJob.
struct JobService::JobState {
  const JobDefinition& def;
  const JobServiceOptions& options;
  double submit_start = 0;
  bool cloudviews_on = false;
  JobResult result{};
  obs::Span span{};  // "job"; inactive unless a tracer or parent is attached
  Hash128 normalized_sig{};
  Hash128 precise_sig{};
  InflightSharing::Ticket share{};
  /// This job leads a share and still owes its followers a publish.
  bool leading = false;
  PlanCache::Key cache_key{};
  PlanCache::Probe probe{};
  /// The compile tier that produced `optimized`: the first that succeeded.
  enum class Tier { kNone, kFull, kSkeleton, kCold } tier = Tier::kNone;
  OptimizeContext ctx{};
  OptimizedPlan optimized{};
  /// The logically rewritten tree a cold compile captures for the cache.
  PlanNodePtr skeleton{};
};

JobService::JobService(SimulatedClock* clock, StorageManager* storage,
                       MetadataService* metadata,
                       WorkloadRepository* repository,
                       obs::MetricsRegistry* metrics,
                       MonotonicClock* wall_clock, obs::Tracer* tracer,
                       OptimizerConfig optimizer_config,
                       ExecOptions exec_options, fault::FaultInjector* fault,
                       fault::RetryPolicy retry, fault::Sleeper* sleeper)
    : clock_(clock),
      storage_(storage),
      metadata_(metadata),
      repository_(repository),
      metrics_(metrics),
      wall_clock_(wall_clock),
      tracer_(tracer),
      optimizer_(optimizer_config),
      exec_options_(exec_options),
      fault_(fault),
      retry_(retry),
      sleeper_(sleeper),
      plan_cache_(PlanCache::kDefaultCapacity, metrics),
      // The submitting thread helps while it waits (TaskGroup::Wait), so
      // worker_threads - 1 pool workers give worker_threads total threads.
      pool_(exec_options.worker_threads > 1
                ? std::make_unique<ThreadPool>(
                      exec_options.worker_threads - 1, metrics, "exec",
                      wall_clock)
                : nullptr) {
  obs_.submitted = metrics->GetCounter("cv_jobs_submitted_total", {},
                                       "Jobs accepted for execution");
  obs_.succeeded = metrics->GetCounter("cv_jobs_succeeded_total", {},
                                       "Jobs that ran to completion");
  obs_.failed = metrics->GetCounter("cv_jobs_failed_total", {},
                                    "Jobs that returned an error");
  obs_.active = metrics->GetGauge("cv_jobs_active", {},
                                  "Jobs currently inside SubmitJob");
  obs_.latency = metrics->GetHistogram("cv_job_latency_seconds", {}, {},
                                       "Submit-to-finish wall time");
  for (size_t i = 0; i < kNumJobCounters; ++i) {
    obs_.job_counters[i] = metrics->GetCounter(
        kJobCounterInfo[i].metric, {}, kJobCounterInfo[i].help);
  }
  obs_.fallback_jobs =
      metrics->GetCounter("cv_jobs_fallback_total", {},
                          "Jobs that fell back to their original plan "
                          "after a view-read failure");
  obs_.views_abandoned =
      metrics->GetCounter("cv_views_abandoned_total", {},
                          "Partially materialized views discarded after a "
                          "failed view write (build lock released)");
  obs_.sharing_leaders = metrics->GetCounter(
      "cv_sharing_leader_total", {},
      "Submissions that led a shared in-flight execution (first in-flight "
      "job of their whole-plan signature)");
  obs_.sharing_followers = metrics->GetCounter(
      "cv_sharing_follower_total", {},
      "Submissions that joined an in-flight identical execution as a "
      "follower (whether or not the adoption succeeded)");
  obs_.sharing_leader_failures = metrics->GetCounter(
      "cv_sharing_leader_failures_total", {},
      "Shared executions whose leader failed or crashed before fan-out; "
      "their followers degraded to independent execution");
  obs_.sharing_degraded = metrics->GetCounter(
      "cv_sharing_follower_degraded_total", {},
      "Followers that fell back to full independent execution (leader "
      "failure or wait timeout); the job still succeeds");
}

std::vector<std::string> JobService::DefaultTags(const JobDefinition& def) {
  std::vector<std::string> tags;
  tags.push_back("template:" + def.template_id);
  tags.push_back("vc:" + def.vc);
  tags.push_back("user:" + def.user);
  return tags;
}

bool JobService::CachedViewReadsLive(const PlanNodePtr& root) {
  if (root == nullptr) return false;
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() != OpKind::kViewRead) continue;
    auto* vr = static_cast<ViewReadNode*>(n);
    auto info = metadata_->FindMaterialized(vr->normalized_signature(),
                                            vr->precise_signature());
    if (!info.has_value() || info->path != vr->view_path()) return false;
  }
  return true;
}

void JobService::RegisterMaterializedView(const SpoolNode& spool,
                                          const StreamData& view,
                                          uint64_t job_id) {
  MaterializedViewInfo info;
  info.path = spool.view_path();
  info.normalized_signature = spool.normalized_signature();
  info.precise_signature = spool.precise_signature();
  info.producer_job_id = job_id;
  info.design = spool.design();
  info.rows = static_cast<double>(view.total_rows);
  info.bytes = static_cast<double>(view.total_bytes);
  // Instance-level containment features from the spooled subtree: concrete
  // predicate bounds, conjunct hashes, and the core precise signature the
  // matcher resolves per-instance containment against.
  if (!spool.children().empty() && spool.children()[0] != nullptr) {
    info.reuse_features = std::make_shared<ViewFeatures>(
        ComputeViewFeatures(*spool.children()[0]));
  }
  Status registered = metadata_->ReportMaterialized(info, view.expires_at);
  if (!registered.ok()) {
    // Fenced out (our lease expired) or another producer won: the
    // registered copy is authoritative, so drop the bytes we wrote.
    // Intentional drop: the file may already have been cleaned up by the
    // lease takeover.
    (void)storage_->DeleteStream(info.path);
  }
}

ExecContext JobService::MakeExecContext(uint64_t job_id) {
  ExecContext exec_ctx;
  exec_ctx.storage = storage_;
  exec_ctx.job_id = job_id;
  exec_ctx.metrics = metrics_;
  exec_ctx.clock = wall_clock_;
  exec_ctx.options = exec_options_;
  exec_ctx.pool = pool_.get();
  exec_ctx.fault = fault_;
  exec_ctx.retry = retry_;
  exec_ctx.sleeper = sleeper_;
  exec_ctx.on_view_materialized = [this, job_id](const SpoolNode& spool,
                                                 const StreamData& view) {
    RegisterMaterializedView(spool, view, job_id);
  };
  exec_ctx.on_view_abandoned = [this, job_id](const SpoolNode& spool,
                                              const Status&) {
    // Do-no-harm path: the view write failed, the partial is gone, the job
    // keeps running — hand the build lock back so another instance can
    // retry the materialization.
    metadata_->AbandonLock(spool.precise_signature(), job_id);
    obs_.views_abandoned->Increment();
  };
  return exec_ctx;
}

// --- SubmitJob: the job lifecycle of Fig 6 (right) as named stages --------

Result<JobResult> JobService::SubmitJob(const JobDefinition& def,
                                        const JobServiceOptions& options) {
  if (def.logical_plan == nullptr) {
    return Status::InvalidArgument("job has no plan");
  }
  JobState job{def, options};
  job.submit_start = wall_clock_->NowSeconds();
  obs_.submitted->Increment();
  obs::ScopedGaugeIncrement active(obs_.active);
  job.result.job_id = next_job_id_.fetch_add(1);
  if (options.parent_span != nullptr) {
    job.span = options.parent_span->StartChild("job");
  } else if (tracer_ != nullptr) {
    job.span = tracer_->StartTrace("job");
  }
  job.span.SetAttribute("job_id", job.result.job_id);
  job.span.SetAttribute("template_id", def.template_id);
  job.span.SetAttribute("recurring_instance",
                        static_cast<int64_t>(def.recurring_instance));
  job.ctx.storage = storage_;
  job.ctx.job_id = job.result.job_id;
  job.ctx.clock = wall_clock_;
  if (options.use_feedback_statistics) job.ctx.feedback = repository_;
  job.cloudviews_on = options.enable_cloudviews;
  if (options.enable_plan_cache || options.enable_inflight_sharing) {
    SubgraphSignatures sigs = ComputeSignatures(*def.logical_plan);
    job.normalized_sig = sigs.normalized;
    job.precise_sig = sigs.precise;
  }
  // Share-join runs before the plan-cache probe, so an adopting follower
  // skips the whole compile/execute pipeline, not just the cold path.
  if (JoinShare(job)) return Succeed(job);
  Status status = Compile(job);
  if (status.ok()) {
    Piggyback(job);
    status = Execute(job);
  }
  if (status.ok()) status = PublishShare(job);
  if (!status.ok()) return Fail(job, std::move(status));
  PublishPlan(job);
  return Succeed(job);
}

bool JobService::JoinShare(JobState& job) {
  if (!job.options.enable_inflight_sharing) return false;
  job.share = sharing_.Join(InflightSharing::ShareKey{
      job.normalized_sig, job.precise_sig, job.cloudviews_on});
  if (job.share.role == InflightSharing::Role::kLeader) {
    obs_.sharing_leaders->Increment();
    job.leading = true;
    return false;
  }
  obs_.sharing_followers->Increment();
  obs::Span wait_span = job.span.StartChild("inflight_wait");
  InflightSharing::Outcome shared =
      sharing_.WaitForLeader(job.share, kFollowerWaitSeconds);
  wait_span.SetAttribute("adopted", shared.ok);
  if (!shared.ok) {
    wait_span.SetAttribute("degraded_cause", shared.status.ToString());
    wait_span.SetAttribute("degraded", true);
    // "Do no harm": the leader failed or the wait timed out — run the job
    // independently, exactly as if sharing were off.
    obs_.sharing_degraded->Increment();
    return false;
  }
  wait_span.End();
  // Adopt the leader's execution wholesale: same plan over the same data,
  // so the result is byte-identical to running alone. The follower keeps
  // its own job id and trace, and still records a JobRecord so the
  // feedback loop sees every submission.
  job.result.shared_execution = true;
  job.result.share_leader_job_id = shared.leader_job_id;
  job.result.executed_plan = std::move(shared.executed_plan);
  job.result.run_stats = std::move(shared.run_stats);
  job.span.SetAttribute("shared_execution", true);
  job.span.SetAttribute("share_leader_job_id", shared.leader_job_id);
  return true;
}

Status JobService::Compile(JobState& job) {
  if (job.options.enable_plan_cache) {
    // The epoch is read BEFORE the probe and the metadata lookup: a
    // concurrent catalog change then tags this compilation with the older
    // epoch and conservatively invalidates it later — never the reverse.
    job.result.catalog_epoch = metadata_->CatalogEpoch();
    job.cache_key = PlanCache::Key{job.normalized_sig, job.cloudviews_on};
    job.probe = plan_cache_.Lookup(job.cache_key, job.result.catalog_epoch,
                                   job.precise_sig);
  }
  if (ServeFullHit(job)) return Status::OK();
  if (job.cloudviews_on) LookupViews(job);
  if (ServeSkeleton(job)) return Status::OK();
  return CompileCold(job);
}

bool JobService::ServeFullHit(JobState& job) {
  if (!job.probe.rewritten_valid) return false;
  // Full hit: same template, same data, unchanged catalog epoch. Still
  // validate every view read against the live catalog (expiry, purges and
  // drops bump no epoch) before skipping the whole compile pipeline.
  if (!CachedViewReadsLive(job.probe.entry->rewritten)) {
    plan_cache_.OnDemoted();
    return false;
  }
  obs::Span cache_span = job.span.StartChild("plan_cache");
  auto finished = optimizer_.FinishCachedPlan(
      job.probe.entry->rewritten->Clone(), job.ctx);
  if (!finished.ok()) return false;
  job.optimized = std::move(finished).ValueOrDie();
  job.tier = JobState::Tier::kFull;
  plan_cache_.OnServed(/*full_hit=*/true);
  cache_span.SetAttribute("tier", "full");
  cache_span.SetAttribute("estimated_cost", job.optimized.estimated_cost);
  return true;
}

void JobService::LookupViews(JobState& job) {
  OptimizeContext& ctx = job.ctx;
  ctx.view_catalog = metadata_;
  std::vector<std::string> tags =
      job.def.tags.empty() ? DefaultTags(job.def) : job.def.tags;
  obs::Span span = job.span.StartChild("metadata_lookup");
  // Containment tier 1 rides in the same request: the table-set keys of
  // this job's subgraphs fetch the annotations over the same table sets.
  std::vector<Hash128> table_set_keys;
  if (optimizer_.config().enable_containment_matching) {
    table_set_keys = CollectTableSetKeys(job.def.logical_plan);
  }
  Status lookup = fault::RetryWithBackoff(
      retry_,
      [&]() -> Status {
        CV_ASSIGN_OR_RETURN(
            ctx.annotations,
            metadata_->GetRelevantViews(tags, table_set_keys,
                                        &job.result.metadata_lookup_seconds));
        return Status::OK();
      },
      sleeper_);
  if (!lookup.ok()) {
    // The lookup failed persistently. Reuse is an optimization: degrade
    // to a plain (no-reuse, no-materialize) job rather than failing it.
    ctx.annotations.clear();
    ctx.view_catalog = nullptr;
    job.result.lookup_degraded = true;
    span.SetAttribute("degraded", true);
    span.SetAttribute("error", lookup.ToString());
  }
  span.SetAttribute("annotations",
                    static_cast<uint64_t>(ctx.annotations.size()));
  span.SetAttribute("simulated_latency_seconds",
                    job.result.metadata_lookup_seconds);
}

bool JobService::ServeSkeleton(JobState& job) {
  // Skeleton hit: same template, but new data or a moved catalog epoch.
  // Rebind the `{param}` holes onto a clone of the cached logically-
  // rewritten tree, then re-run physical planning + the view passes —
  // the logical rewrites are skipped (no `logical_rewrite` span).
  if (job.probe.entry == nullptr || job.probe.entry->skeleton == nullptr) {
    return false;
  }
  PlanNodePtr candidate = job.probe.entry->skeleton->Clone();
  if (!RebindSkeletonParams(candidate.get(), job.def.logical_plan.get())) {
    plan_cache_.OnRebindFailed();
    return false;
  }
  obs::Span optimize_span = job.span.StartChild("optimize");
  optimize_span.SetAttribute("plan_cache", "skeleton");
  job.ctx.span = optimize_span.active() ? &optimize_span : nullptr;
  auto from_skeleton =
      optimizer_.OptimizeFromSkeleton(std::move(candidate), job.ctx);
  job.ctx.span = nullptr;
  // On failure fall through to a cold compile — the cache must never fail
  // a job a cold compile would have run.
  if (!from_skeleton.ok()) return false;
  job.optimized = std::move(from_skeleton).ValueOrDie();
  job.tier = JobState::Tier::kSkeleton;
  plan_cache_.OnServed(/*full_hit=*/false);
  optimize_span.SetAttribute("estimated_cost", job.optimized.estimated_cost);
  return true;
}

Status JobService::CompileCold(JobState& job) {
  // Cold path: logical rewrite + physical optimize of the parsed plan,
  // capturing the logically-rewritten skeleton for the cache on the way
  // out.
  obs::Span optimize_span = job.span.StartChild("optimize");
  job.ctx.span = optimize_span.active() ? &optimize_span : nullptr;
  if (job.options.enable_plan_cache) job.ctx.skeleton_out = &job.skeleton;
  auto optimized = optimizer_.Optimize(job.def.logical_plan, job.ctx);
  job.ctx.skeleton_out = nullptr;
  job.ctx.span = nullptr;
  CV_ASSIGN_OR_RETURN(job.optimized, std::move(optimized));
  job.tier = JobState::Tier::kCold;
  optimize_span.SetAttribute("estimated_cost", job.optimized.estimated_cost);
  return Status::OK();
}

void JobService::Piggyback(JobState& job) {
  // Build piggybacking (work sharing on the materialization path): a
  // build-lock denial means a live builder is materializing a subgraph we
  // also compute. Instead of running reuse-blind, wait (bounded) for its
  // ReportMaterialized and re-optimize against the fresh view. Guards:
  // only non-builders wait (views_materialized == 0 — a builder waiting on
  // another builder could deadlock through the lock graph), and a degraded
  // lookup stays degraded. Every wait outcome except "view registered"
  // keeps the already-compiled blind plan — piggybacking never fails a job.
  JobResult& result = job.result;
  if (!job.cloudviews_on || !job.options.enable_piggyback ||
      result.lookup_degraded || job.optimized.views_materialized != 0 ||
      job.optimized.lock_denied_signatures.empty()) {
    return;
  }
  obs::Span pb_span = job.span.StartChild("piggyback_wait");
  MonotonicClock* real = MonotonicClock::Real();
  const double deadline =
      real->NowSeconds() + job.options.piggyback_wait_seconds;
  for (const auto& [denied_norm, denied_precise] :
       job.optimized.lock_denied_signatures) {
    (void)denied_norm;
    ++result.piggyback_waits;
    // One shared budget across all denied signatures of this job.
    double remaining = deadline - real->NowSeconds();
    Status waited =
        remaining <= 0
            ? Status::Expired("piggyback wait budget exhausted")
            : metadata_->WaitForMaterialized(denied_precise, remaining);
    if (waited.ok()) {
      ++result.piggyback_hits;
    } else if (waited.IsNotFound()) {
      ++result.piggyback_abandoned;
    } else {
      ++result.piggyback_timeouts;
    }
  }
  if (result.piggyback_hits > 0) {
    // One full re-optimize picks up every view that registered while we
    // waited. The discarded blind plan held no build locks
    // (views_materialized == 0 above), so dropping it leaks nothing; if
    // the re-optimize fails the blind plan still runs.
    auto replanned = optimizer_.Optimize(job.def.logical_plan, job.ctx);
    if (replanned.ok()) {
      job.optimized = std::move(replanned).ValueOrDie();
      job.tier = JobState::Tier::kCold;
    }
  }
  pb_span.SetAttribute("waits", static_cast<int64_t>(result.piggyback_waits));
  pb_span.SetAttribute("hits", static_cast<int64_t>(result.piggyback_hits));
  pb_span.SetAttribute("timeouts",
                       static_cast<int64_t>(result.piggyback_timeouts));
  pb_span.SetAttribute("abandoned",
                       static_cast<int64_t>(result.piggyback_abandoned));
}

Status JobService::Execute(JobState& job) {
  JobResult& result = job.result;
  result.plan_cache_hit = job.tier != JobState::Tier::kCold;
  result.compile_seconds = job.optimized.optimize_seconds;
  // The optimizer's rows join the runtime's (lookup, piggyback): each side
  // leaves the other's rows zero.
  result.Add(job.optimized);

  // Execute with early view publication (Sec 6.4).
  obs::Span execute_span = job.span.StartChild("execute");
  ExecContext exec_ctx = MakeExecContext(result.job_id);
  auto run = Executor(exec_ctx).Execute(job.optimized.root);
  if (!run.ok() && run.status().IsViewUnavailable()) {
    // Fallback-to-original-plan (the ReStore principle): a view this plan
    // was rewritten to read is unavailable, and stored results are an
    // optimization — never a correctness dependency. Discard the rewritten
    // plan (releasing the build locks it carried), re-optimize without the
    // view catalog, and run the job's original shape.
    JobCounters discarded;
    ReadPlanShape(job.optimized.root, /*builds=*/true, &discarded);
    AbandonSpoolLocks(job.optimized.root, result.job_id, metadata_);
    result.views_fallback = discarded.views_reused;
    execute_span.SetAttribute("views_fallback",
                              static_cast<int64_t>(result.views_fallback));
    execute_span.SetAttribute("fallback_cause", run.status().ToString());
    execute_span.SetAttribute("degraded", true);
    obs_.fallback_jobs->Increment();
    // The cached entry (if any) led to or coexists with a plan reading a
    // dead view — drop it so the next occurrence replans from scratch.
    if (job.options.enable_plan_cache) plan_cache_.Invalidate(job.cache_key);
    job.ctx.view_catalog = nullptr;
    job.ctx.annotations.clear();
    CV_ASSIGN_OR_RETURN(job.optimized,
                        optimizer_.Optimize(job.def.logical_plan, job.ctx));
    run = Executor(exec_ctx).Execute(job.optimized.root);
  }
  if (!run.ok()) {
    // Release build locks this job won but can no longer honor; they would
    // otherwise block others until lock expiry. Exception: an injected
    // crash models the whole job process dying — a dead process runs no
    // cleanup, so the lock must be reclaimed by lease expiry instead.
    if (!fault::IsInjectedCrash(run.status())) {
      AbandonSpoolLocks(job.optimized.root, result.job_id, metadata_);
    }
    return run.status();
  }
  result.run_stats = *run;
  result.executed_plan = job.optimized.root;
  execute_span.SetAttribute("output_rows", result.run_stats.output_rows);
  execute_span.SetAttribute("output_bytes", result.run_stats.output_bytes);
  execute_span.SetAttribute("cpu_seconds", result.run_stats.cpu_seconds);
  execute_span.SetAttribute(
      "operators", static_cast<uint64_t>(result.run_stats.operators.size()));
  return Status::OK();
}

Status JobService::PublishShare(JobState& job) {
  // Published as soon as execution succeeds (before the cache/record tail)
  // so followers stop waiting at the earliest correct moment.
  if (!job.leading) return Status::OK();
  Status injected =
      fault_ != nullptr
          ? fault_->MaybeInject(fault::points::kSharingLeaderCrash,
                                job.precise_sig.ToHex())
          : Status::OK();
  if (!injected.ok()) {
    // The fan-out is lost either way; with crash=true the leader process
    // itself is modeled as dead, so its own job fails too. Followers
    // degrade to independent execution — never to failure.
    sharing_.PublishFailure(job.share, injected);
    obs_.sharing_leader_failures->Increment();
    job.leading = false;
    return fault::IsInjectedCrash(injected) ? injected : Status::OK();
  }
  InflightSharing::Outcome out;
  out.leader_job_id = job.result.job_id;
  out.executed_plan = job.result.executed_plan;
  out.run_stats = job.result.run_stats;
  job.result.share_followers =
      static_cast<int>(sharing_.PublishSuccess(job.share, std::move(out)));
  job.leading = false;
  job.span.SetAttribute("share_followers",
                        static_cast<int64_t>(job.result.share_followers));
  return Status::OK();
}

void JobService::PublishPlan(JobState& job) {
  // Only after a successful run, and never from degraded compilations: a
  // lookup-degraded plan is reuse-blind and a fallback already invalidated
  // the entry. A full hit needs no re-insert (Lookup refreshed the LRU).
  const JobResult& result = job.result;
  if (job.options.enable_plan_cache && job.tier != JobState::Tier::kFull &&
      !result.lookup_degraded && result.views_fallback == 0) {
    PlanCache::Entry entry;
    entry.catalog_epoch = result.catalog_epoch;
    entry.precise = job.precise_sig;
    if (job.tier == JobState::Tier::kSkeleton) {
      entry.skeleton = job.probe.entry->skeleton;  // shared immutable tree
    } else if (job.skeleton != nullptr &&
               !HasExprLevelParamHoles(*job.def.logical_plan)) {
      entry.skeleton = std::move(job.skeleton);
    }
    // Plans that materialized views carry Spool side effects (build locks,
    // view writes) and must not replay; the skeleton tier still serves the
    // template. A lock-denied plan is also excluded: it lacks the Spool a
    // fresh optimize would add once the lock frees up, and neither a lock's
    // release nor its expiry bumps the catalog epoch — a full hit would
    // silently stop trying to build the view.
    if (job.optimized.views_materialized == 0 &&
        result.materialize_lock_denied == 0) {
      entry.rewritten = job.optimized.root->Clone();
    }
    if (entry.skeleton != nullptr || entry.rewritten != nullptr) {
      plan_cache_.Insert(job.cache_key, std::move(entry));
    }
  }
  job.span.SetAttribute("plan_cache_hit", result.plan_cache_hit);
  job.span.SetAttribute("catalog_epoch", result.catalog_epoch);
}

JobResult JobService::Succeed(JobState& job) {
  JobResult& result = job.result;
  // What the result says about its plan is read off the plan that ran, on
  // every path; an adopted follower ran the leader's plan but built none
  // of its views.
  ReadPlanShape(result.executed_plan, !result.shared_execution, &result);
  result.estimated_cost = result.executed_plan->estimates().cost;
  // Record in the workload repository (the feedback loop).
  if (job.options.record_in_repository) {
    obs::Span record_span = job.span.StartChild("record");
    const JobDefinition& def = job.def;
    JobRecord record;
    record.job_id = result.job_id;
    record.vc = def.vc;
    record.user = def.user;
    record.template_id = def.template_id;
    record.recurrence_period = def.recurrence_period;
    record.submit_time = clock_->Now();
    record.plan = result.executed_plan;
    record.run_stats = result.run_stats;
    repository_->AddJob(record);
  }
  ForEachJobCounter(result, [this](size_t i, auto value) {
    if (value) obs_.job_counters[i]->Increment(static_cast<uint64_t>(value));
  });
  obs_.succeeded->Increment();
  obs_.latency->Observe(wall_clock_->NowSeconds() - job.submit_start);
  result.trace = job.span.Finish();
  return std::move(result);
}

Status JobService::Fail(JobState& job, Status status) {
  // A leader that never published wakes its followers; they degrade to
  // independent execution.
  if (job.leading) {
    sharing_.PublishFailure(job.share,
                            Status::Internal("leader failed before fan-out"));
    obs_.sharing_leader_failures->Increment();
  }
  obs_.failed->Increment();
  obs_.latency->Observe(wall_clock_->NowSeconds() - job.submit_start);
  // The trace is delivered on failure too, so failed jobs stay
  // diagnosable.
  job.span.SetAttribute("error", status.ToString());
  job.span.End();
  return status;
}

Result<int> JobService::MaterializeOfflineViews(const JobDefinition& def) {
  if (def.logical_plan == nullptr) {
    return Status::InvalidArgument("job has no plan");
  }
  uint64_t job_id = next_job_id_.fetch_add(1);

  OptimizeContext ctx;
  ctx.storage = storage_;
  ctx.job_id = job_id;
  ctx.feedback = repository_;
  ctx.view_catalog = metadata_;
  CV_ASSIGN_OR_RETURN(
      ctx.annotations,
      metadata_->GetRelevantViews(def.tags.empty() ? DefaultTags(def)
                                                   : def.tags));
  // Build every annotated subgraph of this job, regardless of the online
  // per-job cap, and treat offline annotations as materializable.
  // order-insensitive: each annotation is updated on its own.
  for (auto& [normalized, ann] : ctx.annotations) ann.offline = false;
  OptimizerConfig config = optimizer_.config();
  config.max_materialized_views_per_job = 1 << 20;
  Optimizer offline_optimizer(config);
  CV_ASSIGN_OR_RETURN(OptimizedPlan optimized,
                      offline_optimizer.Optimize(def.logical_plan, ctx));

  // Extract each Spool subtree and run it standalone: the pre-job builds
  // only the views, nothing else. The single Optimize above took a build
  // lock for EVERY spool, so any early exit must release the locks of the
  // failing spool and of every spool that never got to run — not just the
  // failing one (that was a lock-leak bug).
  std::vector<PlanNode*> nodes;
  CollectNodes(optimized.root, &nodes);
  std::vector<SpoolNode*> spools;
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kSpool) {
      spools.push_back(static_cast<SpoolNode*>(n));
    }
  }
  auto abandon_from = [this, &spools, job_id](size_t first) {
    for (size_t j = first; j < spools.size(); ++j) {
      metadata_->AbandonLock(spools[j]->precise_signature(), job_id);
    }
  };
  int built = 0;
  for (size_t i = 0; i < spools.size(); ++i) {
    SpoolNode* spool = spools[i];
    PlanNodePtr standalone = spool->Clone();
    Status bound = standalone->Bind();
    if (!bound.ok()) {
      abandon_from(i);
      return bound;
    }
    AssignNodeIds(standalone.get());
    ExecContext exec_ctx = MakeExecContext(job_id);
    bool materialized = false;
    exec_ctx.on_view_materialized = [this, job_id, &materialized](
                                        const SpoolNode& node,
                                        const StreamData& view) {
      materialized = true;
      RegisterMaterializedView(node, view, job_id);
    };
    Executor executor(exec_ctx);
    auto run = executor.Execute(standalone);
    if (!run.ok()) {
      if (!fault::IsInjectedCrash(run.status())) {
        abandon_from(i);
      }
      return run.status();
    }
    // A do-no-harm write failure leaves run OK but builds nothing (the
    // spool's lock was already released through on_view_abandoned).
    if (materialized) ++built;
  }
  return built;
}

std::vector<Result<JobResult>> JobService::SubmitConcurrent(
    const std::vector<JobDefinition>& defs,
    const JobServiceOptions& options) {
  std::vector<Result<JobResult>> results(
      defs.size(), Result<JobResult>(Status::Internal("not run")));
  std::vector<std::thread> threads;
  threads.reserve(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    threads.emplace_back([this, &defs, &options, &results, i] {
      results[i] = SubmitJob(defs[i], options);
    });
  }
  for (auto& t : threads) t.join();
  return results;
}

}  // namespace cloudviews
