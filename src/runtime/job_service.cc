#include "runtime/job_service.h"

#include <set>
#include <thread>

#include "fault/fault_injector.h"
#include "signature/signature.h"

namespace cloudviews {

ThreadPool* JobService::ExecutionPool(const ExecOptions& opts) {
  if (opts.worker_threads <= 1) return nullptr;
  MutexLock lock(pool_mu_);
  if (pool_ == nullptr) {
    // The submitting thread helps while it waits (TaskGroup::Wait), so
    // worker_threads - 1 pool workers give worker_threads total threads.
    pool_ = std::make_unique<ThreadPool>(opts.worker_threads - 1, metrics_,
                                         "exec", wall_clock_);
  }
  return pool_.get();
}

void JobService::SetObservability(obs::MetricsRegistry* metrics,
                                  obs::Tracer* tracer,
                                  MonotonicClock* wall_clock) {
  metrics_ = metrics;
  tracer_ = tracer;
  wall_clock_ = wall_clock != nullptr ? wall_clock : MonotonicClock::Real();
  if (metrics == nullptr) return;
  Register(metrics);
  plan_cache_.SetMetrics(metrics);
  obs_.latency = metrics->GetHistogram("cv_job_latency_seconds", {}, {},
                                       "Submit-to-finish wall time");
  obs_.stage_lookup = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "metadata_lookup"}}, {},
      "Per-stage wall time of the job pipeline");
  obs_.stage_optimize = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "optimize"}}, {},
      "Per-stage wall time of the job pipeline");
  obs_.stage_execute = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "execute"}}, {},
      "Per-stage wall time of the job pipeline");
  obs_.stage_record = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "record"}}, {},
      "Per-stage wall time of the job pipeline");
}

void JobService::Register(obs::MetricsRegistry* metrics) {
  obs_.submitted = metrics->GetCounter("cv_jobs_submitted_total", {},
                                       "Jobs accepted for execution");
  obs_.succeeded = metrics->GetCounter("cv_jobs_succeeded_total", {},
                                       "Jobs that ran to completion");
  obs_.failed = metrics->GetCounter("cv_jobs_failed_total", {},
                                    "Jobs that returned an error");
  obs_.active = metrics->GetGauge("cv_jobs_active", {},
                                  "Jobs currently inside SubmitJob");
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

void JobService::AbandonSpoolLocks(const PlanNodePtr& root, uint64_t job_id) {
  if (metadata_ == nullptr || root == nullptr) return;
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kSpool) {
      metadata_->AbandonLock(static_cast<SpoolNode*>(n)->precise_signature(),
                             job_id);
    }
  }
}

bool JobService::CachedViewReadsLive(const PlanNodePtr& root) {
  if (root == nullptr) return false;
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() != OpKind::kViewRead) continue;
    if (metadata_ == nullptr) return false;
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

JobResult JobService::FinishJob(JobResult result, obs::Span* job_span,
                                double latency_seconds) {
  ForEachJobCounter(result, [this](size_t i, auto value) {
    if (value) obs_.job_counters[i]->Increment(static_cast<uint64_t>(value));
  });
  obs_.succeeded->Increment();
  if (obs_.latency != nullptr) obs_.latency->Observe(latency_seconds);
  result.trace = job_span->Finish();
  return result;
}

void JobService::RecordJob(const JobDefinition& def, const JobResult& result,
                           obs::Span* job_span) {
  obs::Span record_span = job_span->StartChild("record");
  JobRecord record;
  record.job_id = result.job_id;
  record.cluster = def.cluster;
  record.business_unit = def.business_unit;
  record.vc = def.vc;
  record.user = def.user;
  record.template_id = def.template_id;
  record.recurring_instance = def.recurring_instance;
  record.recurrence_period = def.recurrence_period;
  record.submit_time = clock_->Now();
  record.tags = def.tags.empty() ? DefaultTags(def) : def.tags;
  record.plan = result.executed_plan;
  record.run_stats = result.run_stats;
  repository_->AddJob(std::move(record));
  record_span.End();
}

ExecContext JobService::MakeExecContext(uint64_t job_id,
                                        const ExecOptions& options,
                                        MonotonicClock* clock) {
  ExecContext exec_ctx;
  exec_ctx.storage = storage_;
  exec_ctx.job_id = job_id;
  exec_ctx.metrics = metrics_;
  exec_ctx.clock = clock;
  exec_ctx.options = options;
  exec_ctx.pool = ExecutionPool(exec_ctx.options);
  exec_ctx.fault = fault_;
  exec_ctx.retry = retry_;
  exec_ctx.sleeper = sleeper_;
  if (metadata_ != nullptr) {
    exec_ctx.on_view_materialized = [this, job_id](const SpoolNode& spool,
                                                   const StreamData& view) {
      RegisterMaterializedView(spool, view, job_id);
    };
    exec_ctx.on_view_abandoned = [this, job_id](const SpoolNode& spool,
                                                const Status&) {
      // Do-no-harm path: the view write failed, the partial is gone, the
      // job keeps running — hand the build lock back so another instance
      // can retry the materialization.
      metadata_->AbandonLock(spool.precise_signature(), job_id);
      obs_.views_abandoned->Increment();
    };
  }
  return exec_ctx;
}

Result<JobResult> JobService::SubmitJob(const JobDefinition& def,
                                        const JobServiceOptions& options) {
  if (def.logical_plan == nullptr) {
    return Status::InvalidArgument("job has no plan");
  }
  MonotonicClock* wall =
      wall_clock_ != nullptr ? wall_clock_ : MonotonicClock::Real();
  double submit_start = wall->NowSeconds();
  obs_.submitted->Increment();
  obs::ScopedGaugeIncrement active(obs_.active);

  JobResult result;
  result.job_id = next_job_id_.fetch_add(1);

  obs::Span job_span;  // inactive unless a tracer is attached
  if (options.parent_span != nullptr) {
    job_span = options.parent_span->StartChild("job");
  } else if (tracer_ != nullptr) {
    job_span = tracer_->StartTrace("job");
  }
  if (options.parent_span != nullptr || tracer_ != nullptr) {
    job_span.SetAttribute("job_id", result.job_id);
    job_span.SetAttribute("template_id", def.template_id);
    job_span.SetAttribute("recurring_instance",
                          static_cast<int64_t>(def.recurring_instance));
  }
  // Shared failure path: stamps counters/latency and hands the trace back
  // on the error too, so failed jobs stay diagnosable.
  auto fail = [&](Status status) {
    obs_.failed->Increment();
    if (obs_.latency != nullptr) {
      obs_.latency->Observe(wall->NowSeconds() - submit_start);
    }
    job_span.SetAttribute("error", status.ToString());
    job_span.End();
    return status;
  };

  // --- Compile: metadata lookup + optimization (Fig 6 right, Fig 9) -------
  OptimizeContext ctx;
  ctx.storage = storage_;
  ctx.job_id = result.job_id;
  ctx.clock = wall;
  if (options.use_feedback_statistics && repository_ != nullptr) {
    ctx.feedback = repository_;
  }

  // --- Recurring-job fast path: plan-cache probe (see DESIGN.md) -----------
  const bool cloudviews_on = options.enable_cloudviews && metadata_ != nullptr;
  const bool cache_on = options.enable_plan_cache;
  const bool sharing_on = options.enable_inflight_sharing;
  PlanCache::Key cache_key;
  Hash128 normalized_sig;
  Hash128 precise_sig;
  PlanCache::Probe probe;
  if (cache_on || sharing_on) {
    SubgraphSignatures sigs = ComputeSignatures(*def.logical_plan);
    normalized_sig = sigs.normalized;
    precise_sig = sigs.precise;
  }

  // --- Work sharing: join the in-flight registry (see inflight_sharing.h).
  // Placed before the plan-cache probe so a follower skips the whole
  // compile/execute pipeline, not just the cold path.
  InflightSharing::Ticket share_ticket;
  if (sharing_on) {
    share_ticket = sharing_.Join(
        InflightSharing::ShareKey{normalized_sig, precise_sig, cloudviews_on});
    if (share_ticket.role == InflightSharing::Role::kFollower) {
      obs_.sharing_followers->Increment();
      obs::Span wait_span = job_span.StartChild("inflight_wait");
      InflightSharing::Outcome shared =
          sharing_.WaitForLeader(share_ticket, options.sharing_wait_seconds);
      wait_span.SetAttribute("adopted", shared.ok);
      if (!shared.ok) {
        wait_span.SetAttribute("degraded_cause", shared.status.ToString());
      }
      wait_span.End();
      if (shared.ok) {
        // Adopt the leader's execution wholesale: same plan over the same
        // data, so the result is byte-identical to running alone. The
        // follower keeps its own job id and trace, and still records a
        // JobRecord so the feedback loop sees every submission.
        result.shared_execution = true;
        result.share_leader_job_id = shared.leader_job_id;
        result.executed_plan = shared.executed_plan;
        result.run_stats = shared.run_stats;
        static_cast<JobCounters&>(result) = shared;
        result.estimated_cost = shared.estimated_cost;
        job_span.SetAttribute("shared_execution", true);
        job_span.SetAttribute("share_leader_job_id", shared.leader_job_id);
        if (options.record_in_repository && repository_ != nullptr) {
          RecordJob(def, result, &job_span);
        }
        return FinishJob(std::move(result), &job_span,
                         wall->NowSeconds() - submit_start);
      }
      // "Do no harm": the leader failed or the wait timed out — run the
      // job independently below, exactly as if sharing were off.
      obs_.sharing_degraded->Increment();
    } else {
      obs_.sharing_leaders->Increment();
    }
  }
  // Leader-side publish guard: every exit path must publish (followers
  // would otherwise block until their timeout). Failure is the default;
  // the success tail publishes the real outcome and disarms this.
  struct ShareGuard {
    InflightSharing* reg = nullptr;
    InflightSharing::Ticket* ticket = nullptr;
    obs::Counter* leader_failures = nullptr;
    bool published = false;
    ~ShareGuard() {
      if (reg == nullptr || published) return;
      reg->PublishFailure(*ticket,
                          Status::Internal("leader failed before fan-out"));
      leader_failures->Increment();
    }
  } share_guard;
  if (sharing_on && share_ticket.role == InflightSharing::Role::kLeader) {
    share_guard.reg = &sharing_;
    share_guard.ticket = &share_ticket;
    share_guard.leader_failures = obs_.sharing_leader_failures;
  }

  if (cache_on) {
    // The epoch is read BEFORE the probe and the metadata lookup: a
    // concurrent catalog change then tags this compilation with the older
    // epoch and conservatively invalidates it later — never the reverse.
    result.catalog_epoch =
        metadata_ != nullptr ? metadata_->CatalogEpoch() : 1;
    cache_key = PlanCache::Key{normalized_sig, cloudviews_on};
    probe = plan_cache_.Lookup(cache_key, result.catalog_epoch, precise_sig);
  }

  OptimizedPlan optimized;
  bool have_plan = false;
  bool served_full = false;
  bool served_skeleton = false;
  double optimize_start = wall->NowSeconds();

  if (probe.rewritten_valid) {
    // Full hit: same template, same data, unchanged catalog epoch. Still
    // validate every view read against the live catalog (clock-driven
    // expiry bumps no epoch) before skipping the whole compile pipeline.
    if (CachedViewReadsLive(probe.entry->rewritten)) {
      obs::Span cache_span = job_span.StartChild("plan_cache");
      auto finished =
          optimizer_.FinishCachedPlan(probe.entry->rewritten->Clone(), ctx);
      if (finished.ok()) {
        optimized = std::move(finished).ValueOrDie();
        have_plan = true;
        served_full = true;
        result.plan_cache_hit = true;
        plan_cache_.OnServed(/*full_hit=*/true);
        cache_span.SetAttribute("tier", "full");
        cache_span.SetAttribute("estimated_cost", optimized.estimated_cost);
      }
      cache_span.End();
    } else {
      plan_cache_.OnDemoted();
    }
  }

  if (!have_plan && cloudviews_on) {
    ctx.view_catalog = metadata_;
    std::vector<std::string> tags =
        def.tags.empty() ? DefaultTags(def) : def.tags;
    double lookup_start = wall->NowSeconds();
    obs::Span span = job_span.StartChild("metadata_lookup");
    Status lookup = fault::RetryWithBackoff(
        retry_,
        [&]() -> Status {
          auto r = metadata_->TryGetRelevantViews(
              tags, &result.metadata_lookup_seconds);
          if (!r.ok()) return r.status();
          ctx.annotations = std::move(r).ValueOrDie();
          return Status::OK();
        },
        sleeper_);
    if (!lookup.ok()) {
      // The lookup failed persistently. Reuse is an optimization: degrade
      // to a plain (no-reuse, no-materialize) job rather than failing it.
      ctx.annotations.clear();
      ctx.view_catalog = nullptr;
      result.lookup_degraded = true;
      span.SetAttribute("degraded", true);
      span.SetAttribute("error", lookup.ToString());
    } else if (optimizer_.config().enable_containment_matching) {
      // Containment tier 1 pre-fetch: annotations over the same table sets
      // as this job's subgraphs, keyed by the table-set index so candidate
      // enumeration never scans the full catalog. Tag-matched annotations
      // already fetched above are not duplicated.
      std::set<Hash128> have;
      for (const auto& a : ctx.annotations) have.insert(a.normalized_signature);
      for (auto& extra : metadata_->GetContainmentCandidates(
               CollectTableSetKeys(def.logical_plan))) {
        if (have.insert(extra.normalized_signature).second) {
          ctx.annotations.push_back(std::move(extra));
        }
      }
    }
    span.SetAttribute("annotations",
                      static_cast<uint64_t>(ctx.annotations.size()));
    span.SetAttribute("simulated_latency_seconds",
                      result.metadata_lookup_seconds);
    if (obs_.stage_lookup != nullptr) {
      obs_.stage_lookup->Observe(wall->NowSeconds() - lookup_start);
    }
  }

  // Skeleton hit: same template, but new data or a moved catalog epoch.
  // Rebind the `{param}` holes onto a clone of the cached logically-
  // rewritten tree, then re-run physical planning + the view passes —
  // parse and logical optimize are skipped (no `logical_rewrite` span).
  if (!have_plan && cache_on && probe.entry != nullptr &&
      probe.entry->skeleton != nullptr) {
    PlanNodePtr candidate = probe.entry->skeleton->Clone();
    if (RebindSkeletonParams(candidate.get(), def.logical_plan.get())) {
      optimize_start = wall->NowSeconds();
      obs::Span optimize_span = job_span.StartChild("optimize");
      optimize_span.SetAttribute("plan_cache", "skeleton");
      ctx.span = optimize_span.active() ? &optimize_span : nullptr;
      auto from_skeleton =
          optimizer_.OptimizeFromSkeleton(std::move(candidate), ctx);
      if (from_skeleton.ok()) {
        optimized = std::move(from_skeleton).ValueOrDie();
        have_plan = true;
        served_skeleton = true;
        result.plan_cache_hit = true;
        plan_cache_.OnServed(/*full_hit=*/false);
        optimize_span.SetAttribute("estimated_cost",
                                   optimized.estimated_cost);
      }
      // On failure fall through to a full compile — the cache must never
      // fail a job a cold compile would have run.
      optimize_span.End();
      ctx.span = nullptr;
    } else {
      plan_cache_.OnRebindFailed();
    }
  }

  // Cold path: full parse + logical rewrite + physical optimize, capturing
  // the logically-rewritten skeleton for the cache on the way out.
  PlanNodePtr skeleton_captured;
  if (!have_plan) {
    optimize_start = wall->NowSeconds();
    obs::Span optimize_span = job_span.StartChild("optimize");
    ctx.span = optimize_span.active() ? &optimize_span : nullptr;
    if (cache_on) ctx.skeleton_out = &skeleton_captured;
    auto optimized_or = optimizer_.Optimize(def.logical_plan, ctx);
    ctx.skeleton_out = nullptr;
    ctx.span = nullptr;
    if (!optimized_or.ok()) return fail(optimized_or.status());
    optimized = std::move(optimized_or).ValueOrDie();
    optimize_span.SetAttribute("estimated_cost", optimized.estimated_cost);
    optimize_span.End();
  }
  // --- Build piggybacking (work sharing on the materialization path) ------
  // A build-lock denial means a live builder is materializing a subgraph we
  // also compute. Instead of running reuse-blind, wait (bounded) for its
  // ReportMaterialized and re-optimize against the fresh view. Guards:
  // only non-builders wait (views_materialized == 0 — a builder waiting on
  // another builder could deadlock through the lock graph), and a degraded
  // lookup stays degraded. Every wait outcome except "view registered"
  // keeps the already-compiled blind plan — piggybacking never fails a job.
  if (cloudviews_on && options.enable_piggyback && !result.lookup_degraded &&
      optimized.views_materialized == 0 &&
      !optimized.lock_denied_signatures.empty()) {
    obs::Span pb_span = job_span.StartChild("piggyback_wait");
    MonotonicClock* real = MonotonicClock::Real();
    const double deadline = real->NowSeconds() + options.piggyback_wait_seconds;
    for (const auto& [denied_norm, denied_precise] :
         optimized.lock_denied_signatures) {
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
      auto replanned = optimizer_.Optimize(def.logical_plan, ctx);
      if (replanned.ok()) {
        optimized = std::move(replanned).ValueOrDie();
        served_full = false;
        served_skeleton = false;
        result.plan_cache_hit = false;
      }
    }
    pb_span.SetAttribute("waits", static_cast<int64_t>(result.piggyback_waits));
    pb_span.SetAttribute("hits", static_cast<int64_t>(result.piggyback_hits));
    pb_span.SetAttribute("timeouts",
                         static_cast<int64_t>(result.piggyback_timeouts));
    pb_span.SetAttribute("abandoned",
                         static_cast<int64_t>(result.piggyback_abandoned));
    pb_span.End();
  }

  if (obs_.stage_optimize != nullptr) {
    obs_.stage_optimize->Observe(wall->NowSeconds() - optimize_start);
  }
  result.compile_seconds = optimized.optimize_seconds;
  // The optimizer's rows join the runtime's (lookup, piggyback): each side
  // leaves the other's rows zero.
  result.Add(optimized);
  result.estimated_cost = optimized.estimated_cost;

  // --- Execute with early view publication (Sec 6.4) -----------------------
  double execute_start = wall->NowSeconds();
  obs::Span execute_span = job_span.StartChild("execute");
  ExecContext exec_ctx = MakeExecContext(
      result.job_id, options.exec.value_or(exec_options_), wall);
  Executor executor(exec_ctx);
  auto run = executor.Execute(optimized.root);
  if (!run.ok() && run.status().IsViewUnavailable() && metadata_ != nullptr) {
    // Fallback-to-original-plan (the ReStore principle): a view this plan
    // was rewritten to read is unavailable, and stored results are an
    // optimization — never a correctness dependency. Discard the rewritten
    // plan (releasing the build locks it carried), re-optimize without the
    // view catalog, and run the job's original shape.
    AbandonSpoolLocks(optimized.root, result.job_id);
    result.views_fallback = result.views_reused;
    execute_span.SetAttribute("views_fallback",
                              static_cast<int64_t>(result.views_fallback));
    execute_span.SetAttribute("fallback_cause", run.status().ToString());
    obs_.fallback_jobs->Increment();
    // The cached entry (if any) led to or coexists with a plan reading a
    // dead view — drop it so the next occurrence replans from scratch.
    if (cache_on) plan_cache_.Invalidate(cache_key);
    OptimizeContext plain_ctx = ctx;
    plain_ctx.view_catalog = nullptr;
    plain_ctx.annotations.clear();
    plain_ctx.span = nullptr;
    plain_ctx.skeleton_out = nullptr;
    auto replanned = optimizer_.Optimize(def.logical_plan, plain_ctx);
    if (!replanned.ok()) return fail(replanned.status());
    optimized = std::move(replanned).ValueOrDie();
    result.views_reused = 0;
    result.views_materialized = 0;
    // The executed plan carries no compensated view reads either.
    result.views_reused_subsumed = 0;
    result.compensation_nodes_added = 0;
    result.estimated_cost = optimized.estimated_cost;
    Executor fallback_executor(exec_ctx);
    run = fallback_executor.Execute(optimized.root);
  }
  if (!run.ok()) {
    // Release build locks this job won but can no longer honor; they would
    // otherwise block others until lock expiry. Exception: an injected
    // crash models the whole job process dying — a dead process runs no
    // cleanup, so the lock must be reclaimed by lease expiry instead.
    if (!fault::IsInjectedCrash(run.status())) {
      AbandonSpoolLocks(optimized.root, result.job_id);
    }
    return fail(run.status());
  }
  result.run_stats = *run;
  result.executed_plan = optimized.root;
  execute_span.SetAttribute("output_rows", result.run_stats.output_rows);
  execute_span.SetAttribute("output_bytes", result.run_stats.output_bytes);
  execute_span.SetAttribute("cpu_seconds", result.run_stats.cpu_seconds);
  execute_span.SetAttribute(
      "operators", static_cast<uint64_t>(result.run_stats.operators.size()));
  execute_span.End();
  if (obs_.stage_execute != nullptr) {
    obs_.stage_execute->Observe(wall->NowSeconds() - execute_start);
  }

  // --- Work sharing: leader fan-out ----------------------------------------
  // Published as soon as execution succeeds (before the cache/record tail)
  // so followers stop waiting at the earliest correct moment.
  if (share_guard.reg != nullptr) {
    Status injected =
        fault_ != nullptr
            ? fault_->MaybeInject(fault::points::kSharingLeaderCrash,
                                  precise_sig.ToHex())
            : Status::OK();
    if (!injected.ok()) {
      // The fan-out is lost either way; with crash=true the leader process
      // itself is modeled as dead, so its own job fails too. Followers
      // degrade to independent execution — never to failure.
      sharing_.PublishFailure(share_ticket, injected);
      share_guard.published = true;
      obs_.sharing_leader_failures->Increment();
      if (fault::IsInjectedCrash(injected)) return fail(injected);
    } else {
      InflightSharing::Outcome out;
      out.leader_job_id = result.job_id;
      out.executed_plan = result.executed_plan;
      out.run_stats = result.run_stats;
      // What an adopting follower reports (see InflightSharing::Outcome).
      out.views_reused = result.views_reused;
      out.views_reused_subsumed = result.views_reused_subsumed;
      out.compensation_nodes_added = result.compensation_nodes_added;
      out.estimated_cost = result.estimated_cost;
      result.share_followers = static_cast<int>(
          sharing_.PublishSuccess(share_ticket, std::move(out)));
      share_guard.published = true;
      job_span.SetAttribute("share_followers",
                            static_cast<int64_t>(result.share_followers));
    }
  }

  // --- Publish into the plan cache -----------------------------------------
  // Only after a successful run, and never from degraded compilations: a
  // lookup-degraded plan is reuse-blind and a fallback already invalidated
  // the entry. A full hit needs no re-insert (Lookup refreshed the LRU).
  if (cache_on && !served_full && !result.lookup_degraded &&
      result.views_fallback == 0) {
    PlanCache::Entry entry;
    entry.catalog_epoch = result.catalog_epoch;
    entry.precise = precise_sig;
    if (served_skeleton) {
      entry.skeleton = probe.entry->skeleton;  // shared immutable tree
    } else if (skeleton_captured != nullptr &&
               !HasExprLevelParamHoles(*def.logical_plan)) {
      entry.skeleton = std::move(skeleton_captured);
    }
    // Plans that materialized views carry Spool side effects (build locks,
    // view writes) and must not replay; the skeleton tier still serves the
    // template. A lock-denied plan is also excluded: it lacks the Spool a
    // fresh optimize would add once the lock frees up, and lock expiry
    // bumps no catalog epoch — a full hit would silently stop trying to
    // build the view.
    if (optimized.views_materialized == 0 &&
        result.materialize_lock_denied == 0) {
      entry.rewritten = optimized.root->Clone();
    }
    if (entry.skeleton != nullptr || entry.rewritten != nullptr) {
      plan_cache_.Insert(cache_key, std::move(entry));
    }
  }
  job_span.SetAttribute("plan_cache_hit", result.plan_cache_hit);
  job_span.SetAttribute("catalog_epoch", result.catalog_epoch);

  // --- Record in the workload repository (feedback loop) -------------------
  if (options.record_in_repository && repository_ != nullptr) {
    double record_start = wall->NowSeconds();
    RecordJob(def, result, &job_span);
    if (obs_.stage_record != nullptr) {
      obs_.stage_record->Observe(wall->NowSeconds() - record_start);
    }
  }
  return FinishJob(std::move(result), &job_span,
                   wall->NowSeconds() - submit_start);
}

Result<int> JobService::MaterializeOfflineViews(const JobDefinition& def) {
  if (def.logical_plan == nullptr) {
    return Status::InvalidArgument("job has no plan");
  }
  if (metadata_ == nullptr) {
    return Status::InvalidArgument("offline mode needs a metadata service");
  }
  uint64_t job_id = next_job_id_.fetch_add(1);

  OptimizeContext ctx;
  ctx.storage = storage_;
  ctx.job_id = job_id;
  if (repository_ != nullptr) ctx.feedback = repository_;
  ctx.view_catalog = metadata_;
  std::vector<std::string> tags =
      def.tags.empty() ? DefaultTags(def) : def.tags;
  ctx.annotations = metadata_->GetRelevantViews(tags);
  // Build every annotated subgraph of this job, regardless of the online
  // per-job cap, and treat offline annotations as materializable.
  for (auto& ann : ctx.annotations) ann.offline = false;
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
    ExecContext exec_ctx = MakeExecContext(job_id, exec_options_, wall_clock_);
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
