// The SubmitJob path matrix: one row per way a submission is served — a
// cold build, exact reuse, the plan-cache tiers, every degradation, the
// piggyback and work-sharing outcomes, and an execution failure. Each row
// checks that
//   (a) every CV_JOB_COUNTERS metric moves by exactly the returned
//       JobResult's value, and by nothing for a failed job;
//   (b) the plan-shape counters equal a walk over the executed plan;
//   (c) the job span's own attribute keys, its children in order, and each
//       child's attribute keys are the documented ones;
//   (d) no share entry and no build lock is left behind;
// and that each cv_job_stage_seconds{stage=X} series gains one observation
// per span named X.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "core/cloudviews.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "plan/plan_builder.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::ClickSchema;
using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

constexpr char kDay1[] = "2018-01-01";
constexpr char kDay2[] = "2018-01-02";

JobDefinition MakeJob(const std::string& id, PlanNodePtr plan) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = std::move(plan);
  return def;
}

JobDefinition JobA(const std::string& date) {
  return MakeJob("jobA", PlanBuilder::From(SharedAggPlan(date))
                             .Sort({{"n", false}})
                             .Output("A_" + date)
                             .Build());
}

JobDefinition JobB(const std::string& date) {
  return MakeJob("jobB", PlanBuilder::From(SharedAggPlan(date))
                             .Filter(Gt(Col("n"), Lit(int64_t{0})))
                             .Output("B_" + date)
                             .Build());
}

/// The shared aggregate narrowed to one page: only containment serves it
/// from the shared view (residual filter, re-aggregation, final project).
JobDefinition PageJob(const std::string& date) {
  return MakeJob(
      "jobP",
      PlanBuilder::Extract("clicks_{date}", "clicks_" + date,
                           "guid-clicks_" + date, ClickSchema())
          .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                      Eq(Col("page"), Lit("/home"))))
          .Aggregate({"page"},
                     {{AggFunc::kCount, nullptr, "n"},
                      {AggFunc::kSum, Col("latency"), "total_latency"}})
          .Sort({{"page", true}})
          .Output("P_" + date)
          .Build());
}

/// A retry sleeper that returns at once while open and parks its callers
/// while closed; lets a test hold a job inside its metadata-lookup retry.
class GateSleeper : public fault::Sleeper {
 public:
  void Sleep(double) override EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++parked_;
    while (closed_) cv_.Wait(mu_);
    --parked_;
  }
  void Close() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
  }
  void Open() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = false;
    cv_.NotifyAll();
  }
  int parked() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return parked_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool closed_ GUARDED_BY(mu_) = false;
  int parked_ GUARDED_BY(mu_) = 0;
};

/// "name(key,key,...)" for the job span and each child, space-separated.
std::string Outline(const obs::SpanRecord& job) {
  auto one = [](const obs::SpanRecord& span) {
    std::string out = span.name + "(";
    for (size_t i = 0; i < span.attributes.size(); ++i) {
      out += (i > 0 ? "," : "") + span.attributes[i].first;
    }
    return out + ")";
  };
  std::string out = one(job);
  for (const auto& child : job.children) out += " " + one(*child);
  return out;
}

void CountSpans(const obs::SpanRecord& span,
                std::map<std::string, uint64_t>* counts) {
  ++(*counts)[span.name];
  for (const auto& child : span.children) CountSpans(*child, counts);
}

/// Every span a job emits in process (DESIGN.md "Observability").
constexpr const char* kSpanNames[] = {
    "job", "inflight_wait", "plan_cache", "metadata_lookup", "optimize",
    "logical_rewrite", "physical_plan", "reuse", "containment_verify",
    "materialize", "piggyback_wait", "execute", "record"};

std::string AttributeOf(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return v;
  }
  return "";
}

class SubmitPathsTest : public ::testing::Test {
 protected:
  SubmitPathsTest() {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 100;
    config.analyzer.selection.min_frequency = 2;
    config.wall_clock = &wall_;
    config.fault = &injector_;
    config.sleeper = &gate_;
    config.retry.max_attempts = 2;
    cv_ = std::make_unique<CloudViews>(config);
  }

  /// Day-1 history of the two jobs sharing the aggregate, the analysis
  /// that selects it, and the day-2 input.
  void Seed() {
    WriteClickStream(cv_->storage(), std::string("clicks_") + kDay1, 1500, 1,
                     kDay1);
    ASSERT_TRUE(cv_->Submit(JobA(kDay1), false).ok());
    ASSERT_TRUE(cv_->Submit(JobB(kDay1), false).ok());
    // The wall clock never advances, so every candidate ties on utility:
    // keep the largest, the aggregate both jobs share.
    std::vector<AnnotatedComputation> shared;
    size_t largest = 0;
    for (const auto& c : cv_->RunAnalyzerAndLoad().annotations) {
      std::vector<PlanNode*> nodes;
      if (c.annotation.definition != nullptr) {
        CollectNodes(c.annotation.definition, &nodes);
      }
      if (nodes.size() > largest) {
        largest = nodes.size();
        shared = {c};
      }
    }
    ASSERT_EQ(shared.size(), 1u);
    ASSERT_EQ(shared[0].annotation.definition->kind(), OpKind::kAggregate);
    cv_->metadata()->LoadAnalysis(shared);
    WriteClickStream(cv_->storage(), std::string("clicks_") + kDay2, 1100, 2,
                     kDay2);
  }

  /// Seed() plus a day-2 JobA that builds the shared view.
  void SeedWithView() {
    Seed();
    auto built = Submit(JobA(kDay2));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built->views_materialized, 1);
  }

  static JobServiceOptions Options() {
    JobServiceOptions options;
    options.enable_cloudviews = true;
    return options;
  }

  Result<JobResult> Submit(const JobDefinition& def,
                           const JobServiceOptions& options = Options()) {
    return cv_->job_service()->SubmitJob(def, options);
  }

  uint64_t CounterValue(const std::string& name) {
    return cv_->metrics()->GetCounter(name)->value();
  }

  uint64_t StageCount(const std::string& stage) {
    return cv_->metrics()
        ->GetHistogram("cv_job_stage_seconds", {{"stage", stage}})
        ->count();
  }

  /// Marks the start of a row: everything after this counts toward it.
  void Begin() {
    for (size_t i = 0; i < kNumJobCounters; ++i) {
      counters_before_[i] = CounterValue(kJobCounterInfo[i].metric);
    }
    traces_before_ = cv_->tracer()->FinishedTraces().size();
    stage_before_.clear();
    for (const char* stage : kSpanNames) {
      stage_before_[stage] = StageCount(stage);
    }
  }

  /// The traces delivered since Begin(), oldest first.
  std::vector<std::shared_ptr<const obs::SpanRecord>> NewTraces() {
    auto all = cv_->tracer()->FinishedTraces();
    return {all.begin() + static_cast<std::ptrdiff_t>(traces_before_),
            all.end()};
  }

  /// The finished trace of `job_id` among the traces since Begin().
  std::shared_ptr<const obs::SpanRecord> TraceOf(uint64_t job_id) {
    for (const auto& trace : NewTraces()) {
      if (AttributeOf(*trace, "job_id") == std::to_string(job_id)) {
        return trace;
      }
    }
    return nullptr;
  }

  /// (a), (d) and the stage histograms for a row whose successful jobs are
  /// `succeeded`; failed jobs of the row contribute nothing to (a).
  void ExpectAccounted(const std::vector<const JobResult*>& succeeded) {
    JobCounters expected;
    for (const JobResult* r : succeeded) expected.Add(*r);
    ForEachJobCounter(expected, [&](size_t i, auto value) {
      EXPECT_EQ(CounterValue(kJobCounterInfo[i].metric) - counters_before_[i],
                static_cast<uint64_t>(value))
          << kJobCounterInfo[i].metric;
    });

    std::map<std::string, uint64_t> spans;
    for (const auto& trace : NewTraces()) CountSpans(*trace, &spans);
    for (const auto& [name, count] : spans) {
      EXPECT_EQ(stage_before_.count(name), 1u) << "undocumented span " << name;
    }
    for (const auto& [name, before] : stage_before_) {
      uint64_t want = spans.count(name) ? spans[name] : 0;
      EXPECT_EQ(StageCount(name) - before, want) << "stage " << name;
    }

    EXPECT_EQ(cv_->job_service()->inflight_sharing().NumPending(), 0u);
    EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);
    auto locks = cv_->metadata()->counters();
    EXPECT_EQ(locks.locks_granted,
              locks.views_registered + locks.locks_abandoned);
  }

  /// (b): the plan-shape counters of `r` are those of the plan it ran; an
  /// adopted follower ran none of its Spools.
  static void ExpectShape(const JobResult& r) {
    ASSERT_NE(r.executed_plan, nullptr);
    std::vector<PlanNode*> nodes;
    CollectNodes(r.executed_plan, &nodes);
    JobCounters walked;
    for (PlanNode* n : nodes) {
      if (n->kind() == OpKind::kViewRead) {
        int comp = static_cast<ViewReadNode*>(n)->compensation_nodes();
        ++walked.views_reused;
        if (comp > 0) ++walked.views_reused_subsumed;
        walked.compensation_nodes_added += comp;
      } else if (n->kind() == OpKind::kSpool && !r.shared_execution) {
        ++walked.views_materialized;
      }
    }
    EXPECT_EQ(r.views_reused, walked.views_reused);
    EXPECT_EQ(r.views_reused_subsumed, walked.views_reused_subsumed);
    EXPECT_EQ(r.compensation_nodes_added, walked.compensation_nodes_added);
    EXPECT_EQ(r.views_materialized, walked.views_materialized);
  }

  /// A single successful submission: (a) through (d) plus its outline.
  void ExpectRow(const Result<JobResult>& r, const std::string& outline) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->trace, nullptr);
    EXPECT_EQ(Outline(*r->trace), outline);
    ExpectShape(*r);
    ExpectAccounted({&*r});
  }

  /// Runs a leader and an identical follower: the leader parks in its
  /// metadata-lookup retry until the follower has joined its share.
  void RunSharedPair(Result<JobResult>* leader, Result<JobResult>* follower) {
    fault::FaultSpec once;
    once.trigger_every = 1;
    once.max_fires = 1;
    injector_.Arm(fault::points::kMetadataLookup, once);
    gate_.Close();
    JobServiceOptions options = Options();
    options.enable_inflight_sharing = true;
    std::thread lead([&] { *leader = Submit(JobA(kDay2), options); });
    while (gate_.parked() == 0) std::this_thread::yield();
    std::thread follow([&] { *follower = Submit(JobA(kDay2), options); });
    while (CounterValue("cv_sharing_follower_total") == 0) {
      std::this_thread::yield();
    }
    gate_.Open();
    lead.join();
    follow.join();
  }

  // Piggyback rows: a foreign builder (job 9999) holds the day-2 build lock
  // of the shared view while a day-2 JobB compiles.

  /// Builds the day-2 view, keeps its bytes and signatures, and drops it,
  /// so the catalog has the annotation but no view.
  void SeedForeignBuild() {
    SeedWithView();
    auto views = cv_->metadata()->ListViews();
    ASSERT_EQ(views.size(), 1u);
    view_ = views[0];
    auto stream = cv_->storage()->OpenStream(view_.path);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    view_stream_ = *stream;
    ASSERT_TRUE(cv_->metadata()->DropView(view_.precise_signature).ok());
    ASSERT_TRUE(cv_->metadata()->ProposeMaterialize(
        view_.normalized_signature, view_.precise_signature, 9999, 9999));
  }

  void AwaitLockDenials(uint64_t n) {
    while (cv_->metadata()->counters().locks_denied < n) {
      std::this_thread::yield();
    }
  }

  /// Job 9999 publishes the view bytes it "built".
  void RegisterForeignView() {
    MaterializedViewInfo info = view_;
    info.path = view_.path + ".9999";
    info.producer_job_id = 9999;
    ASSERT_TRUE(cv_->storage()
                    ->WriteStream(MakeStreamData(
                        info.path, "guid-foreign-view", view_stream_->schema,
                        view_stream_->batches, cv_->clock()->Now()))
                    .ok());
    ASSERT_TRUE(cv_->metadata()->ReportMaterialized(info, 0).ok());
  }

  static JobServiceOptions PiggybackOptions() {
    JobServiceOptions options = Options();
    options.enable_piggyback = true;
    return options;
  }

  FakeMonotonicClock wall_{5.0};
  fault::FaultInjector injector_{17};
  GateSleeper gate_;
  std::unique_ptr<CloudViews> cv_;
  MaterializedViewInfo view_;
  StreamHandle view_stream_;

 private:
  std::array<uint64_t, kNumJobCounters> counters_before_{};
  size_t traces_before_ = 0;
  std::map<std::string, uint64_t> stage_before_;
};

constexpr char kJob[] =
    "job(job_id,template_id,recurring_instance,plan_cache_hit,catalog_epoch)";
constexpr char kLookup[] =
    " metadata_lookup(annotations,simulated_latency_seconds)";
constexpr char kOptimize[] = " optimize(estimated_cost)";
constexpr char kExecute[] =
    " execute(output_rows,output_bytes,cpu_seconds,operators)";
constexpr char kRecord[] = " record()";

TEST_F(SubmitPathsTest, ColdBuild) {
  Seed();
  Begin();
  auto r = Submit(JobA(kDay2));
  ExpectRow(r, std::string(kJob) + kLookup + kOptimize + kExecute + kRecord);
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_EQ(r->views_materialized, 1);
  EXPECT_EQ(r->views_reused, 0);
}

TEST_F(SubmitPathsTest, ExactReuse) {
  SeedWithView();
  Begin();
  auto r = Submit(JobB(kDay2));
  ExpectRow(r, std::string(kJob) + kLookup + kOptimize + kExecute + kRecord);
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_EQ(r->views_reused, 1);
  EXPECT_EQ(r->views_reused_subsumed, 0);
}

TEST_F(SubmitPathsTest, SkeletonHit) {
  SeedWithView();
  Begin();
  auto r = Submit(JobA(kDay2));
  ExpectRow(r, std::string(kJob) + kLookup +
                   " optimize(plan_cache,estimated_cost)" + kExecute +
                   kRecord);
  EXPECT_TRUE(r->plan_cache_hit);
  EXPECT_EQ(r->views_reused, 1);
  EXPECT_EQ(cv_->job_service()->plan_cache().stats().hits_skeleton, 1u);
}

TEST_F(SubmitPathsTest, FullHitOfAnExactPlan) {
  SeedWithView();
  ASSERT_TRUE(Submit(JobA(kDay2)).ok());  // skeleton hit caches the rewrite
  Begin();
  auto r = Submit(JobA(kDay2));
  ExpectRow(r, std::string(kJob) + " plan_cache(tier,estimated_cost)" +
                   kExecute + kRecord);
  EXPECT_TRUE(r->plan_cache_hit);
  EXPECT_EQ(r->views_reused, 1);
  EXPECT_EQ(r->views_reused_subsumed, 0);
  EXPECT_EQ(cv_->job_service()->plan_cache().stats().hits_full, 1u);
}

TEST_F(SubmitPathsTest, FullHitOfASubsumedPlan) {
  SeedWithView();
  auto cold = Submit(PageJob(kDay2));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->views_reused_subsumed, 1);
  Begin();
  auto r = Submit(PageJob(kDay2));
  ExpectRow(r, std::string(kJob) + " plan_cache(tier,estimated_cost)" +
                   kExecute + kRecord);
  EXPECT_TRUE(r->plan_cache_hit);
  // The full hit ran the cold compile's plan, so it reports its shape.
  EXPECT_EQ(r->views_reused, cold->views_reused);
  EXPECT_EQ(r->views_reused_subsumed, 1);
  EXPECT_EQ(r->compensation_nodes_added, cold->compensation_nodes_added);
  EXPECT_EQ(r->compensation_nodes_added, 3);
}

TEST_F(SubmitPathsTest, LookupDegraded) {
  Seed();
  fault::FaultSpec always;
  always.probability = 1.0;
  injector_.Arm(fault::points::kMetadataLookup, always);
  Begin();
  auto r = Submit(JobA(kDay2));
  ExpectRow(r, std::string(kJob) +
                   " metadata_lookup(degraded,error,annotations,"
                   "simulated_latency_seconds)" +
                   kOptimize + kExecute + kRecord);
  EXPECT_TRUE(r->lookup_degraded);
  EXPECT_EQ(r->views_materialized, 0);
}

TEST_F(SubmitPathsTest, ViewReadFallback) {
  SeedWithView();
  fault::FaultSpec always;
  always.probability = 1.0;
  injector_.Arm(fault::points::kStorageViewRead, always);
  Begin();
  auto r = Submit(JobB(kDay2));
  ExpectRow(r, std::string(kJob) + kLookup + kOptimize +
                   " execute(views_fallback,fallback_cause,degraded,"
                   "output_rows,output_bytes,cpu_seconds,operators)" +
                   kRecord);
  EXPECT_EQ(r->views_fallback, 1);
  EXPECT_EQ(r->views_reused, 0);
}

TEST_F(SubmitPathsTest, PiggybackHit) {
  SeedForeignBuild();
  Begin();
  Result<JobResult> r = Status::Internal("not run");
  std::thread submitter([&] { r = Submit(JobB(kDay2), PiggybackOptions()); });
  AwaitLockDenials(1);
  RegisterForeignView();
  submitter.join();
  ExpectRow(r, std::string(kJob) + kLookup + kOptimize +
                   " piggyback_wait(waits,hits,timeouts,abandoned)" +
                   kExecute + kRecord);
  EXPECT_EQ(r->piggyback_hits, 1);
  EXPECT_EQ(r->views_reused, 1);
}

TEST_F(SubmitPathsTest, PiggybackTimeout) {
  SeedForeignBuild();
  fault::FaultSpec always;
  always.trigger_every = 1;
  injector_.Arm(fault::points::kSharingPiggybackTimeout, always);
  Begin();
  auto r = Submit(JobB(kDay2), PiggybackOptions());
  cv_->metadata()->AbandonLock(view_.precise_signature, 9999);
  ExpectRow(r, std::string(kJob) + kLookup + kOptimize +
                   " piggyback_wait(waits,hits,timeouts,abandoned)" +
                   kExecute + kRecord);
  EXPECT_EQ(r->piggyback_timeouts, 1);
  EXPECT_EQ(r->views_reused, 0);
}

TEST_F(SubmitPathsTest, PiggybackAbandon) {
  SeedForeignBuild();
  Begin();
  Result<JobResult> r = Status::Internal("not run");
  std::thread submitter([&] { r = Submit(JobB(kDay2), PiggybackOptions()); });
  AwaitLockDenials(1);
  cv_->metadata()->AbandonLock(view_.precise_signature, 9999);
  submitter.join();
  ExpectRow(r, std::string(kJob) + kLookup + kOptimize +
                   " piggyback_wait(waits,hits,timeouts,abandoned)" +
                   kExecute + kRecord);
  EXPECT_EQ(r->piggyback_abandoned, 1);
  EXPECT_EQ(r->views_reused, 0);
}

TEST_F(SubmitPathsTest, SharingLeaderAndAdoptedFollower) {
  Seed();
  Begin();
  Result<JobResult> leader = Status::Internal("not run");
  Result<JobResult> follower = Status::Internal("not run");
  RunSharedPair(&leader, &follower);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_NE(leader->trace, nullptr);
  ASSERT_NE(follower->trace, nullptr);

  EXPECT_EQ(Outline(*leader->trace),
            "job(job_id,template_id,recurring_instance,share_followers,"
            "plan_cache_hit,catalog_epoch)" +
                std::string(kLookup) + kOptimize + kExecute + kRecord);
  EXPECT_EQ(leader->views_materialized, 1);
  ExpectShape(*leader);

  EXPECT_EQ(Outline(*follower->trace),
            "job(job_id,template_id,recurring_instance,shared_execution,"
            "share_leader_job_id) inflight_wait(adopted) record()");
  EXPECT_TRUE(follower->shared_execution);
  EXPECT_EQ(follower->share_leader_job_id, leader->job_id);
  // The follower ran the leader's plan but built none of its views.
  EXPECT_EQ(follower->views_materialized, 0);
  ExpectShape(*follower);

  ExpectAccounted({&*leader, &*follower});
}

TEST_F(SubmitPathsTest, FollowerDegradedByALeaderCrash) {
  Seed();
  fault::FaultSpec crash;
  crash.trigger_every = 1;
  crash.max_fires = 1;
  crash.crash = true;
  crash.message = "leader process died";
  injector_.Arm(fault::points::kSharingLeaderCrash, crash);
  Begin();
  Result<JobResult> leader = Status::Internal("not run");
  Result<JobResult> follower = Status::Internal("not run");
  RunSharedPair(&leader, &follower);
  ASSERT_FALSE(leader.ok());
  EXPECT_TRUE(fault::IsInjectedCrash(leader.status()))
      << leader.status().ToString();
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  ASSERT_NE(follower->trace, nullptr);

  EXPECT_EQ(Outline(*follower->trace),
            std::string(kJob) +
                " inflight_wait(adopted,degraded_cause,degraded)" + kLookup +
                kOptimize + kExecute + kRecord);
  EXPECT_FALSE(follower->shared_execution);
  // The degraded follower compiled after the leader registered the view.
  EXPECT_EQ(follower->views_reused, 1);
  ExpectShape(*follower);

  uint64_t leader_id = follower->job_id - 1;
  auto leader_trace = TraceOf(leader_id);
  ASSERT_NE(leader_trace, nullptr);
  EXPECT_EQ(Outline(*leader_trace),
            "job(job_id,template_id,recurring_instance,error)" +
                std::string(kLookup) + kOptimize + kExecute);

  ExpectAccounted({&*follower});
}

TEST_F(SubmitPathsTest, ExecutionFailure) {
  Seed();
  fault::FaultSpec always;
  always.probability = 1.0;
  injector_.Arm(fault::points::kExecMorsel, always);
  Begin();
  auto r = Submit(JobA(kDay2));
  ASSERT_FALSE(r.ok());
  auto trace = cv_->tracer()->LatestTrace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(Outline(*trace),
            "job(job_id,template_id,recurring_instance,error)" +
                std::string(kLookup) + kOptimize + " execute()");
  // The failed plan held the build lock; it was handed back.
  EXPECT_GE(cv_->metadata()->counters().locks_abandoned, 1u);
  ExpectAccounted({});
}

}  // namespace
}  // namespace cloudviews
