// End-to-end lifecycle tests: offline materialization mode, admin storage
// reclamation, failure injection around the build locks, and the
// early-materialization checkpoint behaviour.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/cloudviews.h"
#include "exec/processor_registry.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::ClickSchema;
using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

JobDefinition SharedJob(const std::string& id, PlanNodePtr plan) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = std::move(plan);
  return def;
}

class LifecycleTest : public ::testing::Test {
 protected:
  static CloudViewsConfig Config(bool offline) {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    config.analyzer.offline_mode = offline;
    return config;
  }

  static JobDefinition JobA(const std::string& date) {
    return SharedJob("jobA",
                     PlanBuilder::From(SharedAggPlan(date))
                         .Sort({{"n", false}})
                         .Output("A_" + date)
                         .Build());
  }
  static JobDefinition JobB(const std::string& date) {
    return SharedJob("jobB",
                     PlanBuilder::From(SharedAggPlan(date))
                         .Filter(Gt(Col("n"), Lit(int64_t{0})))
                         .Output("B_" + date)
                         .Build());
  }

  void SeedHistory(CloudViews* cv) {
    WriteClickStream(cv->storage(), "clicks_2018-01-01", 1500, 1,
                     "2018-01-01");
    ASSERT_TRUE(cv->Submit(JobA("2018-01-01"), false).ok());
    ASSERT_TRUE(cv->Submit(JobB("2018-01-01"), false).ok());
    cv->RunAnalyzerAndLoad();
  }
};

TEST_F(LifecycleTest, OfflineModeBuildsBeforeTheWorkload) {
  CloudViews cv(Config(/*offline=*/true));
  SeedHistory(&cv);

  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");

  // Online materialization is disabled for offline annotations: jobs that
  // run before the offline build neither build nor reuse.
  auto early = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->views_materialized, 0);
  EXPECT_EQ(early->views_reused, 0);

  // The admin pre-job builds the views standalone (Sec 6.2 offline mode).
  auto built = cv.BuildViewsOffline(JobA("2018-01-02"));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(*built, 1);
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), 1u);

  // Now the actual workload purely reuses.
  auto a = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->views_reused, 1);
  EXPECT_EQ(a->views_materialized, 0);
  auto b = cv.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->views_reused, 1);
}

TEST_F(LifecycleTest, OfflineBuildIsIdempotent) {
  CloudViews cv(Config(true));
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  ASSERT_EQ(*cv.BuildViewsOffline(JobA("2018-01-02")), 1);
  // A second offline pass finds the view already materialized.
  ASSERT_EQ(*cv.BuildViewsOffline(JobA("2018-01-02")), 0);
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), 1u);
}

TEST_F(LifecycleTest, ReclaimDropsMinimumUtilityViewsFirst) {
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 3;
  config.analyzer.selection.min_frequency = 2;
  CloudViews cv(config);
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  // Allow several views per job so multiple get materialized.
  auto a = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(a.ok());
  auto b = cv.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(b.ok());
  size_t views_before = cv.metadata()->NumRegisteredViews();
  ASSERT_GE(views_before, 2u);  // an order to check
  size_t streams_before = cv.storage()->ListStreams("/views/").size();
  EXPECT_EQ(streams_before, views_before);

  // Sec 5.4 ranks by (frequency - 1) x avg_runtime_seconds, the larger
  // view first on ties.
  auto utility = [&cv](const MaterializedViewInfo& view) {
    auto ann = cv.metadata()->FindAnnotation(view.normalized_signature);
    EXPECT_TRUE(ann.has_value());
    return ann.has_value() ? static_cast<double>(ann->frequency - 1) *
                                 ann->avg_runtime_seconds
                           : 0.0;
  };
  std::vector<MaterializedViewInfo> before = cv.metadata()->ListViews();

  size_t dropped = cv.ReclaimViewStorage(1.0);  // one view's bytes suffice
  ASSERT_EQ(dropped, 1u);
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), views_before - dropped);
  EXPECT_EQ(cv.storage()->ListStreams("/views/").size(),
            views_before - dropped);
  std::set<Hash128> kept;
  for (const auto& view : cv.metadata()->ListViews()) {
    kept.insert(view.precise_signature);
  }
  const MaterializedViewInfo* victim = nullptr;
  for (const auto& view : before) {
    if (kept.count(view.precise_signature) == 0) victim = &view;
  }
  ASSERT_NE(victim, nullptr);
  for (const auto& view : before) {
    if (&view == victim) continue;
    EXPECT_TRUE(utility(*victim) < utility(view) ||
                (utility(*victim) == utility(view) &&
                 victim->bytes >= view.bytes))
        << "dropped a view of utility " << utility(*victim) << " and "
        << victim->bytes << " bytes before one of utility " << utility(view)
        << " and " << view.bytes << " bytes";
  }

  // Reclaiming "everything" empties the registry.
  cv.ReclaimViewStorage(1e18);
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), 0u);
  EXPECT_TRUE(cv.storage()->ListStreams("/views/").empty());
}

TEST_F(LifecycleTest, EarlyMaterializationSurvivesJobFailure) {
  // Sec 6.4 / Sec 8 "Better reliability": the view publishes before the
  // job completes, so a post-view failure still leaves the checkpoint.
  ProcessorRegistry::Global()->Register(
      "explode", [](const Batch&, Batch*) -> Status {
        return Status::Internal("user code crashed");
      });

  CloudViews cv(Config(false));
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");

  // Failing job: annotated subgraph -> exploding UDO -> output.
  JobDefinition failing = SharedJob(
      "jobA",
      PlanBuilder::From(SharedAggPlan("2018-01-02"))
          .Sort({{"n", false}})  // keep the shape matching jobA's template
          .Process("explode", "badlib", "0.1", Schema())
          .Output("A_fail")
          .Build());
  auto r = cv.Submit(failing);
  EXPECT_FALSE(r.ok());  // the job itself failed...

  // ...but whether the view survived depends on whether the spool ran
  // before the failure. The spool wraps the aggregate below the failing
  // processor, so it did.
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), 1u);
  auto b = cv.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->views_reused, 1);
}

TEST_F(LifecycleTest, FailureBeforeSpoolReleasesTheLock) {
  CloudViews cv(Config(false));
  SeedHistory(&cv);
  // Day-2 inputs intentionally missing: the job wins the build lock at
  // compile time, then fails at the scan.
  auto r = cv.Submit(JobA("2018-01-02"));
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), 0u);

  // The lock was abandoned, so the next job can immediately build.
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  auto retry = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->views_materialized, 1);
  EXPECT_EQ(cv.metadata()->counters().locks_granted, 2u);
}

TEST_F(LifecycleTest, LockExpiryUnblocksAfterCrashWithoutAbandon) {
  // Simulate a job that died without abandoning (e.g. process kill): take
  // the lock directly, advance past its expiry, and verify a retry works.
  CloudViews cv(Config(false));
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");

  auto plan = SharedAggPlan("2018-01-02");
  ASSERT_TRUE(plan->Bind().ok());
  // Steal the lock as a phantom job.
  Hash128 norm, precise;
  {
    // The annotated computation is the optimized subgraph, so locate it by
    // compiling jobA without executing.
    Optimizer opt;
    OptimizeContext ctx;
    ctx.storage = cv.storage();
    auto optimized = opt.Optimize(JobA("2018-01-02").logical_plan, ctx);
    ASSERT_TRUE(optimized.ok());
    // The annotation is the top-utility subgraph; fetch it from metadata.
    auto anns = cv.metadata()->GetRelevantViews({"template:jobA"});
    ASSERT_TRUE(anns.ok());
    ASSERT_EQ(anns->size(), 1u);
    norm = anns->begin()->first;
    // Find the matching subgraph's precise signature in the compiled plan.
    bool found = false;
    std::vector<PlanNode*> nodes;
    CollectNodes(optimized->root, &nodes);
    for (PlanNode* n : nodes) {
      if (n->SubtreeHash(SignatureMode::kNormalized) == norm) {
        precise = n->SubtreeHash(SignatureMode::kPrecise);
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
  }
  ASSERT_TRUE(cv.metadata()->ProposeMaterialize(norm, precise, 9999, 10));

  // While the phantom holds the lock, real jobs are denied.
  auto denied = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->views_materialized, 0);
  EXPECT_EQ(denied->materialize_lock_denied, 1);

  // After expiry (max(60s, 2x build estimate)), the next job takes over —
  // the fault-tolerant behaviour of Sec 6.1.
  cv.clock()->AdvanceSeconds(3600);
  auto retry = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->views_materialized, 1);
}

TEST_F(LifecycleTest, BuilderCrashLeaseExpiryAndStaleRegistrationRejected) {
  // The full crashed-builder story: a builder dies between writing the view
  // file and registering it. Its build lock is fenced by the wall-clock
  // lease, the takeover job cleans the orphaned file and builds its own
  // copy, and the dead builder's late registration attempt is rejected.
  fault::FaultInjector injector(42);
  FakeMonotonicClock wall;
  CloudViewsConfig config = Config(/*offline=*/false);
  config.fault = &injector;
  config.wall_clock = &wall;
  CloudViews cv(config);
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");

  fault::FaultSpec crash;
  crash.trigger_every = 1;
  crash.max_fires = 1;
  crash.crash = true;
  crash.code = StatusCode::kInternal;
  injector.Arm(fault::points::kBuilderCrash, crash);

  auto dead = cv.Submit(JobA("2018-01-02"));
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(fault::IsInjectedCrash(dead.status()));
  // The "process" died holding the build lock, with a complete but
  // unregistered view file orphaned in the store.
  ASSERT_EQ(cv.metadata()->NumActiveLocks(), 1u);
  ASSERT_EQ(cv.storage()->ListStreams("/views/").size(), 1u);
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), 0u);
  std::string orphan_path = cv.storage()->ListStreams("/views/")[0];
  auto held = cv.metadata()->HeldLocks();
  ASSERT_EQ(held.size(), 1u);
  uint64_t dead_job = held[0].second;

  // Until the lease expires the crashed builder blocks other builders
  // (build-build synchronization still holds).
  auto blocked = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->views_materialized, 0);
  EXPECT_EQ(blocked->materialize_lock_denied, 1);

  // Nobody advances the simulated clock — the wall lease alone fences the
  // dead builder out (lifecycle_test's other expiry test uses the logical
  // timeline; this is the crashed-process variant).
  wall.AdvanceSeconds(1e9);
  auto takeover = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(takeover.ok());
  EXPECT_EQ(takeover->views_materialized, 1);
  EXPECT_EQ(cv.metadata()->counters().leases_reclaimed, 1u);
  EXPECT_GE(cv.metadata()->counters().orphans_cleaned, 1u);
  EXPECT_FALSE(cv.storage()->StreamExists(orphan_path));  // orphan swept
  EXPECT_EQ(cv.metadata()->NumRegisteredViews(), 1u);
  EXPECT_EQ(cv.metadata()->NumActiveLocks(), 0u);

  // The dead builder's late registration is fenced: the takeover's copy
  // stays authoritative.
  auto views = cv.metadata()->ListViews();
  ASSERT_EQ(views.size(), 1u);
  MaterializedViewInfo stale = views[0];
  stale.producer_job_id = dead_job;
  stale.path = orphan_path;
  Status rejected = cv.metadata()->ReportMaterialized(stale, 0);
  EXPECT_FALSE(rejected.ok());
  EXPECT_GE(cv.metadata()->counters().stale_registrations_rejected, 1u);
  auto after = cv.metadata()->ListViews();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].producer_job_id, dead_job);
  EXPECT_EQ(after[0].path, views[0].path);
}

}  // namespace
}  // namespace cloudviews
