// Work-sharing tests: the signature-keyed in-flight registry (leader
// election, follower adoption, timeouts, first-publish-wins), the
// build-piggyback wait on MetadataService, and the end-to-end do-no-harm
// contract — shared and piggybacked runs stay byte-identical to
// independent execution, and every sharing failure degrades the job to
// running alone instead of failing it.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/cloudviews.h"
#include "fault/fault_injector.h"
#include "runtime/inflight_sharing.h"
#include "signature/containment.h"
#include "signature/signature.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

// --- InflightSharing unit tests ---------------------------------------------

InflightSharing::ShareKey Key(uint64_t a, bool cloudviews = true) {
  return InflightSharing::ShareKey{Hash128{a, 1}, Hash128{a, 2}, cloudviews};
}

TEST(InflightSharingTest, FirstJoinLeadsLaterJoinsFollow) {
  InflightSharing reg;
  auto leader = reg.Join(Key(1));
  EXPECT_EQ(leader.role, InflightSharing::Role::kLeader);
  auto follower = reg.Join(Key(1));
  EXPECT_EQ(follower.role, InflightSharing::Role::kFollower);
  // A different precise instance and a different CloudViews mode are
  // different executions — both elect fresh leaders.
  auto other_key = reg.Join(Key(2));
  EXPECT_EQ(other_key.role, InflightSharing::Role::kLeader);
  auto other_mode = reg.Join(Key(1, false));
  EXPECT_EQ(other_mode.role, InflightSharing::Role::kLeader);
  EXPECT_EQ(reg.NumPending(), 3u);

  reg.PublishFailure(leader, Status::Internal("test cleanup"));
  reg.PublishFailure(other_key, Status::Internal("test cleanup"));
  reg.PublishFailure(other_mode, Status::Internal("test cleanup"));
  EXPECT_EQ(reg.NumPending(), 0u);
}

TEST(InflightSharingTest, FollowersAdoptThePublishedOutcome) {
  InflightSharing reg;
  auto leader = reg.Join(Key(7));
  constexpr int kFollowers = 4;
  std::vector<InflightSharing::Outcome> got(kFollowers);
  std::vector<InflightSharing::Ticket> tickets;
  for (int i = 0; i < kFollowers; ++i) {
    tickets.push_back(reg.Join(Key(7)));
    EXPECT_EQ(tickets.back().role, InflightSharing::Role::kFollower);
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back(
        [&reg, &got, &tickets, i] { got[i] = reg.WaitForLeader(tickets[i], 30); });
  }
  InflightSharing::Outcome out;
  out.leader_job_id = 42;
  out.run_stats.output_rows = 9;
  // The publish may beat some followers into WaitForLeader; the outcome
  // persists on the retired entry so they must still adopt it.
  EXPECT_LE(reg.PublishSuccess(leader, out), static_cast<size_t>(kFollowers));
  for (auto& t : threads) t.join();
  for (const auto& o : got) {
    EXPECT_TRUE(o.ok) << o.status.ToString();
    EXPECT_EQ(o.leader_job_id, 42u);
    EXPECT_EQ(o.run_stats.output_rows, 9);
  }
  EXPECT_EQ(reg.NumPending(), 0u);
}

TEST(InflightSharingTest, WaitTimesOutWhenLeaderNeverPublishes) {
  InflightSharing reg;
  auto leader = reg.Join(Key(3));
  auto follower = reg.Join(Key(3));
  auto out = reg.WaitForLeader(follower, 0.05);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.status.IsExpired()) << out.status.ToString();
  reg.PublishFailure(leader, Status::Internal("test cleanup"));
  EXPECT_EQ(reg.NumPending(), 0u);
}

TEST(InflightSharingTest, FailureWakesFollowersAndFirstPublishWins) {
  InflightSharing reg;
  auto leader = reg.Join(Key(4));
  auto follower = reg.Join(Key(4));
  reg.PublishFailure(leader, Status::Internal("leader died"));
  auto out = reg.WaitForLeader(follower, 30);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.status.ToString().find("leader died"), std::string::npos);
  // A late success publish on the retired entry must not resurrect it or
  // rewrite the adopted outcome (first publish wins).
  InflightSharing::Outcome late;
  late.leader_job_id = 99;
  EXPECT_EQ(reg.PublishSuccess(leader, late), 0u);
  EXPECT_FALSE(reg.WaitForLeader(follower, 1).ok);
  EXPECT_EQ(reg.NumPending(), 0u);
}

TEST(InflightSharingTest, NextJoinAfterPublishStartsAFreshEntry) {
  InflightSharing reg;
  auto first = reg.Join(Key(5));
  reg.PublishSuccess(first, InflightSharing::Outcome{});
  // The entry retired with the publish; a late submission of the same key
  // must lead its own execution, not adopt a finished one.
  auto second = reg.Join(Key(5));
  EXPECT_EQ(second.role, InflightSharing::Role::kLeader);
  reg.PublishFailure(second, Status::Internal("test cleanup"));
  EXPECT_EQ(reg.NumPending(), 0u);
}

// --- MetadataService::WaitForMaterialized unit tests ------------------------

Hash128 H(uint64_t a, uint64_t b = 0) { return Hash128{a, b}; }

class PiggybackWaitTest : public ::testing::Test {
 protected:
  PiggybackWaitTest() : storage_(&clock_), service_(&clock_, &storage_) {}

  SimulatedClock clock_;
  StorageManager storage_;
  MetadataService service_;
};

TEST_F(PiggybackWaitTest, NoBuilderMeansImmediateNotFound) {
  EXPECT_TRUE(service_.WaitForMaterialized(H(10), 30).IsNotFound());
}

TEST_F(PiggybackWaitTest, LiveViewReturnsOkWithoutWaiting) {
  MaterializedViewInfo info;
  info.path = "/views/a/b_1.ss";
  info.normalized_signature = H(1);
  info.precise_signature = H(10);
  ASSERT_TRUE(service_.ReportMaterialized(info, 0).ok());
  EXPECT_TRUE(service_.WaitForMaterialized(H(10), 30).ok());
}

TEST_F(PiggybackWaitTest, WaitEndsWhenTheBuilderReports) {
  ASSERT_TRUE(service_.ProposeMaterialize(H(1), H(10), 1, 10));
  Status waited;
  std::thread waiter(
      [&] { waited = service_.WaitForMaterialized(H(10), 30); });
  MaterializedViewInfo info;
  info.path = "/views/a/b_1.ss";
  info.normalized_signature = H(1);
  info.precise_signature = H(10);
  info.producer_job_id = 1;
  ASSERT_TRUE(service_.ReportMaterialized(info, 0).ok());
  waiter.join();
  EXPECT_TRUE(waited.ok()) << waited.ToString();
}

TEST_F(PiggybackWaitTest, WaitEndsNotFoundWhenTheBuilderAbandons) {
  ASSERT_TRUE(service_.ProposeMaterialize(H(1), H(10), 1, 10));
  Status waited;
  std::thread waiter(
      [&] { waited = service_.WaitForMaterialized(H(10), 30); });
  service_.AbandonLock(H(10), 1);
  waiter.join();
  EXPECT_TRUE(waited.IsNotFound()) << waited.ToString();
}

TEST_F(PiggybackWaitTest, WaitTimesOutUnderALiveBuilder) {
  ASSERT_TRUE(service_.ProposeMaterialize(H(1), H(10), 1, 1000));
  Status waited = service_.WaitForMaterialized(H(10), 0.05);
  EXPECT_TRUE(waited.IsExpired()) << waited.ToString();
  service_.AbandonLock(H(10), 1);
}

TEST_F(PiggybackWaitTest, InjectedTimeoutFiresWithoutWaiting) {
  FaultInjector inj(7);
  FaultSpec spec;
  spec.trigger_every = 1;
  inj.Arm(fault::points::kSharingPiggybackTimeout, spec);
  MetadataService service(&clock_, &storage_, {}, nullptr,
                          MonotonicClock::Real(), &inj);
  ASSERT_TRUE(service.ProposeMaterialize(H(1), H(10), 1, 1000));
  // A long budget that would stall the test for real; the injection must
  // short-circuit it instantly.
  Status waited = service.WaitForMaterialized(H(10), 600);
  EXPECT_TRUE(waited.IsExpired()) << waited.ToString();
  service.AbandonLock(H(10), 1);
}

// --- End-to-end job-service tests -------------------------------------------

JobDefinition RecurringJob(const std::string& date,
                           const std::string& out_suffix = "") {
  JobDefinition def;
  def.template_id = "jobA";
  def.cluster = "c1";
  def.business_unit = "bu1";
  def.vc = "vc1";
  def.user = "alice";
  def.recurrence_period = kSecondsPerDay;
  def.logical_plan = PlanBuilder::From(SharedAggPlan(date))
                         .Sort({{"n", false}})
                         .Output("jobA_out_" + date + out_suffix)
                         .Build();
  return def;
}

JobDefinition OverlappingJob(const std::string& date,
                             const std::string& out_suffix = "") {
  JobDefinition def;
  def.template_id = "jobB";
  def.cluster = "c1";
  def.business_unit = "bu1";
  def.vc = "vc2";
  def.user = "bob";
  def.recurrence_period = kSecondsPerDay;
  def.logical_plan = PlanBuilder::From(SharedAggPlan(date))
                         .Filter(Gt(Col("n"), Lit(int64_t{0})))
                         .Output("jobB_out_" + date + out_suffix)
                         .Build();
  return def;
}

void WriteDay(StorageManager* storage, const std::string& date,
              size_t rows = 2000) {
  WriteClickStream(storage, "clicks_" + date, rows,
                   std::hash<std::string>{}(date), date);
}

/// Sorted row-by-row equality of two output streams (possibly living in
/// different CloudViews instances).
void ExpectStreamsIdentical(StorageManager* a, const std::string& a_name,
                            StorageManager* b, const std::string& b_name) {
  auto ah = a->OpenStream(a_name);
  auto bh = b->OpenStream(b_name);
  ASSERT_TRUE(ah.ok()) << a_name;
  ASSERT_TRUE(bh.ok()) << b_name;
  Batch ab = CombineBatches((*ah)->schema, (*ah)->batches);
  Batch bb = CombineBatches((*bh)->schema, (*bh)->batches);
  ab = SortBatch(ab, {{"page", true}});
  bb = SortBatch(bb, {{"page", true}});
  ASSERT_EQ(ab.num_rows(), bb.num_rows());
  for (size_t r = 0; r < ab.num_rows(); ++r) {
    auto arow = ab.GetRow(r);
    auto brow = bb.GetRow(r);
    ASSERT_EQ(arow.size(), brow.size());
    for (size_t c = 0; c < arow.size(); ++c) {
      EXPECT_EQ(arow[c].Compare(brow[c]), 0) << "row " << r << " col " << c;
    }
  }
}

CloudViewsConfig SharingCvConfig(FaultInjector* fault = nullptr) {
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 1;
  config.analyzer.selection.min_frequency = 2;
  config.fault = fault;
  return config;
}

TEST(InflightSharingServiceTest, ConcurrentIdenticalJobsShareOneExecution) {
  CloudViews cv(SharingCvConfig());
  // A heavy input keeps the leader executing long enough that the other
  // submission threads (spawned microseconds apart) join as followers.
  WriteDay(cv.storage(), "2018-01-01", /*rows=*/30000);

  constexpr int kJobs = 8;
  std::vector<JobDefinition> defs(kJobs, RecurringJob("2018-01-01"));
  JobServiceOptions options;
  options.enable_inflight_sharing = true;
  auto results = cv.job_service()->SubmitConcurrent(defs, options);
  ASSERT_EQ(results.size(), static_cast<size_t>(kJobs));

  int followers = 0;
  for (auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->run_stats.output_rows, results[0]->run_stats.output_rows);
    if (r->shared_execution) {
      ++followers;
      EXPECT_NE(r->share_leader_job_id, 0u);
      EXPECT_NE(r->share_leader_job_id, r->job_id);
    }
  }
  // Leaders + degraded followers execute; adopted followers do not. The
  // counters must account for every submission either way.
  uint64_t leaders =
      cv.metrics()->GetCounter("cv_sharing_leader_total", {}, "")->value();
  uint64_t degraded =
      cv.metrics()
          ->GetCounter("cv_sharing_follower_degraded_total", {}, "")
          ->value();
  EXPECT_EQ(leaders + static_cast<uint64_t>(followers) + degraded,
            static_cast<uint64_t>(kJobs));
  EXPECT_GE(leaders, 1u);
  // Concurrent identical submissions must actually share: executions
  // (leaders + degraded) stay below the submission count.
  EXPECT_LT(leaders + degraded, static_cast<uint64_t>(kJobs));
  EXPECT_GE(followers, 1);
  // No leaked share entries once every submission returned.
  EXPECT_EQ(cv.job_service()->inflight_sharing().NumPending(), 0u);
  // Every submission still lands in the workload repository (the feedback
  // loop sees followers too).
  EXPECT_EQ(cv.repository()->NumJobs(), static_cast<size_t>(kJobs));

  // Byte-identity: an independent no-sharing instance over the same input
  // produces the same output.
  CloudViews baseline(SharingCvConfig());
  WriteDay(baseline.storage(), "2018-01-01", /*rows=*/30000);
  ASSERT_TRUE(baseline.Submit(RecurringJob("2018-01-01"), false).ok());
  ExpectStreamsIdentical(cv.storage(), "jobA_out_2018-01-01",
                         baseline.storage(), "jobA_out_2018-01-01");
}

TEST(InflightSharingServiceTest, LeaderCrashDegradesFollowersNotFails) {
  FaultInjector inj(13);
  FaultSpec spec;
  spec.trigger_every = 1;
  spec.max_fires = 1;
  spec.crash = true;
  spec.message = "leader process died";
  inj.Arm(fault::points::kSharingLeaderCrash, spec);

  CloudViewsConfig config = SharingCvConfig();
  config.fault = &inj;
  CloudViews cv(config);
  WriteDay(cv.storage(), "2018-01-01");

  constexpr int kJobs = 6;
  std::vector<JobDefinition> defs(kJobs, RecurringJob("2018-01-01"));
  JobServiceOptions options;
  options.enable_inflight_sharing = true;
  auto results = cv.job_service()->SubmitConcurrent(defs, options);

  int failed = 0, succeeded = 0;
  for (auto& r : results) {
    if (r.ok()) {
      ++succeeded;
    } else {
      ++failed;
      EXPECT_NE(r.status().ToString().find("leader process died"),
                std::string::npos)
          << r.status().ToString();
    }
  }
  // Exactly the crashed leader fails; every follower degrades to
  // independent execution and succeeds.
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(succeeded, kJobs - 1);
  EXPECT_GE(
      cv.metrics()
          ->GetCounter("cv_sharing_leader_failures_total", {}, "")
          ->value(),
      1u);
  EXPECT_EQ(cv.job_service()->inflight_sharing().NumPending(), 0u);

  // The surviving output is still byte-identical to a clean run.
  CloudViews baseline(SharingCvConfig());
  WriteDay(baseline.storage(), "2018-01-01");
  ASSERT_TRUE(baseline.Submit(RecurringJob("2018-01-01"), false).ok());
  ExpectStreamsIdentical(cv.storage(), "jobA_out_2018-01-01",
                         baseline.storage(), "jobA_out_2018-01-01");
}

/// Harness for the piggyback end-to-end tests: day-1 history + analysis so
/// day-2 submissions want to materialize the shared aggregate, whose
/// build lock the test then holds as a synthetic job 9999.
class PiggybackServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Replay the same history in a donor instance and let it materialize
    // the day-2 view for real, then harvest the build-lock signatures and
    // the exact view bytes a real builder produces. (The annotation is
    // mined from the *optimized* subtree, so recomputing its signatures
    // from the logical plan by hand would not match.)
    CloudViews donor(SharingCvConfig());
    WriteDay(donor.storage(), "2018-01-01");
    ASSERT_TRUE(donor.Submit(RecurringJob("2018-01-01")).ok());
    ASSERT_TRUE(donor.Submit(OverlappingJob("2018-01-01")).ok());
    ASSERT_EQ(donor.RunAnalyzerAndLoad().annotations.size(), 1u);
    WriteDay(donor.storage(), "2018-01-02");
    auto built = donor.Submit(RecurringJob("2018-01-02"));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built->views_materialized, 1);
    auto views = donor.metadata()->ListViews();
    ASSERT_EQ(views.size(), 1u);
    donor_view_ = views[0];
    auto stream = donor.storage()->OpenStream(donor_view_.path);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    view_stream_ = *stream;

    // The instance under test sees the same history but stops short of
    // day 2 — the synthetic foreign builder (job 9999) steps in there.
    WriteDay(cv_.storage(), "2018-01-01");
    ASSERT_TRUE(cv_.Submit(RecurringJob("2018-01-01")).ok());
    ASSERT_TRUE(cv_.Submit(OverlappingJob("2018-01-01")).ok());
    ASSERT_EQ(cv_.RunAnalyzerAndLoad().annotations.size(), 1u);
    WriteDay(cv_.storage(), "2018-01-02");
    sigs_.normalized = donor_view_.normalized_signature;
    sigs_.precise = donor_view_.precise_signature;
  }

  /// Takes the day-2 build lock as job 9999 so real submissions get denied.
  void HoldLockAsForeignBuilder(double expected_build_seconds = 9999) {
    ASSERT_TRUE(cv_.metadata()->ProposeMaterialize(
        sigs_.normalized, sigs_.precise, 9999, expected_build_seconds));
  }

  /// Spins until at least `n` lock denials happened — i.e. the submission
  /// under test hit the held lock and is about to piggyback (the wait
  /// itself re-checks state, so winning this race is not required for
  /// correctness, only for making the test exercise the intended path).
  void AwaitLockDenials(uint64_t n) {
    while (cv_.metadata()->counters().locks_denied < n) {
      std::this_thread::yield();
    }
  }

  /// Transplants the donor's real view bytes into this instance and
  /// registers them as job 9999's view (the test stands in for the
  /// builder's early materialization).
  void RegisterViewAsForeignBuilder() {
    std::string path = "/views/" + sigs_.normalized.ToHex() + "/" +
                       sigs_.precise.ToHex() + "_9999.ss";
    ASSERT_TRUE(cv_.storage()
                    ->WriteStream(MakeStreamData(
                        path, "guid-piggyback-view", view_stream_->schema,
                        view_stream_->batches, cv_.clock()->Now()))
                    .ok());
    MaterializedViewInfo info = donor_view_;
    info.path = path;
    info.producer_job_id = 9999;
    ASSERT_TRUE(cv_.metadata()->ReportMaterialized(info, 0).ok());
  }

  /// Unarmed unless a test arms a point.
  FaultInjector inj_{29};
  CloudViews cv_{SharingCvConfig(&inj_)};
  SubgraphSignatures sigs_;
  MaterializedViewInfo donor_view_;
  StreamHandle view_stream_;
};

TEST_F(PiggybackServiceTest, DeniedJobPiggybacksOnTheBuildersView) {
  HoldLockAsForeignBuilder();
  JobServiceOptions options;
  options.enable_cloudviews = true;
  options.enable_piggyback = true;
  Result<JobResult> result = Status::Internal("not run");
  std::thread submitter([&] {
    result = cv_.job_service()->SubmitJob(OverlappingJob("2018-01-02"),
                                          options);
  });
  AwaitLockDenials(1);
  RegisterViewAsForeignBuilder();
  submitter.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->piggyback_waits, 1);
  EXPECT_EQ(result->piggyback_hits, 1);
  EXPECT_EQ(result->piggyback_timeouts, 0);
  EXPECT_EQ(result->piggyback_abandoned, 0);
  // The re-optimized plan read the freshly registered view instead of
  // recomputing the aggregate reuse-blind.
  EXPECT_EQ(result->views_reused, 1);
  EXPECT_EQ(result->views_materialized, 0);
  EXPECT_FALSE(result->plan_cache_hit);

  // Byte-identity against a reuse-blind run of the same job.
  auto blind = cv_.Submit(OverlappingJob("2018-01-02", "_blind"), false);
  ASSERT_TRUE(blind.ok());
  ExpectStreamsIdentical(cv_.storage(), "jobB_out_2018-01-02", cv_.storage(),
                         "jobB_out_2018-01-02_blind");
}

TEST_F(PiggybackServiceTest, AbandonedBuilderFallsBackToBlindPlan) {
  HoldLockAsForeignBuilder();
  JobServiceOptions options;
  options.enable_cloudviews = true;
  options.enable_piggyback = true;
  Result<JobResult> result = Status::Internal("not run");
  std::thread submitter([&] {
    result = cv_.job_service()->SubmitJob(OverlappingJob("2018-01-02"),
                                          options);
  });
  AwaitLockDenials(1);
  cv_.metadata()->AbandonLock(sigs_.precise, 9999);
  submitter.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->piggyback_waits, 1);
  EXPECT_EQ(result->piggyback_hits, 0);
  EXPECT_EQ(result->piggyback_abandoned, 1);
  // Do no harm: the job kept its reuse-blind plan and still succeeded.
  EXPECT_EQ(result->views_reused, 0);
  EXPECT_TRUE(cv_.storage()->StreamExists("jobB_out_2018-01-02"));
}

TEST_F(PiggybackServiceTest, WaitBudgetExpiryKeepsTheBlindPlan) {
  HoldLockAsForeignBuilder();
  JobServiceOptions options;
  options.enable_cloudviews = true;
  options.enable_piggyback = true;
  options.piggyback_wait_seconds = 0.05;
  auto result =
      cv_.job_service()->SubmitJob(OverlappingJob("2018-01-02"), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->piggyback_waits, 1);
  EXPECT_EQ(result->piggyback_timeouts, 1);
  EXPECT_EQ(result->piggyback_hits, 0);
  EXPECT_EQ(result->views_reused, 0);
  EXPECT_TRUE(cv_.storage()->StreamExists("jobB_out_2018-01-02"));
  cv_.metadata()->AbandonLock(sigs_.precise, 9999);
}

TEST_F(PiggybackServiceTest, InjectedTimeoutShortCircuitsTheWait) {
  FaultSpec spec;
  spec.trigger_every = 1;
  inj_.Arm(fault::points::kSharingPiggybackTimeout, spec);

  HoldLockAsForeignBuilder();
  JobServiceOptions options;
  options.enable_cloudviews = true;
  options.enable_piggyback = true;
  // A budget that would stall the test for real if the injection missed.
  options.piggyback_wait_seconds = 600;
  auto result =
      cv_.job_service()->SubmitJob(OverlappingJob("2018-01-02"), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->piggyback_waits, 1);
  EXPECT_EQ(result->piggyback_timeouts, 1);
  EXPECT_EQ(result->views_reused, 0);
  EXPECT_TRUE(cv_.storage()->StreamExists("jobB_out_2018-01-02"));
  cv_.metadata()->AbandonLock(sigs_.precise, 9999);
}

TEST_F(PiggybackServiceTest, BuildersNeverPiggybackOnThemselves) {
  // No foreign lock: the first submission wins the build lock itself.
  // A builder must not enter the piggyback wait (deadlock avoidance).
  JobServiceOptions options;
  options.enable_cloudviews = true;
  options.enable_piggyback = true;
  auto result =
      cv_.job_service()->SubmitJob(RecurringJob("2018-01-02"), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->views_materialized, 1);
  EXPECT_EQ(result->piggyback_waits, 0);
}

}  // namespace
}  // namespace cloudviews
