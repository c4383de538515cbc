// Fault-injection framework tests: deterministic draws, the retry/backoff
// helper, torn-write hygiene, and the "do no harm" degradation paths —
// view-read fallback, lookup degradation, abandoned materializations, and
// lock-leak regressions. A job may only fail when the injected fault hits
// its own computation (exec.morsel, builder.crash); every reuse-pipeline
// fault must degrade, never fail the job.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/cloudviews.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using fault::RecordingSleeper;
using fault::RetryPolicy;
using fault::RetryWithBackoff;
using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

// --- Injector unit tests ----------------------------------------------------

std::vector<bool> FireSequence(uint64_t seed, const std::string& key,
                               int hits) {
  FaultInjector inj(seed);
  FaultSpec spec;
  spec.probability = 0.5;
  inj.Arm(fault::points::kStorageRead, spec);
  std::vector<bool> fired;
  for (int i = 0; i < hits; ++i) {
    fired.push_back(!inj.MaybeInject(fault::points::kStorageRead, key).ok());
  }
  return fired;
}

TEST(FaultInjectorTest, DrawsAreDeterministicPerSeedAndKey) {
  auto a1 = FireSequence(7, "stream_a", 64);
  auto a2 = FireSequence(7, "stream_a", 64);
  EXPECT_EQ(a1, a2);  // same seed + key => identical schedule
  // Different keys and different seeds draw independently (64 coin flips
  // colliding exactly is a 2^-64 event, i.e. a broken hash).
  EXPECT_NE(a1, FireSequence(7, "stream_b", 64));
  EXPECT_NE(a1, FireSequence(8, "stream_a", 64));
  // Roughly half of the p=0.5 draws fire.
  int fires = 0;
  for (bool f : a1) fires += f ? 1 : 0;
  EXPECT_GT(fires, 16);
  EXPECT_LT(fires, 48);
}

TEST(FaultInjectorTest, KeyedSequencesIgnoreInterleavedKeys) {
  // Key "a" must see the same fire/no-fire sequence whether or not other
  // keys hit the point in between (thread-interleaving independence).
  FaultInjector alone(11);
  FaultSpec spec;
  spec.probability = 0.4;
  alone.Arm(fault::points::kStorageWrite, spec);
  std::vector<bool> expect;
  for (int i = 0; i < 32; ++i) {
    expect.push_back(
        !alone.MaybeInject(fault::points::kStorageWrite, "a").ok());
  }
  FaultInjector mixed(11);
  mixed.Arm(fault::points::kStorageWrite, spec);
  std::vector<bool> got;
  for (int i = 0; i < 32; ++i) {
    (void)mixed.MaybeInject(fault::points::kStorageWrite, "noise");
    got.push_back(!mixed.MaybeInject(fault::points::kStorageWrite, "a").ok());
    (void)mixed.MaybeInject(fault::points::kStorageWrite, "other");
  }
  EXPECT_EQ(expect, got);
}

TEST(FaultInjectorTest, TriggerEveryAndMaxFires) {
  FaultInjector inj(1);
  FaultSpec spec;
  spec.trigger_every = 3;
  spec.max_fires = 2;
  spec.code = StatusCode::kAborted;
  spec.message = "simulated outage";
  inj.Arm(fault::points::kMetadataLookup, spec);
  std::vector<int> fired_hits;
  for (int i = 1; i <= 12; ++i) {
    Status s = inj.MaybeInject(fault::points::kMetadataLookup);
    if (!s.ok()) {
      fired_hits.push_back(i);
      EXPECT_EQ(s.code(), StatusCode::kAborted);
      EXPECT_NE(s.message().find("simulated outage"), std::string::npos);
      EXPECT_TRUE(fault::IsInjectedFault(s));
      EXPECT_FALSE(fault::IsInjectedCrash(s));
    }
  }
  EXPECT_EQ(fired_hits, (std::vector<int>{3, 6}));  // max_fires caps at 2
  EXPECT_EQ(inj.hits(fault::points::kMetadataLookup), 12u);
  EXPECT_EQ(inj.fires(fault::points::kMetadataLookup), 2u);
  EXPECT_EQ(inj.total_fires(), 2u);
}

TEST(FaultInjectorTest, EventsJsonCarriesSeedPointsAndEvents) {
  FaultInjector inj(99);
  FaultSpec spec;
  spec.trigger_every = 1;
  inj.Arm(fault::points::kStorageViewRead, spec);
  ASSERT_FALSE(
      inj.MaybeInject(fault::points::kStorageViewRead, "/views/x").ok());
  std::string json = inj.EventsJson();
  EXPECT_NE(json.find("\"seed\":99"), std::string::npos);
  EXPECT_NE(json.find("storage.view_read"), std::string::npos);
  EXPECT_NE(json.find("/views/x"), std::string::npos);
  ASSERT_EQ(inj.events().size(), 1u);
  EXPECT_EQ(inj.events()[0].point, fault::points::kStorageViewRead);
  EXPECT_EQ(inj.events()[0].sequence, 1u);

  std::string path = ::testing::TempDir() + "/fault_events.json";
  ASSERT_TRUE(inj.WriteEventsJson(path).ok());
  std::ifstream back(path);
  std::string written((std::istreambuf_iterator<char>(back)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, json + "\n");  // the artifact file is newline-terminated
}

TEST(FaultInjectorTest, ResetDisarmsAndClears) {
  FaultInjector inj(5);
  FaultSpec spec;
  spec.trigger_every = 1;
  inj.Arm(fault::points::kStorageRead, spec);
  ASSERT_FALSE(inj.MaybeInject(fault::points::kStorageRead).ok());
  inj.Reset();
  EXPECT_TRUE(inj.MaybeInject(fault::points::kStorageRead).ok());
  EXPECT_EQ(inj.total_fires(), 0u);
  EXPECT_TRUE(inj.events().empty());
}

// --- Retry/backoff ----------------------------------------------------------

TEST(RetryWithBackoffTest, SleepsTheCappedExponentialSchedule) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.003;
  RecordingSleeper sleeper;
  int retries = 0;
  int calls = 0;
  Status s = RetryWithBackoff(
      policy,
      [&]() -> Status {
        ++calls;
        return Status::IOError("still down");
      },
      &sleeper, &retries);
  EXPECT_TRUE(s.IsIOError());  // last error surfaces
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(retries, 4);
  // 0.001, 0.002, then capped at 0.003.
  EXPECT_EQ(sleeper.sleeps(),
            (std::vector<double>{0.001, 0.002, 0.003, 0.003}));
}

TEST(RetryWithBackoffTest, StopsOnFirstSuccess) {
  RecordingSleeper sleeper;
  int calls = 0;
  Status s = RetryWithBackoff(
      RetryPolicy{},
      [&]() -> Status {
        return ++calls < 3 ? Status::Aborted("transient") : Status::OK();
      },
      &sleeper);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeper.sleeps().size(), 2u);
}

TEST(RetryWithBackoffTest, RetryGetsAFreshDrawFromTheInjector) {
  // A transient injected fault (max_fires=1) is healed by one retry: each
  // attempt is a new per-key ordinal, not a replay of the failing draw.
  FaultInjector inj(3);
  FaultSpec spec;
  spec.trigger_every = 1;
  spec.max_fires = 1;
  inj.Arm(fault::points::kStorageViewRead, spec);
  RecordingSleeper sleeper;
  Status s = RetryWithBackoff(
      RetryPolicy{},
      [&] { return inj.MaybeInject(fault::points::kStorageViewRead, "/v"); },
      &sleeper);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(sleeper.sleeps().size(), 1u);
}

// --- End-to-end degradation -------------------------------------------------

JobDefinition SharedJob(const std::string& id, PlanNodePtr plan) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = std::move(plan);
  return def;
}

class FaultPipelineTest : public ::testing::Test {
 protected:
  FaultPipelineTest() : injector_(kSeed) {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    config.fault = &injector_;
    config.sleeper = &sleeper_;  // retries never wait for real
    cv_ = std::make_unique<CloudViews>(config);
  }

  static constexpr uint64_t kSeed = 42;

  static JobDefinition JobA(const std::string& date) {
    return SharedJob("jobA",
                     PlanBuilder::From(SharedAggPlan(date))
                         .Sort({{"n", false}})
                         .Output("A_" + date)
                         .Build());
  }
  static JobDefinition JobB(const std::string& date,
                            const std::string& out_suffix = "") {
    return SharedJob("jobB",
                     PlanBuilder::From(SharedAggPlan(date))
                         .Filter(Gt(Col("n"), Lit(int64_t{0})))
                         .Output("B_" + date + out_suffix)
                         .Build());
  }

  void SeedHistory() {
    WriteClickStream(cv_->storage(), "clicks_2018-01-01", 1500, 1,
                     "2018-01-01");
    ASSERT_TRUE(cv_->Submit(JobA("2018-01-01"), false).ok());
    ASSERT_TRUE(cv_->Submit(JobB("2018-01-01"), false).ok());
    cv_->RunAnalyzerAndLoad();
    WriteClickStream(cv_->storage(), "clicks_2018-01-02", 1500, 2,
                     "2018-01-02");
  }

  /// Canonical row-sorted rendering of a stored stream, for byte-for-byte
  /// output comparison across fault and no-fault runs.
  std::string Fingerprint(const std::string& stream) {
    auto open = cv_->storage()->OpenStream(stream);
    EXPECT_TRUE(open.ok()) << stream << ": " << open.status().ToString();
    if (!open.ok()) return "<unreadable>";
    Batch all = CombineBatches((*open)->schema, (*open)->batches);
    std::vector<SortKey> keys;
    for (const auto& f : (*open)->schema.fields()) {
      keys.push_back({f.name, /*ascending=*/true});
    }
    all = SortBatch(all, keys);
    std::string out;
    for (size_t r = 0; r < all.num_rows(); ++r) {
      for (const Value& v : all.GetRow(r)) out += v.ToString() + "|";
      out += "\n";
    }
    return out;
  }

  FaultInjector injector_;
  RecordingSleeper sleeper_;
  std::unique_ptr<CloudViews> cv_;
};

TEST_F(FaultPipelineTest, TornViewWriteIsNeverReadableOrRegistered) {
  SeedHistory();
  FaultSpec torn;
  torn.trigger_every = 1;
  torn.max_fires = 1;
  injector_.Arm(fault::points::kStorageViewWriteTorn, torn);

  // The builder's write tears; the job itself still succeeds and the torn
  // partial is discarded, not registered.
  auto r = cv_->Submit(JobA("2018-01-02"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(injector_.fires(fault::points::kStorageViewWriteTorn), 1u);
  EXPECT_EQ(cv_->metadata()->NumRegisteredViews(), 0u);
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);
  // The spool deleted its partial: no incomplete stream may remain, and
  // nothing under /views/ is left to trip a later reader.
  EXPECT_TRUE(cv_->storage()->ListStreams("/views/").empty());

  // Direct storage-level check that a torn write is unreadable while it
  // does exist: tear a write and leave the partial in place.
  injector_.Arm(fault::points::kStorageViewWriteTorn, torn);
  Batch b(testing_util::ClickSchema());
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::String("/home"),
                           Value::Int64(2), Value::Date(0)})
                  .ok());
  Status write = cv_->storage()->WriteStream(
      MakeStreamData("/views/torn/partial.ss", "g1",
                     testing_util::ClickSchema(), {b, b},
                     cv_->clock()->Now()));
  EXPECT_FALSE(write.ok());
  ASSERT_TRUE(cv_->storage()->StreamExists("/views/torn/partial.ss"));
  auto open = cv_->storage()->OpenStream("/views/torn/partial.ss");
  ASSERT_FALSE(open.ok());
  EXPECT_NE(open.status().message().find("torn"), std::string::npos);
}

TEST_F(FaultPipelineTest, ViewReadFaultFallsBackToTheOriginalPlan) {
  SeedHistory();
  auto build = cv_->Submit(JobA("2018-01-02"));
  ASSERT_TRUE(build.ok());
  ASSERT_EQ(build->views_materialized, 1);

  // Every view read now fails, including all retry attempts.
  FaultSpec spec;
  spec.trigger_every = 1;
  injector_.Arm(fault::points::kStorageViewRead, spec);
  auto r = cv_->Submit(JobB("2018-01-02"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // the job must not fail
  EXPECT_EQ(r->views_fallback, 1);
  EXPECT_EQ(r->views_reused, 0);  // the plan that actually ran reused nothing
  EXPECT_GE(sleeper_.sleeps().size(), 2u);  // the read was retried first
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);

  // Output is identical to a clean no-reuse run.
  injector_.Reset();
  auto baseline = cv_->Submit(JobB("2018-01-02", "_check"), false);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(Fingerprint("B_2018-01-02"), Fingerprint("B_2018-01-02_check"));
}

TEST_F(FaultPipelineTest, TransientViewReadFaultIsAbsorbedByRetry) {
  SeedHistory();
  ASSERT_TRUE(cv_->Submit(JobA("2018-01-02")).ok());
  FaultSpec spec;
  spec.trigger_every = 1;
  spec.max_fires = 1;  // only the first attempt fails
  injector_.Arm(fault::points::kStorageViewRead, spec);
  auto r = cv_->Submit(JobB("2018-01-02"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->views_reused, 1);  // reuse survived via the retry
  EXPECT_EQ(r->views_fallback, 0);
  EXPECT_EQ(sleeper_.sleeps().size(), 1u);
}

TEST_F(FaultPipelineTest, LookupFaultDegradesToPlainJob) {
  SeedHistory();
  ASSERT_TRUE(cv_->Submit(JobA("2018-01-02")).ok());
  FaultSpec spec;
  spec.trigger_every = 1;
  spec.code = StatusCode::kAborted;
  injector_.Arm(fault::points::kMetadataLookup, spec);
  auto r = cv_->Submit(JobB("2018-01-02"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->lookup_degraded);
  EXPECT_EQ(r->views_reused, 0);
  EXPECT_EQ(r->views_materialized, 0);
  injector_.Reset();
  auto baseline = cv_->Submit(JobB("2018-01-02", "_check"), false);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(Fingerprint("B_2018-01-02"), Fingerprint("B_2018-01-02_check"));
}

TEST_F(FaultPipelineTest, ViewWriteFaultDoesNoHarm) {
  SeedHistory();
  FaultSpec spec;
  spec.trigger_every = 1;
  injector_.Arm(fault::points::kStorageViewWrite, spec);
  auto r = cv_->Submit(JobA("2018-01-02"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();  // materialization is optional
  EXPECT_EQ(cv_->metadata()->NumRegisteredViews(), 0u);
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);  // lock handed back
  EXPECT_GE(cv_->metadata()->counters().locks_abandoned, 1u);
  EXPECT_TRUE(cv_->storage()->StreamExists("A_2018-01-02"));

  // With the fault cleared the next instance materializes normally.
  injector_.Reset();
  auto retry = cv_->Submit(JobB("2018-01-02"));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->views_materialized, 1);
  EXPECT_EQ(cv_->metadata()->NumRegisteredViews(), 1u);
}

TEST_F(FaultPipelineTest, ProposeFaultSurfacesAsLockDenial) {
  SeedHistory();
  FaultSpec spec;
  spec.trigger_every = 1;
  injector_.Arm(fault::points::kMetadataPropose, spec);
  auto r = cv_->Submit(JobA("2018-01-02"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->views_materialized, 0);
  EXPECT_EQ(r->materialize_lock_denied, 1);
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);  // nothing was granted
}

TEST_F(FaultPipelineTest, ExecFaultFailsTheJobWithoutLeakingLocks) {
  SeedHistory();
  FaultSpec spec;
  spec.trigger_every = 1;
  spec.code = StatusCode::kInternal;
  injector_.Arm(fault::points::kExecMorsel, spec);
  auto r = cv_->Submit(JobA("2018-01-02"));
  ASSERT_FALSE(r.ok());  // a compute fault is a real job failure
  EXPECT_TRUE(fault::IsInjectedFault(r.status()));
  // The build lock the plan carried was released on the failure path.
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);
  EXPECT_EQ(cv_->metadata()->NumRegisteredViews(), 0u);
  injector_.Reset();
  auto retry = cv_->Submit(JobA("2018-01-02"));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->views_materialized, 1);
}

TEST_F(FaultPipelineTest, OfflineBuildFailureReleasesEveryRemainingLock) {
  // Regression: an offline pre-job that fails on spool i used to leak the
  // build locks of spools i+1..n (they were proposed up front by the single
  // optimize pass but never ran).
  SeedHistory();
  FaultSpec spec;
  spec.trigger_every = 1;
  spec.code = StatusCode::kInternal;
  injector_.Arm(fault::points::kExecMorsel, spec);
  auto built = cv_->job_service()->MaterializeOfflineViews(JobA("2018-01-02"));
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u)
      << "offline failure leaked build locks";
  injector_.Reset();
  auto retry = cv_->job_service()->MaterializeOfflineViews(JobA("2018-01-02"));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, 1);
}

TEST_F(FaultPipelineTest, OfflineBuildReturnsTheLookupFaultBeforeAnyLock) {
  // An offline pre-job's metadata lookup fails like a job's: the pre-job
  // returns the lookup's error before its optimize takes any build lock.
  SeedHistory();
  FaultSpec spec;
  spec.trigger_every = 1;
  spec.code = StatusCode::kAborted;
  injector_.Arm(fault::points::kMetadataLookup, spec);
  const uint64_t granted = cv_->metadata()->counters().locks_granted;
  auto built = cv_->job_service()->MaterializeOfflineViews(JobA("2018-01-02"));
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(fault::IsInjectedFault(built.status()));
  EXPECT_EQ(injector_.fires(fault::points::kMetadataLookup), 1u);
  EXPECT_EQ(cv_->metadata()->counters().locks_granted, granted);
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);
  EXPECT_EQ(cv_->metadata()->NumRegisteredViews(), 0u);
  injector_.Reset();
  auto retry = cv_->job_service()->MaterializeOfflineViews(JobA("2018-01-02"));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, 1);
  EXPECT_EQ(cv_->metadata()->NumRegisteredViews(), 1u);
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);
}

TEST_F(FaultPipelineTest, AbandonLockIsIdempotentAndOwnerChecked) {
  Hash128 norm{1, 2};
  Hash128 precise{3, 4};
  ASSERT_TRUE(cv_->metadata()->ProposeMaterialize(norm, precise, 7, 10));
  ASSERT_EQ(cv_->metadata()->NumActiveLocks(), 1u);
  // A different job cannot release it.
  cv_->metadata()->AbandonLock(precise, 8);
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 1u);
  EXPECT_EQ(cv_->metadata()->counters().locks_abandoned, 0u);
  // The owner releases exactly once; the double release is a no-op.
  cv_->metadata()->AbandonLock(precise, 7);
  cv_->metadata()->AbandonLock(precise, 7);
  EXPECT_EQ(cv_->metadata()->NumActiveLocks(), 0u);
  EXPECT_EQ(cv_->metadata()->counters().locks_abandoned, 1u);
}

}  // namespace
}  // namespace cloudviews
