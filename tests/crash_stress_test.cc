// Randomized multi-job crash-stress: hundreds of mixed recurring jobs run
// while every reuse-pipeline seam (view reads, view writes, torn writes,
// metadata lookups, build-lock proposals) fails probabilistically. The
// pinned invariant is the "do no harm" contract: every submitted job either
// succeeds with byte-identical output to a fault-free no-reuse baseline, or
// fails only with an injected non-reuse fault (none are armed here, so all
// jobs must succeed). At shutdown no build lock is leaked and no torn or
// unregistered partial view survives in the store.
//
// The fault schedule derives entirely from the injector seed (CV_FAULT_SEED,
// default 42); CI sweeps seeds across sanitizer configs. When
// CV_FAULT_ARTIFACT_DIR is set the injector's event log is written there as
// JSON for post-mortem upload.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cloudviews.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

uint64_t SeedFromEnv() {
  const char* env = std::getenv("CV_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

std::string DateForDay(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2018-%02d-%02d", 2 + i / 28, 1 + i % 28);
  return buf;
}

JobDefinition MakeJob(const std::string& id, PlanNodePtr plan) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = std::move(plan);
  return def;
}

// Three recurring templates sharing the aggregate subgraph the analyzer
// mines, with distinct downstream shapes and outputs.
JobDefinition JobA(const std::string& date) {
  return MakeJob("jobA",
                 PlanBuilder::From(SharedAggPlan(date))
                     .Sort({{"n", false}})
                     .Output("A_" + date)
                     .Build());
}
JobDefinition JobB(const std::string& date) {
  return MakeJob("jobB",
                 PlanBuilder::From(SharedAggPlan(date))
                     .Filter(Gt(Col("n"), Lit(int64_t{0})))
                     .Output("B_" + date)
                     .Build());
}
JobDefinition JobC(const std::string& date) {
  return MakeJob("jobC",
                 PlanBuilder::From(SharedAggPlan(date))
                     .Sort({{"total_latency", false}})
                     .Output("C_" + date)
                     .Build());
}

/// Canonical row-sorted rendering of a stored stream for cross-instance
/// output comparison.
std::string Fingerprint(StorageManager* storage, const std::string& stream) {
  auto open = storage->OpenStream(stream);
  if (!open.ok()) return "<unreadable: " + open.status().ToString() + ">";
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

TEST(CrashStressTest, EveryJobSucceedsByteIdenticalUnderFaults) {
  const uint64_t seed = SeedFromEnv();
  const int kDays = 70;  // 3 templates/day -> 210 mixed recurring jobs
  SCOPED_TRACE("CV_FAULT_SEED=" + std::to_string(seed));

  // Fault-free baseline instance: plain no-reuse runs define the expected
  // bytes for every output.
  CloudViews baseline;
  // Faulted instance: reuse on, every pipeline seam failing at the armed
  // probabilities, four worker threads plus concurrent submissions so the
  // sanitizer configs see real interleavings.
  fault::FaultInjector injector(seed);
  fault::RecordingSleeper sleeper;
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 2;
  config.analyzer.selection.min_frequency = 2;
  config.fault = &injector;
  config.sleeper = &sleeper;
  config.retry.max_attempts = 2;
  config.exec.worker_threads = 4;
  CloudViews cv(config);

  auto write_day = [&](int day) {
    std::string date = DateForDay(day);
    size_t rows = 400 + static_cast<size_t>((day * 37) % 300);
    for (StorageManager* s : {baseline.storage(), cv.storage()}) {
      WriteClickStream(s, "clicks_" + date, rows,
                       /*seed=*/1000 + static_cast<uint64_t>(day), date);
    }
  };

  // Per table row, the sum of that counter over every JobResult the
  // faulted instance returned.
  std::vector<uint64_t> counter_sums(kNumJobCounters, 0);
  auto tally = [&counter_sums](const JobResult& r) {
    ForEachJobCounter(r, [&counter_sums](size_t i, auto value) {
      counter_sums[i] += static_cast<uint64_t>(value);
    });
  };

  // Day 0: seed recurring history on the faulted instance and mine it.
  write_day(0);
  {
    std::string date = DateForDay(0);
    for (const auto& def : {JobA(date), JobB(date), JobC(date)}) {
      auto b = baseline.Submit(def, false);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      auto r = cv.Submit(def, false);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      tally(*r);
    }
  }
  cv.RunAnalyzerAndLoad();
  ASSERT_GE(cv.metadata()->NumAnnotations(), 1u);

  // Arm the reuse-pipeline faults. None are crash faults and none touch the
  // jobs' own computation, so no job failure is acceptable from here on.
  // That includes the sharing seams: a leader "crash" armed with
  // crash=false fails only the fan-out (followers degrade to independent
  // execution), and an injected piggyback timeout just keeps the blind
  // plan.
  {
    fault::FaultSpec spec;
    spec.probability = 0.25;
    injector.Arm(fault::points::kStorageViewRead, spec);
    spec.probability = 0.20;
    injector.Arm(fault::points::kStorageViewWrite, spec);
    spec.probability = 0.10;
    injector.Arm(fault::points::kStorageViewWriteTorn, spec);
    spec.probability = 0.15;
    spec.code = StatusCode::kAborted;
    injector.Arm(fault::points::kMetadataLookup, spec);
    spec.probability = 0.10;
    spec.code = StatusCode::kIOError;
    injector.Arm(fault::points::kMetadataPropose, spec);
    spec.probability = 0.15;
    spec.code = StatusCode::kInternal;
    injector.Arm(fault::points::kSharingLeaderCrash, spec);
    spec.probability = 0.20;
    spec.code = StatusCode::kExpired;
    injector.Arm(fault::points::kSharingPiggybackTimeout, spec);
  }

  int jobs = 0;
  int fallbacks = 0;
  int degraded_lookups = 0;
  int reused = 0;
  int sharing_submissions = 0;
  for (int day = 1; day <= kDays; ++day) {
    write_day(day);
    std::string date = DateForDay(day);
    std::vector<JobDefinition> defs;
    defs.push_back(JobA(date));
    defs.push_back(JobB(date));
    defs.push_back(JobC(date));
    for (const auto& def : defs) {
      auto b = baseline.Submit(def, false);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
    }
    std::vector<Result<JobResult>> results;
    if (day % 3 == 0) {
      // Concurrent submissions: the same day's jobs race on the shared
      // metadata service and build locks, with work sharing and build
      // piggybacking on. Duplicate submissions of the same job make the
      // in-flight registry elect leaders and followers for real (they
      // write the same output stream with identical bytes, so the
      // fingerprint check is unaffected).
      defs.push_back(JobA(date));
      defs.push_back(JobB(date));
      JobServiceOptions options;
      options.enable_cloudviews = true;
      options.enable_inflight_sharing = true;
      options.enable_piggyback = true;
      options.piggyback_wait_seconds = 2;
      sharing_submissions += static_cast<int>(defs.size());
      results = cv.job_service()->SubmitConcurrent(defs, options);
    } else {
      for (const auto& def : defs) results.push_back(cv.Submit(def));
    }
    for (auto& r : results) {
      ++jobs;
      ASSERT_TRUE(r.ok()) << "job failed under reuse-pipeline faults (seed "
                          << seed << "): " << r.status().ToString();
      fallbacks += r->views_fallback;
      degraded_lookups += r->lookup_degraded ? 1 : 0;
      reused += r->views_reused;
      tally(*r);
    }
    for (const char* prefix : {"A_", "B_", "C_"}) {
      std::string stream = prefix + date;
      EXPECT_EQ(Fingerprint(cv.storage(), stream),
                Fingerprint(baseline.storage(), stream))
          << stream << " diverged from the fault-free baseline";
    }
    if (::testing::Test::HasFailure()) break;
  }

  if (!::testing::Test::HasFailure()) {
    EXPECT_GE(jobs, 200);
    // The schedule actually exercised the machinery: view reads failed and
    // at least one degradation path ran. With p=0.25 over hundreds of view
    // reads a silent schedule means the wiring is broken, not bad luck.
    EXPECT_GT(injector.fires(fault::points::kStorageViewRead), 0u);
    EXPECT_GT(injector.total_fires(), 0u);
    EXPECT_GT(reused, 0);
    EXPECT_GT(fallbacks + degraded_lookups +
                  static_cast<int>(cv.metadata()->counters().locks_abandoned),
              0);

    // Work-sharing bookkeeping: every sharing-enabled submission was
    // accounted exactly once (leader or follower; degraded followers are a
    // subset of followers), and no in-flight registry entry survived its
    // leader — a leak here would strand every later identical submission.
    auto counter_value = [&](const char* name) {
      return cv.metrics()->GetCounter(name, {}, "")->value();
    };
    EXPECT_EQ(counter_value("cv_sharing_leader_total") +
                  counter_value("cv_sharing_follower_total"),
              static_cast<uint64_t>(sharing_submissions));
    EXPECT_GT(counter_value("cv_sharing_leader_total"), 0u);
    EXPECT_EQ(cv.job_service()->inflight_sharing().NumPending(), 0u)
        << "in-flight sharing entries leaked at shutdown";

    // Every job-counter metric advanced by exactly what the jobs reported
    // (fallbacks, degraded lookups, adopted followers and piggybacks
    // included): one increment pass per successful job.
    for (size_t i = 0; i < kNumJobCounters; ++i) {
      EXPECT_EQ(counter_value(kJobCounterInfo[i].metric), counter_sums[i])
          << kJobCounterInfo[i].metric;
    }

    // Shutdown hygiene: no leaked build locks, and every surviving view
    // stream is complete and registered (torn partials and stale copies
    // were all cleaned up). The workload is over — disarm so the audit's
    // own reads don't draw faults (events stay recorded; Reset would wipe
    // them).
    injector.Disarm(fault::points::kStorageViewRead);
    EXPECT_EQ(cv.metadata()->NumActiveLocks(), 0u)
        << "leaked build locks at shutdown";
    std::set<std::string> registered;
    for (const auto& v : cv.metadata()->ListViews()) registered.insert(v.path);
    std::vector<std::string> stored = cv.storage()->ListStreams("/views/");
    EXPECT_EQ(stored.size(), registered.size());
    for (const auto& path : stored) {
      EXPECT_TRUE(registered.count(path) > 0)
          << "orphaned view file at shutdown: " << path;
      auto open = cv.storage()->OpenStream(path);
      EXPECT_TRUE(open.ok()) << path << ": " << open.status().ToString();
    }
  }

  if (const char* dir = std::getenv("CV_FAULT_ARTIFACT_DIR")) {
    std::string path = std::string(dir) + "/fault_events_seed" +
                       std::to_string(seed) + ".json";
    Status written = injector.WriteEventsJson(path);
    EXPECT_TRUE(written.ok()) << written.ToString();
  }
}

}  // namespace
}  // namespace cloudviews
