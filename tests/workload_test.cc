#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "analyzer/analyzer.h"
#include "common/clock.h"
#include "core/cloudviews.h"
#include "signature/signature.h"
#include "workload/production_workload.h"
#include "workload/synthetic.h"

namespace cloudviews {
namespace {

TEST(SyntheticWorkloadTest, InstanceShapeAndDeterminism) {
  ClusterProfile profile = Fig1ClusterProfile(0);
  profile.num_templates = 40;
  SyntheticWorkloadGenerator gen_a(profile);
  SyntheticWorkloadGenerator gen_b(profile);

  auto jobs_a = gen_a.Instance("2018-01-01");
  auto jobs_b = gen_b.Instance("2018-01-01");
  ASSERT_EQ(jobs_a.size(), 40u);
  for (size_t i = 0; i < jobs_a.size(); ++i) {
    ASSERT_NE(jobs_a[i].logical_plan, nullptr);
    ASSERT_TRUE(jobs_a[i].logical_plan->Bind().ok());
    ASSERT_TRUE(jobs_b[i].logical_plan->Bind().ok());
    EXPECT_EQ(
        jobs_a[i].logical_plan->SubtreeHash(SignatureMode::kPrecise),
        jobs_b[i].logical_plan->SubtreeHash(SignatureMode::kPrecise));
  }
}

TEST(SyntheticWorkloadTest, RecurringInstancesNormalizeAcrossDays) {
  ClusterProfile profile = Fig1ClusterProfile(0);
  profile.num_templates = 20;
  SyntheticWorkloadGenerator gen(profile);
  auto day1 = gen.Instance("2018-01-01");
  auto day2 = gen.Instance("2018-01-02");
  for (size_t i = 0; i < day1.size(); ++i) {
    ASSERT_TRUE(day1[i].logical_plan->Bind().ok());
    ASSERT_TRUE(day2[i].logical_plan->Bind().ok());
    EXPECT_EQ(
        day1[i].logical_plan->SubtreeHash(SignatureMode::kNormalized),
        day2[i].logical_plan->SubtreeHash(SignatureMode::kNormalized));
    EXPECT_NE(day1[i].logical_plan->SubtreeHash(SignatureMode::kPrecise),
              day2[i].logical_plan->SubtreeHash(SignatureMode::kPrecise));
  }
}

TEST(SyntheticWorkloadTest, AllJobsExecute) {
  ClusterProfile profile = Fig1ClusterProfile(1);
  profile.num_templates = 60;
  profile.rows_per_input = 100;
  SyntheticWorkloadGenerator gen(profile);
  CloudViews cv;
  gen.WriteInputs(cv.storage(), "2018-01-01");
  for (const auto& def : gen.Instance("2018-01-01")) {
    auto result = cv.Submit(def, false);
    ASSERT_TRUE(result.ok())
        << def.template_id << ": " << result.status().ToString();
  }
  EXPECT_EQ(cv.repository()->NumJobs(), 60u);
}

TEST(SyntheticWorkloadTest, SharedFragmentsCreateOverlap) {
  ClusterProfile profile = Fig1ClusterProfile(0);
  profile.num_templates = 80;
  profile.rows_per_input = 100;
  SyntheticWorkloadGenerator gen(profile);
  CloudViews cv;
  gen.WriteInputs(cv.storage(), "2018-01-01");
  for (const auto& def : gen.Instance("2018-01-01")) {
    ASSERT_TRUE(cv.Submit(def, false).ok());
  }
  MinedWindow window = cv.repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);
  EXPECT_GT(report.PctOverlappingJobs(), 30.0);
  EXPECT_GT(report.PctUsersWithOverlap(), 30.0);
  EXPECT_GT(report.overlapping_subgraph_templates, 0u);
}

TEST(SyntheticWorkloadTest, Cluster3HasLowestOverlap) {
  auto measure = [](int cluster) {
    ClusterProfile profile = Fig1ClusterProfile(cluster);
    profile.num_templates = 60;
    profile.rows_per_input = 60;
    SyntheticWorkloadGenerator gen(profile);
    CloudViews cv;
    gen.WriteInputs(cv.storage(), "2018-01-01");
    for (const auto& def : gen.Instance("2018-01-01")) {
      EXPECT_TRUE(cv.Submit(def, false).ok());
    }
    MinedWindow window = cv.repository()->Mine();
    return BuildOverlapReport(window).PctOverlappingJobs();
  };
  double c1 = measure(0);
  double c3 = measure(2);
  EXPECT_LT(c3, c1);
}

TEST(ProductionWorkloadTest, ThirtyTwoJobsInThreeGroups) {
  ProductionWorkload workload;
  auto jobs = workload.Instance("2018-01-01");
  ASSERT_EQ(jobs.size(), 32u);
  std::map<int, int> group_counts;
  for (int g : workload.job_groups()) ++group_counts[g];
  EXPECT_EQ(group_counts[0], 16);
  EXPECT_EQ(group_counts[1], 12);
  EXPECT_EQ(group_counts[2], 4);
}

TEST(ProductionWorkloadTest, GroupsShareTheirComputation) {
  ProductionWorkload::Options options;
  options.rows_per_input = 500;
  ProductionWorkload workload(options);
  CloudViews cv;
  workload.WriteInputs(cv.storage(), "2018-01-01");
  for (const auto& def : workload.Instance("2018-01-01")) {
    auto r = cv.Submit(def, false);
    ASSERT_TRUE(r.ok()) << def.template_id << ": "
                        << r.status().ToString();
  }
  MinedWindow window = cv.repository()->Mine();
  // Each group's shared computation must appear exactly group-size times.
  std::set<int64_t> group_frequencies;
  for (const auto& [sig, agg] : window.aggregates) {
    if (agg.root_kind == OpKind::kAggregate && agg.frequency >= 4 &&
        agg.jobs.size() == static_cast<size_t>(agg.frequency)) {
      group_frequencies.insert(agg.frequency);
    }
  }
  EXPECT_TRUE(group_frequencies.count(16) == 1);
  EXPECT_TRUE(group_frequencies.count(12) == 1);
  EXPECT_TRUE(group_frequencies.count(4) == 1);
}

/// A wall clock that advances 1 µs on every read: an operator's measured
/// time is a count of clock reads, so view selection, which ranks by
/// observed time, does not depend on how loaded the host is.
class TickingClock final : public MonotonicClock {
 public:
  double NowSeconds() override {
    return static_cast<double>(reads_.fetch_add(1, std::memory_order_relaxed)) *
           1e-6;
  }

 private:
  std::atomic<uint64_t> reads_{0};
};

TEST(ProductionWorkloadTest, EndToEndReuseAcrossTheWorkload) {
  ProductionWorkload::Options options;
  options.rows_per_input = 500;
  ProductionWorkload workload(options);
  TickingClock clock;
  CloudViewsConfig config;
  config.wall_clock = &clock;
  config.analyzer.selection.top_k = 3;
  config.analyzer.selection.min_frequency = 3;
  config.analyzer.selection.min_cost_fraction_of_job = 0.2;
  config.analyzer.selection.max_per_job = 1;
  CloudViews cv(config);

  workload.WriteInputs(cv.storage(), "2018-01-01");
  for (const auto& def : workload.Instance("2018-01-01")) {
    ASSERT_TRUE(cv.Submit(def, false).ok());
  }
  auto analysis = cv.RunAnalyzerAndLoad();
  EXPECT_EQ(analysis.annotations.size(), 3u);

  workload.WriteInputs(cv.storage(), "2018-01-02");
  int reused = 0, built = 0;
  for (const auto& def : workload.Instance("2018-01-02")) {
    auto r = cv.Submit(def);
    ASSERT_TRUE(r.ok()) << def.template_id;
    reused += r->views_reused;
    built += r->views_materialized;
  }
  EXPECT_EQ(built, 3);
  // All other group members reuse: 15 + 11 + 3 = 29.
  EXPECT_EQ(reused, 29);
}

}  // namespace
}  // namespace cloudviews
