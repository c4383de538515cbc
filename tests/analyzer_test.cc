#include <gtest/gtest.h>

#include "analyzer/analyzer.h"
#include "core/cloudviews.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

/// Builds a small executed workload: `n_sharing` jobs containing the shared
/// aggregate + one unrelated job, all executed for real so runtime stats
/// exist.
class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WriteClickStream(cv_.storage(), "clicks_2018-01-01", 1500, 7,
                     "2018-01-01");
    WriteClickStream(cv_.storage(), "other_2018-01-01", 300, 9,
                     "2018-01-01");
  }

  void RunSharingJob(const std::string& name, const std::string& vc,
                     const std::string& user,
                     LogicalTime period = kSecondsPerDay) {
    JobDefinition def;
    def.template_id = name;
    def.vc = vc;
    def.user = user;
    def.recurrence_period = period;
    def.logical_plan = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                           .Output(name + "_out")
                           .Build();
    auto r = cv_.Submit(def, false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  void RunUnrelatedJob() {
    JobDefinition def;
    def.template_id = "unrelated";
    def.vc = "vc9";
    def.user = "carol";
    def.logical_plan =
        PlanBuilder::Extract("other_{date}", "other_2018-01-01",
                             "guid-other", testing_util::ClickSchema())
            .Filter(Lt(Col("latency"), Lit(int64_t{100})))
            .Output("unrelated_out")
            .Build();
    auto r = cv_.Submit(def, false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  CloudViews cv_;
};

TEST_F(AnalyzerTest, AggregatesCountFrequencyAndJobs) {
  RunSharingJob("t1", "vc1", "alice");
  RunSharingJob("t2", "vc2", "bob");
  RunUnrelatedJob();

  MinedWindow window = cv_.repository()->Mine();

  // Find the shared aggregate subgraph (frequency 2, two jobs).
  bool found = false;
  for (const auto& [sig, agg] : window.aggregates) {
    if (agg.root_kind == OpKind::kAggregate && agg.frequency == 2) {
      found = true;
      EXPECT_EQ(agg.jobs.size(), 2u);
      EXPECT_EQ(agg.users.size(), 2u);
      EXPECT_EQ(agg.vcs.size(), 2u);
      EXPECT_EQ(agg.input_templates.size(), 1u);
      EXPECT_EQ(*agg.input_templates.begin(), "clicks_{date}");
      EXPECT_GT(agg.AvgLatency(), 0);
      EXPECT_GT(agg.AvgRows(), 0);
      EXPECT_GT(agg.ViewToQueryCostRatio(), 0);
      EXPECT_LE(agg.ViewToQueryCostRatio(), 1.01);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AnalyzerTest, ReportPercentagesOnCraftedWorkload) {
  RunSharingJob("t1", "vc1", "alice");
  RunSharingJob("t2", "vc2", "bob");
  RunUnrelatedJob();

  MinedWindow window = cv_.repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);

  EXPECT_EQ(report.total_jobs, 3u);
  EXPECT_EQ(report.overlapping_jobs, 2u);
  EXPECT_NEAR(report.PctOverlappingJobs(), 66.7, 0.1);
  EXPECT_EQ(report.total_users, 3u);
  EXPECT_EQ(report.users_with_overlap, 2u);
  EXPECT_GT(report.PctOverlappingSubgraphs(), 0);
  ASSERT_EQ(report.per_vc.size(), 3u);
  EXPECT_EQ(report.per_vc.at("vc1").overlapping_jobs, 1u);
  EXPECT_EQ(report.per_vc.at("vc9").overlapping_jobs, 0u);
  // Both sharing jobs have the same overlapping subgraph chain.
  EXPECT_EQ(report.overlaps_per_job.size(), 2u);
  EXPECT_FALSE(report.frequencies.empty());
  EXPECT_FALSE(report.overlap_occurrences_by_operator.empty());
}

TEST_F(AnalyzerTest, PhysicalDesignPopularityWins) {
  RunSharingJob("t1", "vc1", "alice");
  RunSharingJob("t2", "vc2", "bob");
  MinedWindow window = cv_.repository()->Mine();
  for (const auto& [sig, agg] : window.aggregates) {
    if (agg.root_kind == OpKind::kAggregate && agg.frequency == 2) {
      // Both occurrences deliver hash(page); it must be the popular design.
      PhysicalProperties design = agg.PopularDesign();
      EXPECT_EQ(design.partitioning.scheme, PartitionScheme::kHash);
      ASSERT_EQ(design.partitioning.columns.size(), 1u);
      EXPECT_EQ(design.partitioning.columns[0], "page");
    }
  }
}

TEST_F(AnalyzerTest, LifetimeIsMaxRecurrencePeriod) {
  RunSharingJob("hourly", "vc1", "alice", kSecondsPerHour);
  RunSharingJob("weekly", "vc2", "bob", kSecondsPerWeek);
  MinedWindow window = cv_.repository()->Mine();
  for (const auto& [sig, agg] : window.aggregates) {
    if (agg.frequency == 2) {
      // Hourly views consumed by weekly jobs must live a week (Sec 5.4).
      EXPECT_EQ(agg.max_recurrence_period, kSecondsPerWeek);
    }
  }
}

TEST_F(AnalyzerTest, AnalyzerProducesAnnotationsWithTags) {
  RunSharingJob("t1", "vc1", "alice");
  RunSharingJob("t2", "vc2", "bob");
  AnalyzerConfig config;
  config.selection.top_k = 1;
  CloudViewsAnalyzer analyzer(config);
  AnalysisResult result = analyzer.Analyze(cv_.repository()->Mine());
  ASSERT_EQ(result.annotations.size(), 1u);
  const auto& ann = result.annotations[0];
  EXPECT_GE(ann.annotation.frequency, 2);
  EXPECT_GT(ann.annotation.avg_runtime_seconds, 0);
  EXPECT_EQ(ann.annotation.lifetime_seconds, kSecondsPerDay);
  // Tags cover both containing templates.
  EXPECT_EQ(ann.tags.size(), 2u);
  EXPECT_NE(std::find(ann.tags.begin(), ann.tags.end(), "template:t1"),
            ann.tags.end());
  EXPECT_GT(result.analysis_seconds, 0);
  EXPECT_EQ(result.jobs_analyzed, 2u);
}

// --- Selection policies ------------------------------------------------------------

SubgraphAggregate MakeAgg(uint64_t sig, int64_t freq, double latency,
                          double bytes, OpKind kind = OpKind::kAggregate,
                          std::set<uint64_t> jobs = {}) {
  SubgraphAggregate agg;
  agg.normalized = Hash128{sig, 0};
  agg.root_kind = kind;
  agg.frequency = freq;
  agg.sum_latency = latency * static_cast<double>(freq);
  agg.sum_bytes = bytes * static_cast<double>(freq);
  agg.sum_job_latency = 10.0 * static_cast<double>(freq);
  agg.jobs = std::move(jobs);
  return agg;
}

using AggMap =
    std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher>;

AggMap ToMap(std::vector<SubgraphAggregate> aggs) {
  AggMap map;
  for (auto& a : aggs) map.emplace(a.normalized, std::move(a));
  return map;
}

TEST(ViewSelectorTest, TopKUtilityOrdersAndTruncates) {
  AggMap aggs = ToMap({MakeAgg(1, 5, 2.0, 100),     // utility 8
                       MakeAgg(2, 10, 1.0, 100),    // utility 9
                       MakeAgg(3, 2, 10.0, 100)});  // utility 10
  SelectionConfig config;
  config.top_k = 2;
  ViewSelector selector(config);
  auto selected = selector.Select(aggs);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0]->normalized.hi, 3u);
  EXPECT_EQ(selected[1]->normalized.hi, 2u);
}

TEST(ViewSelectorTest, FiltersApply) {
  AggMap aggs = ToMap({
      MakeAgg(1, 1, 100.0, 10),                      // below min frequency
      MakeAgg(2, 5, 0.001, 10),                      // below min runtime
      MakeAgg(3, 5, 100.0, 10, OpKind::kExtract),    // extract root
      MakeAgg(4, 5, 100.0, 10),                      // survives
  });
  SelectionConfig config;
  config.min_frequency = 2;
  config.min_runtime_seconds = 0.01;
  ViewSelector selector(config);
  auto selected = selector.Select(aggs);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0]->normalized.hi, 4u);
}

TEST(ViewSelectorTest, MinCostFractionFiltersCheapViews) {
  auto cheap = MakeAgg(1, 5, 1.0, 10);
  cheap.sum_job_latency = 1000.0 * 5;  // ratio 0.001
  auto pricey = MakeAgg(2, 5, 5.0, 10);  // ratio 0.5
  AggMap aggs = ToMap({cheap, pricey});
  SelectionConfig config;
  config.min_cost_fraction_of_job = 0.2;
  ViewSelector selector(config);
  auto selected = selector.Select(aggs);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0]->normalized.hi, 2u);
}

TEST(ViewSelectorTest, PerJobCapLimitsSelections) {
  AggMap aggs = ToMap({MakeAgg(1, 5, 10.0, 10, OpKind::kAggregate, {1, 2}),
                       MakeAgg(2, 5, 5.0, 10, OpKind::kAggregate, {1, 3})});
  SelectionConfig config;
  config.max_per_job = 1;
  ViewSelector selector(config);
  auto selected = selector.Select(aggs);
  // Both contain job 1; only the higher-utility one is kept.
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0]->normalized.hi, 1u);
}

TEST(ViewSelectorTest, GreedyPackingRespectsBudget) {
  AggMap aggs = ToMap({MakeAgg(1, 5, 10.0, 600),
                       MakeAgg(2, 5, 9.0, 500),
                       MakeAgg(3, 5, 1.0, 50)});
  SelectionConfig config;
  config.policy = SelectionConfig::Policy::kPackGreedy;
  config.storage_budget_bytes = 1000;
  ViewSelector selector(config);
  auto selected = selector.Select(aggs);
  double used = 0;
  for (const auto* a : selected) used += a->AvgBytes();
  EXPECT_LE(used, 1000);
  EXPECT_GE(selected.size(), 1u);
}

TEST(ViewSelectorTest, KnapsackBeatsGreedyOnDensityTrap) {
  // Classic greedy trap: the dense small item blocks the big valuable one.
  AggMap aggs = ToMap({MakeAgg(1, 2, 10.0, 20),      // utility 10, density .5
                       MakeAgg(2, 2, 100.0, 990)});  // utility 100, density .1
  SelectionConfig config;
  config.storage_budget_bytes = 1000;
  config.knapsack_granularity_bytes = 10;

  config.policy = SelectionConfig::Policy::kPackGreedy;
  auto greedy = ViewSelector(config).Select(aggs);
  config.policy = SelectionConfig::Policy::kPackKnapsack;
  auto knapsack = ViewSelector(config).Select(aggs);

  auto total = [](const std::vector<const SubgraphAggregate*>& v) {
    double u = 0;
    for (const auto* a : v) u += a->TotalUtility();
    return u;
  };
  EXPECT_DOUBLE_EQ(total(greedy), 10.0);  // dense item blocks the budget
  EXPECT_DOUBLE_EQ(total(knapsack), 100.0);
}

TEST_F(AnalyzerTest, SubmissionOrderPutsBuildersFirst) {
  RunSharingJob("t1", "vc1", "alice");
  RunSharingJob("t2", "vc2", "bob");
  RunUnrelatedJob();
  AnalyzerConfig config;
  config.selection.top_k = 1;
  CloudViewsAnalyzer analyzer(config);
  AnalysisResult result = analyzer.Analyze(cv_.repository()->Mine());
  ASSERT_EQ(result.submission_order.size(), 3u);
  // The first job in the order must be one of the two sharing jobs.
  ASSERT_FALSE(result.selected.empty());
  const auto& jobs = result.selected[0].jobs;
  EXPECT_TRUE(jobs.count(result.submission_order[0]) > 0);
}

}  // namespace
}  // namespace cloudviews
