#include <gtest/gtest.h>

#include "core/cloudviews.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::SharedAggPlan;
using testing_util::SubtreeCpuSeconds;
using testing_util::WriteClickStream;

/// Two recurring job templates sharing the SharedAggPlan computation.
JobDefinition JobA(const std::string& date) {
  JobDefinition def;
  def.template_id = "jobA";
  def.cluster = "c1";
  def.business_unit = "bu1";
  def.vc = "vc1";
  def.user = "alice";
  def.recurrence_period = kSecondsPerDay;
  def.logical_plan = PlanBuilder::From(SharedAggPlan(date))
                         .Sort({{"n", false}})
                         .Output("jobA_out_" + date)
                         .Build();
  return def;
}

JobDefinition JobB(const std::string& date,
                   const std::string& out_suffix = "") {
  JobDefinition def;
  def.template_id = "jobB";
  def.cluster = "c1";
  def.business_unit = "bu1";
  def.vc = "vc2";
  def.user = "bob";
  def.recurrence_period = kSecondsPerDay;
  def.logical_plan =
      PlanBuilder::From(SharedAggPlan(date))
          .Filter(Gt(Col("n"), Lit(int64_t{0})))
          .Output("jobB_out_" + date + out_suffix)
          .Build();
  return def;
}

class RuntimeTest : public ::testing::Test {
 protected:
  void WriteDay(const std::string& date) {
    WriteClickStream(cv_.storage(), "clicks_" + date, 2000,
                     std::hash<std::string>{}(date), date);
  }

  static CloudViewsConfig MakeCvConfig() {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    return config;
  }

  CloudViews cv_{MakeCvConfig()};
};

TEST_F(RuntimeTest, PlainJobRunsAndRecordsHistory) {
  WriteDay("2018-01-01");
  auto result = cv_.Submit(JobA("2018-01-01"), /*enable_cloudviews=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->views_reused, 0);
  EXPECT_EQ(result->views_materialized, 0);
  EXPECT_TRUE(cv_.storage()->StreamExists("jobA_out_2018-01-01"));
  EXPECT_EQ(cv_.repository()->NumJobs(), 1u);
  EXPECT_GT(cv_.repository()->NumIndexedSubgraphs(), 0u);
}

TEST_F(RuntimeTest, FeedbackStatisticsFlowIntoSecondCompilation) {
  WriteDay("2018-01-01");
  WriteDay("2018-01-02");
  ASSERT_TRUE(cv_.Submit(JobA("2018-01-01"), false).ok());
  auto second = cv_.Submit(JobA("2018-01-02"), false);
  ASSERT_TRUE(second.ok());
  // The shared aggregate subgraph now has observed statistics; at least
  // one node must be annotated from feedback.
  std::vector<PlanNode*> nodes;
  CollectNodes(second->executed_plan, &nodes);
  bool any_feedback = false;
  for (PlanNode* n : nodes) any_feedback |= n->estimates().from_feedback;
  EXPECT_TRUE(any_feedback);
}

TEST_F(RuntimeTest, MissingInputFailsCleanly) {
  auto result = cv_.Submit(JobA("2099-01-01"), false);
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(cv_.repository()->NumJobs(), 0u);
}

TEST_F(RuntimeTest, EndToEndMaterializeThenReuse) {
  // Day 1: plain runs build history.
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(JobA("2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(JobB("2018-01-01")).ok());

  auto analysis = cv_.RunAnalyzerAndLoad();
  ASSERT_EQ(analysis.annotations.size(), 1u);
  EXPECT_GE(analysis.annotations[0].annotation.frequency, 2);

  // Day 2: first job materializes, second reuses.
  WriteDay("2018-01-02");
  auto a = cv_.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->views_materialized, 1);
  EXPECT_EQ(a->views_reused, 0);
  EXPECT_EQ(cv_.metadata()->NumRegisteredViews(), 1u);

  auto b = cv_.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->views_reused, 1);
  EXPECT_EQ(b->views_materialized, 0);
  std::vector<PlanNode*> nodes;
  CollectNodes(b->executed_plan, &nodes);
  bool has_view_read = false;
  for (PlanNode* n : nodes) has_view_read |= n->kind() == OpKind::kViewRead;
  EXPECT_TRUE(has_view_read);
}

TEST_F(RuntimeTest, ReuseProducesIdenticalResults) {
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(JobA("2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(JobB("2018-01-01")).ok());
  cv_.RunAnalyzerAndLoad();

  WriteDay("2018-01-02");
  ASSERT_TRUE(cv_.Submit(JobA("2018-01-02")).ok());  // builds the view
  auto with_cv = cv_.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(with_cv.ok());
  ASSERT_EQ(with_cv->views_reused, 1);
  auto without_cv = cv_.Submit(JobB("2018-01-02", "_check"), false);
  ASSERT_TRUE(without_cv.ok());

  auto reused = *cv_.storage()->OpenStream("jobB_out_2018-01-02");
  auto baseline = *cv_.storage()->OpenStream("jobB_out_2018-01-02_check");
  Batch rb = CombineBatches(reused->schema, reused->batches);
  Batch bb = CombineBatches(baseline->schema, baseline->batches);
  rb = SortBatch(rb, {{"page", true}});
  bb = SortBatch(bb, {{"page", true}});
  ASSERT_EQ(rb.num_rows(), bb.num_rows());
  for (size_t r = 0; r < rb.num_rows(); ++r) {
    auto rrow = rb.GetRow(r);
    auto brow = bb.GetRow(r);
    for (size_t c = 0; c < rrow.size(); ++c) {
      EXPECT_EQ(rrow[c].Compare(brow[c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(RuntimeTest, ConcurrentJobsMaterializeExactlyOnce) {
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(JobA("2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(JobB("2018-01-01")).ok());
  cv_.RunAnalyzerAndLoad();

  WriteDay("2018-01-02");
  // Both jobs hit the same not-yet-materialized view concurrently; the
  // exclusive lock must let exactly one of them build it.
  std::vector<JobDefinition> defs{JobA("2018-01-02"), JobB("2018-01-02")};
  JobServiceOptions options;
  options.enable_cloudviews = true;
  auto results = cv_.job_service()->SubmitConcurrent(defs, options);
  int built = 0, denied = 0;
  for (auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    built += r->views_materialized;
    denied += r->materialize_lock_denied;
  }
  EXPECT_EQ(built, 1);
  EXPECT_EQ(cv_.metadata()->NumRegisteredViews(), 1u);
  EXPECT_EQ(cv_.metadata()->counters().locks_granted, 1u);
}

TEST_F(RuntimeTest, ConcurrentJobsShareTheWorkerPool) {
  // Several jobs running at once, each fanning morsel work out onto the
  // one pool the service owns; exercised under TSan in CI.
  CloudViewsConfig config = MakeCvConfig();
  config.exec = ExecOptions{/*worker_threads=*/4, /*morsel_rows=*/128};
  CloudViews parallel(config);
  WriteClickStream(parallel.storage(), "clicks_2018-01-01", 2000,
                   std::hash<std::string>{}("2018-01-01"), "2018-01-01");
  WriteDay("2018-01-01");
  std::vector<JobDefinition> defs;
  for (int i = 0; i < 6; ++i) {
    defs.push_back(JobB("2018-01-01", "_p" + std::to_string(i)));
  }
  auto results = parallel.job_service()->SubmitConcurrent(defs);
  ASSERT_EQ(results.size(), defs.size());
  for (auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->run_stats.output_rows, 0);
  }

  // The parallel runs must agree with a single-threaded instance's run of
  // the same job, row for row.
  auto ref = cv_.job_service()->SubmitJob(JobB("2018-01-01", "_serial"));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->run_stats.output_rows, results[0]->run_stats.output_rows);
}

TEST_F(RuntimeTest, WorkloadChangeStopsMaterialization) {
  // Sec 6.2: "in case there is a change in query workload ... the view
  // materialization based on the previous workload analysis stops
  // automatically as the signatures do not match anymore."
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(JobA("2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(JobB("2018-01-01")).ok());
  cv_.RunAnalyzerAndLoad();

  // The template changes: different filter threshold -> new signatures.
  WriteDay("2018-01-02");
  JobDefinition changed;
  changed.template_id = "jobA";
  changed.vc = "vc1";
  changed.user = "alice";
  changed.logical_plan =
      PlanBuilder::Extract("clicks_{date}", "clicks_2018-01-02",
                           "guid-clicks_2018-01-02",
                           testing_util::ClickSchema())
          .Filter(Gt(Col("latency"), Lit(int64_t{99})))  // was 50
          .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"},
                                {AggFunc::kSum, Col("latency"),
                                 "total_latency"}})
          .Sort({{"n", false}})
          .Output("changed_out")
          .Build();
  auto result = cv_.Submit(changed);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->views_materialized, 0);
  EXPECT_EQ(result->views_reused, 0);
}

TEST_F(RuntimeTest, SubtreeCpuAggregatesExclusiveTimes) {
  WriteDay("2018-01-01");
  auto result = cv_.Submit(JobA("2018-01-01"), false);
  ASSERT_TRUE(result.ok());
  double root_cpu = SubtreeCpuSeconds(*result->executed_plan,
                                      result->run_stats.operators);
  EXPECT_NEAR(root_cpu, result->run_stats.cpu_seconds, 1e-9);
}

}  // namespace
}  // namespace cloudviews
