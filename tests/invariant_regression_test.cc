// Regression tests for bugs surfaced by the invariant analyzer
// (tools/invariant_analyzer): determinism of result-producing paths that
// used to leak std::unordered_* iteration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/cloudviews.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::ClickSchema;
using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

class InvariantRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WriteClickStream(cv_.storage(), "clicks_2018-01-01", 600, 7,
                     "2018-01-01");
    WriteClickStream(cv_.storage(), "zeta_2018-01-01", 200, 9,
                     "2018-01-01");
    WriteClickStream(cv_.storage(), "alpha_2018-01-01", 200, 11,
                     "2018-01-01");
  }

  void RunSharedJob(const std::string& name) {
    JobDefinition def;
    def.template_id = name;
    def.vc = "vc1";
    def.user = "alice";
    def.logical_plan = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                           .Output(name + "_out")
                           .Build();
    auto r = cv_.Submit(def, false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    records_.push_back(testing_util::RecordOf(def, *r, cv_.clock()->Now()));
  }

  void RunScanJob(const std::string& name, const std::string& tmpl,
                  const std::string& stream) {
    JobDefinition def;
    def.template_id = name;
    def.vc = "vc2";
    def.user = "bob";
    def.logical_plan =
        PlanBuilder::Extract(tmpl, stream, "guid-" + name, ClickSchema())
            .Filter(Lt(Col("latency"), Lit(int64_t{100})))
            .Output(name + "_out")
            .Build();
    auto r = cv_.Submit(def, false);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    records_.push_back(testing_util::RecordOf(def, *r, cv_.clock()->Now()));
  }

  CloudViews cv_;
  /// The repository's records, in ingest order.
  std::vector<JobRecord> records_;
};

// The overlap report used to emit per_input_max_frequency by iterating a
// std::unordered_map<std::string, double>, so the CDF sample order
// depended on the string hash; the report was not byte-stable across
// libraries or runs. The samples must come out ordered by input template
// name.
TEST_F(InvariantRegressionTest, PerInputFrequencySamplesAreNameOrdered) {
  RunSharedJob("t1");
  RunSharedJob("t2");
  RunScanJob("z", "zeta_{date}", "zeta_2018-01-01");
  RunScanJob("a", "alpha_{date}", "alpha_2018-01-01");

  MinedWindow window = cv_.repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);

  // Inputs sorted by template name: alpha (freq 1), clicks (the shared
  // aggregate, freq 2), zeta (freq 1).
  std::vector<double> expected = {1.0, 2.0, 1.0};
  EXPECT_EQ(report.per_input_max_frequency, expected);
}

// The same workload fed in any order must produce the identical report
// vector: insertion order must never reach the result.
TEST_F(InvariantRegressionTest, ReportIsInsensitiveToJobOrder) {
  RunSharedJob("t1");
  RunSharedJob("t2");
  RunScanJob("z", "zeta_{date}", "zeta_2018-01-01");
  RunScanJob("a", "alpha_{date}", "alpha_2018-01-01");

  // Ingest the same records forward and in reverse into two repositories.
  ASSERT_EQ(cv_.repository()->NumJobs(), records_.size());
  WorkloadRepository forward;
  for (const JobRecord& j : records_) forward.AddJob(j);
  WorkloadRepository backward;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    backward.AddJob(*it);
  }

  EXPECT_EQ(BuildOverlapReport(forward.Mine()).per_input_max_frequency,
            BuildOverlapReport(backward.Mine()).per_input_max_frequency);
}

}  // namespace
}  // namespace cloudviews
