#include <gtest/gtest.h>

#include "core/cloudviews.h"
#include "common/string_util.h"
#include "core/explain.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

class ExplainTest : public ::testing::Test {
 protected:
  static CloudViewsConfig MakeConfig() {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    return config;
  }

  static JobDefinition Job(const std::string& id, const std::string& date,
                           const std::string& out_suffix) {
    JobDefinition def;
    def.template_id = id;
    def.vc = "vc";
    def.user = "u-" + id;
    def.logical_plan = PlanBuilder::From(SharedAggPlan(date))
                           .Output(id + "_out_" + date + out_suffix)
                           .Build();
    return def;
  }

  CloudViews cv_{MakeConfig()};
};

TEST_F(ExplainTest, ExplainJobTracesViewProvenance) {
  WriteClickStream(cv_.storage(), "clicks_2018-01-01", 800, 1, "2018-01-01");
  ASSERT_TRUE(cv_.Submit(Job("jobA", "2018-01-01", "")).ok());
  ASSERT_TRUE(cv_.Submit(Job("jobB", "2018-01-01", "")).ok());
  cv_.RunAnalyzerAndLoad();

  WriteClickStream(cv_.storage(), "clicks_2018-01-02", 800, 2, "2018-01-02");
  auto builder = cv_.Submit(Job("jobA", "2018-01-02", ""));
  ASSERT_TRUE(builder.ok());
  ASSERT_EQ(builder->views_materialized, 1);
  std::string builder_explain = ExplainJob(*builder);
  EXPECT_NE(builder_explain.find("materialized view /views/"),
            std::string::npos);
  EXPECT_NE(builder_explain.find("lifetime 86400s"), std::string::npos);
  EXPECT_NE(builder_explain.find("executed plan:"), std::string::npos);

  auto reuser = cv_.Submit(Job("jobB", "2018-01-02", ""));
  ASSERT_TRUE(reuser.ok());
  ASSERT_EQ(reuser->views_reused, 1);
  std::string reuse_explain = ExplainJob(*reuser);
  EXPECT_NE(reuse_explain.find("reused view /views/"), std::string::npos);
  // Provenance: the reused view is traced back to the producing job.
  EXPECT_NE(reuse_explain.find(StrFormat(
                "produced by job %llu",
                static_cast<unsigned long long>(builder->job_id))),
            std::string::npos);
  EXPECT_NE(reuse_explain.find(" views_reused=1 "), std::string::npos)
      << reuse_explain;
}

TEST_F(ExplainTest, ExplainSelectionShowsWhy) {
  WriteClickStream(cv_.storage(), "clicks_2018-01-01", 800, 1, "2018-01-01");
  ASSERT_TRUE(cv_.Submit(Job("jobA", "2018-01-01", "")).ok());
  ASSERT_TRUE(cv_.Submit(Job("jobB", "2018-01-01", "")).ok());
  CloudViewsAnalyzer analyzer(MakeConfig().analyzer);
  AnalysisResult analysis = analyzer.Analyze(cv_.repository()->Mine());
  ASSERT_EQ(analysis.selected.size(), 1u);
  std::string text = ExplainViewSelection(analysis);
  EXPECT_NE(text.find("selected because: 2 occurrence(s) across 2 job(s)"),
            std::string::npos);
  EXPECT_NE(text.find("design:"), std::string::npos);
  EXPECT_NE(text.find("lifetime 86400s"), std::string::npos);
  EXPECT_NE(text.find("clicks_{date}"), std::string::npos);
}

TEST_F(ExplainTest, ExplainPlainJobIsQuiet) {
  WriteClickStream(cv_.storage(), "clicks_2018-01-01", 100, 1, "2018-01-01");
  auto r = cv_.Submit(Job("jobA", "2018-01-01", ""), false);
  ASSERT_TRUE(r.ok());
  std::string text = ExplainJob(*r);
  EXPECT_NE(text.find("  counters: views_reused=0 views_materialized=0 "),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("reused view"), std::string::npos);
}

}  // namespace
}  // namespace cloudviews
