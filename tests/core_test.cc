#include <gtest/gtest.h>

#include "core/cloudviews.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::WriteClickStream;

const char* kScriptA = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
slow   = SELECT page, COUNT(*) AS n, SUM(latency) AS total
         FROM clicks WHERE latency > 50 GROUP BY page;
OUTPUT slow TO "slow_pages_{date}";
)";

const char* kScriptB = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
slow   = SELECT page, COUNT(*) AS n, SUM(latency) AS total
         FROM clicks WHERE latency > 50 GROUP BY page;
top3   = SELECT page, n, total FROM slow ORDER BY n DESC TOP 3;
OUTPUT top3 TO "top_slow_{date}";
)";

class CoreTest : public ::testing::Test {
 protected:
  static CloudViewsConfig MakeConfig() {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 2;
    config.analyzer.selection.min_frequency = 2;
    return config;
  }

  CoreTest() : cv_(MakeConfig()) {}

  void WriteDay(const std::string& date) {
    WriteClickStream(cv_.storage(), "clicks_" + date, 1500,
                     std::hash<std::string>{}(date), date);
  }

  JobDefinition ScriptJob(const char* script, const std::string& id,
                          const std::string& date) {
    ScopeScriptParser parser;
    ParamMap params;
    params["date"] = DateParam(date);
    StorageManager* storage = cv_.storage();
    auto plan =
        parser.Parse(script, params, [storage](const std::string& name) {
          auto handle = storage->OpenStream(name);
          return handle.ok() ? (*handle)->guid : std::string();
        });
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    JobDefinition def;
    def.template_id = id;
    def.vc = "vc-" + id;
    def.user = "user-" + id;
    def.logical_plan = *plan;
    return def;
  }

  CloudViews cv_;
};

TEST_F(CoreTest, ScriptDrivenLifecycle) {
  // Day 1: two script jobs sharing the "slow" computation run plain.
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptB, "jobB", "2018-01-01")).ok());

  auto analysis = cv_.RunAnalyzerAndLoad();
  ASSERT_FALSE(analysis.annotations.empty());
  EXPECT_GT(BuildOverlapReport(cv_.repository()->Mine()).PctOverlappingJobs(),
            99.0);

  // Day 2: materialize then reuse, via scripts only.
  WriteDay("2018-01-02");
  auto a = cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-02"));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->views_materialized, 1);
  auto b = cv_.Submit(ScriptJob(kScriptB, "jobB", "2018-01-02"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->views_reused, 1);
  EXPECT_TRUE(cv_.storage()->StreamExists("top_slow_2018-01-02"));
}

TEST_F(CoreTest, ViewsExpireAndGetPurged) {
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptB, "jobB", "2018-01-01")).ok());
  cv_.RunAnalyzerAndLoad();

  WriteDay("2018-01-02");
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-02")).ok());
  ASSERT_EQ(cv_.metadata()->NumRegisteredViews(), 1u);
  ASSERT_EQ(cv_.storage()->ListStreams("/views/").size(), 1u);

  // Views from daily jobs live one day (lineage-based expiry).
  cv_.clock()->AdvanceSeconds(kSecondsPerDay + 1);
  EXPECT_GE(cv_.PurgeExpired(), 1u);
  EXPECT_EQ(cv_.metadata()->NumRegisteredViews(), 0u);
  EXPECT_TRUE(cv_.storage()->ListStreams("/views/").empty());
}

TEST_F(CoreTest, GdprRewriteInvalidatesView) {
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptB, "jobB", "2018-01-01")).ok());
  cv_.RunAnalyzerAndLoad();

  WriteDay("2018-01-02");
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-02")).ok());

  // A privacy-driven rewrite of the day's input: same name, fresh data
  // version. The stale view must not be reused (Sec 8).
  WriteClickStream(cv_.storage(), "clicks_2018-01-02", 1400, 999,
                   "2018-01-02", /*guid=*/"guid-after-gdpr-scrub");
  auto b = cv_.Submit(ScriptJob(kScriptB, "jobB", "2018-01-02"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->views_reused, 0);
  // It becomes the builder of the fresh instance instead.
  EXPECT_EQ(b->views_materialized, 1);
}

TEST_F(CoreTest, DisabledCloudViewsIsPureBaseline) {
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptB, "jobB", "2018-01-01")).ok());
  cv_.RunAnalyzerAndLoad();
  WriteDay("2018-01-02");
  auto a = cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-02"),
                      /*enable_cloudviews=*/false);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->views_materialized, 0);
  EXPECT_EQ(cv_.metadata()->NumRegisteredViews(), 0u);
}

TEST_F(CoreTest, StalenessDetection) {
  EXPECT_TRUE(cv_.AnalysisLooksStale());  // nothing loaded yet
  WriteDay("2018-01-01");
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptA, "jobA", "2018-01-01")).ok());
  ASSERT_TRUE(cv_.Submit(ScriptJob(kScriptB, "jobB", "2018-01-01")).ok());
  cv_.RunAnalyzerAndLoad();
  EXPECT_FALSE(cv_.AnalysisLooksStale());

  // A long run of jobs that never hit a view signals workload change.
  for (int i = 0; i < 25; ++i) {
    JobDefinition def;
    def.template_id = "new_workload";
    def.vc = "vc";
    def.user = "u";
    def.logical_plan =
        PlanBuilder::Extract("clicks_{date}", "clicks_2018-01-01",
                             "guid-clicks_2018-01-01",
                             testing_util::ClickSchema())
            .Filter(Gt(Col("latency"), Lit(int64_t{400 + i})))
            .Output("nw_" + std::to_string(i))
            .Build();
    ASSERT_TRUE(cv_.Submit(def).ok());
  }
  EXPECT_TRUE(cv_.AnalysisLooksStale());
}

}  // namespace
}  // namespace cloudviews
