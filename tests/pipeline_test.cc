// Cross-VC data pipeline integration: a producer job cooks data with a
// declared output design; consumer jobs in other VCs extract it. Covers
// the Sec 8 lessons "Improving data sharing across VCs" and "Reusing
// existing outputs", end to end through scripts.
#include <gtest/gtest.h>

#include "analyzer/overlap_analyzer.h"
#include "common/guid.h"
#include "common/random.h"
#include "core/cloudviews.h"
#include "parser/parser.h"

namespace cloudviews {
namespace {

const char* kProducerScript = R"(
raw    = EXTRACT user:int, page:string, latency:int, when:date
         FROM "raw_events_{date}";
clean  = PROCESS raw USING cleanse("cooking", "5.0");
cooked = SELECT user, page, latency FROM clean WHERE latency > 0;
OUTPUT cooked TO "cooked_{date}" CLUSTERED BY user INTO 4 SORTED BY user;
)";

const char* kConsumerScript = R"(
cooked = EXTRACT user:int, page:string, latency:int
         FROM "cooked_{date}";
stats  = SELECT user, COUNT(*) AS n, MAX(latency) AS worst
         FROM cooked GROUP BY user;
OUTPUT stats TO "user_stats_{date}";
)";

// A second consumer whose whole computation duplicates the first, writing
// a different output stream (the "redundant outputs" situation).
const char* kDuplicateConsumerScript = R"(
cooked = EXTRACT user:int, page:string, latency:int
         FROM "cooked_{date}";
stats  = SELECT user, COUNT(*) AS n, MAX(latency) AS worst
         FROM cooked GROUP BY user;
OUTPUT stats TO "user_stats_copy_{date}";
)";

class PipelineTest : public ::testing::Test {
 protected:
  void WriteRaw(const std::string& date, uint64_t seed) {
    Schema schema({{"user", DataType::kInt64},
                   {"page", DataType::kString},
                   {"latency", DataType::kInt64},
                   {"when", DataType::kDate}});
    Rng rng(seed);
    int64_t day = 0;
    ParseDate(date, &day);
    Batch b(schema);
    for (int i = 0; i < 900; ++i) {
      ASSERT_TRUE(
          b.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(50))),
                       Value::String("/p" + std::to_string(rng.Uniform(9))),
                       Value::Int64(static_cast<int64_t>(rng.Uniform(300))),
                       Value::Date(day)})
              .ok());
    }
    ASSERT_TRUE(cv_.storage()
                    ->WriteStream(MakeStreamData("raw_events_" + date,
                                                 GenerateGuid(), schema, {b},
                                                 cv_.clock()->Now()))
                    .ok());
  }

  Result<JobResult> RunScript(const char* script, const std::string& id,
                              const std::string& vc,
                              const std::string& date,
                              bool enable_cv = true) {
    ScopeScriptParser parser;
    ParamMap params;
    params["date"] = DateParam(date);
    StorageManager* storage = cv_.storage();
    auto plan =
        parser.Parse(script, params, [storage](const std::string& name) {
          auto handle = storage->OpenStream(name);
          return handle.ok() ? (*handle)->guid : std::string();
        });
    if (!plan.ok()) return plan.status();
    JobDefinition def;
    def.template_id = id;
    def.vc = vc;
    def.user = "owner-" + id;
    def.logical_plan = *plan;
    return cv_.Submit(def, enable_cv);
  }

  CloudViews cv_;
};

TEST_F(PipelineTest, ProducerOutputCarriesDeclaredDesign) {
  WriteRaw("2018-01-01", 5);
  auto r = RunScript(kProducerScript, "producer", "vc-cook", "2018-01-01");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto cooked = cv_.storage()->OpenStream("cooked_2018-01-01");
  ASSERT_TRUE(cooked.ok());
  // The declared layout was enforced and recorded.
  EXPECT_EQ((*cooked)->props.partitioning.scheme, PartitionScheme::kHash);
  EXPECT_EQ((*cooked)->props.partitioning.columns,
            std::vector<std::string>{"user"});
  EXPECT_TRUE((*cooked)->props.sort_order.IsSorted());
  // And the data is physically sorted on user.
  Batch data = CombineBatches((*cooked)->schema, (*cooked)->batches);
  for (size_t i = 1; i < data.num_rows(); ++i) {
    EXPECT_LE(data.column(0).GetValue(i - 1).Compare(
                  data.column(0).GetValue(i)),
              0);
  }
}

TEST_F(PipelineTest, ConsumersDownstreamOfProducerWork) {
  WriteRaw("2018-01-01", 5);
  ASSERT_TRUE(
      RunScript(kProducerScript, "producer", "vc-cook", "2018-01-01").ok());
  auto consumer =
      RunScript(kConsumerScript, "consumer", "vc-an", "2018-01-01");
  ASSERT_TRUE(consumer.ok()) << consumer.status().ToString();
  EXPECT_TRUE(cv_.storage()->StreamExists("user_stats_2018-01-01"));
  // The producer's declared sort order lets the optimizer pick stream
  // aggregation for the consumer's GROUP BY user.
  std::vector<PlanNode*> nodes;
  CollectNodes(consumer->executed_plan, &nodes);
  bool has_agg = false;
  for (PlanNode* n : nodes) {
    has_agg |= n->kind() == OpKind::kAggregate;
  }
  EXPECT_TRUE(has_agg);
}

TEST_F(PipelineTest, DuplicateConsumersDetectedAndReused) {
  // Day 1: both consumers run; the analyzer flags the redundant output
  // and selects the shared computation.
  WriteRaw("2018-01-01", 5);
  ASSERT_TRUE(
      RunScript(kProducerScript, "producer", "vc-cook", "2018-01-01").ok());
  ASSERT_TRUE(
      RunScript(kConsumerScript, "consumer", "vc-an", "2018-01-01").ok());
  ASSERT_TRUE(RunScript(kDuplicateConsumerScript, "consumer2", "vc-ml",
                        "2018-01-01")
                  .ok());

  MinedWindow window = cv_.repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);
  EXPECT_GE(report.redundant_output_groups, 1u);
  EXPECT_GE(report.jobs_with_redundant_output, 2u);

  auto analysis = cv_.RunAnalyzerAndLoad();
  ASSERT_FALSE(analysis.annotations.empty());

  // Day 2: first consumer builds the shared stats computation, the
  // duplicate reuses it wholesale.
  WriteRaw("2018-01-02", 6);
  ASSERT_TRUE(
      RunScript(kProducerScript, "producer", "vc-cook", "2018-01-02").ok());
  auto c1 = RunScript(kConsumerScript, "consumer", "vc-an", "2018-01-02");
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1->views_materialized, 1);
  auto c2 = RunScript(kDuplicateConsumerScript, "consumer2", "vc-ml",
                      "2018-01-02");
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->views_reused, 1);

  // Both outputs exist and agree.
  auto a = *cv_.storage()->OpenStream("user_stats_2018-01-02");
  auto b = *cv_.storage()->OpenStream("user_stats_copy_2018-01-02");
  Batch ab = SortBatch(CombineBatches(a->schema, a->batches),
                       {{"user", true}});
  Batch bb = SortBatch(CombineBatches(b->schema, b->batches),
                       {{"user", true}});
  ASSERT_EQ(ab.num_rows(), bb.num_rows());
  for (size_t r = 0; r < ab.num_rows(); ++r) {
    for (size_t c = 0; c < ab.num_columns(); ++c) {
      EXPECT_EQ(ab.column(c).GetValue(r).Compare(bb.column(c).GetValue(r)),
                0);
    }
  }
}

TEST_F(PipelineTest, ReduceScriptEndToEnd) {
  WriteRaw("2018-01-01", 5);
  const char* script = R"(
raw = EXTRACT user:int, page:string, latency:int, when:date
      FROM "raw_events_{date}";
d   = REDUCE raw ON user USING first_of_group("dedup", "1.0");
OUTPUT d TO "deduped_{date}";
)";
  auto r = RunScript(script, "dedup-job", "vc", "2018-01-01", false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = *cv_.storage()->OpenStream("deduped_2018-01-01");
  Batch data = CombineBatches(out->schema, out->batches);
  // One row per distinct user.
  std::set<int64_t> users;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_TRUE(users.insert(data.column(0).GetValue(i).int64_value())
                    .second);
  }
  EXPECT_EQ(users.size(), data.num_rows());
  EXPECT_GT(data.num_rows(), 10u);
}

}  // namespace
}  // namespace cloudviews
