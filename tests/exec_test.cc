#include <gtest/gtest.h>

#include <set>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "exec/physical_operator.h"
#include "exec/processor_registry.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "signature/signature.h"

namespace cloudviews {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : storage_(&clock_) {}

  void SetUp() override {
    Schema sales({{"region", DataType::kString},
                  {"product", DataType::kInt64},
                  {"amount", DataType::kDouble},
                  {"qty", DataType::kInt64}});
    Batch b(sales);
    auto add = [&](const char* r, int64_t p, double a, int64_t q) {
      ASSERT_TRUE(b.AppendRow({Value::String(r), Value::Int64(p),
                               Value::Double(a), Value::Int64(q)})
                      .ok());
    };
    add("east", 1, 10.0, 1);
    add("west", 2, 20.0, 2);
    add("east", 1, 30.0, 3);
    add("north", 3, 40.0, 4);
    add("west", 1, 50.0, 5);
    ASSERT_TRUE(storage_
                    .WriteStream(MakeStreamData("sales", "g-sales", sales,
                                                {b}, clock_.Now()))
                    .ok());
    sales_schema_ = sales;

    Schema products({{"pid", DataType::kInt64},
                     {"category", DataType::kString}});
    Batch p(products);
    ASSERT_TRUE(p.AppendRow({Value::Int64(1), Value::String("toys")}).ok());
    ASSERT_TRUE(p.AppendRow({Value::Int64(2), Value::String("books")}).ok());
    ASSERT_TRUE(
        storage_
            .WriteStream(MakeStreamData("products", "g-prod", products, {p},
                                        clock_.Now()))
            .ok());
    products_schema_ = products;
  }

  PlanBuilder Sales() {
    return PlanBuilder::Extract("sales", "sales", "g-sales", sales_schema_);
  }
  PlanBuilder Products() {
    return PlanBuilder::Extract("products", "products", "g-prod",
                                products_schema_);
  }

  /// Binds, ids, and executes; expects success.
  JobRunStats Run(PlanNodePtr plan, ExecContext ctx = {}) {
    EXPECT_TRUE(plan->Bind().ok());
    AssignNodeIds(plan.get());
    ctx.storage = &storage_;
    Executor exec(ctx);
    auto result = exec.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  /// Runs a plan ending in Output and returns the written stream.
  StreamHandle RunToStream(PlanNodePtr plan, const std::string& out_name) {
    Run(std::move(plan));
    auto handle = storage_.OpenStream(out_name);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  SimulatedClock clock_;
  StorageManager storage_;
  Schema sales_schema_;
  Schema products_schema_;
};

TEST_F(ExecTest, ExtractReadsAllRows) {
  auto stats = Run(Sales().Build());
  EXPECT_EQ(stats.output_rows, 5);
  EXPECT_GT(stats.output_bytes, 0);
}

TEST_F(ExecTest, ExtractMissingStreamFails) {
  auto plan = PlanBuilder::Extract("ghost", "ghost", "g", sales_schema_)
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsNotFound());
}

TEST_F(ExecTest, ExtractSchemaMismatchFails) {
  Schema wrong({{"region", DataType::kString}});
  auto plan = PlanBuilder::Extract("sales", "sales", "g", wrong).Build();
  ASSERT_TRUE(plan->Bind().ok());
  AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsTypeError());
}

TEST_F(ExecTest, FilterSelectsMatchingRows) {
  auto stats = Run(Sales().Filter(Gt(Col("amount"), Lit(25.0))).Build());
  EXPECT_EQ(stats.output_rows, 3);
}

TEST_F(ExecTest, ProjectComputesExpressions) {
  auto handle = RunToStream(
      Sales()
          .Project({{Col("region"), "region"},
                    {Mul(Col("amount"), Lit(2.0)), "double_amount"}})
          .Output("proj_out")
          .Build(),
      "proj_out");
  Batch out = CombineBatches(handle->schema, handle->batches);
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_DOUBLE_EQ(out.GetRow(0)[1].double_value(), 20.0);
}

TEST_F(ExecTest, HashJoinInner) {
  auto stats = Run(Sales()
                       .Join(Products(), JoinType::kInner,
                             {{"product", "pid"}})
                       .Build());
  EXPECT_EQ(stats.output_rows, 4);  // products 1 and 2 only
}

TEST_F(ExecTest, HashJoinLeftOuterPadsNulls) {
  auto handle = RunToStream(Sales()
                                .Join(Products(), JoinType::kLeftOuter,
                                      {{"product", "pid"}})
                                .Output("lo_out")
                                .Build(),
                            "lo_out");
  Batch out = CombineBatches(handle->schema, handle->batches);
  EXPECT_EQ(out.num_rows(), 5u);
  bool found_null = false;
  int cat_idx = out.schema().FieldIndex("category");
  ASSERT_GE(cat_idx, 0);
  for (size_t r = 0; r < out.num_rows(); ++r) {
    found_null |= out.column(static_cast<size_t>(cat_idx)).IsNull(r);
  }
  EXPECT_TRUE(found_null);  // product 3 has no match
}

TEST_F(ExecTest, MergeJoinMatchesHashJoin) {
  auto make = [&](JoinAlgorithm alg) {
    auto left = Sales().Sort({{"product", true}}).Build();
    auto right = Products().Sort({{"pid", true}}).Build();
    auto join = std::make_shared<JoinNode>(
        left, right, JoinType::kInner,
        std::vector<std::pair<std::string, std::string>>{
            {"product", "pid"}});
    join->set_algorithm(alg);
    return PlanBuilder::From(join)
        .Aggregate({}, {{AggFunc::kCount, nullptr, "n"},
                        {AggFunc::kSum, Col("amount"), "total"}})
        .Build();
  };
  auto h = RunToStream(PlanBuilder::From(make(JoinAlgorithm::kHash))
                           .Output("h_out")
                           .Build(),
                       "h_out");
  auto m = RunToStream(PlanBuilder::From(make(JoinAlgorithm::kMerge))
                           .Output("m_out")
                           .Build(),
                       "m_out");
  Batch hb = CombineBatches(h->schema, h->batches);
  Batch mb = CombineBatches(m->schema, m->batches);
  ASSERT_EQ(hb.num_rows(), 1u);
  ASSERT_EQ(mb.num_rows(), 1u);
  EXPECT_EQ(hb.GetRow(0)[0].int64_value(), mb.GetRow(0)[0].int64_value());
  EXPECT_DOUBLE_EQ(hb.GetRow(0)[1].double_value(),
                   mb.GetRow(0)[1].double_value());
}

TEST_F(ExecTest, HashAggregateGroups) {
  auto handle = RunToStream(
      Sales()
          .Aggregate({"region"}, {{AggFunc::kCount, nullptr, "n"},
                                  {AggFunc::kSum, Col("amount"), "total"}})
          .Sort({{"region", true}})
          .Output("agg_out")
          .Build(),
      "agg_out");
  Batch out = CombineBatches(handle->schema, handle->batches);
  ASSERT_EQ(out.num_rows(), 3u);
  // Sorted: east, north, west.
  EXPECT_EQ(out.GetRow(0)[0].string_value(), "east");
  EXPECT_EQ(out.GetRow(0)[1].int64_value(), 2);
  EXPECT_DOUBLE_EQ(out.GetRow(0)[2].double_value(), 40.0);
  EXPECT_EQ(out.GetRow(2)[0].string_value(), "west");
  EXPECT_DOUBLE_EQ(out.GetRow(2)[2].double_value(), 70.0);
}

TEST_F(ExecTest, StreamAggregateMatchesHashAggregate) {
  auto make = [&](AggAlgorithm alg) {
    auto sorted = Sales().Sort({{"region", true}}).Build();
    auto agg = std::make_shared<AggregateNode>(
        sorted, std::vector<std::string>{"region"},
        std::vector<AggregateSpec>{{AggFunc::kSum, Col("qty"), "q"}});
    agg->set_algorithm(alg);
    return PlanBuilder::From(agg).Sort({{"region", true}}).Build();
  };
  auto h = RunToStream(
      PlanBuilder::From(make(AggAlgorithm::kHash)).Output("ha").Build(),
      "ha");
  auto s = RunToStream(
      PlanBuilder::From(make(AggAlgorithm::kStream)).Output("sa").Build(),
      "sa");
  Batch hb = CombineBatches(h->schema, h->batches);
  Batch sb = CombineBatches(s->schema, s->batches);
  ASSERT_EQ(hb.num_rows(), sb.num_rows());
  for (size_t r = 0; r < hb.num_rows(); ++r) {
    EXPECT_EQ(hb.GetRow(r)[0].string_value(), sb.GetRow(r)[0].string_value());
    EXPECT_EQ(hb.GetRow(r)[1].int64_value(), sb.GetRow(r)[1].int64_value());
  }
}

TEST_F(ExecTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  auto handle = RunToStream(
      Sales()
          .Filter(Gt(Col("amount"), Lit(1e9)))  // nothing passes
          .Aggregate({}, {{AggFunc::kCount, nullptr, "n"},
                          {AggFunc::kMax, Col("amount"), "m"}})
          .Output("empty_agg")
          .Build(),
      "empty_agg");
  Batch out = CombineBatches(handle->schema, handle->batches);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.GetRow(0)[0].int64_value(), 0);
  EXPECT_TRUE(out.GetRow(0)[1].is_null());
}

TEST_F(ExecTest, GroupedAggregateOnEmptyInputYieldsNoRows) {
  auto stats = Run(Sales()
                       .Filter(Gt(Col("amount"), Lit(1e9)))
                       .Aggregate({"region"}, {{AggFunc::kCount, nullptr,
                                                "n"}})
                       .Build());
  EXPECT_EQ(stats.output_rows, 0);
}

TEST_F(ExecTest, SortOrdersRows) {
  auto handle = RunToStream(
      Sales().Sort({{"amount", false}}).Output("sorted").Build(), "sorted");
  Batch out = CombineBatches(handle->schema, handle->batches);
  int amount_idx = out.schema().FieldIndex("amount");
  double prev = 1e18;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    double v = out.GetRow(r)[static_cast<size_t>(amount_idx)].double_value();
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST_F(ExecTest, ExchangePreservesMultiset) {
  auto handle = RunToStream(Sales()
                                .Exchange(Partitioning::Hash({"region"}, 4))
                                .Output("exch")
                                .Build(),
                            "exch");
  Batch out = CombineBatches(handle->schema, handle->batches);
  EXPECT_EQ(out.num_rows(), 5u);
  std::multiset<double> amounts;
  int idx = out.schema().FieldIndex("amount");
  for (size_t r = 0; r < out.num_rows(); ++r) {
    amounts.insert(out.GetRow(r)[static_cast<size_t>(idx)].double_value());
  }
  EXPECT_EQ(amounts, (std::multiset<double>{10, 20, 30, 40, 50}));
}

TEST_F(ExecTest, PartitionBatchHashIsDeterministicAndComplete) {
  auto handle = *storage_.OpenStream("sales");
  Batch data = CombineBatches(handle->schema, handle->batches);
  auto parts = PartitionBatch(data, Partitioning::Hash({"region"}, 3));
  ASSERT_TRUE(parts.ok());
  size_t total = 0;
  for (const auto& p : *parts) total += p.num_rows();
  EXPECT_EQ(total, 5u);
  // Same region always lands in the same partition.
  auto parts2 = PartitionBatch(data, Partitioning::Hash({"region"}, 3));
  for (size_t i = 0; i < parts->size(); ++i) {
    EXPECT_EQ((*parts)[i].num_rows(), (*parts2)[i].num_rows());
  }
}

TEST_F(ExecTest, UnionAllConcatenates) {
  auto stats =
      Run(Sales().UnionAll(Sales()).Build());
  EXPECT_EQ(stats.output_rows, 10);
}

TEST_F(ExecTest, TopLimitsRows) {
  EXPECT_EQ(Run(Sales().Top(3).Build()).output_rows, 3);
  EXPECT_EQ(Run(Sales().Top(100).Build()).output_rows, 5);
}

TEST_F(ExecTest, ProcessAppliesRegisteredUdo) {
  auto stats = Run(Sales()
                       .Process("identity", "userlib", "1.0", sales_schema_)
                       .Build());
  EXPECT_EQ(stats.output_rows, 5);
}

TEST_F(ExecTest, ProcessUnknownProcessorFails) {
  auto plan =
      Sales().Process("missing_udo", "lib", "1.0", sales_schema_).Build();
  ASSERT_TRUE(plan->Bind().ok());
  AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsNotFound());
}

TEST_F(ExecTest, SpoolWritesViewAndPassesThrough) {
  auto base = Sales().Filter(Gt(Col("amount"), Lit(15.0))).Build();
  ASSERT_TRUE(base->Bind().ok());
  auto sigs = ComputeSignatures(*base);
  std::string path = EncodeViewPath(sigs.normalized, sigs.precise, 42);
  PhysicalProperties design{Partitioning::Hash({"region"}, 2),
                            {{{"amount", true}}}};
  auto spool = std::make_shared<SpoolNode>(base, path, sigs.normalized,
                                           sigs.precise, design);
  // The view expires its lineage lifetime after it is written (Sec 5.4).
  spool->set_lifetime_seconds(12345);
  clock_.AdvanceSeconds(1000);
  const LogicalTime written_at = clock_.Now();
  auto plan = PlanBuilder::From(spool)
                  .Aggregate({}, {{AggFunc::kCount, nullptr, "n"}})
                  .Output("spool_job_out")
                  .Build();

  bool published = false;
  ExecContext ctx;
  ctx.on_view_materialized = [&](const SpoolNode& node,
                                 const StreamData& view) {
    published = true;
    EXPECT_EQ(node.view_path(), path);
    EXPECT_EQ(view.name, path);
  };
  Run(plan, ctx);
  EXPECT_TRUE(published);

  auto view = storage_.OpenStream(path);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->total_rows, 4);
  EXPECT_EQ((*view)->expires_at, written_at + 12345);
  EXPECT_EQ((*view)->batches.size(), 2u);  // two hash partitions
  // Each partition is sorted by amount per the design.
  for (const auto& p : (*view)->batches) {
    double prev = -1;
    int idx = p.schema().FieldIndex("amount");
    for (size_t r = 0; r < p.num_rows(); ++r) {
      double v = p.GetRow(r)[static_cast<size_t>(idx)].double_value();
      EXPECT_GE(v, prev);
      prev = v;
    }
  }

  // The enclosing job still sees all 4 rows (pass-through).
  auto out = storage_.OpenStream("spool_job_out");
  ASSERT_TRUE(out.ok());
  Batch ob = CombineBatches((*out)->schema, (*out)->batches);
  EXPECT_EQ(ob.GetRow(0)[0].int64_value(), 4);
}

TEST_F(ExecTest, ViewReadConsumesMaterializedView) {
  // Materialize manually, then read through a ViewReadNode.
  auto base = Sales().Filter(Gt(Col("amount"), Lit(15.0))).Build();
  ASSERT_TRUE(base->Bind().ok());
  auto sigs = ComputeSignatures(*base);
  std::string path = EncodeViewPath(sigs.normalized, sigs.precise, 1);
  auto spool_plan = std::make_shared<SpoolNode>(base, path, sigs.normalized,
                                                sigs.precise,
                                                PhysicalProperties{});
  Run(PlanBuilder::From(spool_plan).Build());

  auto view_read = std::make_shared<ViewReadNode>(
      path, sigs.normalized, sigs.precise, base->output_schema(),
      PhysicalProperties{}, 4, 100);
  auto stats = Run(PlanBuilder::From(view_read)
                       .Aggregate({"region"}, {{AggFunc::kCount, nullptr,
                                                "n"}})
                       .Build());
  EXPECT_EQ(stats.output_rows, 3);  // east, north, west survive the filter
}

TEST_F(ExecTest, StatsCoverEveryOperator) {
  auto plan = Sales()
                  .Filter(Gt(Col("qty"), Lit(int64_t{1})))
                  .Aggregate({"region"}, {{AggFunc::kCount, nullptr, "n"}})
                  .Output("stats_out")
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  int n = AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  auto stats = *exec.Execute(plan);
  EXPECT_EQ(stats.operators.size(), static_cast<size_t>(n));
  // Inclusive time of the root covers children.
  const auto& root = stats.operators.at(0);
  for (const auto& [id, op] : stats.operators) {
    EXPECT_GE(root.inclusive_seconds, op.exclusive_seconds);
    EXPECT_GE(op.inclusive_seconds, op.exclusive_seconds);
  }
  EXPECT_GT(stats.cpu_seconds, 0);
  EXPECT_GE(stats.latency_seconds, root.inclusive_seconds);
}

TEST_F(ExecTest, ReduceAppliesProcessorPerGroup) {
  // first_of_group under REDUCE = dedup by key; input must arrive sorted.
  auto sorted = Sales().Sort({{"region", true}}).Build();
  auto reduce = std::make_shared<ReduceNode>(
      sorted, std::vector<std::string>{"region"}, "first_of_group",
      "dedup", "1.0", Schema());
  auto stats = Run(PlanBuilder::From(reduce).Build());
  EXPECT_EQ(stats.output_rows, 3);  // east, north, west
}

TEST_F(ExecTest, ReduceMatchesDistinctAggregate) {
  auto make_reduce = [&] {
    auto sorted = Sales().Sort({{"product", true}}).Build();
    auto reduce = std::make_shared<ReduceNode>(
        sorted, std::vector<std::string>{"product"}, "first_of_group",
        "dedup", "1.0", Schema());
    return Run(PlanBuilder::From(reduce).Build()).output_rows;
  };
  auto agg_rows = Run(Sales()
                          .Aggregate({"product"},
                                     {{AggFunc::kCount, nullptr, "n"}})
                          .Build())
                      .output_rows;
  EXPECT_EQ(make_reduce(), agg_rows);
}

TEST_F(ExecTest, OutputRecordsDeliveredLayout) {
  auto handle = RunToStream(Sales()
                                .Exchange(Partitioning::Hash({"region"}, 4))
                                .Sort({{"amount", true}})
                                .Output("laid_out")
                                .Build(),
                            "laid_out");
  EXPECT_EQ(handle->props.partitioning.scheme, PartitionScheme::kHash);
  EXPECT_TRUE(handle->props.sort_order.IsSorted());
}

TEST_F(ExecTest, CombineBatchesHandlesEmptyAndSingleRow) {
  Schema s({{"x", DataType::kInt64}});
  EXPECT_EQ(CombineBatches(s, {}).num_rows(), 0u);

  Batch empty(s);
  Batch one(s);
  ASSERT_TRUE(one.AppendRow({Value::Int64(7)}).ok());
  Batch combined = CombineBatches(s, {empty, one, empty});
  ASSERT_EQ(combined.num_rows(), 1u);
  EXPECT_EQ(combined.GetRow(0)[0].int64_value(), 7);
}

TEST_F(ExecTest, CombineBatchesPreservesNulls) {
  Schema s({{"x", DataType::kInt64}});
  Batch a(s), b(s);
  ASSERT_TRUE(a.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Null(DataType::kInt64)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(3)}).ok());
  Batch combined = CombineBatches(s, {a, b});
  ASSERT_EQ(combined.num_rows(), 3u);
  EXPECT_FALSE(combined.column(0).IsNull(0));
  EXPECT_TRUE(combined.column(0).IsNull(1));
  EXPECT_EQ(combined.GetRow(2)[0].int64_value(), 3);
}

TEST_F(ExecTest, SortBatchEmptyAndSingleRow) {
  Schema s({{"k", DataType::kInt64}});
  Batch empty(s);
  EXPECT_EQ(SortBatch(empty, {{"k", true}}).num_rows(), 0u);

  Batch one(s);
  ASSERT_TRUE(one.AppendRow({Value::Int64(5)}).ok());
  Batch sorted = SortBatch(one, {{"k", false}});
  ASSERT_EQ(sorted.num_rows(), 1u);
  EXPECT_EQ(sorted.GetRow(0)[0].int64_value(), 5);
}

TEST_F(ExecTest, SortBatchIsStableOnDuplicateKeys) {
  Schema s({{"k", DataType::kInt64}, {"seq", DataType::kInt64}});
  Batch in(s);
  int64_t keys[] = {1, 0, 1, 0, 1};
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(in.AppendRow({Value::Int64(keys[i]), Value::Int64(i)}).ok());
  }
  Batch sorted = SortBatch(in, {{"k", true}});
  // Equal keys keep their input order.
  int64_t expected_seq[] = {1, 3, 0, 2, 4};
  ASSERT_EQ(sorted.num_rows(), 5u);
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(sorted.GetRow(r)[1].int64_value(), expected_seq[r]) << r;
  }
}

TEST_F(ExecTest, PartitionBatchHandlesEmptyAndSingleRow) {
  Schema s({{"k", DataType::kString}});
  Batch empty(s);
  auto parts = PartitionBatch(empty, Partitioning::Hash({"k"}, 3));
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  for (const auto& p : *parts) EXPECT_EQ(p.num_rows(), 0u);

  Batch one(s);
  ASSERT_TRUE(one.AppendRow({Value::String("x")}).ok());
  auto one_parts = PartitionBatch(one, Partitioning::Hash({"k"}, 3));
  ASSERT_TRUE(one_parts.ok());
  size_t total = 0;
  for (const auto& p : *one_parts) total += p.num_rows();
  EXPECT_EQ(total, 1u);
}

// The exchange emits its output row sequence (partition, input morsel,
// row) in morsel_rows-sized chunks. Column `a` is null only in rows whose
// hash key k is 3 and column `b` only in rows landing in round-robin
// partition 1, so each scheme has nulls in only some partitions.
TEST_F(ExecTest, ExchangeChunksEqualPartitionBatchPlusCombine) {
  Schema schema({{"k", DataType::kInt64},
                 {"a", DataType::kString},
                 {"b", DataType::kInt64}});
  constexpr size_t kRows = 53;
  Batch data(schema);
  for (size_t r = 0; r < kRows; ++r) {
    int64_t k = static_cast<int64_t>(r % 11);
    Value a = k == 3 ? Value::Null(DataType::kString)
                     : Value::String("s" + std::to_string(r));
    Value b = r % 4 == 1 ? Value::Null(DataType::kInt64)
                         : Value::Int64(static_cast<int64_t>(r) * 7);
    ASSERT_TRUE(data.AppendRow({Value::Int64(k), a, b}).ok());
  }
  const Partitioning schemes[] = {
      Partitioning::Hash({"k"}, 5),
      {PartitionScheme::kRoundRobin, {}, 4},
  };
  for (const Partitioning& partitioning : schemes) {
    auto parts = PartitionBatch(data, partitioning);
    ASSERT_TRUE(parts.ok());
    Batch expected = CombineBatches(schema, *parts);
    for (size_t morsel_rows : {size_t{1}, size_t{7}, size_t{4096}}) {
      SCOPED_TRACE(partitioning.ToString() + " morsel_rows=" +
                   std::to_string(morsel_rows));
      auto plan = PlanBuilder::Extract("t", "t", "g-t", schema)
                      .Exchange(partitioning)
                      .Build();
      ASSERT_TRUE(plan->Bind().ok());
      auto op = MakePhysicalOperator(plan.get());
      ASSERT_TRUE(op.ok());
      OperatorContext octx;
      octx.morsel_rows = morsel_rows;
      // Uneven input morsels, so rows of one partition span several.
      ASSERT_TRUE((*op)->Open(octx, {ChunkBatch(data, 10)}).ok());
      for (size_t phase = 0; phase < (*op)->num_phases(); ++phase) {
        ASSERT_TRUE((*op)->PreparePhase(octx, phase).ok());
        for (size_t m = 0; m < (*op)->NumMorsels(phase); ++m) {
          ASSERT_TRUE((*op)->ProcessMorsel(octx, phase, m).ok());
        }
      }
      auto out = (*op)->Close(octx);
      ASSERT_TRUE(out.ok());
      ASSERT_EQ(out->size(), (kRows + morsel_rows - 1) / morsel_rows);
      for (size_t m = 0; m + 1 < out->size(); ++m) {
        EXPECT_EQ((*out)[m].num_rows(), morsel_rows);
      }
      Batch actual = CombineBatches(schema, *out);
      ASSERT_EQ(actual.num_rows(), expected.num_rows());
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        for (size_t r = 0; r < kRows; ++r) {
          ASSERT_EQ(actual.column(c).IsNull(r), expected.column(c).IsNull(r))
              << "col " << c << " row " << r;
          ASSERT_EQ(actual.column(c).GetValue(r).ToString(),
                    expected.column(c).GetValue(r).ToString())
              << "col " << c << " row " << r;
        }
      }
    }
  }
}

// Inline, one clock pair times each operator; on a pool, every callback is
// timed on its worker. Both must give every operator some CPU time and the
// job the sum over its operators.
TEST_F(ExecTest, CpuAttributionInlineAndOnAPool) {
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  Batch data(schema);
  for (int64_t r = 0; r < 3000; ++r) {
    ASSERT_TRUE(
        data.AppendRow({Value::Int64(r % 37), Value::Int64(r * 13 % 101)})
            .ok());
  }
  ASSERT_TRUE(storage_
                  .WriteStream(MakeStreamData("cpu_in", "g-cpu", schema,
                                              {data}, clock_.Now()))
                  .ok());
  auto plan = [&](const std::string& out) {
    return PlanBuilder::Extract("cpu_in", "cpu_in", "g-cpu", schema)
        .Filter(Gt(Col("v"), Lit(int64_t{10})))
        .Exchange(Partitioning::Hash({"k"}, 8))
        .Aggregate({"k"}, {{AggFunc::kSum, Col("v"), "s"},
                           {AggFunc::kCount, nullptr, "n"}})
        .Sort({{"k", true}})
        .Output(out)
        .Build();
  };
  ThreadPool pool(4);
  std::vector<std::string> renderings;
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExecContext ctx;
    ctx.options.worker_threads = workers;
    ctx.options.morsel_rows = 128;
    ctx.pool = workers > 1 ? &pool : nullptr;
    std::string out = "cpu_out_" + std::to_string(workers);
    JobRunStats stats = Run(plan(out), ctx);
    ASSERT_EQ(stats.operators.size(), 6u);
    double sum = 0;
    for (const auto& [id, op] : stats.operators) {
      EXPECT_GT(op.cpu_seconds, 0) << "operator " << id;
      sum += op.cpu_seconds;
    }
    EXPECT_DOUBLE_EQ(stats.cpu_seconds, sum);
    auto handle = storage_.OpenStream(out);
    ASSERT_TRUE(handle.ok());
    renderings.push_back(
        CombineBatches((*handle)->schema, (*handle)->batches).ToString(100));
  }
  EXPECT_EQ(renderings[0], renderings[1]);
}

TEST_F(ExecTest, MorselRowsBelowOneFallBackToTheDefault) {
  // A config typo must not make every operator run one row per task.
  std::vector<std::pair<uint64_t, std::string>> runs;
  for (int morsel_rows : {ExecOptions{}.morsel_rows, 0, -5}) {
    SCOPED_TRACE("morsel_rows=" + std::to_string(morsel_rows));
    obs::MetricsRegistry metrics;
    ExecContext ctx;
    ctx.metrics = &metrics;
    ctx.options.morsel_rows = morsel_rows;
    std::string out = "morsel_out_" + std::to_string(runs.size());
    Run(Sales()
            .Filter(Gt(Col("amount"), Lit(15.0)))
            .Sort({{"amount", false}})
            .Output(out)
            .Build(),
        ctx);
    auto handle = storage_.OpenStream(out);
    ASSERT_TRUE(handle.ok());
    runs.emplace_back(
        metrics.GetCounter("cv_exec_morsels_total")->value(),
        CombineBatches((*handle)->schema, (*handle)->batches).ToString(100));
  }
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
}

TEST_F(ExecTest, UnboundPlanRejected) {
  auto plan = Sales().Build();
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsInvalidArgument());
}

}  // namespace
}  // namespace cloudviews
