#include <gtest/gtest.h>

#include "common/string_util.h"
#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "parser/parser.h"
#include "signature/signature.h"
#include "tests/test_util.h"

namespace cloudviews {
namespace {

using testing_util::ClickSchema;

PlanBuilder Clicks(const std::string& date = "2018-01-01") {
  return PlanBuilder::Extract("clicks_{date}", "clicks_" + date,
                              "g-" + date, ClickSchema());
}

/// Finds the first node of the given kind, pre-order; nullptr if absent.
PlanNode* FindNode(const PlanNodePtr& root, OpKind kind) {
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == kind) return n;
  }
  return nullptr;
}

int CountNodes(const PlanNodePtr& root, OpKind kind) {
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  int c = 0;
  for (PlanNode* n : nodes) c += n->kind() == kind ? 1 : 0;
  return c;
}

// --- Logical rules ---------------------------------------------------------------

TEST(RulesTest, FilterPushesBelowSortAndExchange) {
  auto plan = Clicks()
                  .Exchange(Partitioning::Hash({"user"}, 4))
                  .Sort({{"user", true}})
                  .Filter(Gt(Col("latency"), Lit(int64_t{10})))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = PushDownFilters(plan);
  // Expected: Sort -> Exchange -> Filter -> Extract.
  EXPECT_EQ(plan->kind(), OpKind::kSort);
  EXPECT_EQ(plan->child()->kind(), OpKind::kExchange);
  EXPECT_EQ(plan->child()->child()->kind(), OpKind::kFilter);
  EXPECT_EQ(plan->child()->child()->child()->kind(), OpKind::kExtract);
}

TEST(RulesTest, FilterPushesThroughProjectWithSubstitution) {
  auto plan = Clicks()
                  .Project({{Col("user"), "u"},
                            {Mul(Col("latency"), Lit(int64_t{2})), "lat2"}})
                  .Filter(Gt(Col("lat2"), Lit(int64_t{100})))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = PushDownFilters(plan);
  ASSERT_EQ(plan->kind(), OpKind::kProject);
  ASSERT_EQ(plan->child()->kind(), OpKind::kFilter);
  auto* filter = static_cast<FilterNode*>(plan->child().get());
  // The predicate now references the base column.
  EXPECT_NE(filter->predicate()->ToString().find("latency"),
            std::string::npos);
  ASSERT_TRUE(plan->Bind().ok());  // still type-correct
}

TEST(RulesTest, FilterSplitsAcrossJoinSides) {
  Schema users({{"uid", DataType::kInt64}, {"country", DataType::kString}});
  auto plan =
      Clicks()
          .Join(PlanBuilder::Extract("users", "users", "g2", users),
                JoinType::kInner, {{"user", "uid"}})
          .Filter(And(Gt(Col("latency"), Lit(int64_t{5})),
                      Eq(Col("country"), Lit("de"))))
          .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = PushDownFilters(plan);
  ASSERT_EQ(plan->kind(), OpKind::kJoin);
  EXPECT_EQ(plan->children()[0]->kind(), OpKind::kFilter);
  EXPECT_EQ(plan->children()[1]->kind(), OpKind::kFilter);
}

TEST(RulesTest, LeftOuterJoinKeepsRightFilterAbove) {
  Schema users({{"uid", DataType::kInt64}, {"country", DataType::kString}});
  auto plan = Clicks()
                  .Join(PlanBuilder::Extract("users", "users", "g2", users),
                        JoinType::kLeftOuter, {{"user", "uid"}})
                  .Filter(Eq(Col("country"), Lit("de")))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = PushDownFilters(plan);
  // The right-side predicate must stay above the outer join.
  EXPECT_EQ(plan->kind(), OpKind::kFilter);
  EXPECT_EQ(plan->child()->kind(), OpKind::kJoin);
  EXPECT_EQ(plan->child()->children()[1]->kind(), OpKind::kExtract);
}

TEST(RulesTest, FilterOnGroupKeysPushesBelowAggregate) {
  auto plan = Clicks()
                  .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
                  .Filter(And(Eq(Col("page"), Lit("/home")),
                              Gt(Col("n"), Lit(int64_t{1}))))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = PushDownFilters(plan);
  // page-predicate below the aggregate, n-predicate above.
  ASSERT_EQ(plan->kind(), OpKind::kFilter);
  auto* top = static_cast<FilterNode*>(plan.get());
  EXPECT_NE(top->predicate()->ToString().find("n"), std::string::npos);
  ASSERT_EQ(plan->child()->kind(), OpKind::kAggregate);
  EXPECT_EQ(plan->child()->child()->kind(), OpKind::kFilter);
}

TEST(RulesTest, MergeAdjacentFiltersCombines) {
  auto plan = Clicks()
                  .Filter(Gt(Col("latency"), Lit(int64_t{1})))
                  .Filter(Lt(Col("latency"), Lit(int64_t{100})))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = MergeAdjacentFilters(plan);
  EXPECT_EQ(plan->kind(), OpKind::kFilter);
  EXPECT_EQ(plan->child()->kind(), OpKind::kExtract);
}

TEST(RulesTest, RedundantExchangeRemoved) {
  auto plan = Clicks()
                  .Exchange(Partitioning::Hash({"user"}, 4))
                  .Exchange(Partitioning::Hash({"user"}, 4))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = RemoveRedundantEnforcers(plan);
  EXPECT_EQ(plan->kind(), OpKind::kExchange);
  EXPECT_EQ(plan->child()->kind(), OpKind::kExtract);
}

// --- Physical planning ----------------------------------------------------------

TEST(PhysicalPlannerTest, HashAggGetsExchangeEnforcer) {
  Optimizer opt;
  auto logical = Clicks()
                     .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
                     .Output("out")
                     .Build();
  auto result = opt.Optimize(logical, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto* agg = FindNode(result->root, OpKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(static_cast<AggregateNode*>(agg)->algorithm(),
            AggAlgorithm::kHash);
  EXPECT_EQ(agg->child()->kind(), OpKind::kExchange);
}

TEST(PhysicalPlannerTest, JoinGetsExchangesOnBothSides) {
  Schema users({{"uid", DataType::kInt64}});
  Optimizer opt;
  auto logical = Clicks()
                     .Join(PlanBuilder::Extract("users", "users", "g", users),
                           JoinType::kInner, {{"user", "uid"}})
                     .Output("out")
                     .Build();
  auto result = opt.Optimize(logical, {});
  ASSERT_TRUE(result.ok());
  auto* join = FindNode(result->root, OpKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->children()[0]->kind(), OpKind::kExchange);
  EXPECT_EQ(join->children()[1]->kind(), OpKind::kExchange);
  EXPECT_EQ(static_cast<JoinNode*>(join)->algorithm(), JoinAlgorithm::kHash);
}

TEST(PhysicalPlannerTest, SortedInputsPickMergeJoinAndStreamAgg) {
  Schema users({{"uid", DataType::kInt64}});
  Optimizer opt;
  auto left = Clicks().Sort({{"user", true}});
  auto right = PlanBuilder::Extract("users", "users", "g", users)
                   .Sort({{"uid", true}});
  auto logical = std::move(left)
                     .Join(std::move(right), JoinType::kInner,
                           {{"user", "uid"}})
                     .Output("out")
                     .Build();
  auto result = opt.Optimize(logical, {});
  ASSERT_TRUE(result.ok());
  auto* join = FindNode(result->root, OpKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(static_cast<JoinNode*>(join)->algorithm(),
            JoinAlgorithm::kMerge);

  auto agg_logical = Clicks()
                         .Sort({{"page", true}})
                         .Aggregate({"page"}, {{AggFunc::kCount, nullptr,
                                                "n"}})
                         .Output("out")
                         .Build();
  auto agg_result = opt.Optimize(agg_logical, {});
  ASSERT_TRUE(agg_result.ok());
  auto* agg = FindNode(agg_result->root, OpKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(static_cast<AggregateNode*>(agg)->algorithm(),
            AggAlgorithm::kStream);
}

TEST(PhysicalPlannerTest, DeterministicAcrossRecurringInstances) {
  Optimizer opt;
  auto make = [&](const std::string& date) {
    auto logical =
        Clicks(date)
            .Filter(Ge(Col("when"),
                       Param("date", Value::DateFromString(date))))
            .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
            .Output("out_" + date)
            .Build();
    auto r = opt.Optimize(logical, {});
    EXPECT_TRUE(r.ok());
    return r->root;
  };
  auto day1 = make("2018-01-01");
  auto day2 = make("2018-01-02");
  EXPECT_EQ(day1->SubtreeHash(SignatureMode::kNormalized),
            day2->SubtreeHash(SignatureMode::kNormalized));
  EXPECT_NE(day1->SubtreeHash(SignatureMode::kPrecise),
            day2->SubtreeHash(SignatureMode::kPrecise));
}

// --- Cost model --------------------------------------------------------------------

class FakeFeedback : public StatsProviderInterface {
 public:
  std::optional<SubgraphObservedStats> Lookup(
      const Hash128& sig) const override {
    auto it = stats_.find(sig);
    if (it == stats_.end()) return std::nullopt;
    return it->second;
  }
  void Set(const Hash128& sig, SubgraphObservedStats stats) {
    stats_[sig] = stats;
  }

 private:
  std::unordered_map<Hash128, SubgraphObservedStats, Hash128Hasher> stats_;
};

TEST(CostModelTest, AnnotatesEstimatesBottomUp) {
  auto plan = Clicks().Filter(Eq(Col("page"), Lit("/home"))).Build();
  ASSERT_TRUE(plan->Bind().ok());
  CostModel model;
  model.Annotate(plan.get(), nullptr, nullptr);
  EXPECT_GT(plan->estimates().cost, 0);
  EXPECT_GT(plan->child()->estimates().rows, 0);
  // Equality filter selectivity: far fewer rows than the scan.
  EXPECT_LT(plan->estimates().rows, plan->child()->estimates().rows);
}

TEST(CostModelTest, StorageSuppliesInputCardinality) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  testing_util::WriteClickStream(&storage, "clicks_2018-01-01", 500, 1,
                                 "2018-01-01");
  auto plan = Clicks().Build();
  ASSERT_TRUE(plan->Bind().ok());
  CostModel model;
  model.Annotate(plan.get(), nullptr, &storage);
  EXPECT_DOUBLE_EQ(plan->estimates().rows, 500);
}

TEST(CostModelTest, FeedbackOverridesEstimates) {
  auto plan = Clicks().Filter(Eq(Col("page"), Lit("/home"))).Build();
  ASSERT_TRUE(plan->Bind().ok());
  FakeFeedback feedback;
  SubgraphObservedStats observed;
  observed.rows = 7;
  observed.bytes = 123;
  observed.observations = 3;
  feedback.Set(plan->SubtreeHash(SignatureMode::kNormalized), observed);
  CostModel model;
  model.Annotate(plan.get(), &feedback, nullptr);
  EXPECT_DOUBLE_EQ(plan->estimates().rows, 7);
  EXPECT_TRUE(plan->estimates().from_feedback);
}

TEST(CostModelTest, SelectivityHeuristics) {
  EXPECT_LT(CostModel::PredicateSelectivity(
                *Eq(Col("a"), Lit(int64_t{1}))),
            CostModel::PredicateSelectivity(*Ne(Col("a"), Lit(int64_t{1}))));
  auto conj = And(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(int64_t{2})));
  EXPECT_NEAR(CostModel::PredicateSelectivity(*conj), 0.01, 1e-9);
}

// --- View rewriting ------------------------------------------------------------------

class FakeCatalog : public ViewCatalogInterface {
 public:
  std::optional<MaterializedViewInfo> FindMaterialized(
      const Hash128& normalized, const Hash128& precise) override {
    auto it = views_.find(precise);
    if (it == views_.end() ||
        !(it->second.normalized_signature == normalized)) {
      return std::nullopt;
    }
    return it->second;
  }
  bool ProposeMaterialize(const Hash128&, const Hash128& precise, uint64_t,
                          double) override {
    if (views_.count(precise) > 0 || locked_.count(precise) > 0) {
      return false;
    }
    locked_.insert(precise);
    return true;
  }
  void AddView(MaterializedViewInfo info) {
    views_[info.precise_signature] = std::move(info);
  }
  std::unordered_map<Hash128, MaterializedViewInfo, Hash128Hasher> views_;
  std::set<Hash128> locked_;
};

/// Adds `ann` to the job's annotation index, keyed by its signature.
void AddAnnotation(OptimizeContext* ctx, ViewAnnotation ann) {
  Hash128 normalized = ann.normalized_signature;
  ctx->annotations.emplace(normalized, std::move(ann));
}

ViewAnnotation AnnotationFor(const PlanNodePtr& subgraph) {
  ViewAnnotation ann;
  ann.normalized_signature =
      subgraph->SubtreeHash(SignatureMode::kNormalized);
  ann.expected_rows = 10;
  ann.expected_bytes = 100;
  ann.avg_runtime_seconds = 1.0;
  ann.frequency = 5;
  ann.lifetime_seconds = kSecondsPerDay;
  return ann;
}

TEST(ViewRewriteTest, MaterializationInsertsSpoolUnderLimit) {
  auto shared = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(shared->Bind().ok());
  FakeCatalog catalog;
  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  ctx.job_id = 11;
  AddAnnotation(&ctx, AnnotationFor(shared));

  Optimizer opt;
  auto logical = PlanBuilder::From(shared->Clone())
                     .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
                     .Output("out")
                     .Build();
  auto result = opt.Optimize(logical, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->views_materialized, 1);
  EXPECT_EQ(result->views_reused, 0);
  auto* spool = FindNode(result->root, OpKind::kSpool);
  ASSERT_NE(spool, nullptr);
  EXPECT_EQ(static_cast<SpoolNode*>(spool)->lifetime_seconds(),
            kSecondsPerDay);
  uint64_t job = 0;
  Hash128 n, p;
  EXPECT_TRUE(ParseViewPath(static_cast<SpoolNode*>(spool)->view_path(), &n,
                            &p, &job));
  EXPECT_EQ(job, 11u);
}

TEST(ViewRewriteTest, SecondCompilationIsDeniedTheLock) {
  auto shared = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(shared->Bind().ok());
  FakeCatalog catalog;
  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  AddAnnotation(&ctx, AnnotationFor(shared));

  Optimizer opt;
  auto logical = PlanBuilder::From(shared->Clone()).Output("out").Build();
  ASSERT_TRUE(opt.Optimize(logical, ctx).ok());
  auto second = opt.Optimize(logical, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->views_materialized, 0);
  EXPECT_EQ(second->materialize_lock_denied, 1);
}

TEST(ViewRewriteTest, ReuseReplacesSubtreeWithViewRead) {
  auto shared = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(shared->Bind().ok());
  Hash128 norm = shared->SubtreeHash(SignatureMode::kNormalized);
  Hash128 precise = shared->SubtreeHash(SignatureMode::kPrecise);

  FakeCatalog catalog;
  MaterializedViewInfo info;
  info.path = EncodeViewPath(norm, precise, 1);
  info.normalized_signature = norm;
  info.precise_signature = precise;
  info.rows = 5;
  info.bytes = 50;
  catalog.AddView(info);

  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  AddAnnotation(&ctx, AnnotationFor(shared));

  Optimizer opt;
  auto logical = PlanBuilder::From(shared->Clone())
                     .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
                     .Output("out")
                     .Build();
  auto result = opt.Optimize(logical, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->views_reused, 1);
  EXPECT_EQ(result->views_materialized, 0);
  EXPECT_NE(FindNode(result->root, OpKind::kViewRead), nullptr);
  EXPECT_EQ(FindNode(result->root, OpKind::kFilter), nullptr);
}

TEST(ViewRewriteTest, ExpensiveViewRejectedByCost) {
  auto shared = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(shared->Bind().ok());
  Hash128 norm = shared->SubtreeHash(SignatureMode::kNormalized);
  Hash128 precise = shared->SubtreeHash(SignatureMode::kPrecise);

  FakeCatalog catalog;
  MaterializedViewInfo info;
  info.path = EncodeViewPath(norm, precise, 1);
  info.normalized_signature = norm;
  info.precise_signature = precise;
  info.rows = 1e12;  // reading this would dwarf recomputing
  info.bytes = 1e15;
  catalog.AddView(info);

  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  AddAnnotation(&ctx, AnnotationFor(shared));

  Optimizer opt;
  auto logical = PlanBuilder::From(shared->Clone()).Output("out").Build();
  auto result = opt.Optimize(logical, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->views_reused, 0);
  EXPECT_EQ(result->reuse_rejected_by_cost, 1);
  // And it must not try to re-materialize an existing view.
  EXPECT_EQ(result->views_materialized, 0);
}

TEST(ViewRewriteTest, StaleViewNotReusedAfterDataChanges) {
  // View built for day-1 data; the day-2 job must not match it.
  auto day1 = Clicks("2018-01-01")
                  .Filter(Gt(Col("latency"), Lit(int64_t{10})))
                  .Build();
  ASSERT_TRUE(day1->Bind().ok());
  FakeCatalog catalog;
  MaterializedViewInfo info;
  info.normalized_signature = day1->SubtreeHash(SignatureMode::kNormalized);
  info.precise_signature = day1->SubtreeHash(SignatureMode::kPrecise);
  info.path = "/views/x/y_1.ss";
  info.rows = 5;
  info.bytes = 50;
  catalog.AddView(info);

  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  AddAnnotation(&ctx, AnnotationFor(day1));

  Optimizer opt;
  auto day2_logical = Clicks("2018-01-02")
                          .Filter(Gt(Col("latency"), Lit(int64_t{10})))
                          .Output("out")
                          .Build();
  auto result = opt.Optimize(day2_logical, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->views_reused, 0);
  // Instead it wins the lock and materializes the day-2 instance.
  EXPECT_EQ(result->views_materialized, 1);
}

TEST(ViewRewriteTest, PerJobMaterializationLimitHonored) {
  auto v1 = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  auto v2 = Clicks().Filter(Lt(Col("latency"), Lit(int64_t{400}))).Build();
  ASSERT_TRUE(v1->Bind().ok());
  ASSERT_TRUE(v2->Bind().ok());

  FakeCatalog catalog;
  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  AddAnnotation(&ctx, AnnotationFor(v1));
  AddAnnotation(&ctx, AnnotationFor(v2));

  auto logical = PlanBuilder::From(v1->Clone())
                     .UnionAll(PlanBuilder::From(v2->Clone()))
                     .Output("out")
                     .Build();

  OptimizerConfig config;
  config.max_materialized_views_per_job = 1;
  Optimizer opt1(config);
  auto r1 = opt1.Optimize(logical, ctx);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->views_materialized, 1);
  EXPECT_EQ(CountNodes(r1->root, OpKind::kSpool), 1);

  config.max_materialized_views_per_job = 2;
  Optimizer opt2(config);
  FakeCatalog catalog2;
  ctx.view_catalog = &catalog2;
  auto r2 = opt2.Optimize(logical, ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->views_materialized, 2);
}

TEST(ViewRewriteTest, MaterializationCostGateProtectsCheapJobs) {
  // The annotated subgraph is nearly the whole job; with a strict gate the
  // cheap job refuses to pay for the view build.
  auto shared = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(shared->Bind().ok());
  FakeCatalog catalog;
  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  AddAnnotation(&ctx, AnnotationFor(shared));
  auto logical = PlanBuilder::From(shared->Clone()).Output("out").Build();

  OptimizerConfig strict;
  strict.max_materialize_cost_fraction = 0.01;
  auto gated = Optimizer(strict).Optimize(logical, ctx);
  ASSERT_TRUE(gated.ok());
  EXPECT_EQ(gated->views_materialized, 0);
  EXPECT_EQ(gated->materialize_skipped_by_cost, 1);

  OptimizerConfig off;
  off.max_materialize_cost_fraction = 0;  // gate disabled
  FakeCatalog catalog2;
  ctx.view_catalog = &catalog2;
  auto ungated = Optimizer(off).Optimize(logical, ctx);
  ASSERT_TRUE(ungated.ok());
  EXPECT_EQ(ungated->views_materialized, 1);
}

TEST(RulesTest, FilterPushesIntoUnionBranches) {
  auto plan = Clicks()
                  .UnionAll(Clicks("2018-01-02"))
                  .Filter(Gt(Col("latency"), Lit(int64_t{7})))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = PushDownFilters(plan);
  ASSERT_EQ(plan->kind(), OpKind::kUnionAll);
  for (const auto& branch : plan->children()) {
    EXPECT_EQ(branch->kind(), OpKind::kFilter);
  }
}

TEST(RulesTest, FilterStopsAtOpaqueOperators) {
  // Process is opaque user code: nothing may move below it.
  auto plan = Clicks()
                  .Process("identity", "lib", "1.0",
                           testing_util::ClickSchema())
                  .Filter(Gt(Col("latency"), Lit(int64_t{7})))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = PushDownFilters(plan);
  EXPECT_EQ(plan->kind(), OpKind::kFilter);
  EXPECT_EQ(plan->child()->kind(), OpKind::kProcess);

  // Top changes results if a filter crosses it.
  auto top_plan = Clicks()
                      .Top(3)
                      .Filter(Gt(Col("latency"), Lit(int64_t{7})))
                      .Build();
  ASSERT_TRUE(top_plan->Bind().ok());
  top_plan = PushDownFilters(top_plan);
  EXPECT_EQ(top_plan->kind(), OpKind::kFilter);
  EXPECT_EQ(top_plan->child()->kind(), OpKind::kTop);
}

size_t ExprNodeCount(const Expr& expr) {
  size_t n = 1;
  for (const auto& c : expr.children()) n += ExprNodeCount(*c);
  return n;
}

TEST(RulesTest, InliningStopsAtThePredicateBudget) {
  // Every `latency + latency AS latency` doubles the predicate inlined
  // through it: pushed through all 40 projections, `latency > 5` would
  // grow to 2^41 + 1 nodes. The script passes every parser limit.
  std::string script =
      "clicks = EXTRACT user:int, page:string, latency:int, when:date\n"
      "         FROM \"clicks_{date}\";\n"
      "s0 = SELECT page, latency + latency AS latency FROM clicks;\n";
  for (int i = 1; i < 40; ++i) {
    script += StrFormat(
        "s%d = SELECT page, latency + latency AS latency FROM s%d;\n", i,
        i - 1);
  }
  script += "f = SELECT * FROM s39 WHERE latency > 5;\n";
  script += "OUTPUT f TO \"deep_{date}\";\n";
  ParamMap params;
  params["date"] = DateParam("2018-01-01");
  auto parsed = ScopeScriptParser().Parse(script, params);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  PlanNodePtr plan = *parsed;
  ASSERT_TRUE(plan->Bind().ok());

  plan = PushDownFilters(plan);  // returns: nothing near 2^41 is built

  const size_t budget = ScopeScriptParser::kMaxChainExprNodes;
  std::vector<PlanNode*> nodes;
  CollectNodes(plan, &nodes);
  std::vector<FilterNode*> filters;
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kFilter) {
      filters.push_back(static_cast<FilterNode*>(n));
    }
  }
  ASSERT_EQ(filters.size(), 1u);
  for (FilterNode* f : filters) {
    EXPECT_LE(ExprNodeCount(*f->predicate()), budget);
  }
  // The filter went below every projection it could cross within the
  // budget (2^9 + 1 nodes after eight), and stopped above the first one
  // whose inlining would exceed it.
  const FilterNode& filter = *filters[0];
  EXPECT_EQ(ExprNodeCount(*filter.predicate()), 513u);
  ASSERT_EQ(filter.child()->kind(), OpKind::kProject);
  const auto& below = static_cast<const ProjectNode&>(*filter.child());
  ExprPtr inlined = SubstituteColumnRefs(
      *filter.predicate(), [&](const std::string& name) -> ExprPtr {
        for (const auto& ne : below.exprs()) {
          if (ne.name == name) return ne.expr->Clone();
        }
        return nullptr;
      });
  ASSERT_NE(inlined, nullptr);
  EXPECT_GT(ExprNodeCount(*inlined), budget);
  ASSERT_TRUE(plan->Bind().ok());
}

TEST(RulesTest, TripleFilterStackMergesToOne) {
  auto plan = Clicks()
                  .Filter(Gt(Col("latency"), Lit(int64_t{1})))
                  .Filter(Lt(Col("latency"), Lit(int64_t{100})))
                  .Filter(Ne(Col("page"), Lit("/none")))
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = MergeAdjacentFilters(plan);
  EXPECT_EQ(plan->kind(), OpKind::kFilter);
  EXPECT_EQ(plan->child()->kind(), OpKind::kExtract);
}

TEST(RulesTest, RedundantSortRemoved) {
  auto plan = Clicks()
                  .Sort({{"user", true}})
                  .Sort({{"user", true}})
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  plan = RemoveRedundantEnforcers(plan);
  EXPECT_EQ(plan->kind(), OpKind::kSort);
  EXPECT_EQ(plan->child()->kind(), OpKind::kExtract);
  // A *different* sort must stay.
  auto different = Clicks()
                       .Sort({{"user", true}})
                       .Sort({{"latency", false}})
                       .Build();
  ASSERT_TRUE(different->Bind().ok());
  different = RemoveRedundantEnforcers(different);
  EXPECT_EQ(different->child()->kind(), OpKind::kSort);
}

TEST(PhysicalPlannerTest, OutputDesignGetsEnforcers) {
  Optimizer opt;
  auto out = std::make_shared<OutputNode>(Clicks().Build(), "dest");
  out->set_declared_design(PhysicalProperties{
      Partitioning::Hash({"user"}, 8), {{{"latency", true}}}});
  auto result = opt.Optimize(out, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Output -> Sort -> Exchange -> Extract.
  EXPECT_EQ(result->root->kind(), OpKind::kOutput);
  EXPECT_EQ(result->root->child()->kind(), OpKind::kSort);
  EXPECT_EQ(result->root->child()->child()->kind(), OpKind::kExchange);
}

TEST(PhysicalPlannerTest, ReduceGetsExchangeAndSort) {
  Optimizer opt;
  auto reduce = std::make_shared<ReduceNode>(
      Clicks().Build(), std::vector<std::string>{"page"}, "first_of_group",
      "lib", "1.0", Schema());
  auto logical = PlanBuilder::From(reduce).Output("out").Build();
  auto result = opt.Optimize(logical, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto* r = FindNode(result->root, OpKind::kReduce);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->child()->kind(), OpKind::kSort);
  EXPECT_EQ(r->child()->child()->kind(), OpKind::kExchange);
}

TEST(ViewRewriteTest, OfflineAnnotationSkipsInlineMaterialization) {
  auto shared = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(shared->Bind().ok());
  FakeCatalog catalog;
  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  ViewAnnotation ann = AnnotationFor(shared);
  ann.offline = true;
  AddAnnotation(&ctx, ann);

  Optimizer opt;
  auto logical = PlanBuilder::From(shared->Clone()).Output("out").Build();
  auto result = opt.Optimize(logical, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->views_materialized, 0);
}

TEST(ViewRewriteTest, ViewDesignMismatchGetsEnforcerRepair) {
  // The view delivers no useful properties, but the consumer aggregates on
  // "page", so an exchange must be re-inserted above the ViewRead.
  auto shared = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(shared->Bind().ok());
  Hash128 norm = shared->SubtreeHash(SignatureMode::kNormalized);
  Hash128 precise = shared->SubtreeHash(SignatureMode::kPrecise);
  FakeCatalog catalog;
  MaterializedViewInfo info;
  info.path = EncodeViewPath(norm, precise, 1);
  info.normalized_signature = norm;
  info.precise_signature = precise;
  info.rows = 5;
  info.bytes = 50;
  catalog.AddView(info);

  OptimizeContext ctx;
  ctx.view_catalog = &catalog;
  AddAnnotation(&ctx, AnnotationFor(shared));

  Optimizer opt;
  auto logical = PlanBuilder::From(shared->Clone())
                     .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
                     .Output("out")
                     .Build();
  auto result = opt.Optimize(logical, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->views_reused, 1);
  auto* agg = FindNode(result->root, OpKind::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->child()->kind(), OpKind::kExchange);
  EXPECT_EQ(agg->child()->child()->kind(), OpKind::kViewRead);
}

}  // namespace
}  // namespace cloudviews
