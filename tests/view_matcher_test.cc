// Containment-based view matching (the staged CandidateMatcher pipeline):
//  - interval / predicate-feature edge cases (open vs closed bounds,
//    mirrored comparisons, opaque conjuncts, NULL-filtering columns)
//  - cap decomposition and the order-safety gate for aggregate compensation
//  - end-to-end subsumption through the facade: residual filters, coarser
//    group-bys, MIN and AVG (sum/count) decomposition — every
//    subsumption-served query byte-identical to its no-reuse baseline
//  - the tier-0 regression pin: exact hits and warm plan-cache hits keep
//    their pre-containment semantics (no containment_verify span, zero
//    funnel)
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cloudviews.h"
#include "core/explain.h"
#include "obs/export.h"
#include "optimizer/view_matcher.h"
#include "signature/containment.h"
#include "signature/signature.h"
#include "tests/test_util.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace {

using testing_util::ClickSchema;
using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

// ---------------------------------------------------------------------------
// Predicate features: intervals, opaque conjuncts, containment edges
// ---------------------------------------------------------------------------

TEST(PredicateFeaturesTest, ComparisonOpsProduceExpectedBounds) {
  auto gt = ComputePredicateFeatures(Gt(Col("x"), Lit(int64_t{50})));
  ASSERT_EQ(gt.intervals.size(), 1u);
  EXPECT_EQ(gt.intervals[0].column, "x");
  EXPECT_TRUE(gt.intervals[0].has_lower);
  EXPECT_FALSE(gt.intervals[0].lower_inclusive);
  EXPECT_FALSE(gt.intervals[0].has_upper);
  EXPECT_EQ(gt.intervals[0].lower.int64_value(), 50);
  EXPECT_TRUE(gt.opaque.empty());
  EXPECT_EQ(gt.conjuncts.size(), 1u);

  auto ge = ComputePredicateFeatures(Ge(Col("x"), Lit(int64_t{50})));
  ASSERT_EQ(ge.intervals.size(), 1u);
  EXPECT_TRUE(ge.intervals[0].lower_inclusive);

  auto le = ComputePredicateFeatures(Le(Col("x"), Lit(int64_t{100})));
  ASSERT_EQ(le.intervals.size(), 1u);
  EXPECT_FALSE(le.intervals[0].has_lower);
  EXPECT_TRUE(le.intervals[0].has_upper);
  EXPECT_TRUE(le.intervals[0].upper_inclusive);
  EXPECT_EQ(le.intervals[0].upper.int64_value(), 100);

  auto eq = ComputePredicateFeatures(Eq(Col("x"), Lit(int64_t{5})));
  ASSERT_EQ(eq.intervals.size(), 1u);
  EXPECT_TRUE(eq.intervals[0].has_lower);
  EXPECT_TRUE(eq.intervals[0].has_upper);
  EXPECT_TRUE(eq.intervals[0].lower_inclusive);
  EXPECT_TRUE(eq.intervals[0].upper_inclusive);
}

TEST(PredicateFeaturesTest, MirroredComparisonNormalizes) {
  // 10 < x is the same constraint as x > 10.
  auto f = ComputePredicateFeatures(Lt(Lit(int64_t{10}), Col("x")));
  ASSERT_EQ(f.intervals.size(), 1u);
  EXPECT_TRUE(f.intervals[0].has_lower);
  EXPECT_FALSE(f.intervals[0].lower_inclusive);
  EXPECT_EQ(f.intervals[0].lower.int64_value(), 10);
}

TEST(PredicateFeaturesTest, UninterpretableConjunctsAreOpaque) {
  // !=, OR trees, column-to-column comparisons, and null constants carry
  // no interval information; they must only ever match verbatim.
  for (const ExprPtr& e : std::vector<ExprPtr>{
           Ne(Col("x"), Lit(int64_t{3})),
           Or(Gt(Col("x"), Lit(int64_t{1})), Eq(Col("y"), Lit(int64_t{2}))),
           Gt(Col("a"), Col("b")),
           Eq(Col("x"), Lit(Value::Null(DataType::kInt64)))}) {
    auto f = ComputePredicateFeatures(e);
    EXPECT_TRUE(f.intervals.empty());
    ASSERT_EQ(f.opaque.size(), 1u);
    EXPECT_EQ(f.conjuncts.size(), 1u);
  }
  EXPECT_TRUE(ComputePredicateFeatures(nullptr).conjuncts.empty());
}

TEST(PredicateFeaturesTest, OpenClosedContainmentEdges) {
  auto interval_of = [](const ExprPtr& e) {
    auto f = ComputePredicateFeatures(e);
    EXPECT_EQ(f.intervals.size(), 1u);
    return f.intervals[0];
  };
  ColumnInterval open_50 = interval_of(Gt(Col("x"), Lit(int64_t{50})));
  ColumnInterval closed_50 = interval_of(Ge(Col("x"), Lit(int64_t{50})));
  ColumnInterval closed_51 = interval_of(Ge(Col("x"), Lit(int64_t{51})));
  // (50, inf) admits 51.. but not 50: it contains [51, inf) and itself,
  // not [50, inf).
  EXPECT_TRUE(open_50.Contains(open_50));
  EXPECT_TRUE(open_50.Contains(closed_51));
  EXPECT_FALSE(open_50.Contains(closed_50));
  // The closed bound contains both variants at the same edge.
  EXPECT_TRUE(closed_50.Contains(open_50));
  EXPECT_TRUE(closed_50.Contains(closed_50));

  ColumnInterval upper_open = interval_of(Lt(Col("x"), Lit(int64_t{100})));
  ColumnInterval upper_closed = interval_of(Le(Col("x"), Lit(int64_t{100})));
  EXPECT_TRUE(upper_closed.Contains(upper_open));
  EXPECT_FALSE(upper_open.Contains(upper_closed));
}

TEST(PredicateFeaturesTest, ContainmentRequiresEveryViewColumnConstrained) {
  auto view = ComputePredicateFeatures(Gt(Col("latency"), Lit(int64_t{50})));
  // Stronger query predicate on the same column: contained.
  EXPECT_TRUE(view.Contains(
      ComputePredicateFeatures(And(Gt(Col("latency"), Lit(int64_t{80})),
                                   Eq(Col("page"), Lit("/home"))))));
  // Weaker bound: not contained.
  EXPECT_FALSE(view.Contains(
      ComputePredicateFeatures(Gt(Col("latency"), Lit(int64_t{40})))));
  // No latency constraint at all: the view's comparison dropped
  // latency-NULL rows the query would keep (NULL-filtering), so reject.
  EXPECT_FALSE(view.Contains(
      ComputePredicateFeatures(Eq(Col("page"), Lit("/home")))));
  // An empty view predicate admits every core row.
  EXPECT_TRUE(ComputePredicateFeatures(nullptr).Contains(view));
}

TEST(PredicateFeaturesTest, OpaqueViewConjunctMustAppearVerbatim) {
  ExprPtr disjunction =
      Or(Gt(Col("latency"), Lit(int64_t{50})), Eq(Col("page"), Lit("/h")));
  auto view = ComputePredicateFeatures(disjunction);
  ASSERT_EQ(view.opaque.size(), 1u);
  EXPECT_TRUE(view.Contains(ComputePredicateFeatures(
      And(disjunction->Clone(), Gt(Col("user"), Lit(int64_t{5}))))));
  EXPECT_FALSE(view.Contains(
      ComputePredicateFeatures(Gt(Col("latency"), Lit(int64_t{80})))));
}

TEST(PredicateFeaturesTest, FlattenConjunctsWalksNestedAndTrees) {
  ExprPtr pred = And(And(Gt(Col("a"), Lit(int64_t{1})),
                         Lt(Col("b"), Lit(int64_t{2}))),
                     Eq(Col("c"), Lit(int64_t{3})));
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(pred, &conjuncts);
  EXPECT_EQ(conjuncts.size(), 3u);
  auto f = ComputePredicateFeatures(pred);
  EXPECT_EQ(f.conjuncts.size(), 3u);
  EXPECT_EQ(f.intervals.size(), 3u);
}

// ---------------------------------------------------------------------------
// Cap decomposition and view features
// ---------------------------------------------------------------------------

TEST(CapDecompositionTest, FullCapOverExtractCore) {
  PlanNodePtr plan =
      PlanBuilder::Extract("t_{date}", "t_2018-01-01", "g", ClickSchema())
          .Filter(Gt(Col("latency"), Lit(int64_t{50})))
          .Project({{Col("page"), "page"}, {Col("latency"), "lat"}})
          .Aggregate({"page"}, {{AggFunc::kSum, Col("lat"), "s"}})
          .Build();
  ASSERT_TRUE(plan->Bind().ok());
  CapDecomposition cap = DecomposeCap(*plan);
  EXPECT_TRUE(cap.HasCap());
  EXPECT_NE(cap.aggregate, nullptr);
  EXPECT_NE(cap.project, nullptr);
  EXPECT_NE(cap.filter, nullptr);
  ASSERT_NE(cap.core, nullptr);
  EXPECT_EQ(cap.core->kind(), OpKind::kExtract);
}

TEST(CapDecompositionTest, NonCapRootsHaveNoCap) {
  PlanNodePtr extract =
      PlanBuilder::Extract("t_{date}", "t_2018-01-01", "g", ClickSchema())
          .Build();
  ASSERT_TRUE(extract->Bind().ok());
  EXPECT_FALSE(DecomposeCap(*extract).HasCap());
  EXPECT_EQ(DecomposeCap(*extract).core, extract.get());

  PlanNodePtr sorted = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                           .Sort({{"page", true}})
                           .Build();
  ASSERT_TRUE(sorted->Bind().ok());
  // A Sort root is not a cap op; the core is the whole subtree.
  EXPECT_FALSE(DecomposeCap(*sorted).HasCap());
}

TEST(ViewFeaturesTest, SharedAggPlanFeatures) {
  PlanNodePtr plan = SharedAggPlan("2018-01-01");
  ASSERT_TRUE(plan->Bind().ok());
  ViewFeatures f = ComputeViewFeatures(*plan);
  EXPECT_TRUE(f.has_aggregate);
  EXPECT_EQ(f.group_by, std::vector<std::string>{"page"});
  EXPECT_EQ(f.tables, std::vector<std::string>{"clicks_{date}"});
  EXPECT_EQ(f.table_set_key, TableSetKey({"clicks_{date}"}));
  ASSERT_EQ(f.predicate.intervals.size(), 1u);
  EXPECT_EQ(f.predicate.intervals[0].column, "latency");
  EXPECT_EQ(f.output_columns,
            (std::vector<std::string>{"page", "n", "total_latency"}));

  std::vector<Hash128> keys = CollectTableSetKeys(plan);
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], f.table_set_key);
}

// ---------------------------------------------------------------------------
// Order-safety gate for aggregate compensation
// ---------------------------------------------------------------------------

class OrderGateTest : public ::testing::Test {
 protected:
  /// Builds root -> ... -> Aggregate and returns the root-to-parent
  /// ancestor chain of the aggregate node.
  static std::vector<const PlanNode*> AncestorsOfAggregate(
      const PlanNodePtr& root) {
    std::vector<const PlanNode*> chain;
    const PlanNode* n = root.get();
    while (n->kind() != OpKind::kAggregate) {
      chain.push_back(n);
      n = n->children()[0].get();
    }
    return chain;
  }
};

TEST_F(OrderGateTest, CoveringSortAboveMakesOrderImmaterial) {
  PlanNodePtr plan = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                         .Sort({{"page", true}})
                         .Output("o")
                         .Build();
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_TRUE(OrderImmaterialAbove(AncestorsOfAggregate(plan), {"page"}));
  // An empty group-key set (global aggregate) is covered by any Sort.
  EXPECT_TRUE(OrderImmaterialAbove(AncestorsOfAggregate(plan), {}));
}

TEST_F(OrderGateTest, NonCoveringSortOrNoSortFails) {
  PlanNodePtr sorted_on_n = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                                .Sort({{"n", false}})
                                .Output("o")
                                .Build();
  ASSERT_TRUE(sorted_on_n->Bind().ok());
  EXPECT_FALSE(
      OrderImmaterialAbove(AncestorsOfAggregate(sorted_on_n), {"page"}));

  PlanNodePtr unsorted = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                             .Output("o")
                             .Build();
  ASSERT_TRUE(unsorted->Bind().ok());
  EXPECT_FALSE(
      OrderImmaterialAbove(AncestorsOfAggregate(unsorted), {"page"}));
}

TEST_F(OrderGateTest, IdentityProjectIsTransparentButRenamingIsNot) {
  PlanNodePtr identity =
      PlanBuilder::From(SharedAggPlan("2018-01-01"))
          .Project({{Col("page"), "page"}, {Col("n"), "n"}})
          .Sort({{"page", true}})
          .Output("o")
          .Build();
  ASSERT_TRUE(identity->Bind().ok());
  EXPECT_TRUE(OrderImmaterialAbove(AncestorsOfAggregate(identity), {"page"}));

  PlanNodePtr renamed =
      PlanBuilder::From(SharedAggPlan("2018-01-01"))
          .Project({{Col("page"), "pg"}, {Col("n"), "n"}})
          .Sort({{"pg", true}})
          .Output("o")
          .Build();
  ASSERT_TRUE(renamed->Bind().ok());
  // "page" does not survive the rename; the gate cannot see through it.
  EXPECT_FALSE(OrderImmaterialAbove(AncestorsOfAggregate(renamed), {"page"}));
}

// ---------------------------------------------------------------------------
// End-to-end subsumption through the facade
// ---------------------------------------------------------------------------

JobDefinition MakeJob(const std::string& id, PlanNodePtr plan) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = std::move(plan);
  return def;
}

JobDefinition JobA(const std::string& date) {
  return MakeJob("jobA", PlanBuilder::From(SharedAggPlan(date))
                             .Sort({{"n", false}})
                             .Output("A_" + date)
                             .Build());
}

JobDefinition JobB(const std::string& date) {
  return MakeJob("jobB", PlanBuilder::From(SharedAggPlan(date))
                             .Filter(Gt(Col("n"), Lit(int64_t{0})))
                             .Output("B_" + date)
                             .Build());
}

/// Canonical row-sorted rendering of a stored stream (same contract as
/// plan_cache_test / crash_stress_test).
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

class SubsumptionServiceTest : public ::testing::Test {
 protected:
  static CloudViewsConfig Config() {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    return config;
  }

  /// Day-1 history for the shared aggregate + analysis, then a day-2
  /// materializing run, so later day-2 submissions can only be served by
  /// containment (their shapes match no annotation exactly).
  static void SeedAggView(CloudViews* cv) {
    WriteClickStream(cv->storage(), "clicks_2018-01-01", 1500, 1,
                     "2018-01-01");
    ASSERT_TRUE(cv->Submit(JobA("2018-01-01"), false).ok());
    ASSERT_TRUE(cv->Submit(JobB("2018-01-01"), false).ok());
    cv->RunAnalyzerAndLoad();
    ASSERT_GE(cv->metadata()->NumAnnotations(), 1u);
    WriteClickStream(cv->storage(), "clicks_2018-01-02", 1100, 2,
                     "2018-01-02");
    auto build = cv->Submit(JobA("2018-01-02"));
    ASSERT_TRUE(build.ok());
    ASSERT_EQ(build->views_materialized, 1);
  }

  static PlanBuilder Clicks(const std::string& date) {
    return PlanBuilder::Extract("clicks_{date}", "clicks_" + date,
                                "guid-clicks_" + date, ClickSchema());
  }

  /// The shared aggregate narrowed to one page: same core + group-by, an
  /// extra group-key conjunct the view did not apply, a covering Sort.
  static PlanNodePtr PageFilterQuery(const std::string& date,
                                     const std::string& out) {
    return Clicks(date)
        .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                    Eq(Col("page"), Lit("/home"))))
        .Aggregate({"page"},
                   {{AggFunc::kCount, nullptr, "n"},
                    {AggFunc::kSum, Col("latency"), "total_latency"}})
        .Sort({{"page", true}})
        .Output(out)
        .Build();
  }

  /// Verifies `def` (submitted with CloudViews on) produces bytes
  /// identical to `base` (same plan shape, CloudViews off) and returns the
  /// CloudViews-side result.
  JobResult SubmitAndCompare(CloudViews* cv, JobDefinition base,
                             const std::string& base_stream,
                             JobDefinition def,
                             const std::string& def_stream) {
    auto b = cv->Submit(std::move(base), false);
    EXPECT_TRUE(b.ok()) << b.status().ToString();
    auto r = cv->Submit(std::move(def), true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Fingerprint(cv->storage(), def_stream),
              Fingerprint(cv->storage(), base_stream));
    return r.ok() ? *r : JobResult{};
  }
};

TEST_F(SubsumptionServiceTest, ResidualGroupKeyFilterServedBySubsumption) {
  CloudViews cv(Config());
  SeedAggView(&cv);

  JobResult r = SubmitAndCompare(
      &cv, MakeJob("qc-base", PageFilterQuery("2018-01-02", "C_base")),
      "C_base", MakeJob("qc", PageFilterQuery("2018-01-02", "C_cv")),
      "C_cv");

  EXPECT_EQ(r.views_reused, 1);
  EXPECT_EQ(r.views_reused_subsumed, 1);
  EXPECT_EQ(r.candidates_filtered, 1);
  EXPECT_EQ(r.containment_verified, 1);
  EXPECT_EQ(r.containment_rejected, 0);
  // Residual Filter(page = "/home") + re-aggregation + final Project.
  EXPECT_EQ(r.compensation_nodes_added, 3);

  // The funnel reaches the trace, explain, profile JSON, and metrics.
  ASSERT_NE(r.trace, nullptr);
  const obs::SpanRecord* verify = r.trace->Find("containment_verify");
  ASSERT_NE(verify, nullptr);
  bool stamped = false;
  for (const auto& [k, v] : verify->attributes) {
    if (k == "views_reused_subsumed" && v == "1") stamped = true;
  }
  EXPECT_TRUE(stamped);
  std::string explain = ExplainJob(r);
  EXPECT_NE(explain.find(" candidates_filtered=1 "), std::string::npos)
      << explain;
  EXPECT_NE(explain.find(" views_reused_subsumed=1 "), std::string::npos)
      << explain;
  std::string json = JobProfileJson(r);
  EXPECT_NE(json.find("\"views_reused_subsumed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"compensation_nodes_added\":3"), std::string::npos);
  std::string metrics = obs::RenderPrometheus(*cv.metrics());
  EXPECT_NE(metrics.find("cv_containment_verified_total 1"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("cv_rewrite_views_reused_subsumed_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("cv_containment_compensation_nodes_total 3"),
            std::string::npos);
}

TEST_F(SubsumptionServiceTest, CoarserGlobalAggregateServedBySubsumption) {
  CloudViews cv(Config());
  SeedAggView(&cv);

  auto global = [](const std::string& date, const std::string& out) {
    return Clicks(date)
        .Filter(Gt(Col("latency"), Lit(int64_t{50})))
        .Aggregate({}, {{AggFunc::kCount, nullptr, "rows"},
                        {AggFunc::kSum, Col("latency"), "lat_sum"}})
        .Sort({{"rows", false}})
        .Output(out)
        .Build();
  };
  JobResult r = SubmitAndCompare(
      &cv, MakeJob("qg-base", global("2018-01-02", "G_base")), "G_base",
      MakeJob("qg", global("2018-01-02", "G_cv")), "G_cv");

  EXPECT_EQ(r.views_reused_subsumed, 1);
  // The view already applied the only conjunct: no residual filter, just
  // re-aggregation (partial-count rollup) + the final Project.
  EXPECT_EQ(r.compensation_nodes_added, 2);
}

TEST_F(SubsumptionServiceTest, OrderGateBlocksUnsortedAggCompensation) {
  CloudViews cv(Config());
  SeedAggView(&cv);

  auto unsorted = [](const std::string& date, const std::string& out) {
    return Clicks(date)
        .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                    Eq(Col("page"), Lit("/home"))))
        .Aggregate({"page"},
                   {{AggFunc::kCount, nullptr, "n"},
                    {AggFunc::kSum, Col("latency"), "total_latency"}})
        .Output(out)
        .Build();
  };
  JobResult r = SubmitAndCompare(
      &cv, MakeJob("qu-base", unsorted("2018-01-02", "U_base")), "U_base",
      MakeJob("qu", unsorted("2018-01-02", "U_cv")), "U_cv");

  // Without a covering Sort the re-aggregated group order could leak into
  // bytes; the candidate passes tier 1 but is rejected, and the job runs
  // (byte-identically) without reuse.
  EXPECT_EQ(r.views_reused, 0);
  EXPECT_EQ(r.views_reused_subsumed, 0);
  EXPECT_EQ(r.candidates_filtered, 1);
  EXPECT_EQ(r.containment_verified, 0);
  EXPECT_EQ(r.containment_rejected, 1);
}

TEST_F(SubsumptionServiceTest, ContainmentFlagOffKeepsLegacyBehavior) {
  CloudViewsConfig config = Config();
  config.optimizer.enable_containment_matching = false;
  CloudViews cv(config);
  SeedAggView(&cv);

  JobResult r = SubmitAndCompare(
      &cv, MakeJob("qd-base", PageFilterQuery("2018-01-02", "D_base")),
      "D_base", MakeJob("qd", PageFilterQuery("2018-01-02", "D_cv")),
      "D_cv");
  EXPECT_EQ(r.views_reused, 0);
  EXPECT_EQ(r.candidates_filtered, 0);
  EXPECT_EQ(r.views_reused_subsumed, 0);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_EQ(r.trace->Find("containment_verify"), nullptr);
}

TEST_F(SubsumptionServiceTest, StrongerFilterOverRawViewSubsumed) {
  // A no-aggregate (filter-only) view: day-1 templates share only the
  // filtered scan. The day-2 query strengthens the filter and narrows the
  // projection — row-wise compensation, no order gate needed.
  CloudViews cv(Config());
  WriteClickStream(cv.storage(), "clicks_2018-01-01", 1500, 1, "2018-01-01");
  auto filtered = [this](const std::string& date) {
    return Clicks(date).Filter(Gt(Col("latency"), Lit(int64_t{50})));
  };
  ASSERT_TRUE(cv.Submit(MakeJob("p1", filtered("2018-01-01")
                                          .Sort({{"user", true},
                                                 {"page", true},
                                                 {"latency", true}})
                                          .Output("P1_2018-01-01")
                                          .Build()),
                        false)
                  .ok());
  ASSERT_TRUE(cv.Submit(MakeJob("p2", filtered("2018-01-01")
                                          .Select({"page", "latency"})
                                          .Output("P2_2018-01-01")
                                          .Build()),
                        false)
                  .ok());
  cv.RunAnalyzerAndLoad();
  ASSERT_GE(cv.metadata()->NumAnnotations(), 1u);

  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1100, 2, "2018-01-02");
  auto build = cv.Submit(MakeJob("p1", filtered("2018-01-02")
                                           .Sort({{"user", true},
                                                  {"page", true},
                                                  {"latency", true}})
                                           .Output("P1_2018-01-02")
                                           .Build()));
  ASSERT_TRUE(build.ok());
  ASSERT_EQ(build->views_materialized, 1);

  // The strengthened predicate folds both bounds into ONE Filter node so
  // no query subtree matches the annotated Filter(>50) exactly — only the
  // containment tiers can serve it.
  auto strengthened = [&](const std::string& out) {
    return Clicks("2018-01-02")
        .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                    Lt(Col("latency"), Lit(int64_t{300}))))
        .Select({"page", "latency"})
        .Output(out)
        .Build();
  };
  JobResult r = SubmitAndCompare(
      &cv, MakeJob("q-base", strengthened("N_base")), "N_base",
      MakeJob("q-cv", strengthened("N_cv")), "N_cv");

  EXPECT_EQ(r.views_reused, 1);
  EXPECT_EQ(r.views_reused_subsumed, 1);
  // Residual Filter(latency < 300) + final Project to {page, latency}.
  EXPECT_EQ(r.compensation_nodes_added, 2);
}

TEST_F(SubsumptionServiceTest, AvgAndMinDecomposeFromSumCountView) {
  // View with SUM/COUNT/MIN partials over data containing NULL latencies
  // (one page's latency is always NULL): AVG decomposes as
  // SUM(sum)/SUM(count) including the NULL-on-empty-group edge, MIN rolls
  // up as MIN-of-MINs.
  CloudViews cv(Config());
  Schema schema = ClickSchema();
  auto write_avg = [&](const std::string& date, uint64_t seed) {
    Rng rng(seed);
    int64_t day = 0;
    ASSERT_TRUE(ParseDate(date, &day));
    Batch b(schema);
    for (int i = 0; i < 700; ++i) {
      std::string page = "/p" + std::to_string(rng.Uniform(4));
      Value latency =
          page == "/p3" ? Value::Null(DataType::kInt64)
                        : Value::Int64(static_cast<int64_t>(rng.Uniform(400)));
      ASSERT_TRUE(
          b.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(40))),
                       Value::String(page), latency, Value::Date(day)})
              .ok());
    }
    ASSERT_TRUE(cv.storage()
                    ->WriteStream(MakeStreamData(
                        "avg_clicks_" + date, "guid-avg_clicks_" + date,
                        schema, {b}, cv.storage()->clock()->Now()))
                    .ok());
  };
  auto partials = [&](const std::string& date) {
    return PlanBuilder::Extract("avg_clicks_{date}", "avg_clicks_" + date,
                                "guid-avg_clicks_" + date, schema)
        .Filter(Gt(Col("user"), Lit(int64_t{5})))
        .Aggregate({"page"}, {{AggFunc::kSum, Col("latency"), "s"},
                              {AggFunc::kCount, Col("latency"), "c"},
                              {AggFunc::kMin, Col("latency"), "mn"}});
  };
  write_avg("2018-01-01", 11);
  ASSERT_TRUE(cv.Submit(MakeJob("v1", partials("2018-01-01")
                                          .Sort({{"page", true}})
                                          .Output("V1_2018-01-01")
                                          .Build()),
                        false)
                  .ok());
  ASSERT_TRUE(cv.Submit(MakeJob("v2", partials("2018-01-01")
                                          .Filter(Gt(Col("c"), Lit(int64_t{0})))
                                          .Output("V2_2018-01-01")
                                          .Build()),
                        false)
                  .ok());
  cv.RunAnalyzerAndLoad();
  ASSERT_GE(cv.metadata()->NumAnnotations(), 1u);

  write_avg("2018-01-02", 12);
  auto build = cv.Submit(MakeJob("v1", partials("2018-01-02")
                                           .Sort({{"page", true}})
                                           .Output("V1_2018-01-02")
                                           .Build()));
  ASSERT_TRUE(build.ok());
  ASSERT_EQ(build->views_materialized, 1);

  auto avg_query = [&](const std::string& out) {
    return PlanBuilder::Extract("avg_clicks_{date}",
                                "avg_clicks_2018-01-02",
                                "guid-avg_clicks_2018-01-02", schema)
        .Filter(Gt(Col("user"), Lit(int64_t{5})))
        .Aggregate({"page"}, {{AggFunc::kAvg, Col("latency"), "avg_lat"},
                              {AggFunc::kMin, Col("latency"), "min_lat"}})
        .Sort({{"page", true}})
        .Output(out)
        .Build();
  };
  JobResult r = SubmitAndCompare(
      &cv, MakeJob("qa-base", avg_query("AV_base")), "AV_base",
      MakeJob("qa-cv", avg_query("AV_cv")), "AV_cv");

  EXPECT_EQ(r.views_reused_subsumed, 1);
  // No residual (identical filter); re-aggregation + Project with the
  // AVG division expression.
  EXPECT_EQ(r.compensation_nodes_added, 2);

  // The all-NULL group genuinely exercised the NULL edge: the /p3 group
  // exists with a NULL average on both sides.
  auto out = cv.storage()->OpenStream("AV_cv");
  ASSERT_TRUE(out.ok());
  Batch data = CombineBatches((*out)->schema, (*out)->batches);
  bool saw_null_avg = false;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    if (data.column(0).GetValue(i).string_value() == "/p3") {
      EXPECT_TRUE(data.column(1).GetValue(i).is_null());
      EXPECT_TRUE(data.column(2).GetValue(i).is_null());
      saw_null_avg = true;
    }
  }
  EXPECT_TRUE(saw_null_avg);
}

/// The view paths a plan writes (`kind` kSpool) or reads (kViewRead).
std::vector<std::string> ViewPaths(const PlanNode& node, OpKind kind) {
  std::vector<std::string> out;
  if (node.kind() == kind) {
    out.push_back(kind == OpKind::kSpool
                      ? static_cast<const SpoolNode&>(node).view_path()
                      : static_cast<const ViewReadNode&>(node).view_path());
  }
  for (const auto& child : node.children()) {
    for (auto& path : ViewPaths(*child, kind)) out.push_back(std::move(path));
  }
  return out;
}

TEST_F(SubsumptionServiceTest, ManyLiveDatesServeTheQueryDatesInstance) {
  // The shared aggregate materialized on 30 dates, all live at once: the
  // tier 2.5 probe must resolve the instance over the query's own input,
  // not another date's (same template, same predicate, other rows).
  CloudViews cv(Config());
  SeedAggView(&cv);
  ASSERT_EQ(cv.metadata()->NumRegisteredViews(), 1u);
  std::map<std::string, std::string> view_by_date;
  view_by_date["2018-01-02"] = cv.metadata()->ListViews()[0].path;
  for (int day = 3; day <= 31; ++day) {
    std::string date = "2018-01-" + std::string(day < 10 ? "0" : "") +
                       std::to_string(day);
    WriteClickStream(cv.storage(), "clicks_" + date,
                     900 + static_cast<size_t>(day),
                     static_cast<uint64_t>(day), date);
    auto build = cv.Submit(JobA(date));
    ASSERT_TRUE(build.ok()) << build.status().ToString();
    std::vector<std::string> built =
        ViewPaths(*build->executed_plan, OpKind::kSpool);
    ASSERT_EQ(built.size(), 1u) << date;
    view_by_date[date] = built[0];
  }
  ASSERT_EQ(cv.metadata()->NumRegisteredViews(), 30u);

  obs::Counter* verified =
      cv.metrics()->GetCounter("cv_containment_verified_total");
  for (const std::string date : {"2018-01-17", "2018-01-02", "2018-01-31"}) {
    uint64_t verified_before = verified->value();
    JobResult r = SubmitAndCompare(
        &cv, MakeJob("qm-base", PageFilterQuery(date, "M_base_" + date)),
        "M_base_" + date, MakeJob("qm", PageFilterQuery(date, "M_cv_" + date)),
        "M_cv_" + date);
    EXPECT_EQ(r.views_reused_subsumed, 1) << date;
    EXPECT_EQ(r.containment_verified, 1) << date;
    EXPECT_EQ(verified->value(), verified_before + 1) << date;
    ASSERT_NE(r.executed_plan, nullptr);
    EXPECT_EQ(ViewPaths(*r.executed_plan, OpKind::kViewRead),
              std::vector<std::string>{view_by_date.at(date)})
        << date;
  }
}

// ---------------------------------------------------------------------------
// Tier-0 regression pin (satellite: exact path + plan cache untouched)
// ---------------------------------------------------------------------------

TEST_F(SubsumptionServiceTest, ExactTierAndWarmCacheKeepPreStagedSemantics) {
  CloudViews cv(Config());
  SeedAggView(&cv);

  // Exact tier-0 reuse: the shared aggregate matches by hash; the
  // containment tiers never run (zero funnel in the result and in
  // explain, no containment_verify span).
  auto exact = cv.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->views_reused, 1);
  EXPECT_EQ(exact->views_reused_subsumed, 0);
  EXPECT_EQ(exact->candidates_filtered, 0);
  EXPECT_EQ(exact->containment_verified, 0);
  EXPECT_EQ(exact->compensation_nodes_added, 0);
  ASSERT_NE(exact->trace, nullptr);
  EXPECT_EQ(exact->trace->Find("containment_verify"), nullptr);
  const std::string exact_explain = ExplainJob(*exact);
  EXPECT_NE(exact_explain.find(" candidates_filtered=0 "), std::string::npos)
      << exact_explain;
  EXPECT_NE(exact_explain.find(" views_reused_subsumed=0 "),
            std::string::npos)
      << exact_explain;

  // Warm recurring resubmission: served from the plan cache with the
  // pre-containment span tree and zero funnel.
  auto warm = cv.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_EQ(warm->candidates_filtered, 0);
  EXPECT_EQ(warm->views_reused_subsumed, 0);
  ASSERT_NE(warm->trace, nullptr);
  EXPECT_NE(warm->trace->Find("plan_cache"), nullptr);
  EXPECT_EQ(warm->trace->Find("containment_verify"), nullptr);
  EXPECT_EQ(warm->trace->Find("optimize"), nullptr);
}

// ---------------------------------------------------------------------------
// Table-set keys: the job's one post-order walk against a per-subgraph fold
// ---------------------------------------------------------------------------

/// Reference for CollectTableSetKeys: for each reusable subgraph, its
/// sorted Extract templates and `view:` paths through TableSetKey.
std::set<Hash128> ReferenceTableSetKeys(const PlanNodePtr& root) {
  std::set<Hash128> keys;
  for (const SubgraphEntry& entry : EnumerateSubgraphs(root)) {
    std::set<std::string> tables;
    std::vector<const PlanNode*> stack = {entry.node};
    while (!stack.empty()) {
      const PlanNode* node = stack.back();
      stack.pop_back();
      if (node->kind() == OpKind::kExtract) {
        tables.insert(static_cast<const ExtractNode*>(node)->template_name());
      } else if (node->kind() == OpKind::kViewRead) {
        tables.insert("view:" +
                      static_cast<const ViewReadNode*>(node)->view_path());
      } else {
        for (const auto& child : node->children()) {
          stack.push_back(child.get());
        }
      }
    }
    keys.insert(TableSetKey({tables.begin(), tables.end()}));
  }
  return keys;
}

/// CollectTableSetKeys returns every reference key, each once; returns
/// how many keys it returned.
size_t ExpectKeysMatchReference(const PlanNodePtr& root) {
  std::vector<Hash128> keys = CollectTableSetKeys(root);
  std::set<Hash128> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size()) << "a key was returned twice";
  EXPECT_EQ(distinct, ReferenceTableSetKeys(root));
  return keys.size();
}

TEST(TableSetKeysTest, OneWalkMatchesTheFoldOnTpcdsPlans) {
  Optimizer optimizer;
  size_t multi_key_plans = 0;
  for (int q = 1; q <= tpcds::kNumQueries; ++q) {
    SCOPED_TRACE(q);
    PlanNodePtr logical = tpcds::MakeQueryJob(q).logical_plan;
    if (ExpectKeysMatchReference(logical) > 1) ++multi_key_plans;
    auto optimized = optimizer.Optimize(logical, {});
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    ExpectKeysMatchReference(optimized->root);
  }
  // Joins and unions over several inputs: subgraphs of one plan over
  // different table sets.
  EXPECT_GT(multi_key_plans, 0u);
}

TEST_F(SubsumptionServiceTest, TableSetKeysOfViewReadingPlansMatchTheFold) {
  CloudViews cv(Config());
  SeedAggView(&cv);
  auto exact = cv.Submit(JobB("2018-01-02"));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->views_reused, 1);
  auto subsumed =
      cv.Submit(MakeJob("qc", PageFilterQuery("2018-01-02", "C_cv")));
  ASSERT_TRUE(subsumed.ok()) << subsumed.status().ToString();
  ASSERT_EQ(subsumed->views_reused_subsumed, 1);
  // The executed plans read the view: its `view:` name joins the keys of
  // every subgraph above the read.
  ExpectKeysMatchReference(exact->executed_plan);
  ExpectKeysMatchReference(subsumed->executed_plan);
}

// ---------------------------------------------------------------------------
// Property-style sweep: perturbed recurring workload
// ---------------------------------------------------------------------------

TEST_F(SubsumptionServiceTest, PerturbedWorkloadAlwaysByteIdentical) {
  CloudViews cv(Config());
  SeedAggView(&cv);

  struct Variant {
    std::string name;
    bool expect_subsumed;
    std::function<PlanNodePtr(const std::string&)> make;
  };
  auto specs = []() {
    return std::vector<AggregateSpec>{
        {AggFunc::kCount, nullptr, "n"},
        {AggFunc::kSum, Col("latency"), "total_latency"}};
  };
  std::vector<Variant> variants = {
      {"page_eq", true,
       [&](const std::string& out) {
         return Clicks("2018-01-02")
             .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                         Eq(Col("page"), Lit("/cart"))))
             .Aggregate({"page"}, specs())
             .Sort({{"page", true}})
             .Output(out)
             .Build();
       }},
      {"page_range", true,
       [&](const std::string& out) {
         return Clicks("2018-01-02")
             .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                         Ge(Col("page"), Lit("/c"))))
             .Aggregate({"page"}, specs())
             .Sort({{"page", true}})
             .Output(out)
             .Build();
       }},
      {"global_rollup", true,
       [&](const std::string& out) {
         return Clicks("2018-01-02")
             .Filter(Gt(Col("latency"), Lit(int64_t{50})))
             .Aggregate({}, {{AggFunc::kCount, nullptr, "rows"}})
             .Sort({{"rows", true}})
             .Output(out)
             .Build();
       }},
      // MIN is not among the view's partial aggregates: tier 2 must
      // reject, and the job still runs byte-identically.
      {"min_not_decomposable", false,
       [&](const std::string& out) {
         return Clicks("2018-01-02")
             .Filter(Gt(Col("latency"), Lit(int64_t{50})))
             .Aggregate({"page"}, {{AggFunc::kMin, Col("latency"), "m"}})
             .Sort({{"page", true}})
             .Output(out)
             .Build();
       }},
      // No covering Sort: the order gate must reject.
      {"unsorted", false,
       [&](const std::string& out) {
         return Clicks("2018-01-02")
             .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                         Eq(Col("page"), Lit("/search"))))
             .Aggregate({"page"}, specs())
             .Output(out)
             .Build();
       }},
      // Weaker filter than the view: not contained.
      {"weaker_filter", false,
       [&](const std::string& out) {
         return Clicks("2018-01-02")
             .Filter(Gt(Col("latency"), Lit(int64_t{10})))
             .Aggregate({"page"}, specs())
             .Sort({{"page", true}})
             .Output(out)
             .Build();
       }},
  };

  int subsumed_total = 0;
  for (const Variant& v : variants) {
    std::string base_stream = "pw_base_" + v.name;
    std::string cv_stream = "pw_cv_" + v.name;
    JobResult r = SubmitAndCompare(
        &cv, MakeJob("pwb-" + v.name, v.make(base_stream)), base_stream,
        MakeJob("pw-" + v.name, v.make(cv_stream)), cv_stream);
    EXPECT_EQ(r.views_reused_subsumed, v.expect_subsumed ? 1 : 0) << v.name;
    subsumed_total += r.views_reused_subsumed;
  }
  EXPECT_EQ(subsumed_total, 3);
}

}  // namespace
}  // namespace cloudviews
