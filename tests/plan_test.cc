#include <gtest/gtest.h>

#include "plan/plan_builder.h"
#include "plan/plan_node.h"
#include "signature/containment.h"
#include "signature/signature.h"

namespace cloudviews {
namespace {

Schema ClickSchema() {
  return Schema({{"user", DataType::kInt64},
                 {"page", DataType::kString},
                 {"latency", DataType::kInt64},
                 {"when", DataType::kDate}});
}

PlanBuilder Clicks(const std::string& date = "2018-01-01",
                   const std::string& guid = "g1") {
  return PlanBuilder::Extract("clicks_{date}", "clicks_" + date, guid,
                              ClickSchema());
}

// --- Physical properties -------------------------------------------------------

TEST(PhysicalPropsTest, HashPartitioningSatisfaction) {
  auto p = Partitioning::Hash({"a"}, 8);
  EXPECT_TRUE(p.Satisfies(Partitioning::Hash({"a"}, 0)));
  EXPECT_TRUE(p.Satisfies(Partitioning::Hash({"a"}, 8)));
  EXPECT_FALSE(p.Satisfies(Partitioning::Hash({"a"}, 16)));
  EXPECT_FALSE(p.Satisfies(Partitioning::Hash({"b"}, 0)));
  EXPECT_TRUE(p.Satisfies(Partitioning{}));  // kAny
}

TEST(PhysicalPropsTest, SortPrefixSatisfaction) {
  SortOrder ab{{{"a", true}, {"b", true}}};
  SortOrder a{{{"a", true}}};
  SortOrder a_desc{{{"a", false}}};
  EXPECT_TRUE(ab.Satisfies(a));
  EXPECT_FALSE(a.Satisfies(ab));
  EXPECT_FALSE(a.Satisfies(a_desc));
  EXPECT_TRUE(a.Satisfies(SortOrder{}));
}

TEST(PhysicalPropsTest, FingerprintGroupsIdenticalDesigns) {
  PhysicalProperties a{Partitioning::Hash({"x"}, 4), {{{"x", true}}}};
  PhysicalProperties b{Partitioning::Hash({"x"}, 4), {{{"x", true}}}};
  PhysicalProperties c{Partitioning::Hash({"x"}, 8), {{{"x", true}}}};
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

// --- Binding / schema derivation ---------------------------------------------------

TEST(PlanBindTest, FilterPreservesSchema) {
  auto plan = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_TRUE(plan->output_schema() == ClickSchema());
}

TEST(PlanBindTest, FilterRequiresBoolPredicate) {
  auto plan = Clicks().Filter(Add(Col("latency"), Lit(int64_t{1}))).Build();
  EXPECT_TRUE(plan->Bind().IsTypeError());
}

TEST(PlanBindTest, ProjectBuildsSchema) {
  auto plan = Clicks()
                  .Project({{Col("user"), "user"},
                            {Mul(Col("latency"), Lit(int64_t{2})), "lat2"}})
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_EQ(plan->output_schema().ToString(), "user:int64, lat2:int64");
}

TEST(PlanBindTest, ProjectRejectsDuplicateNames) {
  auto plan =
      Clicks().Project({{Col("user"), "x"}, {Col("page"), "x"}}).Build();
  EXPECT_TRUE(plan->Bind().IsInvalidArgument());
}

TEST(PlanBindTest, JoinSchemaConcatenates) {
  Schema users({{"uid", DataType::kInt64}, {"country", DataType::kString}});
  auto plan = Clicks()
                  .Join(PlanBuilder::Extract("users", "users", "g2", users),
                        JoinType::kInner, {{"user", "uid"}})
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_EQ(plan->output_schema().num_fields(), 6u);
}

TEST(PlanBindTest, JoinRejectsAmbiguousColumns) {
  auto plan = Clicks().Join(Clicks(), JoinType::kInner, {{"user", "user"}})
                  .Build();
  EXPECT_TRUE(plan->Bind().IsInvalidArgument());
}

TEST(PlanBindTest, JoinRejectsMissingKey) {
  Schema users({{"uid", DataType::kInt64}});
  auto plan = Clicks()
                  .Join(PlanBuilder::Extract("users", "users", "g2", users),
                        JoinType::kInner, {{"nope", "uid"}})
                  .Build();
  EXPECT_TRUE(plan->Bind().IsInvalidArgument());
}

TEST(PlanBindTest, AggregateSchema) {
  auto plan = Clicks()
                  .Aggregate({"page"},
                             {{AggFunc::kCount, nullptr, "n"},
                              {AggFunc::kAvg, Col("latency"), "avg_lat"}})
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_EQ(plan->output_schema().ToString(),
            "page:string, n:int64, avg_lat:double");
}

TEST(PlanBindTest, UnionRequiresMatchingSchemas) {
  auto a = Clicks().Select({"user"});
  auto b = Clicks("2018-01-02", "g9").Select({"page"});
  auto plan = std::move(a).UnionAll(std::move(b)).Build();
  EXPECT_TRUE(plan->Bind().IsTypeError());
}

TEST(PlanBindTest, SortAndExchangeValidateColumns) {
  auto s = Clicks().Sort({{"nope", true}}).Build();
  EXPECT_TRUE(s->Bind().IsInvalidArgument());
  auto e = Clicks().Exchange(Partitioning::Hash({"nope"}, 4)).Build();
  EXPECT_TRUE(e->Bind().IsInvalidArgument());
}

// --- Node ids / traversal -------------------------------------------------------

TEST(PlanTest, AssignNodeIdsPreOrder) {
  auto plan = Clicks()
                  .Filter(Gt(Col("latency"), Lit(int64_t{5})))
                  .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
                  .Output("out")
                  .Build();
  int count = AssignNodeIds(plan.get());
  EXPECT_EQ(count, 4);
  EXPECT_EQ(plan->id(), 0);  // Output is the root
  std::vector<PlanNode*> nodes;
  CollectNodes(plan, &nodes);
  ASSERT_EQ(nodes.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(nodes[static_cast<size_t>(i)]->id(), i);
}

TEST(PlanTest, SubtreeSizeAndTreeString) {
  auto plan = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{5}))).Build();
  EXPECT_EQ(plan->SubtreeSize(), 2u);
  std::string s = plan->TreeString();
  EXPECT_NE(s.find("Filter"), std::string::npos);
  EXPECT_NE(s.find("Extract clicks_2018-01-01"), std::string::npos);
}

TEST(PlanTest, CloneIsDeepAndEquivalent) {
  auto plan = Clicks()
                  .Filter(Gt(Col("latency"), Lit(int64_t{5})))
                  .Aggregate({"page"}, {{AggFunc::kSum, Col("latency"), "s"}})
                  .Build();
  auto clone = plan->Clone();
  ASSERT_TRUE(clone->Bind().ok());
  EXPECT_FALSE(plan->bound());
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_EQ(ComputeSignatures(*plan).precise,
            ComputeSignatures(*clone).precise);
}

// --- Delivered / required properties ------------------------------------------------

TEST(PlanPropsTest, ExchangeDeliversItsPartitioning) {
  auto plan = Clicks().Exchange(Partitioning::Hash({"user"}, 16)).Build();
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_TRUE(plan->Delivered().partitioning ==
              Partitioning::Hash({"user"}, 16));
}

TEST(PlanPropsTest, SortDeliversOrderAndKeepsPartitioning) {
  auto plan = Clicks()
                  .Exchange(Partitioning::Hash({"user"}, 8))
                  .Sort({{"user", true}, {"latency", false}})
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  auto props = plan->Delivered();
  EXPECT_TRUE(props.sort_order.IsSorted());
  EXPECT_EQ(props.sort_order.keys[1].column, "latency");
  EXPECT_EQ(props.partitioning.scheme, PartitionScheme::kHash);
}

TEST(PlanPropsTest, ProjectDropsDestroyedProperties) {
  auto plan = Clicks()
                  .Exchange(Partitioning::Hash({"user"}, 8))
                  .Select({"page"})  // user disappears
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  EXPECT_FALSE(plan->Delivered().partitioning.IsSpecified());
}

TEST(PlanPropsTest, AggregateRequiresPartitioningOnKeys) {
  auto agg = std::make_shared<AggregateNode>(
      Clicks().Build(), std::vector<std::string>{"page"},
      std::vector<AggregateSpec>{{AggFunc::kCount, nullptr, "n"}});
  auto req = agg->RequiredFromChild(0);
  EXPECT_TRUE(req.partitioning == Partitioning::Hash({"page"}, 0));
}

TEST(PlanPropsTest, GlobalAggregateRequiresSingleton) {
  auto agg = std::make_shared<AggregateNode>(
      Clicks().Build(), std::vector<std::string>{},
      std::vector<AggregateSpec>{{AggFunc::kCount, nullptr, "n"}});
  EXPECT_EQ(agg->RequiredFromChild(0).partitioning.scheme,
            PartitionScheme::kSingleton);
}

TEST(PlanPropsTest, MergeJoinRequiresSortedInputs) {
  Schema users({{"uid", DataType::kInt64}});
  auto join = std::make_shared<JoinNode>(
      Clicks().Build(),
      PlanBuilder::Extract("users", "users", "g2", users).Build(),
      JoinType::kInner,
      std::vector<std::pair<std::string, std::string>>{{"user", "uid"}});
  join->set_algorithm(JoinAlgorithm::kMerge);
  auto req_left = join->RequiredFromChild(0);
  auto req_right = join->RequiredFromChild(1);
  EXPECT_TRUE(req_left.sort_order.IsSorted());
  EXPECT_EQ(req_right.sort_order.keys[0].column, "uid");
  EXPECT_TRUE(req_left.partitioning == Partitioning::Hash({"user"}, 0));
}

TEST(PlanBindTest, ReduceValidatesKeysAndSchema) {
  auto good = std::make_shared<ReduceNode>(
      Clicks().Build(), std::vector<std::string>{"page"}, "first_of_group",
      "lib", "1.0", Schema());
  ASSERT_TRUE(good->Bind().ok());
  EXPECT_TRUE(good->output_schema() == ClickSchema());  // empty PRODUCE

  auto bad_key = std::make_shared<ReduceNode>(
      Clicks().Build(), std::vector<std::string>{"nope"}, "p", "lib", "1.0",
      Schema());
  EXPECT_TRUE(bad_key->Bind().IsInvalidArgument());

  auto no_keys = std::make_shared<ReduceNode>(
      Clicks().Build(), std::vector<std::string>{}, "p", "lib", "1.0",
      Schema());
  EXPECT_TRUE(no_keys->Bind().IsInvalidArgument());
}

TEST(PlanPropsTest, ReduceRequiresColocatedSortedGroups) {
  auto reduce = std::make_shared<ReduceNode>(
      Clicks().Build(), std::vector<std::string>{"page", "user"}, "p", "lib",
      "1.0", Schema());
  auto req = reduce->RequiredFromChild(0);
  EXPECT_TRUE(req.partitioning ==
              Partitioning::Hash({"page", "user"}, 0));
  ASSERT_EQ(req.sort_order.keys.size(), 2u);
  EXPECT_TRUE(reduce->Delivered().partitioning ==
              Partitioning::Hash({"page", "user"}, 0));
}

TEST(PlanHashTest, ReduceVersionOnlyInPreciseMode) {
  auto make = [&](const char* version) {
    return std::make_shared<ReduceNode>(
        Clicks().Build(), std::vector<std::string>{"page"}, "p", "lib",
        version, Schema());
  };
  auto v1 = make("1.0");
  auto v2 = make("2.0");
  EXPECT_EQ(v1->SubtreeHash(SignatureMode::kNormalized),
            v2->SubtreeHash(SignatureMode::kNormalized));
  EXPECT_NE(v1->SubtreeHash(SignatureMode::kPrecise),
            v2->SubtreeHash(SignatureMode::kPrecise));
}

TEST(PlanBindTest, OutputDesignValidatedAndRequired) {
  auto out = std::make_shared<OutputNode>(Clicks().Build(), "dest");
  PhysicalProperties design{Partitioning::Hash({"user"}, 8),
                            {{{"latency", false}}}};
  out->set_declared_design(design);
  ASSERT_TRUE(out->Bind().ok());
  EXPECT_TRUE(out->RequiredFromChild(0) == design);

  auto bad = std::make_shared<OutputNode>(Clicks().Build(), "dest");
  bad->set_declared_design(
      PhysicalProperties{Partitioning::Hash({"nope"}, 4), {}});
  EXPECT_TRUE(bad->Bind().IsInvalidArgument());
}

TEST(PlanHashTest, OutputDesignIsPartOfTheTemplate) {
  // Two templates that differ only in output layout are different
  // computations downstream consumers care about.
  auto plain = std::make_shared<OutputNode>(Clicks().Build(), "dest");
  auto designed = std::make_shared<OutputNode>(Clicks().Build(), "dest");
  designed->set_declared_design(
      PhysicalProperties{Partitioning::Hash({"user"}, 8), {}});
  EXPECT_NE(plain->SubtreeHash(SignatureMode::kNormalized),
            designed->SubtreeHash(SignatureMode::kNormalized));
}

// --- Signatures ---------------------------------------------------------------------

TEST(SignatureTest, IdenticalPlansShareBothSignatures) {
  auto make = [] {
    auto p = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
    EXPECT_TRUE(p->Bind().ok());
    return p;
  };
  auto a = make();
  auto b = make();
  EXPECT_EQ(ComputeSignatures(*a).precise, ComputeSignatures(*b).precise);
  EXPECT_EQ(ComputeSignatures(*a).normalized,
            ComputeSignatures(*b).normalized);
}

TEST(SignatureTest, RecurringInstanceChangesPreciseOnly) {
  auto day1 = Clicks("2018-01-01", "g1")
                  .Filter(Ge(Col("when"),
                             Param("date", Value::DateFromString("2018-01-01"))))
                  .Build();
  auto day2 = Clicks("2018-01-02", "g2")
                  .Filter(Ge(Col("when"),
                             Param("date", Value::DateFromString("2018-01-02"))))
                  .Build();
  ASSERT_TRUE(day1->Bind().ok());
  ASSERT_TRUE(day2->Bind().ok());
  auto s1 = ComputeSignatures(*day1);
  auto s2 = ComputeSignatures(*day2);
  EXPECT_EQ(s1.normalized, s2.normalized);
  EXPECT_NE(s1.precise, s2.precise);
}

TEST(SignatureTest, NewGuidSameNameChangesPrecise) {
  // A GDPR-style in-place rewrite: same stream name, new data version.
  auto v1 = Clicks("2018-01-01", "g1").Build();
  auto v2 = Clicks("2018-01-01", "g-new").Build();
  ASSERT_TRUE(v1->Bind().ok());
  ASSERT_TRUE(v2->Bind().ok());
  EXPECT_NE(ComputeSignatures(*v1).precise, ComputeSignatures(*v2).precise);
  EXPECT_EQ(ComputeSignatures(*v1).normalized,
            ComputeSignatures(*v2).normalized);
}

TEST(SignatureTest, VariesByInstanceSeesParametersAndDatesAnywhere) {
  struct Case {
    const char* label;
    ExprPtr expr;
    bool varies;
  };
  const Case cases[] = {
      {"parameter", Param("limit", Value::Int64(10)), true},
      {"date literal", DateLit("2018-01-01"), true},
      {"parameter under arithmetic",
       Gt(Col("latency"), Add(Param("limit", Value::Int64(10)),
                              Lit(int64_t{1}))),
       true},
      {"neither",
       Gt(Add(Col("latency"), Lit(int64_t{1})), Lit(int64_t{10})), false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(VariesByInstance(*c.expr), c.varies) << c.label;
  }
}

TEST(SignatureTest, DifferentComputationsDiffer) {
  auto a = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  auto b = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{20}))).Build();
  ASSERT_TRUE(a->Bind().ok());
  ASSERT_TRUE(b->Bind().ok());
  EXPECT_NE(ComputeSignatures(*a).precise, ComputeSignatures(*b).precise);
  EXPECT_NE(ComputeSignatures(*a).normalized,
            ComputeSignatures(*b).normalized);
}

TEST(SignatureTest, SpoolIsTransparent) {
  auto base = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(base->Bind().ok());
  auto sigs = ComputeSignatures(*base);
  auto spooled = std::make_shared<SpoolNode>(
      base, "/views/x/y.ss", sigs.normalized, sigs.precise,
      PhysicalProperties{});
  ASSERT_TRUE(spooled->Bind().ok());
  EXPECT_EQ(ComputeSignatures(*spooled).precise, sigs.precise);
  EXPECT_EQ(ComputeSignatures(*spooled).normalized, sigs.normalized);
}

TEST(SignatureTest, ViewReadHashesAsReplacedComputation) {
  auto computation =
      Clicks().Filter(Gt(Col("latency"), Lit(int64_t{10}))).Build();
  ASSERT_TRUE(computation->Bind().ok());
  auto sigs = ComputeSignatures(*computation);

  auto inline_agg =
      PlanBuilder::From(computation->Clone())
          .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
          .Build();
  ASSERT_TRUE(inline_agg->Bind().ok());

  auto view_read = std::make_shared<ViewReadNode>(
      "/views/v.ss", sigs.normalized, sigs.precise,
      computation->output_schema(), PhysicalProperties{}, 100, 1000);
  auto rewritten_agg =
      PlanBuilder::From(view_read)
          .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
          .Build();
  ASSERT_TRUE(rewritten_agg->Bind().ok());

  EXPECT_EQ(ComputeSignatures(*inline_agg).precise,
            ComputeSignatures(*rewritten_agg).precise);
  EXPECT_EQ(ComputeSignatures(*inline_agg).normalized,
            ComputeSignatures(*rewritten_agg).normalized);
}

TEST(SignatureTest, EnumerationSkipsReuseOps) {
  auto base = Clicks().Filter(Gt(Col("latency"), Lit(int64_t{1}))).Build();
  ASSERT_TRUE(base->Bind().ok());
  auto sigs = ComputeSignatures(*base);
  auto plan = PlanBuilder::From(std::make_shared<SpoolNode>(
                  base, "/views/a.ss", sigs.normalized, sigs.precise,
                  PhysicalProperties{}))
                  .Output("out")
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  auto subgraphs = EnumerateSubgraphs(plan);
  // Output, Filter, Extract — the Spool is skipped.
  EXPECT_EQ(subgraphs.size(), 3u);
  for (const auto& sg : subgraphs) {
    EXPECT_NE(sg.node->kind(), OpKind::kSpool);
  }
}

TEST(SignatureTest, EnumerationCoversEveryOperator) {
  Schema users({{"uid", DataType::kInt64}});
  auto plan = Clicks()
                  .Join(PlanBuilder::Extract("users", "users", "g2", users),
                        JoinType::kInner, {{"user", "uid"}})
                  .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"}})
                  .Output("out")
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  auto subgraphs = EnumerateSubgraphs(plan);
  EXPECT_EQ(subgraphs.size(), plan->SubtreeSize());
  // Inner subgraphs of equal computations must have equal signatures:
  // enumerate twice and compare.
  auto again = EnumerateSubgraphs(plan);
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    EXPECT_EQ(subgraphs[i].sigs.precise, again[i].sigs.precise);
  }
}

}  // namespace
}  // namespace cloudviews
