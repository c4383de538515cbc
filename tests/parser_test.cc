#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "optimizer/rules.h"
#include "parser/parser.h"
#include "signature/signature.h"

namespace cloudviews {
namespace {

const char* kScript = R"(
-- A typical recurring script template.
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
recent = SELECT user, page, latency FROM clicks
         WHERE when >= @date AND latency > 10;
agg    = SELECT page, COUNT(*) AS n, AVG(latency) AS avg_latency
         FROM recent GROUP BY page;
OUTPUT agg TO "page_stats_{date}";
)";

ParamMap DayParams(const std::string& iso) {
  ParamMap params;
  params["date"] = DateParam(iso);
  return params;
}

Result<PlanNodePtr> ParseDay(const std::string& script,
                             const std::string& iso) {
  ScopeScriptParser parser;
  return parser.Parse(script, DayParams(iso), [](const std::string& name) {
    return "guid-of-" + name;
  });
}

TEST(ParserTest, FullScriptParsesAndBinds) {
  auto plan = ParseDay(kScript, "2018-01-01");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());
  EXPECT_EQ((*plan)->kind(), OpKind::kOutput);
  EXPECT_EQ(static_cast<OutputNode*>(plan->get())->stream_name(),
            "page_stats_2018-01-01");
  EXPECT_EQ((*plan)->output_schema().ToString(),
            "page:string, n:int64, avg_latency:double");
}

TEST(ParserTest, TemplateInterpolationAndGuids) {
  auto plan = ParseDay(kScript, "2018-02-03");
  ASSERT_TRUE(plan.ok());
  std::vector<PlanNode*> nodes;
  CollectNodes(*plan, &nodes);
  bool found = false;
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kExtract) {
      auto* e = static_cast<ExtractNode*>(n);
      EXPECT_EQ(e->template_name(), "clicks_{date}");
      EXPECT_EQ(e->stream_name(), "clicks_2018-02-03");
      EXPECT_EQ(e->guid(), "guid-of-clicks_2018-02-03");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ParserTest, RecurringInstancesShareNormalizedSignature) {
  auto day1 = ParseDay(kScript, "2018-01-01");
  auto day2 = ParseDay(kScript, "2018-01-02");
  ASSERT_TRUE(day1.ok());
  ASSERT_TRUE(day2.ok());
  ASSERT_TRUE((*day1)->Bind().ok());
  ASSERT_TRUE((*day2)->Bind().ok());
  EXPECT_EQ((*day1)->SubtreeHash(SignatureMode::kNormalized),
            (*day2)->SubtreeHash(SignatureMode::kNormalized));
  EXPECT_NE((*day1)->SubtreeHash(SignatureMode::kPrecise),
            (*day2)->SubtreeHash(SignatureMode::kPrecise));
}

TEST(ParserTest, JoinAndLeftJoin) {
  const char* script = R"(
a = EXTRACT k:int, v:string FROM "a";
b = EXTRACT k2:int, w:string FROM "b";
j = SELECT v, w AS w2 FROM a JOIN b ON k == k2;
OUTPUT j TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());

  const char* left = R"(
a = EXTRACT k:int, v:string FROM "a";
b = EXTRACT k2:int, w:string FROM "b";
j = SELECT v, w AS w2 FROM a LEFT JOIN b ON k == k2;
OUTPUT j TO "out";
)";
  auto lplan = parser.Parse(left, {});
  ASSERT_TRUE(lplan.ok());
  std::vector<PlanNode*> nodes;
  CollectNodes(*lplan, &nodes);
  bool saw_left = false;
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kJoin) {
      saw_left |= static_cast<JoinNode*>(n)->join_type() ==
                  JoinType::kLeftOuter;
    }
  }
  EXPECT_TRUE(saw_left);
}

TEST(ParserTest, MultiKeyJoin) {
  const char* script = R"(
a = EXTRACT k:int, d:date, v:int FROM "a";
b = EXTRACT k2:int, d2:date, w:int FROM "b";
j = SELECT v, w AS w2 FROM a JOIN b ON k == k2 AND d == d2;
OUTPUT j TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok());
  std::vector<PlanNode*> nodes;
  CollectNodes(*plan, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kJoin) {
      EXPECT_EQ(static_cast<JoinNode*>(n)->keys().size(), 2u);
    }
  }
}

TEST(ParserTest, OrderByTopAndStar) {
  const char* script = R"(
a = EXTRACT k:int, v:int FROM "a";
s = SELECT * FROM a WHERE v > 0 ORDER BY v DESC, k TOP 5;
OUTPUT s TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());
  // Output -> Top -> Sort -> Filter -> Extract.
  EXPECT_EQ((*plan)->child()->kind(), OpKind::kTop);
  EXPECT_EQ((*plan)->child()->child()->kind(), OpKind::kSort);
  auto* sort = static_cast<SortNode*>((*plan)->child()->child().get());
  ASSERT_EQ(sort->keys().size(), 2u);
  EXPECT_FALSE(sort->keys()[0].ascending);
  EXPECT_TRUE(sort->keys()[1].ascending);
}

TEST(ParserTest, ProcessWithAndWithoutProduce) {
  const char* script = R"(
a = EXTRACT k:int, v:string FROM "a";
p = PROCESS a USING cleanse("datalib", "2.1");
q = PROCESS p USING identity("datalib", "2.1") PRODUCE k:int, v:string;
OUTPUT q TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());
  std::vector<PlanNode*> nodes;
  CollectNodes(*plan, &nodes);
  int processes = 0;
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kProcess) {
      ++processes;
      auto* p = static_cast<ProcessNode*>(n);
      EXPECT_EQ(p->library(), "datalib");
      EXPECT_EQ(p->version(), "2.1");
    }
  }
  EXPECT_EQ(processes, 2);
}

TEST(ParserTest, UnionAll) {
  const char* script = R"(
a = EXTRACT k:int FROM "a";
b = EXTRACT k:int FROM "b";
u = a UNION ALL b;
OUTPUT u TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->child()->kind(), OpKind::kUnionAll);
}

TEST(ParserTest, ExpressionPrecedence) {
  const char* script = R"(
a = EXTRACT x:int, y:int FROM "a";
s = SELECT x + y * 2 AS z FROM a WHERE x > 1 AND y < 2 OR x == 0;
OUTPUT s TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<PlanNode*> nodes;
  CollectNodes(*plan, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kProject) {
      auto* p = static_cast<ProjectNode*>(n);
      EXPECT_EQ(p->exprs()[0].expr->ToString(), "(x + (y * 2))");
    }
    if (n->kind() == OpKind::kFilter) {
      auto* f = static_cast<FilterNode*>(n);
      EXPECT_EQ(f->predicate()->ToString(),
                "(((x > 1) AND (y < 2)) OR (x == 0))");
    }
  }
}

TEST(ParserTest, DateLiteralAndFunctions) {
  const char* script = R"(
a = EXTRACT d:date, s:string FROM "a";
f = SELECT lower(s) AS ls, year(d) AS y FROM a
    WHERE d >= date("2018-01-01");
OUTPUT f TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());
  EXPECT_EQ((*plan)->output_schema().ToString(), "ls:string, y:int64");
}

// --- Error cases ----------------------------------------------------------------

TEST(ParserErrorTest, UnknownDataset) {
  ScopeScriptParser parser;
  auto r = parser.Parse("OUTPUT nope TO \"x\";", {});
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParserErrorTest, MissingOutput) {
  ScopeScriptParser parser;
  auto r = parser.Parse("a = EXTRACT k:int FROM \"a\";", {});
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParserErrorTest, TwoOutputs) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int FROM "a";
OUTPUT a TO "x";
OUTPUT a TO "y";
)",
                        {});
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParserErrorTest, UnboundParameter) {
  ScopeScriptParser parser;
  auto by_hole = parser.Parse(
      "a = EXTRACT k:int FROM \"s_{date}\"; OUTPUT a TO \"x\";", {});
  EXPECT_TRUE(by_hole.status().IsParseError());
  auto by_at = parser.Parse(R"(
a = EXTRACT k:int FROM "s";
f = SELECT k FROM a WHERE k > @threshold;
OUTPUT f TO "x";
)",
                            {});
  EXPECT_TRUE(by_at.status().IsParseError());
}

TEST(ParserErrorTest, NonGroupedColumnRejected) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int, v:int FROM "a";
g = SELECT v, COUNT(*) AS n FROM a GROUP BY k;
OUTPUT g TO "x";
)",
                        {});
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParserErrorTest, MalformedSyntax) {
  ScopeScriptParser parser;
  EXPECT_TRUE(parser.Parse("a = EXTRACT k:int FROM ;", {})
                  .status()
                  .IsParseError());
  EXPECT_TRUE(parser.Parse("a == b;", {}).status().IsParseError());
  EXPECT_TRUE(parser.Parse("a = EXTRACT k:blob FROM \"s\";", {})
                  .status()
                  .IsParseError());
  EXPECT_TRUE(
      parser.Parse("a = EXTRACT k:int FROM \"unterminated;", {})
          .status()
          .IsParseError());
}

TEST(ParserTest, ReduceStatement) {
  const char* script = R"(
a = EXTRACT k:int, v:string FROM "a";
r = REDUCE a ON k USING first_of_group("dedup", "1.0");
OUTPUT r TO "out";
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());
  auto* reduce = static_cast<ReduceNode*>((*plan)->child().get());
  ASSERT_EQ(reduce->kind(), OpKind::kReduce);
  EXPECT_EQ(reduce->keys(), std::vector<std::string>{"k"});
  EXPECT_EQ(reduce->library(), "dedup");
  // Groups must arrive co-located and sorted.
  auto req = reduce->RequiredFromChild(0);
  EXPECT_TRUE(req.partitioning == Partitioning::Hash({"k"}, 0));
  EXPECT_TRUE(req.sort_order.IsSorted());
}

TEST(ParserTest, OutputClusteredSortedBy) {
  const char* script = R"(
a = EXTRACT k:int, v:int, s:string FROM "a";
OUTPUT a TO "out" CLUSTERED BY k, s INTO 8 SORTED BY v DESC, k;
)";
  ScopeScriptParser parser;
  auto plan = parser.Parse(script, {});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());
  auto* output = static_cast<OutputNode*>(plan->get());
  const PhysicalProperties& design = output->declared_design();
  EXPECT_EQ(design.partitioning.scheme, PartitionScheme::kHash);
  EXPECT_EQ(design.partitioning.partition_count, 8);
  ASSERT_EQ(design.partitioning.columns.size(), 2u);
  ASSERT_EQ(design.sort_order.keys.size(), 2u);
  EXPECT_FALSE(design.sort_order.keys[0].ascending);
  // The requirement flows to the child for enforcer insertion.
  EXPECT_TRUE(output->RequiredFromChild(0) == design);
}

TEST(ParserErrorTest, OutputDesignValidatesColumns) {
  ScopeScriptParser parser;
  auto plan = parser.Parse(R"(
a = EXTRACT k:int FROM "a";
OUTPUT a TO "out" CLUSTERED BY nope;
)",
                           {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->Bind().IsInvalidArgument());
}

TEST(ParserErrorTest, ReduceWithoutKeysFails) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int FROM "a";
r = REDUCE a USING first_of_group("d", "1");
OUTPUT r TO "out";
)",
                        {});
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParserErrorTest, UnknownFunction) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int FROM "a";
f = SELECT frobnicate(k) AS x FROM a;
OUTPUT f TO "x";
)",
                        {});
  EXPECT_TRUE(r.status().IsParseError());
}

// Out-of-range numeric literals at each conversion site — integer and
// float literals, TOP and CLUSTERED ... INTO — are parse errors, never
// exceptions (scripts arrive over the wire and parse inside the server).
TEST(ParserErrorTest, OutOfRangeIntegerLiteral) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int, latency:int FROM "a";
f = SELECT k FROM a WHERE latency > 99999999999999999999;
OUTPUT f TO "x";
)",
                        {});
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("out of range"), std::string::npos);
}

TEST(ParserErrorTest, OutOfRangeFloatLiteral) {
  ScopeScriptParser parser;
  auto r = parser.Parse("a = EXTRACT k:int, v:double FROM \"a\";\n"
                        "f = SELECT k FROM a WHERE v > " +
                            std::string(400, '9') +
                            ".5;\n"
                            "OUTPUT f TO \"x\";\n",
                        {});
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
}

TEST(ParserErrorTest, OutOfRangeTopCount) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int, v:int FROM "a";
s = SELECT * FROM a ORDER BY v TOP 99999999999999999999;
OUTPUT s TO "out";
)",
                        {});
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
}

TEST(ParserErrorTest, OutOfRangePartitionCount) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int, v:int FROM "a";
OUTPUT a TO "out" CLUSTERED BY k INTO 99999999999;
)",
                        {});
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
}

TEST(ParserTest, NumericLiteralsAtTheirLimits) {
  ScopeScriptParser parser;
  auto r = parser.Parse(R"(
a = EXTRACT k:int, v:double FROM "a";
f = SELECT k FROM a WHERE k > 9223372036854775807 AND v > 1.5
    ORDER BY k TOP 2147483647;
OUTPUT f TO "x" CLUSTERED BY k INTO 2147483647;
)",
                        {});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// --- Limits: no script builds a tree deep enough to overflow the stack --

constexpr char kClicks[] =
    "clicks = EXTRACT user:int, page:string, latency:int FROM \"clicks\";\n";

/// `depth` levels of nesting made of `open` ... "1" ... `close`.
std::string Nesting(int depth, const std::string& open,
                    const std::string& close) {
  std::string expr = "1";
  for (int i = 0; i < depth; ++i) expr = open + expr + close;
  return std::string(kClicks) + "s = SELECT page FROM clicks WHERE " + expr +
         " > 0;\nOUTPUT s TO \"out\";\n";
}

/// A select item summing `terms` ones: an expression `terms` levels tall.
std::string AdditionChain(int terms) {
  std::string chain = "1";
  for (int i = 1; i < terms; ++i) chain += "+1";
  return std::string(kClicks) + "s = SELECT " + chain +
         " AS x FROM clicks;\nOUTPUT s TO \"out\";\n";
}

/// `statements` chained SELECTs, each over the one before and each with
/// `predicate` as its WHERE when given: an Extract, one node per
/// statement and the Output make the plan `statements` + 2 levels tall.
std::string StatementChain(int statements, const std::string& predicate = "") {
  std::string script = kClicks;
  std::string prev = "clicks";
  for (int i = 0; i < statements; ++i) {
    std::string name = "s" + std::to_string(i);
    script += name + " = SELECT " +
              (predicate.empty() ? "page, latency FROM " + prev
                                 : "* FROM " + prev + " WHERE " + predicate) +
              ";\n";
    prev = name;
  }
  return script + "OUTPUT " + prev + " TO \"out\";\n";
}

Result<PlanNodePtr> ParseBare(const std::string& script) {
  return ScopeScriptParser().Parse(script, {});
}

void ExpectRefused(const std::string& script, const std::string& why) {
  auto r = ParseBare(script);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find(why), std::string::npos)
      << r.status().ToString();
}

int ExprHeight(const Expr& e) {
  int below = 0;
  for (const auto& child : e.children()) {
    below = std::max(below, ExprHeight(*child));
  }
  return below + 1;
}

TEST(ParserLimitTest, NestingDepthAtAndPastTheLimit) {
  constexpr int kMax = ScopeScriptParser::kMaxNestingDepth;
  const std::pair<std::string, std::string> kinds[] = {
      {"(", ")"}, {"abs(", ")"}, {"- ", ""}, {"NOT ", ""}};
  for (const auto& [open, close] : kinds) {
    auto at = ParseBare(Nesting(kMax, open, close));
    ASSERT_TRUE(at.ok()) << open << ": " << at.status().ToString();
    ExpectRefused(Nesting(kMax + 1, open, close), "nests deeper than");
  }
}

TEST(ParserLimitTest, ExpressionHeightAtAndPastTheLimit) {
  constexpr int kMax = ScopeScriptParser::kMaxExprHeight;
  auto at = ParseBare(AdditionChain(kMax));
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  ASSERT_TRUE((*at)->Bind().ok());
  const auto& project = static_cast<const ProjectNode&>(*(*at)->child());
  EXPECT_EQ(ExprHeight(*project.exprs()[0].expr), kMax);
  ExpectRefused(AdditionChain(kMax + 1), "expression is taller than");
}

TEST(ParserLimitTest, StatementChainAtAndPastTheLimit) {
  constexpr int kMax = ScopeScriptParser::kMaxPlanHeight;
  auto at = ParseBare(StatementChain(kMax - 2));
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  ASSERT_TRUE((*at)->Bind().ok());
  ExpectRefused(StatementChain(kMax - 1), "statement chain is taller than");
}

/// `layers` projections that each redefine latency as a sum of `terms`
/// items over the one below, then a filter on `condition` on top.
std::string FilterOverProjections(int layers, int terms,
                                  const std::string& condition) {
  std::string sum = "latency";
  for (int i = 1; i < terms; ++i) sum += "+1";
  std::string script = kClicks;
  std::string prev = "clicks";
  for (int i = 0; i < layers; ++i) {
    std::string name = "s" + std::to_string(i);
    script += name + " = SELECT page, " + sum + " AS latency FROM " + prev +
              ";\n";
    prev = name;
  }
  return script + "f = SELECT * FROM " + prev + " WHERE " + condition +
         ";\nOUTPUT f TO \"out\";\n";
}

TEST(ParserLimitTest, ChainExpressionNodesAtAndPastTheLimit) {
  // Pushing the filter below each projection inlines that projection's
  // sum into the predicate. Three 339-node sums plus the 7-node condition
  // reach the limit exactly; the pushed predicate stays within it.
  constexpr int kMax = ScopeScriptParser::kMaxChainExprNodes;
  auto plan = ParseBare(FilterOverProjections(3, 170, "latency > 0+1+1"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE((*plan)->Bind().ok());
  PlanNodePtr rewritten = PushDownFilters(MergeAdjacentFilters(*plan));
  ASSERT_TRUE(rewritten->Bind().ok());
  std::vector<PlanNode*> nodes;
  CollectNodes(rewritten, &nodes);
  int filters = 0;
  for (PlanNode* n : nodes) {
    if (n->kind() != OpKind::kFilter) continue;
    ++filters;
    // Pushed below every projection, the filter reads the input directly.
    EXPECT_EQ(n->children()[0]->kind(), OpKind::kExtract);
    EXPECT_LE(ExprHeight(*static_cast<FilterNode*>(n)->predicate()), kMax);
  }
  EXPECT_EQ(filters, 1);
  ExpectRefused(FilterOverProjections(3, 170, "NOT latency > 0+1+1"),
                "expressions along the statement chain exceed");

  // One predicate counts too: the optimizer re-chains an AND tree's
  // conjuncts one after another, however balanced the tree was written.
  std::vector<std::string> level(600, "page == \"p\"");
  while (level.size() > 1) {
    std::vector<std::string> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back("(" + level[i] + " AND " + level[i + 1] + ")");
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  ExpectRefused(std::string(kClicks) + "f = SELECT * FROM clicks WHERE " +
                    level[0] + ";\nOUTPUT f TO \"out\";\n",
                "expressions along the statement chain exceed");
}

constexpr char kExtractA0[] =
    "a0 = EXTRACT user:int, page:string, latency:int FROM \"clicks\";\n";

/// `a0` (a script defining it), then `statements` UNION ALLs, each using
/// the one before twice, and with `top` a TOP over the last.
std::string SelfUnionChain(const std::string& a0, int statements,
                           bool top = false) {
  std::string script = a0;
  for (int i = 1; i <= statements; ++i) {
    std::string prev = "a" + std::to_string(i - 1);
    script += "a" + std::to_string(i) + " = " + prev + " UNION ALL " + prev +
              ";\n";
  }
  std::string last = "a" + std::to_string(statements);
  if (top) {
    script += "t = SELECT * FROM " + last + " TOP 5;\n";
    last = "t";
  }
  return script + "OUTPUT " + last + " TO \"out\";\n";
}

/// Nodes of `plan` walked as a tree: a node reached twice counts twice.
int64_t TreeSize(const PlanNode& plan) {
  int64_t size = 1;
  for (const PlanNodePtr& child : plan.children()) size += TreeSize(*child);
  return size;
}

TEST(ParserLimitTest, ExpandedNodesAtAndPastTheBudget) {
  // The chain names 2 + statements nodes, but each UNION uses the dataset
  // before it twice: walked as a tree, 15 statements and the OUTPUT make
  // 2^16 nodes, the budget exactly, and a TOP over them one more.
  constexpr int kMax = ScopeScriptParser::kMaxExpandedNodes;
  auto at = ParseBare(SelfUnionChain(kExtractA0, 15));
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_EQ(TreeSize(**at), kMax);
  ExpectRefused(SelfUnionChain(kExtractA0, 15, /*top=*/true),
                "plan expands past");

  // A predicate's nodes count once per use as well. Over a filter whose
  // predicate has 3 nodes, 13 statements expand to 6 * 2^13 = 49,152
  // nodes and 14 to 98,304; without the predicate 14 would be 49,152.
  const std::string filtered =
      std::string(kClicks) + "a0 = SELECT * FROM clicks WHERE latency > 0;\n";
  auto below = ParseBare(SelfUnionChain(filtered, 13));
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  ExpectRefused(SelfUnionChain(filtered, 14), "plan expands past");
}

}  // namespace
}  // namespace cloudviews
