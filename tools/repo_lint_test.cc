#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "tools/repo_lint_lib.h"

namespace cloudviews {
namespace lint {
namespace {

// CV_LINT_FIXTURE_DIR is injected by CMake and points at
// tools/lint_fixtures (files with seeded violations, one per rule, plus a
// clean pair proving the rules do not over-fire).
std::string FixturePath(const std::string& name) {
  return std::string(CV_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Violation> LintFixture(const std::string& name) {
  return LintFile(name, "tools/lint_fixtures/" + name, ReadFixture(name));
}

std::set<std::string> Rules(const std::vector<Violation>& violations) {
  std::set<std::string> rules;
  for (const auto& v : violations) rules.insert(v.rule);
  return rules;
}

TEST(RepoLintTest, BannedRandomFires) {
  auto violations = LintFixture("bad_random.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-random"});
  // std::srand, time(nullptr), std::random_device, std::rand + rd() use.
  EXPECT_GE(violations.size(), 3u);
}

TEST(RepoLintTest, BannedRandomAllowedInsideCommonRandom) {
  auto violations = LintFile("random.cc", "src/common/random.cc",
                             ReadFixture("bad_random.cc"));
  EXPECT_TRUE(violations.empty());
}

TEST(RepoLintTest, BannedClockFires) {
  auto violations = LintFixture("bad_clock.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-clock"});
  // steady_clock, system_clock, high_resolution_clock.
  EXPECT_GE(violations.size(), 3u);
}

TEST(RepoLintTest, BannedClockAllowedInClockHeaderAndObs) {
  EXPECT_TRUE(LintFile("clock.h", "src/common/clock.h",
                       "#ifndef CLOUDVIEWS_COMMON_CLOCK_H_\n"
                       "#define CLOUDVIEWS_COMMON_CLOCK_H_\n"
                       "auto t = std::chrono::steady_clock::now();\n"
                       "#endif\n")
                  .empty());
  EXPECT_TRUE(LintFile("metrics.cc", "src/obs/metrics.cc",
                       "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(RepoLintTest, RealClockFires) {
  // The fixture lives in lint_fixtures/ but is linted as if it were a
  // src/ component, where the rule is scoped.
  auto violations = LintFile("bad_real_clock.cc",
                             "src/runtime/bad_real_clock.cc",
                             ReadFixture("bad_real_clock.cc"));
  EXPECT_EQ(Rules(violations), std::set<std::string>{"real-clock"});
  // The bare and the qualified call; the injected clock and the reasoned
  // NOLINT stay clean.
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].line, 8);
  EXPECT_EQ(violations[1].line, 12);
}

TEST(RepoLintTest, RealClockScopedToSrcOutsideTheClockHeader) {
  const std::string fixture = ReadFixture("bad_real_clock.cc");
  // Benches and tests time themselves with the real clock by design.
  EXPECT_TRUE(
      LintFile("micro_submit.cc", "bench/micro_submit.cc", fixture).empty());
  EXPECT_TRUE(LintFile("obs_test.cc", "tests/obs_test.cc", fixture).empty());
  // clock.h defines the helper.
  EXPECT_TRUE(LintFile("clock.h", "src/common/clock.h",
                       "#ifndef CLOUDVIEWS_COMMON_CLOCK_H_\n"
                       "#define CLOUDVIEWS_COMMON_CLOCK_H_\n"
                       "inline double MonotonicNowSeconds() { return 0; }\n"
                       "#endif\n")
                  .empty());
}

TEST(RepoLintTest, BannedSyncFires) {
  auto violations = LintFixture("bad_sync.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-sync"});
  EXPECT_GE(violations.size(), 2u);  // std::mutex and std::lock_guard
}

TEST(RepoLintTest, BannedSleepFires) {
  auto violations = LintFixture("bad_sleep.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-sleep"});
  // sleep_for, sleep_until, usleep, nanosleep.
  EXPECT_GE(violations.size(), 4u);
}

TEST(RepoLintTest, BannedSleepAllowedInBackoffHelper) {
  // The backoff helper's real Sleeper is the one sanctioned sleep site.
  EXPECT_TRUE(LintFile("backoff.cc", "src/fault/backoff.cc",
                       "std::this_thread::sleep_for(d);\n")
                  .empty());
  // Prose mentioning sleep_for does not fire (comments are stripped).
  EXPECT_TRUE(LintFile("doc.cc", "src/exec/doc.cc",
                       "// never call sleep_for in a retry loop\n")
                  .empty());
}

TEST(RepoLintTest, RawSocketFires) {
  auto violations = LintFixture("bad_socket.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"raw-socket"});
  // socket, bind, listen, accept, send, recv, shutdown.
  EXPECT_EQ(violations.size(), 7u);
}

TEST(RepoLintTest, RawSocketAllowedInSocketWrapper) {
  // The Socket RAII wrapper is the one sanctioned raw-API call site.
  EXPECT_TRUE(LintFile("socket.cc", "src/net/socket.cc",
                       ReadFixture("bad_socket.cc"))
                  .empty());
  EXPECT_TRUE(LintFile("socket.h", "src/net/socket.h",
                       "#ifndef CLOUDVIEWS_NET_SOCKET_H_\n"
                       "#define CLOUDVIEWS_NET_SOCKET_H_\n"
                       "inline int Fd() { return ::socket(2, 1, 0); }\n"
                       "#endif\n")
                  .empty());
}

TEST(RepoLintTest, RawSocketSkipsMembersAndQualifiedNames) {
  EXPECT_TRUE(LintFile("f.cc", "src/runtime/f.cc",
                       "void F(Socket* s) {\n"
                       "  s->connect(1);\n"
                       "  auto b = std::bind(g, 2);\n"
                       "}\n")
                  .empty());
}

TEST(RepoLintTest, ThrowingConversionFires) {
  auto violations = LintFixture("bad_conversion.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"throwing-conversion"});
  // std::stoll, std::stoi, std::stod; the member and other-namespace
  // names stay clean.
  EXPECT_EQ(violations.size(), 3u);
}

TEST(RepoLintTest, ThrowingConversionScopedOutOfTests) {
  EXPECT_EQ(Rules(LintFile("parser.cc", "src/parser/parser.cc",
                           ReadFixture("bad_conversion.cc"))),
            std::set<std::string>{"throwing-conversion"});
  EXPECT_TRUE(LintFile("parser_test.cc", "tests/parser_test.cc",
                       ReadFixture("bad_conversion.cc"))
                  .empty());
}

TEST(RepoLintTest, NullableInstrumentFires) {
  // The fixture lives in lint_fixtures/ but is linted as if it were a
  // src/ component, where the rule is scoped.
  auto violations = LintFile("bad_nullable_instrument.cc",
                             "src/runtime/bad_nullable_instrument.cc",
                             ReadFixture("bad_nullable_instrument.cc"));
  EXPECT_EQ(Rules(violations),
            std::set<std::string>{"nullable-instrument"});
  // Increment, braced Set, Add through `->` and the histogram's Observe;
  // the other call and the check on another instrument stay clean.
  ASSERT_EQ(violations.size(), 4u);
  EXPECT_EQ(violations[0].line, 12);
  EXPECT_EQ(violations[1].line, 13);
  EXPECT_EQ(violations[2].line, 16);
  EXPECT_EQ(violations[3].line, 17);
}

TEST(RepoLintTest, NullableInstrumentScopedToComponents) {
  const std::string fixture = ReadFixture("bad_nullable_instrument.cc");
  // All of src/, src/obs/ included; tests may wire what they like.
  EXPECT_EQ(LintFile("metrics.cc", "src/obs/metrics.cc", fixture).size(),
            4u);
  EXPECT_TRUE(LintFile("obs_test.cc", "tests/obs_test.cc", fixture).empty());
  EXPECT_TRUE(
      LintFile("fault_injector.cc", "src/fault/fault_injector.cc",
               "// NOLINTNEXTLINE(nullable-instrument): opt-in.\n"
               "if (state.fires != nullptr) state.fires->Increment();\n")
          .empty());
}

TEST(RepoLintTest, BoxedCellFires) {
  // The fixture lives in lint_fixtures/ but is linted as if it were an
  // executor source, where the rule is scoped.
  auto violations = LintFile("bad_boxed_cell.cc",
                             "src/exec/bad_boxed_cell.cc",
                             ReadFixture("bad_boxed_cell.cc"));
  EXPECT_EQ(Rules(violations), std::set<std::string>{"boxed-cell"});
  // .GetValue(, AppendRowFrom( and ->GetValue(; the reasoned NOLINT, the
  // free function and the bulk copies stay clean.
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].line, 7);
  EXPECT_EQ(violations[1].line, 12);
  EXPECT_EQ(violations[2].line, 14);
}

TEST(RepoLintTest, BoxedCellFiresInTheFrontDoor) {
  // The wire worker fingerprints every output, so src/net/ reads the
  // typed column vectors too; a sibling directory does not match.
  auto violations = LintFile("outcome.cc", "src/net/outcome.cc",
                             ReadFixture("bad_boxed_cell.cc"));
  EXPECT_EQ(Rules(violations), std::set<std::string>{"boxed-cell"});
  ASSERT_EQ(violations.size(), 3u);
  EXPECT_EQ(violations[0].line, 7);
  EXPECT_EQ(violations[1].line, 12);
  EXPECT_EQ(violations[2].line, 14);
  EXPECT_TRUE(LintFile("netx.cc", "src/netx/netx.cc",
                       ReadFixture("bad_boxed_cell.cc"))
                  .empty());
}

TEST(RepoLintTest, BoxedCellScopedToExecutor) {
  const std::string fixture = ReadFixture("bad_boxed_cell.cc");
  // Literals, aggregate states, the EvaluateRow reference and tests box
  // values by design.
  EXPECT_TRUE(LintFile("expr.cc", "src/expr/expr.cc", fixture).empty());
  EXPECT_TRUE(
      LintFile("types_test.cc", "tests/types_test.cc", fixture).empty());
  EXPECT_TRUE(LintFile("op.cc", "src/exec/op.cc",
                       "// NOLINTNEXTLINE(boxed-cell): per-row UDO.\n"
                       "out->AppendRowFrom(in, 0);\n")
                  .empty());
}

TEST(RepoLintTest, NakedNewFires) {
  auto violations = LintFixture("bad_new.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"naked-new"});
  EXPECT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, UnguardedMutexMemberFires) {
  auto violations = LintFixture("bad_unguarded.h");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"mutex-guarded"});
  EXPECT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, MetadataGuardedMapWithoutStripeJustificationFires) {
  // The fixture lives in lint_fixtures/ but is linted as if it were a
  // src/metadata/ header, where the rule is scoped.
  auto violations =
      LintFile("bad_metadata_map.h", "src/metadata/bad_metadata_map.h",
               ReadFixture("bad_metadata_map.h"));
  EXPECT_EQ(Rules(violations),
            std::set<std::string>{"metadata-map-stripe"});
  // Only the unjustified views_ map; the shard-stripe-justified locks_
  // and the unguarded cache_ stay clean.
  ASSERT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, MetadataMapRuleSeesWrappedGuardedBy) {
  // GUARDED_BY on the continuation line of a wrapped declaration (the
  // shape metadata_service.h actually uses) is still caught.
  std::string content =
      "#ifndef CLOUDVIEWS_METADATA_M_H_\n"
      "#define CLOUDVIEWS_METADATA_M_H_\n"
      "class M {\n"
      "  mutable Mutex mu_;\n"
      "  std::unordered_map<Hash128, RegisteredView, Hash128Hasher> views_\n"
      "      GUARDED_BY(mu_);\n"
      "};\n"
      "#endif\n";
  auto violations = LintFile("m.h", "src/metadata/m.h", content);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "metadata-map-stripe");
  EXPECT_EQ(violations[0].line, 5);
}

TEST(RepoLintTest, MetadataMapRuleScopedToMetadataHeaders) {
  // The same guarded map outside src/metadata/ is the general
  // mutex-guarded concern, not this rule's.
  std::string body =
      "class C {\n"
      "  mutable Mutex mu_;\n"
      "  std::map<int, int> m_ GUARDED_BY(mu_);\n"
      "};\n";
  EXPECT_TRUE(LintFile("m.h", "src/runtime/m.h",
                       "#ifndef CLOUDVIEWS_RUNTIME_M_H_\n"
                       "#define CLOUDVIEWS_RUNTIME_M_H_\n" +
                           body + "#endif\n")
                  .empty());
  // Headers only: a .cc in src/metadata/ holds implementation detail, not
  // the service's state layout.
  EXPECT_TRUE(
      LintFile("m.cc", "src/metadata/metadata_service.cc", body).empty());
}

TEST(RepoLintTest, MetadataMapRuleHonorsReasonedNolint) {
  std::string content =
      "#ifndef CLOUDVIEWS_METADATA_M_H_\n"
      "#define CLOUDVIEWS_METADATA_M_H_\n"
      "class M {\n"
      "  mutable Mutex mu_;\n"
      "  std::map<int, int> m_ GUARDED_BY(mu_);"
      "  // NOLINT(metadata-map-stripe): migration in flight\n"
      "};\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("m.h", "src/metadata/m.h", content).empty());
}

TEST(RepoLintTest, CompensationCommentFires) {
  // The fixture lives in lint_fixtures/ but is linted as if it were the
  // view matcher, where the rule is scoped.
  auto violations =
      LintFile("bad_compensation.cc", "src/optimizer/view_matcher.cc",
               ReadFixture("bad_compensation.cc"));
  EXPECT_EQ(Rules(violations),
            std::set<std::string>{"compensation-comment"});
  // Only the unjustified FilterNode; the justified ProjectNode and the
  // non-plan-node ViewFeatures allocation stay clean.
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].line, 8);
  EXPECT_NE(violations[0].message.find("FilterNode"), std::string::npos);
}

TEST(RepoLintTest, CompensationCommentScopedToMatcherAndRewriter) {
  // The same construction elsewhere in the optimizer is not this rule's
  // concern (only the compensation path must argue byte-identity).
  EXPECT_TRUE(LintFile("rules.cc", "src/optimizer/rules.cc",
                       "auto f = std::make_shared<FilterNode>(in, pred);\n")
                  .empty());
  EXPECT_TRUE(LintFile("rw.cc", "src/optimizer/view_rewriter.cc",
                       "auto f = std::make_shared<FilterNode>(in, pred);\n")
                  .size() == 1u);
}

TEST(RepoLintTest, CompensationCommentSeesWrappedConstruction) {
  // The template argument on the continuation line of a wrapped call (the
  // shape clang-format produces) is still caught.
  std::string content =
      "auto agg = std::make_shared<\n"
      "    AggregateNode>(input, keys, specs);\n";
  auto violations =
      LintFile("vm.cc", "src/optimizer/view_matcher.cc", content);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "compensation-comment");
  EXPECT_EQ(violations[0].line, 1);
}

TEST(RepoLintTest, CompensationCommentHonorsReasonedNolint) {
  std::string content =
      "auto f = std::make_shared<FilterNode>(in, pred);"
      "  // NOLINT(compensation-comment): fixture exemption\n";
  EXPECT_TRUE(
      LintFile("vm.cc", "src/optimizer/view_matcher.cc", content).empty());
}

TEST(RepoLintTest, AssertSideEffectFires) {
  auto violations = LintFixture("bad_assert.cc");
  EXPECT_EQ(Rules(violations),
            std::set<std::string>{"assert-side-effect"});
  EXPECT_EQ(violations.size(), 2u);  // --budget and written = budget
}

TEST(RepoLintTest, HeaderGuardFires) {
  auto violations = LintFixture("bad_guard.h");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"header-guard"});
}

TEST(RepoLintTest, BareNolintFires) {
  auto violations = LintFixture("bad_nolint.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"nolint-reason"});
  EXPECT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, CleanFixturesPass) {
  EXPECT_TRUE(LintFixture("clean.cc").empty());
  EXPECT_TRUE(LintFixture("clean.h").empty());
}

TEST(RepoLintTest, CommentsAndStringsCannotFireRules) {
  // The same names as code fire: naked-new and the raw-sync rule.
  EXPECT_EQ(LintFile("f.cc", "src/f.cc", "std::mutex m;\nint* p = new int;\n")
                .size(),
            2u);
  // A // comment, a string literal, an inline /* */ and a block comment
  // spanning lines each hold `new` or `std::mutex`; none of them is code.
  const std::string content =
      "int x;  // new std::mutex\n"
      "auto s = \"new Widget()\";\n"
      "a /* new */ b\n"
      "start /* spans\n"
      "still hidden new std::mutex m;\n"
      "done */ int y = 1;\n";
  EXPECT_TRUE(LintFile("f.cc", "src/f.cc", content).empty());
}

TEST(RepoLintTest, ReasonedNolintSuppressesOnlyItsLine) {
  std::string content =
      "int* a = new int;  // NOLINT(naked-new): fixture exemption\n"
      "int* b = new int;\n";
  auto violations = LintFile("f.cc", "src/f.cc", content);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].line, 2);
  EXPECT_EQ(violations[0].rule, "naked-new");
}

TEST(RepoLintTest, HeaderGuardStripsOnlySrcPrefix) {
  std::string src_header =
      "#ifndef CLOUDVIEWS_COMMON_FOO_H_\n"
      "#define CLOUDVIEWS_COMMON_FOO_H_\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("foo.h", "src/common/foo.h", src_header).empty());
  std::string tests_header =
      "#ifndef CLOUDVIEWS_TESTS_FOO_H_\n"
      "#define CLOUDVIEWS_TESTS_FOO_H_\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("foo.h", "tests/foo.h", tests_header).empty());
}

TEST(RepoLintTest, RawStringContentsCannotFireRules) {
  // The old line-oriented sanitizer lost raw-string state across lines,
  // so banned names inside a multi-line raw string leaked into matching.
  std::ifstream in(FixturePath("clean_rawstring.cc"));
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  auto violations = LintFile("clean_rawstring.cc",
                             "src/clean_rawstring.cc", ss.str());
  for (const auto& v : violations) {
    ADD_FAILURE() << v.path << ":" << v.line << " [" << v.rule << "] "
                  << v.message;
  }
}

TEST(RepoLintTest, DocsTableListsExactlyTheRegisteredRules) {
  std::ifstream in(std::string(CV_DOCS_DIR) + "/lint_rules.md");
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string docs = ss.str();

  // Rows of the "## repo_lint rules" table look like "| `rule-name` | ...".
  size_t begin = docs.find("## repo_lint rules");
  size_t end = docs.find("## invariant_analyzer rules");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::string section = docs.substr(begin, end - begin);

  size_t rows = 0;
  for (size_t pos = section.find("\n| `"); pos != std::string::npos;
       pos = section.find("\n| `", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, AllRules().size())
      << "docs/lint_rules.md repo_lint table row count must match "
         "AllRules()";
  for (const auto& rule : AllRules()) {
    EXPECT_NE(section.find("| `" + std::string(rule.name) + "` |"),
              std::string::npos)
        << "docs/lint_rules.md is missing rule " << rule.name;
    EXPECT_NE(section.find("`" + std::string(rule.fixture) + "`"),
              std::string::npos)
        << "docs/lint_rules.md is missing fixture " << rule.fixture;
  }
}

TEST(RepoLintTest, EveryRuleHasAFixtureOnDisk) {
  for (const auto& rule : AllRules()) {
    std::ifstream in(FixturePath(rule.fixture));
    EXPECT_TRUE(in.good()) << "rule " << rule.name
                           << " names a missing fixture " << rule.fixture;
  }
}

TEST(RepoLintTest, LintTreeSkipsFixturesAndFindsNothingSeeded) {
  // The fixture directory itself is excluded from tree scans, so pointing
  // LintTree at tools/ only reports real tool sources (which are clean).
  auto violations = LintTree({std::string(CV_LINT_TOOLS_DIR)});
  for (const auto& v : violations) {
    EXPECT_EQ(v.path.find("lint_fixtures"), std::string::npos) << v.path;
  }
}

}  // namespace
}  // namespace lint
}  // namespace cloudviews
