#ifndef CLOUDVIEWS_TOOLS_REPO_LINT_LIB_H_
#define CLOUDVIEWS_TOOLS_REPO_LINT_LIB_H_

#include <set>
#include <string>
#include <vector>

#include "tools/token.h"

namespace cloudviews {
namespace lint {

/// One lint finding: file, 1-based line (0 for whole-file rules), the rule
/// slug, and a human-readable message.
struct Violation {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Everything a rule needs about one file. Rules are token-level: the
/// lexer has already removed comments and string/char literal *contents*
/// from `code`, so prose can never trigger a ban and a banned call can
/// never hide in a multi-line raw string. Directive bodies stay in `code`
/// (a macro that expands to srand() is still a violation); `comments`
/// carries the justification comments some rules look for.
struct FileCtx {
  std::string display_path;
  std::string rel_path;
  const std::string* content = nullptr;  // raw bytes (header-guard rule)
  std::vector<Token> code;               // everything but comments
  std::vector<Token> comments;
  std::set<int> suppressed_lines;  // lines carrying a reasoned NOLINT
  bool is_header = false;
};

/// One registered rule. Registration is data-driven: AllRules() is the
/// single table, and docs/lint_rules.md must list exactly these rows (a
/// test asserts the counts match).
struct LintRule {
  const char* name;     // rule slug reported in Violation::rule
  const char* summary;  // one-line description (mirrors the docs table)
  const char* fixture;  // file under tools/lint_fixtures/ proving it
  void (*fn)(const FileCtx&, std::vector<Violation>*);
};

/// The rule table (see DESIGN.md "Correctness tooling"):
///  banned-random      std::rand / srand / random_device / time(nullptr)
///                     outside common/random (use cloudviews::Rng)
///  banned-clock       ad-hoc std::chrono clocks outside common/clock.h
///                     and src/obs (use MonotonicClock)
///  banned-sleep       sleep_for / sleep_until / usleep / nanosleep
///                     outside fault/backoff (use RetryWithBackoff)
///  banned-sync        raw std sync primitives outside common/mutex.h
///                     (use the annotated Mutex / MutexLock / CondVar)
///  throwing-conversion std::sto* outside tests/ (use std::from_chars and
///                     return a Status)
///  nullable-instrument `if (x != nullptr) x->Increment/Set/Add(` in src/
///                     (counters and gauges are never null)
///  naked-new          `new` outside a smart-pointer factory
///  mutex-guarded      a header declaring a Mutex member must annotate the
///                     state it protects with GUARDED_BY / PT_GUARDED_BY
///  metadata-map-stripe a GUARDED_BY'd map member in a src/metadata/
///                     header needs a "shard-stripe" justification
///  compensation-comment a PlanNode construction in view_matcher.* /
///                     view_rewriter.* needs a "// compensation: <why>"
///  assert-side-effect assert() whose argument mutates state
///  header-guard       include guards must be CLOUDVIEWS_<PATH>_H_
///  nolint-reason      NOLINT must carry a category and reason
///
/// A line carrying a reasoned NOLINT(rule): why marker is exempt from the
/// other rules.
const std::vector<LintRule>& AllRules();

/// Lints one file. `rel_path` is the repo-relative path ("src/...",
/// "tests/...") used for per-path rule exemptions and the expected header
/// guard; `display_path` is what violations report.
std::vector<Violation> LintFile(const std::string& display_path,
                                const std::string& rel_path,
                                const std::string& content);

/// Recursively lints every .h/.cc/.cpp under each root directory. Paths
/// inside the roots are made repo-relative by prefixing the root's
/// basename (passing "/repo/src" yields rel paths "src/...").
/// Unreadable roots are reported as violations with rule "io-error".
std::vector<Violation> LintTree(const std::vector<std::string>& roots);

}  // namespace lint
}  // namespace cloudviews

#endif  // CLOUDVIEWS_TOOLS_REPO_LINT_LIB_H_
