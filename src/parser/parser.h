#ifndef CLOUDVIEWS_PARSER_PARSER_H_
#define CLOUDVIEWS_PARSER_PARSER_H_

#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "parser/lexer.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// A recurring-template parameter binding for one instance: the value used
/// in expressions (`@name`) and the text spliced into stream names
/// (`"clicks_{name}"`).
struct ScriptParam {
  Value value;
  std::string text;
};
using ParamMap = std::map<std::string, ScriptParam>;

/// Date parameter helper: value = date, text = "YYYY-MM-DD".
ScriptParam DateParam(const std::string& iso);
ScriptParam IntParam(int64_t v);
ScriptParam StringParam(const std::string& s);

/// Resolves the data-version GUID of a concrete input stream at compile
/// time (normally backed by the storage manager / catalog).
using GuidResolver = std::function<std::string(const std::string&)>;

/// \brief Recursive-descent compiler from ScopeScript text to a logical
/// plan. One script = one job.
///
/// \code
///   clicks = EXTRACT user:int, page:string, when:date
///            FROM "clicks_{date}";
///   recent = SELECT user, COUNT(*) AS n FROM clicks
///            WHERE when >= @date GROUP BY user;
///   OUTPUT recent TO "user_counts_{date}";
/// \endcode
///
/// Statements: EXTRACT, SELECT (JOIN / WHERE / GROUP BY / ORDER BY / TOP),
/// PROCESS ... USING proc("lib","ver") PRODUCE fields, UNION ALL, OUTPUT.
/// `{param}` holes in strings and `@param` in expressions come from the
/// ParamMap, reproducing "same template, new data each time" (Sec 3).
class ScopeScriptParser {
 public:
  /// Bounds on the trees one script may build (docs/wire_protocol.md).
  /// Every later pass over a plan and its expressions recurses, so these
  /// keep any script far from the stack limit; past one, Parse returns a
  /// ParseError. Nesting counts parentheses, call arguments, NOT and unary
  /// minus; a height counts the nodes on the longest root-to-leaf path of
  /// each expression, and of the plan the statements chain together. The
  /// last bound sums, along each path of the plan, the nodes of each plan
  /// node's largest expression: the rewrites can fold all of them into one
  /// predicate. The expansion budget counts the plan's nodes and all their
  /// expressions' nodes with a dataset counted once per use, as the passes
  /// that walk the plan as a tree (signatures, the optimizer's clone) see
  /// it: a chain of statements that each use the one before twice doubles
  /// it per statement.
  static constexpr int kMaxNestingDepth = 64;
  static constexpr int kMaxExprHeight = 512;
  static constexpr int kMaxPlanHeight = 128;
  static constexpr int kMaxChainExprNodes = 1024;
  static constexpr int kMaxExpandedNodes = 65536;

  /// Parses and instantiates a script with the given parameters. The
  /// returned plan is unbound. Exactly one OUTPUT statement is required.
  Result<PlanNodePtr> Parse(const std::string& script, const ParamMap& params,
                            const GuidResolver& guid_resolver = nullptr);
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PARSER_PARSER_H_
