#include "parser/parser.h"

#include <algorithm>
#include <charconv>
#include <system_error>
#include <unordered_map>

#include "common/string_util.h"
#include "expr/function_registry.h"

namespace cloudviews {

ScriptParam DateParam(const std::string& iso) {
  return {Value::DateFromString(iso), iso};
}
ScriptParam IntParam(int64_t v) {
  return {Value::Int64(v), std::to_string(v)};
}
ScriptParam StringParam(const std::string& s) { return {Value::String(s), s}; }

namespace {

class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, const ParamMap& params,
             const GuidResolver& guids)
      : tokens_(std::move(tokens)), params_(params), guids_(guids) {}

  Result<PlanNodePtr> ParseScript();

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  Status Fail(const std::string& msg) const {
    return Status::ParseError(
        StrFormat("%s at line %d (near '%s')", msg.c_str(), Cur().line,
                  Cur().text.c_str()));
  }
  /// Converts the current number token and advances past it. A literal
  /// that does not fit T is a ParseError: scripts arrive over the wire, so
  /// no conversion here may throw.
  template <typename T>
  Result<T> ConsumeNumber() {
    const std::string& text = Cur().text;
    T value{};
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) {
      return Fail("numeric literal out of range");
    }
    Advance();
    return value;
  }
  bool AcceptSymbol(const std::string& s) {
    if (Cur().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const std::string& s) {
    if (!AcceptSymbol(s)) return Fail("expected '" + s + "'");
    return Status::OK();
  }
  bool AcceptKeyword(const std::string& k) {
    if (Cur().IsKeyword(k)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& k) {
    if (!AcceptKeyword(k)) return Fail("expected " + k);
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (!Cur().Is(TokenType::kIdent)) return Fail("expected identifier");
    std::string name = Cur().text;
    Advance();
    return name;
  }
  Result<std::string> ExpectString() {
    if (!Cur().Is(TokenType::kString)) return Fail("expected string literal");
    std::string s = Cur().text;
    Advance();
    return s;
  }

  /// Parses one nesting level deeper; fails past kMaxNestingDepth.
  Result<ExprPtr> Nested(Result<ExprPtr> (ParserImpl::*parse)()) {
    if (nesting_ == ScopeScriptParser::kMaxNestingDepth) {
      return Fail(StrFormat("expression nests deeper than %d levels",
                            ScopeScriptParser::kMaxNestingDepth));
    }
    ++nesting_;
    Result<ExprPtr> out = (this->*parse)();
    --nesting_;
    return out;
  }

  // Every expression and plan node is checked as it is built, over
  // children this parse built and checked before, so no tree taller than
  // a limit ever exists.

  /// Height and node count of a tree this parse built; for a plan, also
  /// its size with every use of a shared dataset expanded.
  struct Shape {
    int height = 1;
    int nodes = 1;
    int64_t expanded = 1;
  };
  /// The shape of an expression this parse built; leaves are not recorded.
  Shape ShapeOf(const ExprPtr& expr) const {
    auto it = expr_shapes_.find(expr);
    return it == expr_shapes_.end() ? Shape{} : it->second;
  }
  Result<ExprPtr> Checked(ExprPtr expr) {
    Shape shape;
    for (const ExprPtr& child : expr->children()) {
      Shape below = ShapeOf(child);
      shape.height = std::max(shape.height, below.height + 1);
      shape.nodes += below.nodes;
    }
    if (shape.height > ScopeScriptParser::kMaxExprHeight) {
      return Fail(StrFormat("expression is taller than %d levels",
                            ScopeScriptParser::kMaxExprHeight));
    }
    expr_shapes_.emplace(expr, shape);
    return expr;
  }
  /// Checks a plan node with its own expressions `exprs`. The optimizer
  /// merges stacked filters, splits and re-chains their conjuncts, and
  /// inlines a projection's expressions into a filter it pushes below it,
  /// so one predicate can collect the expressions of every statement under
  /// it: the nodes of each plan node's largest expression are summed along
  /// each root-to-leaf path of the plan (`shape.nodes` of a plan is that
  /// sum). A dataset used twice is one node with two parents, but
  /// signatures and the optimizer's clone walk the plan as a tree:
  /// `shape.expanded` counts the node, all its expressions' nodes and each
  /// child's expanded size, so a dataset counts once per use.
  Result<PlanNodePtr> Checked(PlanNodePtr plan,
                              const std::vector<ExprPtr>& exprs = {}) {
    int expr_nodes = 0;
    int64_t expanded = 1;
    for (const ExprPtr& expr : exprs) {
      int nodes = ShapeOf(expr).nodes;
      expr_nodes = std::max(expr_nodes, nodes);
      expanded += nodes;
    }
    Shape shape{1, expr_nodes, expanded};
    for (const PlanNodePtr& child : plan->children()) {
      auto it = plan_shapes_.find(child);
      Shape below = it == plan_shapes_.end() ? Shape{1, 0, 1} : it->second;
      shape.height = std::max(shape.height, below.height + 1);
      shape.nodes = std::max(shape.nodes, below.nodes + expr_nodes);
      shape.expanded += below.expanded;
    }
    if (shape.height > ScopeScriptParser::kMaxPlanHeight) {
      return Fail(StrFormat("statement chain is taller than %d levels",
                            ScopeScriptParser::kMaxPlanHeight));
    }
    if (shape.nodes > ScopeScriptParser::kMaxChainExprNodes) {
      return Fail(StrFormat(
          "expressions along the statement chain exceed %d nodes",
          ScopeScriptParser::kMaxChainExprNodes));
    }
    if (shape.expanded > ScopeScriptParser::kMaxExpandedNodes) {
      return Fail(StrFormat(
          "plan expands past %d nodes (a dataset counts once per use)",
          ScopeScriptParser::kMaxExpandedNodes));
    }
    plan_shapes_.emplace(plan, shape);
    return plan;
  }

  Result<std::string> Interpolate(const std::string& templ) const;
  Result<PlanNodePtr> LookupBinding(const std::string& name) const;

  Result<PlanNodePtr> ParseStatementRhs();
  Result<PlanNodePtr> ParseExtract();
  Result<PlanNodePtr> ParseSelect();
  Result<PlanNodePtr> ParseProcess();
  Result<PlanNodePtr> ParseReduce();
  Result<Schema> ParseFieldList();

  Result<ExprPtr> ParseExpr() { return ParseOr(); }
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const ParamMap& params_;
  const GuidResolver& guids_;
  std::map<std::string, PlanNodePtr> bindings_;
  int nesting_ = 0;
  std::unordered_map<ExprPtr, Shape> expr_shapes_;
  std::unordered_map<PlanNodePtr, Shape> plan_shapes_;
};

Result<std::string> ParserImpl::Interpolate(const std::string& templ) const {
  std::string out;
  size_t i = 0;
  while (i < templ.size()) {
    if (templ[i] == '{') {
      size_t close = templ.find('}', i);
      if (close == std::string::npos) {
        return Status::ParseError("unterminated '{' in \"" + templ + "\"");
      }
      std::string name = templ.substr(i + 1, close - i - 1);
      auto it = params_.find(name);
      if (it == params_.end()) {
        return Status::ParseError("unbound template parameter '{" + name +
                                  "}'");
      }
      out += it->second.text;
      i = close + 1;
    } else {
      out += templ[i++];
    }
  }
  return out;
}

Result<PlanNodePtr> ParserImpl::LookupBinding(const std::string& name) const {
  auto it = bindings_.find(name);
  if (it == bindings_.end()) {
    return Status::ParseError("unknown dataset '" + name + "'");
  }
  return it->second;
}

Result<Schema> ParserImpl::ParseFieldList() {
  Schema schema;
  for (;;) {
    CV_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    CV_RETURN_NOT_OK(ExpectSymbol(":"));
    CV_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
    DataType type;
    if (!DataTypeFromString(ToLower(type_name), &type)) {
      return Fail("unknown type '" + type_name + "'");
    }
    schema.AddField(name, type);
    if (!AcceptSymbol(",")) break;
  }
  return schema;
}

Result<PlanNodePtr> ParserImpl::ParseExtract() {
  // EXTRACT was already consumed.
  CV_ASSIGN_OR_RETURN(Schema schema, ParseFieldList());
  CV_RETURN_NOT_OK(ExpectKeyword("FROM"));
  CV_ASSIGN_OR_RETURN(std::string template_name, ExpectString());
  CV_ASSIGN_OR_RETURN(std::string stream_name, Interpolate(template_name));
  std::string guid = guids_ ? guids_(stream_name) : "";
  return PlanNodePtr(std::make_shared<ExtractNode>(
      template_name, stream_name, guid, std::move(schema)));
}

Result<PlanNodePtr> ParserImpl::ParseReduce() {
  // REDUCE src ON key [, key...] USING proc("lib", "version") [PRODUCE ...]
  CV_ASSIGN_OR_RETURN(std::string src, ExpectIdent());
  CV_ASSIGN_OR_RETURN(PlanNodePtr input, LookupBinding(src));
  CV_RETURN_NOT_OK(ExpectKeyword("ON"));
  std::vector<std::string> keys;
  for (;;) {
    CV_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
    keys.push_back(key);
    if (!AcceptSymbol(",")) break;
  }
  CV_RETURN_NOT_OK(ExpectKeyword("USING"));
  CV_ASSIGN_OR_RETURN(std::string proc, ExpectIdent());
  CV_RETURN_NOT_OK(ExpectSymbol("("));
  CV_ASSIGN_OR_RETURN(std::string library, ExpectString());
  CV_RETURN_NOT_OK(ExpectSymbol(","));
  CV_ASSIGN_OR_RETURN(std::string version, ExpectString());
  CV_RETURN_NOT_OK(ExpectSymbol(")"));
  Schema produce;
  if (AcceptKeyword("PRODUCE")) {
    CV_ASSIGN_OR_RETURN(produce, ParseFieldList());
  }
  return Checked(std::make_shared<ReduceNode>(
      input, std::move(keys), proc, library, version, std::move(produce)));
}

Result<PlanNodePtr> ParserImpl::ParseProcess() {
  // PROCESS src USING proc("lib", "version") [PRODUCE fields]
  CV_ASSIGN_OR_RETURN(std::string src, ExpectIdent());
  CV_ASSIGN_OR_RETURN(PlanNodePtr input, LookupBinding(src));
  CV_RETURN_NOT_OK(ExpectKeyword("USING"));
  CV_ASSIGN_OR_RETURN(std::string proc, ExpectIdent());
  CV_RETURN_NOT_OK(ExpectSymbol("("));
  CV_ASSIGN_OR_RETURN(std::string library, ExpectString());
  CV_RETURN_NOT_OK(ExpectSymbol(","));
  CV_ASSIGN_OR_RETURN(std::string version, ExpectString());
  CV_RETURN_NOT_OK(ExpectSymbol(")"));
  Schema produce;  // empty = same as input, resolved at bind
  if (AcceptKeyword("PRODUCE")) {
    CV_ASSIGN_OR_RETURN(produce, ParseFieldList());
  }
  return Checked(std::make_shared<ProcessNode>(input, proc, library, version,
                                              std::move(produce)));
}

Result<PlanNodePtr> ParserImpl::ParseSelect() {
  // SELECT was already consumed.
  struct SelectItem {
    bool is_star = false;
    bool is_agg = false;
    AggregateSpec agg{AggFunc::kCount, nullptr, ""};
    ExprPtr expr;
    std::string name;
  };
  std::vector<SelectItem> items;
  for (;;) {
    SelectItem item;
    if (AcceptSymbol("*")) {
      item.is_star = true;
    } else {
      AggFunc func;
      if (Cur().Is(TokenType::kIdent) &&
          AggFuncFromString(Cur().text, &func) &&
          tokens_[pos_ + 1].IsSymbol("(")) {
        Advance();  // agg name
        Advance();  // '('
        item.is_agg = true;
        item.agg.func = func;
        if (AcceptSymbol("*")) {
          if (func != AggFunc::kCount) {
            return Fail("only COUNT may take '*'");
          }
          item.agg.arg = nullptr;
        } else {
          CV_ASSIGN_OR_RETURN(item.agg.arg, ParseExpr());
        }
        CV_RETURN_NOT_OK(ExpectSymbol(")"));
        CV_RETURN_NOT_OK(ExpectKeyword("AS"));
        CV_ASSIGN_OR_RETURN(item.agg.output_name, ExpectIdent());
      } else {
        CV_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          CV_ASSIGN_OR_RETURN(item.name, ExpectIdent());
        } else if (item.expr->kind() == ExprKind::kColumnRef) {
          item.name =
              static_cast<const ColumnRefExpr&>(*item.expr).name();
        } else {
          return Fail("non-column select item needs AS <name>");
        }
      }
    }
    items.push_back(std::move(item));
    if (!AcceptSymbol(",")) break;
  }

  CV_RETURN_NOT_OK(ExpectKeyword("FROM"));
  CV_ASSIGN_OR_RETURN(std::string src, ExpectIdent());
  CV_ASSIGN_OR_RETURN(PlanNodePtr plan, LookupBinding(src));

  // JOIN clauses.
  for (;;) {
    JoinType join_type = JoinType::kInner;
    if (AcceptKeyword("LEFT")) {
      CV_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      join_type = JoinType::kLeftOuter;
    } else if (AcceptKeyword("JOIN")) {
      join_type = JoinType::kInner;
    } else {
      break;
    }
    CV_ASSIGN_OR_RETURN(std::string right_name, ExpectIdent());
    CV_ASSIGN_OR_RETURN(PlanNodePtr right, LookupBinding(right_name));
    CV_RETURN_NOT_OK(ExpectKeyword("ON"));
    std::vector<std::pair<std::string, std::string>> keys;
    for (;;) {
      CV_ASSIGN_OR_RETURN(std::string lk, ExpectIdent());
      CV_RETURN_NOT_OK(ExpectSymbol("=="));
      CV_ASSIGN_OR_RETURN(std::string rk, ExpectIdent());
      keys.emplace_back(lk, rk);
      if (!AcceptKeyword("AND")) break;
    }
    CV_ASSIGN_OR_RETURN(plan, Checked(std::make_shared<JoinNode>(
                                  plan, right, join_type, std::move(keys))));
  }

  if (AcceptKeyword("WHERE")) {
    CV_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
    CV_ASSIGN_OR_RETURN(
        plan, Checked(std::make_shared<FilterNode>(plan, pred), {pred}));
  }

  std::vector<std::string> group_keys;
  bool has_group_by = false;
  if (AcceptKeyword("GROUP")) {
    CV_RETURN_NOT_OK(ExpectKeyword("BY"));
    has_group_by = true;
    for (;;) {
      CV_ASSIGN_OR_RETURN(std::string key, ExpectIdent());
      group_keys.push_back(key);
      if (!AcceptSymbol(",")) break;
    }
  }

  bool has_agg = false;
  for (const auto& item : items) has_agg |= item.is_agg;

  if (has_agg || has_group_by) {
    std::vector<AggregateSpec> aggs;
    for (auto& item : items) {
      if (item.is_star) {
        return Fail("'*' cannot be combined with GROUP BY / aggregates");
      }
      if (item.is_agg) {
        aggs.push_back(std::move(item.agg));
        continue;
      }
      // Non-aggregate items must be group keys.
      if (item.expr->kind() != ExprKind::kColumnRef) {
        return Fail("non-aggregate select item must be a group key column");
      }
      const std::string& col =
          static_cast<const ColumnRefExpr&>(*item.expr).name();
      bool is_key = false;
      for (const auto& k : group_keys) is_key |= k == col;
      if (!is_key) {
        return Fail("column '" + col + "' is neither aggregated nor grouped");
      }
    }
    std::vector<ExprPtr> args;
    for (const auto& agg : aggs) {
      if (agg.arg != nullptr) args.push_back(agg.arg);
    }
    CV_ASSIGN_OR_RETURN(plan, Checked(std::make_shared<AggregateNode>(
                                          plan, std::move(group_keys),
                                          std::move(aggs)),
                                      args));
  } else if (!(items.size() == 1 && items[0].is_star)) {
    std::vector<NamedExpr> exprs;
    for (auto& item : items) {
      if (item.is_star) {
        return Fail("'*' cannot be combined with other select items");
      }
      exprs.push_back({std::move(item.expr), std::move(item.name)});
    }
    std::vector<ExprPtr> items;
    items.reserve(exprs.size());
    for (const auto& ne : exprs) items.push_back(ne.expr);
    CV_ASSIGN_OR_RETURN(
        plan, Checked(std::make_shared<ProjectNode>(plan, std::move(exprs)),
                      items));
  }

  if (AcceptKeyword("ORDER")) {
    CV_RETURN_NOT_OK(ExpectKeyword("BY"));
    std::vector<SortKey> keys;
    for (;;) {
      CV_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      bool asc = true;
      if (AcceptKeyword("DESC")) {
        asc = false;
      } else {
        AcceptKeyword("ASC");
      }
      keys.push_back({col, asc});
      if (!AcceptSymbol(",")) break;
    }
    CV_ASSIGN_OR_RETURN(
        plan, Checked(std::make_shared<SortNode>(plan, std::move(keys))));
  }

  if (AcceptKeyword("TOP")) {
    if (!Cur().Is(TokenType::kInt)) return Fail("TOP needs an integer");
    CV_ASSIGN_OR_RETURN(int64_t limit, ConsumeNumber<int64_t>());
    CV_ASSIGN_OR_RETURN(plan, Checked(std::make_shared<TopNode>(plan, limit)));
  }
  return plan;
}

Result<PlanNodePtr> ParserImpl::ParseStatementRhs() {
  if (AcceptKeyword("EXTRACT")) return ParseExtract();
  if (AcceptKeyword("SELECT")) return ParseSelect();
  if (AcceptKeyword("PROCESS")) return ParseProcess();
  if (AcceptKeyword("REDUCE")) return ParseReduce();
  // UNION: "a UNION ALL b"
  if (Cur().Is(TokenType::kIdent) && tokens_[pos_ + 1].IsKeyword("UNION")) {
    CV_ASSIGN_OR_RETURN(std::string left_name, ExpectIdent());
    CV_ASSIGN_OR_RETURN(PlanNodePtr left, LookupBinding(left_name));
    CV_RETURN_NOT_OK(ExpectKeyword("UNION"));
    CV_RETURN_NOT_OK(ExpectKeyword("ALL"));
    CV_ASSIGN_OR_RETURN(std::string right_name, ExpectIdent());
    CV_ASSIGN_OR_RETURN(PlanNodePtr right, LookupBinding(right_name));
    std::vector<PlanNodePtr> kids{left, right};
    return Checked(std::make_shared<UnionAllNode>(std::move(kids)));
  }
  return Fail("expected EXTRACT, SELECT, PROCESS, or UNION");
}

Result<PlanNodePtr> ParserImpl::ParseScript() {
  PlanNodePtr output;
  while (!Cur().Is(TokenType::kEnd)) {
    if (AcceptKeyword("OUTPUT")) {
      CV_ASSIGN_OR_RETURN(std::string src, ExpectIdent());
      CV_ASSIGN_OR_RETURN(PlanNodePtr plan, LookupBinding(src));
      CV_RETURN_NOT_OK(ExpectKeyword("TO"));
      CV_ASSIGN_OR_RETURN(std::string target, ExpectString());
      CV_ASSIGN_OR_RETURN(std::string stream, Interpolate(target));
      // Optional output physical design (SCOPE CLUSTERED BY / SORTED BY).
      PhysicalProperties design;
      if (AcceptKeyword("CLUSTERED")) {
        CV_RETURN_NOT_OK(ExpectKeyword("BY"));
        for (;;) {
          CV_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
          design.partitioning.columns.push_back(col);
          if (!AcceptSymbol(",")) break;
        }
        design.partitioning.scheme = PartitionScheme::kHash;
        if (AcceptKeyword("INTO")) {
          if (!Cur().Is(TokenType::kInt)) return Fail("INTO needs an integer");
          CV_ASSIGN_OR_RETURN(design.partitioning.partition_count,
                              ConsumeNumber<int>());
        }
      }
      if (AcceptKeyword("SORTED")) {
        CV_RETURN_NOT_OK(ExpectKeyword("BY"));
        for (;;) {
          CV_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
          bool asc = true;
          if (AcceptKeyword("DESC")) {
            asc = false;
          } else {
            AcceptKeyword("ASC");
          }
          design.sort_order.keys.push_back({col, asc});
          if (!AcceptSymbol(",")) break;
        }
      }
      CV_RETURN_NOT_OK(ExpectSymbol(";"));
      if (output != nullptr) {
        return Status::ParseError("a script must have exactly one OUTPUT");
      }
      auto out_node = std::make_shared<OutputNode>(plan, stream);
      out_node->set_declared_design(std::move(design));
      CV_ASSIGN_OR_RETURN(output, Checked(out_node));
      continue;
    }
    CV_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    CV_RETURN_NOT_OK(ExpectSymbol("="));
    CV_ASSIGN_OR_RETURN(PlanNodePtr rhs, ParseStatementRhs());
    CV_RETURN_NOT_OK(ExpectSymbol(";"));
    bindings_[name] = rhs;
  }
  if (output == nullptr) {
    return Status::ParseError("script has no OUTPUT statement");
  }
  return output;
}

// --- Expressions -------------------------------------------------------------

Result<ExprPtr> ParserImpl::ParseOr() {
  CV_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (AcceptKeyword("OR")) {
    CV_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    CV_ASSIGN_OR_RETURN(left, Checked(Or(left, right)));
  }
  return left;
}

Result<ExprPtr> ParserImpl::ParseAnd() {
  CV_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (AcceptKeyword("AND")) {
    CV_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    CV_ASSIGN_OR_RETURN(left, Checked(And(left, right)));
  }
  return left;
}

Result<ExprPtr> ParserImpl::ParseNot() {
  if (AcceptKeyword("NOT") || AcceptSymbol("!")) {
    CV_ASSIGN_OR_RETURN(ExprPtr inner, Nested(&ParserImpl::ParseNot));
    return Checked(Not(inner));
  }
  return ParseComparison();
}

Result<ExprPtr> ParserImpl::ParseComparison() {
  CV_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
  static const std::pair<const char*, CompareOp> kOps[] = {
      {"==", CompareOp::kEq}, {"!=", CompareOp::kNe},
      {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
      {"<", CompareOp::kLt},  {">", CompareOp::kGt},
  };
  for (const auto& [sym, op] : kOps) {
    if (Cur().IsSymbol(sym)) {
      Advance();
      CV_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      return Checked(std::make_shared<ComparisonExpr>(op, left, right));
    }
  }
  return left;
}

Result<ExprPtr> ParserImpl::ParseAdditive() {
  CV_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  for (;;) {
    if (AcceptSymbol("+")) {
      CV_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      CV_ASSIGN_OR_RETURN(left, Checked(Add(left, right)));
    } else if (AcceptSymbol("-")) {
      CV_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      CV_ASSIGN_OR_RETURN(left, Checked(Sub(left, right)));
    } else {
      return left;
    }
  }
}

Result<ExprPtr> ParserImpl::ParseMultiplicative() {
  CV_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  for (;;) {
    if (AcceptSymbol("*")) {
      CV_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      CV_ASSIGN_OR_RETURN(left, Checked(Mul(left, right)));
    } else if (AcceptSymbol("/")) {
      CV_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      CV_ASSIGN_OR_RETURN(left, Checked(Div(left, right)));
    } else if (AcceptSymbol("%")) {
      CV_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      CV_ASSIGN_OR_RETURN(left, Checked(Mod(left, right)));
    } else {
      return left;
    }
  }
}

Result<ExprPtr> ParserImpl::ParseUnary() {
  if (AcceptSymbol("-")) {
    CV_ASSIGN_OR_RETURN(ExprPtr inner, Nested(&ParserImpl::ParseUnary));
    return Checked(Sub(Lit(int64_t{0}), inner));
  }
  return ParsePrimary();
}

Result<ExprPtr> ParserImpl::ParsePrimary() {
  if (AcceptSymbol("(")) {
    CV_ASSIGN_OR_RETURN(ExprPtr inner, Nested(&ParserImpl::ParseExpr));
    CV_RETURN_NOT_OK(ExpectSymbol(")"));
    return inner;
  }
  if (Cur().Is(TokenType::kInt)) {
    CV_ASSIGN_OR_RETURN(int64_t v, ConsumeNumber<int64_t>());
    return Lit(v);
  }
  if (Cur().Is(TokenType::kFloat)) {
    CV_ASSIGN_OR_RETURN(double v, ConsumeNumber<double>());
    return Lit(v);
  }
  if (Cur().Is(TokenType::kString)) {
    CV_ASSIGN_OR_RETURN(std::string raw, ExpectString());
    CV_ASSIGN_OR_RETURN(std::string s, Interpolate(raw));
    return Lit(Value::String(s));
  }
  if (Cur().Is(TokenType::kParam)) {
    std::string name = Cur().text;
    Advance();
    auto it = params_.find(name);
    if (it == params_.end()) {
      return Status::ParseError("unbound parameter '@" + name + "'");
    }
    return Param(name, it->second.value);
  }
  if (Cur().IsKeyword("TRUE")) {
    Advance();
    return Lit(true);
  }
  if (Cur().IsKeyword("FALSE")) {
    Advance();
    return Lit(false);
  }
  if (Cur().Is(TokenType::kIdent)) {
    std::string name = Cur().text;
    Advance();
    if (AcceptSymbol("(")) {
      // date("...") is a literal; otherwise builtin function or UDF.
      std::vector<ExprPtr> args;
      if (!Cur().IsSymbol(")")) {
        for (;;) {
          CV_ASSIGN_OR_RETURN(ExprPtr arg, Nested(&ParserImpl::ParseExpr));
          args.push_back(arg);
          if (!AcceptSymbol(",")) break;
        }
      }
      CV_RETURN_NOT_OK(ExpectSymbol(")"));
      std::string lower = ToLower(name);
      if (lower == "date") {
        if (args.size() != 1 || args[0]->kind() != ExprKind::kLiteral) {
          return Fail("date() takes one string literal");
        }
        const Value& v =
            static_cast<const LiteralExpr&>(*args[0]).value();
        if (v.type() != DataType::kString) {
          return Fail("date() takes a string literal");
        }
        Value d = Value::DateFromString(v.string_value());
        if (d.is_null()) return Fail("malformed date '" + v.string_value() + "'");
        return Lit(d);
      }
      if (FunctionRegistry::Global()->Contains(lower)) {
        return Checked(Func(lower, std::move(args)));
      }
      if (UdfRegistry::Global()->Contains(name)) {
        auto entry = *UdfRegistry::Global()->Lookup(name);
        return Checked(
            Udf(name, entry->library, entry->version, std::move(args)));
      }
      return Fail("unknown function '" + name + "'");
    }
    return Col(name);
  }
  return Fail("expected expression");
}

}  // namespace

Result<PlanNodePtr> ScopeScriptParser::Parse(const std::string& script,
                                             const ParamMap& params,
                                             const GuidResolver& guids) {
  CV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(script));
  ParserImpl impl(std::move(tokens), params, guids);
  return impl.ParseScript();
}

}  // namespace cloudviews
