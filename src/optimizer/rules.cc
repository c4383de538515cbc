#include "optimizer/rules.h"

#include <set>
#include <unordered_map>

#include "parser/parser.h"

namespace cloudviews {

namespace {

void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kLogical) {
    const auto& lg = static_cast<const LogicalExpr&>(*expr);
    if (lg.op() == LogicalOp::kAnd) {
      SplitConjuncts(expr->children()[0], out);
      SplitConjuncts(expr->children()[1], out);
      return;
    }
  }
  out->push_back(expr);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = And(acc, conjuncts[i]);
  }
  return acc;
}

size_t ExprNodes(const Expr& expr) {
  size_t n = 1;
  for (const auto& c : expr.children()) n += ExprNodes(*c);
  return n;
}

/// Nodes `pred` would have with every column reference that `defined`
/// names replaced by its own copy of that definition (`defined` maps a name
/// to its expression's node count).
size_t InlinedNodes(const Expr& pred,
                    const std::unordered_map<std::string, size_t>& defined) {
  if (pred.kind() == ExprKind::kColumnRef) {
    auto it = defined.find(static_cast<const ColumnRefExpr&>(pred).name());
    return it == defined.end() ? 1 : it->second;
  }
  size_t n = 1;
  for (const auto& c : pred.children()) n += InlinedNodes(*c, defined);
  return n;
}

bool RefsSubsetOf(const Expr& expr, const Schema& schema) {
  std::set<std::string> refs;
  CollectColumnRefs(expr, &refs);
  for (const auto& r : refs) {
    if (!schema.HasField(r)) return false;
  }
  return true;
}

}  // namespace

PlanNodePtr MergeAdjacentFilters(PlanNodePtr node) {
  for (auto& c : node->mutable_children()) c = MergeAdjacentFilters(c);
  if (node->kind() != OpKind::kFilter) return node;
  auto* filter = static_cast<FilterNode*>(node.get());
  if (filter->child()->kind() != OpKind::kFilter) return node;
  auto* inner = static_cast<FilterNode*>(filter->child().get());
  auto merged = std::make_shared<FilterNode>(
      inner->child(), And(filter->predicate(), inner->predicate()));
  return MergeAdjacentFilters(merged);
}

PlanNodePtr PushDownFilters(PlanNodePtr node) {
  for (auto& c : node->mutable_children()) c = PushDownFilters(c);
  if (node->kind() != OpKind::kFilter) return node;

  auto* filter = static_cast<FilterNode*>(node.get());
  PlanNodePtr child = filter->child();
  ExprPtr pred = filter->predicate();

  switch (child->kind()) {
    case OpKind::kSort:
    case OpKind::kExchange: {
      // filter(enforcer(x)) -> enforcer(filter(x)); the enforcer's
      // properties are unaffected by removing rows.
      PlanNodePtr grandchild = child->child();
      auto pushed = PushDownFilters(
          std::make_shared<FilterNode>(grandchild, pred));
      child->mutable_children()[0] = pushed;
      return child;
    }

    case OpKind::kProject: {
      // Rewrite the predicate in terms of the project's input by inlining
      // the projected expressions. Every reference gets its own copy, so
      // chained projections can multiply the predicate (`x + x AS x`
      // doubles it per level): past the parser's per-chain budget, the
      // filter stays above the projection.
      auto* project = static_cast<ProjectNode*>(child.get());
      std::unordered_map<std::string, const NamedExpr*> by_name;
      std::unordered_map<std::string, size_t> nodes_by_name;
      for (const auto& ne : project->exprs()) {
        by_name[ne.name] = &ne;
        nodes_by_name[ne.name] = ExprNodes(*ne.expr);
      }
      if (InlinedNodes(*pred, nodes_by_name) >
          static_cast<size_t>(ScopeScriptParser::kMaxChainExprNodes)) {
        return node;
      }
      ExprPtr substituted = SubstituteColumnRefs(
          *pred, [&](const std::string& name) -> ExprPtr {
            auto it = by_name.find(name);
            return it == by_name.end() ? nullptr : it->second->expr->Clone();
          });
      if (substituted == nullptr) return node;
      auto pushed = PushDownFilters(
          std::make_shared<FilterNode>(project->child(), substituted));
      child->mutable_children()[0] = pushed;
      return child;
    }

    case OpKind::kAggregate: {
      // Only predicates over the group keys commute with the aggregate.
      auto* agg = static_cast<AggregateNode*>(child.get());
      Schema key_schema;
      const Schema& in = agg->child()->output_schema();
      for (const auto& k : agg->group_keys()) {
        int idx = in.FieldIndex(k);
        if (idx >= 0) key_schema.AddField(k, in.field(idx).type);
      }
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(pred, &conjuncts);
      std::vector<ExprPtr> pushable, remaining;
      for (const auto& c : conjuncts) {
        (RefsSubsetOf(*c, key_schema) ? pushable : remaining).push_back(c);
      }
      if (pushable.empty()) return node;
      auto pushed = PushDownFilters(std::make_shared<FilterNode>(
          agg->child(), CombineConjuncts(pushable)));
      child->mutable_children()[0] = pushed;
      if (remaining.empty()) return child;
      return std::make_shared<FilterNode>(child,
                                          CombineConjuncts(remaining));
    }

    case OpKind::kJoin: {
      auto* join = static_cast<JoinNode*>(child.get());
      const Schema& ls = join->children()[0]->output_schema();
      const Schema& rs = join->children()[1]->output_schema();
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(pred, &conjuncts);
      std::vector<ExprPtr> to_left, to_right, remaining;
      bool left_outer = join->join_type() == JoinType::kLeftOuter;
      for (const auto& c : conjuncts) {
        if (RefsSubsetOf(*c, ls)) {
          to_left.push_back(c);
        } else if (!left_outer && RefsSubsetOf(*c, rs)) {
          // Pushing below the null-padding side of an outer join would
          // change semantics, so only inner joins push right.
          to_right.push_back(c);
        } else {
          remaining.push_back(c);
        }
      }
      if (to_left.empty() && to_right.empty()) return node;
      if (!to_left.empty()) {
        join->mutable_children()[0] = PushDownFilters(
            std::make_shared<FilterNode>(join->children()[0],
                                         CombineConjuncts(to_left)));
      }
      if (!to_right.empty()) {
        join->mutable_children()[1] = PushDownFilters(
            std::make_shared<FilterNode>(join->children()[1],
                                         CombineConjuncts(to_right)));
      }
      if (remaining.empty()) return child;
      return std::make_shared<FilterNode>(child,
                                          CombineConjuncts(remaining));
    }

    case OpKind::kUnionAll: {
      auto union_node = child;
      for (auto& branch : union_node->mutable_children()) {
        branch = PushDownFilters(
            std::make_shared<FilterNode>(branch, pred->Clone()));
      }
      return union_node;
    }

    default:
      return node;
  }
}

PlanNodePtr RemoveRedundantEnforcers(PlanNodePtr node) {
  for (auto& c : node->mutable_children()) c = RemoveRedundantEnforcers(c);
  if (node->kind() == OpKind::kExchange) {
    auto* exchange = static_cast<ExchangeNode*>(node.get());
    if (exchange->child()->bound() &&
        exchange->child()->Delivered().partitioning.Satisfies(
            exchange->partitioning())) {
      return exchange->child();
    }
  }
  if (node->kind() == OpKind::kSort) {
    auto* sort = static_cast<SortNode*>(node.get());
    if (sort->child()->bound() &&
        sort->child()->Delivered().sort_order.Satisfies(
            SortOrder{sort->keys()})) {
      return sort->child();
    }
  }
  return node;
}

}  // namespace cloudviews
