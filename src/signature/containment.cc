#include "signature/containment.h"

#include <algorithm>
#include <set>

#include "signature/signature.h"

namespace cloudviews {

namespace {

/// Mirrors a comparison op when the column is on the right-hand side
/// (5 < x  ==  x > 5).
CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // Eq / Ne are symmetric
  }
}

/// Extracts `column <op> constant` from a comparison conjunct. Returns
/// false for anything the interval analysis cannot interpret (two
/// columns, two constants, Ne, null constants, non-comparisons).
bool ExtractBound(const Expr& e, std::string* column, CompareOp* op,
                  Value* value) {
  if (e.kind() != ExprKind::kComparison) return false;
  const auto& cmp = static_cast<const ComparisonExpr&>(e);
  const Expr* lhs = cmp.children()[0].get();
  const Expr* rhs = cmp.children()[1].get();
  auto constant = [](const Expr* x, Value* out) {
    if (x->kind() == ExprKind::kLiteral) {
      *out = static_cast<const LiteralExpr*>(x)->value();
      return true;
    }
    if (x->kind() == ExprKind::kParameter) {
      *out = static_cast<const ParameterExpr*>(x)->value();
      return true;
    }
    return false;
  };
  bool mirrored;
  const Expr* col_side;
  if (lhs->kind() == ExprKind::kColumnRef && constant(rhs, value)) {
    col_side = lhs;
    mirrored = false;
  } else if (rhs->kind() == ExprKind::kColumnRef && constant(lhs, value)) {
    col_side = rhs;
    mirrored = true;
  } else {
    return false;
  }
  if (value->is_null()) return false;
  CompareOp o = cmp.op();
  if (o == CompareOp::kNe) return false;
  *column = static_cast<const ColumnRefExpr*>(col_side)->name();
  *op = mirrored ? MirrorOp(o) : o;
  return true;
}

}  // namespace

void ColumnInterval::IntersectLower(const Value& v, bool inclusive) {
  if (!has_lower) {
    has_lower = true;
    lower = v;
    lower_inclusive = inclusive;
    return;
  }
  int c = v.Compare(lower);
  if (c > 0) {
    lower = v;
    lower_inclusive = inclusive;
  } else if (c == 0) {
    lower_inclusive = lower_inclusive && inclusive;
  }
}

void ColumnInterval::IntersectUpper(const Value& v, bool inclusive) {
  if (!has_upper) {
    has_upper = true;
    upper = v;
    upper_inclusive = inclusive;
    return;
  }
  int c = v.Compare(upper);
  if (c < 0) {
    upper = v;
    upper_inclusive = inclusive;
  } else if (c == 0) {
    upper_inclusive = upper_inclusive && inclusive;
  }
}

bool ColumnInterval::Contains(const ColumnInterval& inner) const {
  if (has_lower) {
    if (!inner.has_lower) return false;
    int c = inner.lower.Compare(lower);
    if (c < 0) return false;
    if (c == 0 && inner.lower_inclusive && !lower_inclusive) return false;
  }
  if (has_upper) {
    if (!inner.has_upper) return false;
    int c = inner.upper.Compare(upper);
    if (c > 0) return false;
    if (c == 0 && inner.upper_inclusive && !upper_inclusive) return false;
  }
  return true;
}

const ColumnInterval* PredicateFeatures::FindInterval(
    const std::string& column) const {
  for (const auto& iv : intervals) {
    if (iv.column == column) return &iv;
  }
  return nullptr;
}

bool PredicateFeatures::Contains(const PredicateFeatures& query) const {
  for (const auto& iv : intervals) {
    const ColumnInterval* q = query.FindInterval(iv.column);
    if (q == nullptr) return false;  // query may keep NULL / wider rows
    if (!iv.Contains(*q)) return false;
  }
  for (const auto& h : opaque) {
    if (!std::binary_search(query.conjuncts.begin(), query.conjuncts.end(),
                            h)) {
      return false;
    }
  }
  return true;
}

void FlattenConjuncts(const ExprPtr& predicate, std::vector<ExprPtr>* out) {
  if (!predicate) return;
  if (predicate->kind() == ExprKind::kLogical) {
    const auto& lg = static_cast<const LogicalExpr&>(*predicate);
    if (lg.op() == LogicalOp::kAnd) {
      FlattenConjuncts(predicate->children()[0], out);
      FlattenConjuncts(predicate->children()[1], out);
      return;
    }
  }
  out->push_back(predicate);
}

Hash128 ExprPreciseHash(const Expr& e) {
  HashBuilder hb;
  e.HashInto(&hb, SignatureMode::kPrecise);
  return hb.Finish();
}

bool VariesByInstance(const Expr& e) {
  if (e.kind() == ExprKind::kParameter) return true;
  if (e.kind() == ExprKind::kLiteral &&
      static_cast<const LiteralExpr&>(e).value().type() == DataType::kDate) {
    return true;
  }
  for (const ExprPtr& c : e.children()) {
    if (c != nullptr && VariesByInstance(*c)) return true;
  }
  return false;
}

PredicateFeatures ComputePredicateFeatures(const ExprPtr& predicate) {
  PredicateFeatures pf;
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(predicate, &conjuncts);
  for (const auto& c : conjuncts) {
    pf.conjuncts.push_back(ExprPreciseHash(*c));
    std::string column;
    CompareOp op;
    Value value;
    if (!ExtractBound(*c, &column, &op, &value)) {
      pf.opaque.push_back(pf.conjuncts.back());
      continue;
    }
    ColumnInterval* iv = nullptr;
    for (auto& existing : pf.intervals) {
      if (existing.column == column) {
        iv = &existing;
        break;
      }
    }
    if (iv == nullptr) {
      pf.intervals.push_back(ColumnInterval{});
      iv = &pf.intervals.back();
      iv->column = column;
    }
    switch (op) {
      case CompareOp::kEq:
        iv->IntersectLower(value, true);
        iv->IntersectUpper(value, true);
        break;
      case CompareOp::kLt:
        iv->IntersectUpper(value, false);
        break;
      case CompareOp::kLe:
        iv->IntersectUpper(value, true);
        break;
      case CompareOp::kGt:
        iv->IntersectLower(value, false);
        break;
      case CompareOp::kGe:
        iv->IntersectLower(value, true);
        break;
      default:
        break;  // unreachable; Ne is opaque
    }
  }
  std::sort(pf.intervals.begin(), pf.intervals.end(),
            [](const ColumnInterval& a, const ColumnInterval& b) {
              return a.column < b.column;
            });
  std::sort(pf.opaque.begin(), pf.opaque.end());
  std::sort(pf.conjuncts.begin(), pf.conjuncts.end());
  return pf;
}

CapDecomposition DecomposeCap(const PlanNode& root) {
  CapDecomposition d;
  const PlanNode* cur = &root;
  if (cur->kind() == OpKind::kAggregate) {
    d.aggregate = static_cast<const AggregateNode*>(cur);
    cur = cur->children()[0].get();
    // Enforcers between an aggregate and its logical input only
    // redistribute or reorder the input multiset; skip them so the core
    // lines up across plans whose physical enforcement differs.
    while (cur->kind() == OpKind::kExchange || cur->kind() == OpKind::kSort) {
      cur = cur->children()[0].get();
    }
  }
  if (cur->kind() == OpKind::kProject) {
    d.project = static_cast<const ProjectNode*>(cur);
    cur = cur->children()[0].get();
  }
  if (cur->kind() == OpKind::kFilter) {
    d.filter = static_cast<const FilterNode*>(cur);
    cur = cur->children()[0].get();
  }
  d.core = cur;
  return d;
}

namespace {

/// The input template names under `node`, sorted and distinct, in one
/// post-order walk. When `keys` is non-null it also collects the table-set
/// key of every reusable subgraph under `node`.
std::set<std::string> TablesUnder(const PlanNode& node,
                                  std::set<Hash128>* keys) {
  std::set<std::string> tables;
  if (node.kind() == OpKind::kExtract) {
    tables.insert(static_cast<const ExtractNode&>(node).template_name());
  } else if (node.kind() == OpKind::kViewRead) {
    // A prior rewrite's view scan: its input tables are not visible here.
    // Tag it distinctly so such subtrees only table-set-match each other.
    tables.insert("view:" +
                  static_cast<const ViewReadNode&>(node).view_path());
  } else {
    for (const auto& c : node.children()) {
      std::set<std::string> below = TablesUnder(*c, keys);
      tables.merge(below);
    }
  }
  if (keys != nullptr && IsReusableRoot(node)) {
    keys->insert(TableSetKey({tables.begin(), tables.end()}));
  }
  return tables;
}

}  // namespace

Hash128 TableSetKey(const std::vector<std::string>& sorted_tables) {
  HashBuilder hb;
  hb.Add(static_cast<uint64_t>(sorted_tables.size()));
  for (const auto& t : sorted_tables) hb.Add(std::string_view(t));
  return hb.Finish();
}

ViewFeatures ComputeViewFeatures(const PlanNode& root) {
  ViewFeatures f;
  std::set<std::string> tables = TablesUnder(root, nullptr);
  f.tables.assign(tables.begin(), tables.end());
  f.table_set_key = TableSetKey(f.tables);
  for (const auto& field : root.output_schema().fields()) {
    f.output_columns.push_back(field.name);
  }
  CapDecomposition d = DecomposeCap(root);
  if (d.aggregate != nullptr) {
    f.has_aggregate = true;
    f.group_by = d.aggregate->group_keys();
  }
  if (d.filter != nullptr) {
    f.predicate = ComputePredicateFeatures(d.filter->predicate());
  }
  f.core_normalized = d.core->SubtreeHash(SignatureMode::kNormalized);
  f.core_precise = d.core->SubtreeHash(SignatureMode::kPrecise);
  return f;
}

std::vector<Hash128> CollectTableSetKeys(const PlanNodePtr& root) {
  std::set<Hash128> keys;
  TablesUnder(*root, &keys);
  return {keys.begin(), keys.end()};
}

}  // namespace cloudviews
