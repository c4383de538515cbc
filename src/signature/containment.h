#ifndef CLOUDVIEWS_SIGNATURE_CONTAINMENT_H_
#define CLOUDVIEWS_SIGNATURE_CONTAINMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "plan/plan_node.h"
#include "types/value.h"

namespace cloudviews {

/// \file
/// Feature vectors and structural decomposition for containment-based view
/// matching (the tier-1/tier-2 stages of the staged CandidateMatcher; see
/// DESIGN.md "Containment-based reuse"). Everything here is pure
/// read-only analysis of plan subtrees — the compensation rewrite itself
/// lives in src/optimizer/view_matcher.cc.

/// \brief The value range a conjunction of comparisons admits for one
/// column. Missing bounds are infinite.
struct ColumnInterval {
  std::string column;
  bool has_lower = false;
  bool has_upper = false;
  bool lower_inclusive = false;
  bool upper_inclusive = false;
  Value lower;
  Value upper;

  /// Tightens this interval with another bound of the same column.
  void IntersectLower(const Value& v, bool inclusive);
  void IntersectUpper(const Value& v, bool inclusive);

  /// True if every value admitted by `inner` is admitted by this interval
  /// (this is the "view predicate is weaker" direction). Bounds compare
  /// with Value::Compare, so mixed numeric types are fine.
  bool Contains(const ColumnInterval& inner) const;
};

/// \brief A filter predicate split into per-column intervals plus the
/// conjuncts the interval analysis cannot interpret.
///
/// A conjunct `col <op> literal` (or reversed) with op in {=, <, <=, >, >=}
/// and a non-null constant becomes an interval bound; everything else —
/// OR trees, column-to-column comparisons, UDFs, null constants — is
/// *opaque* and can only be matched by exact precise-hash equality.
/// Because a comparison evaluates to NULL when its column is NULL (and the
/// filter drops non-true rows), an interval bound on a column also implies
/// the predicate is NULL-filtering on that column; containment therefore
/// requires the query to constrain every column the view constrains.
struct PredicateFeatures {
  std::vector<ColumnInterval> intervals;  // sorted by column name
  std::vector<Hash128> opaque;            // precise hashes, sorted
  /// Precise hashes of *all* top-level conjuncts (interval + opaque),
  /// sorted. Used to decide which query conjuncts the view already
  /// applied (they need no residual filter).
  std::vector<Hash128> conjuncts;

  const ColumnInterval* FindInterval(const std::string& column) const;

  /// True if this predicate (the view's) admits every row the `query`
  /// predicate admits: every view interval contains the query interval on
  /// the same column, and every opaque view conjunct appears verbatim
  /// (precise-hash) among the query's conjuncts.
  bool Contains(const PredicateFeatures& query) const;
};

/// Flattens a predicate's top-level AND tree into conjuncts.
void FlattenConjuncts(const ExprPtr& predicate, std::vector<ExprPtr>* out);

/// Standalone precise hash of one expression.
Hash128 ExprPreciseHash(const Expr& e);

/// True if the expression's value can differ between recurring instances
/// of one template: a ParameterExpr or a date literal anywhere below
/// (normalized signatures abstract both). Structural (template-level)
/// expression matching is only sound for exprs that do not vary, and the
/// plan cache gives a template whose predicates vary no skeleton tier.
/// Null children are skipped.
bool VariesByInstance(const Expr& e);

/// Computes predicate features for a (possibly null) filter predicate.
PredicateFeatures ComputePredicateFeatures(const ExprPtr& predicate);

/// \brief A subgraph decomposed as cap ops over a core subtree:
///
///   [Aggregate] -> (enforcers) -> [Project] -> [Filter] -> core
///
/// Each cap op is optional; Exchange/Sort enforcers directly below an
/// Aggregate are skipped (they only redistribute/reorder the aggregate's
/// input multiset, which a hash re-aggregation is insensitive to). When no
/// cap op is present the core is the whole subtree and only the exact
/// tier can match.
struct CapDecomposition {
  const AggregateNode* aggregate = nullptr;
  const ProjectNode* project = nullptr;
  const FilterNode* filter = nullptr;
  const PlanNode* core = nullptr;

  bool HasCap() const {
    return aggregate != nullptr || project != nullptr || filter != nullptr;
  }
};

CapDecomposition DecomposeCap(const PlanNode& root);

/// \brief Compact feature vector of one view / subgraph for cheap tier-1
/// candidate filtering and per-instance containment checks (tier 2.5).
///
/// At the *annotation* level (computed from the definition skeleton) only
/// the instance-independent fields are meaningful: table_set_key, output
/// columns, group-by set, interval column set, core_normalized. At the
/// *instance* level (computed from the producer's spool subtree when the
/// view is registered) the interval bounds, opaque hashes, and
/// core_precise are concrete.
struct ViewFeatures {
  /// Hash of the sorted distinct input template names under the subtree;
  /// candidate enumeration is indexed by this key so it never scans the
  /// full catalog.
  Hash128 table_set_key;
  std::vector<std::string> tables;  // sorted distinct template names

  /// Output column names of the subtree root, in schema order.
  std::vector<std::string> output_columns;

  bool has_aggregate = false;
  std::vector<std::string> group_by;  // cap aggregate keys ({} if none)

  /// Cap filter features; empty when the cap has no Filter (the view then
  /// admits every core row).
  PredicateFeatures predicate;

  Hash128 core_normalized;
  Hash128 core_precise;
};

/// Computes the feature vector of the subtree rooted at `root`. Works on
/// bound and unbound trees (output columns come from output_schema(), so
/// the tree must at least derive schemas — every analyzer/runtime call
/// site passes bound trees).
ViewFeatures ComputeViewFeatures(const PlanNode& root);

/// Hash of a sorted distinct table-name set (the ViewFeatures
/// table_set_key construction, exposed for index probes).
Hash128 TableSetKey(const std::vector<std::string>& sorted_tables);

/// Collects the distinct table-set keys of every reuse-candidate subgraph
/// in the plan (one key per distinct input-template set, in one post-order
/// walk). The job's metadata lookup passes them so the containment
/// candidates relevant to the job arrive without enumerating the catalog.
std::vector<Hash128> CollectTableSetKeys(const PlanNodePtr& root);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_SIGNATURE_CONTAINMENT_H_
