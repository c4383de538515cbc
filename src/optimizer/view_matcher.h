#ifndef CLOUDVIEWS_OPTIMIZER_VIEW_MATCHER_H_
#define CLOUDVIEWS_OPTIMIZER_VIEW_MATCHER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "optimizer/cost_model.h"
#include "optimizer/job_counters.h"
#include "optimizer/view_interfaces.h"
#include "plan/plan_node.h"
#include "signature/containment.h"

namespace cloudviews {

/// \brief Tiers 1-3 of the staged view-matching pipeline (tier 0 — the
/// exact normalized/precise hash probe — stays in ViewRewriter).
///
///   tier 1   feature filter: table-set-key bucket lookup, aggregate /
///            group-by compatibility, predicate-column feasibility
///   tier 2   structural verification against the annotation's definition
///            skeleton: core equality, projection / aggregate mapping
///   tier 2.5 instance resolution: a live materialized instance with the
///            same core precise signature (one catalog probe keyed by
///            template and core) whose predicate contains the query's
///            (interval containment + opaque-conjunct equality)
///   tier 3   compensation plan: residual Filter, re-aggregation over the
///            coarser group-by (SUM/COUNT/MIN/MAX; AVG as SUM/COUNT), and
///            a final Project reproducing the replaced subtree's schema
///
/// Byte-identity discipline (see DESIGN.md "Containment-based reuse"):
/// the core must match by *precise* hash, so the view scans exactly the
/// rows the query would have computed; row-wise compensation (Filter /
/// Project) preserves row order exactly; re-aggregation may reorder
/// groups, so aggregate compensation is only applied when an ancestor
/// Sort provably makes group order immaterial; SUM/AVG decomposition is
/// restricted to int64 arguments (float addition is not associative).
class CandidateMatcher {
 public:
  /// `annotations` / `catalog` / `cost_model` / `counters` must outlive
  /// the matcher, which adds its funnel (candidates_filtered through
  /// compensation_nodes_added) and cost rejections into `counters`.
  /// `parent_span` (may be null) hosts the lazily-created
  /// `containment_verify` child span — it is only created when at least
  /// one candidate reaches tier 2, so exact-only jobs keep their span
  /// tree byte-identical to tier-0-only builds.
  CandidateMatcher(const AnnotationIndex& annotations,
                   ViewCatalogInterface* catalog, const CostModel* cost_model,
                   JobCounters* counters, obs::Span* parent_span);

  /// True when any annotation carries containment features; when false the
  /// rewriter skips the containment path entirely.
  bool has_candidates() const { return !buckets_.empty(); }

  /// Attempts a containment match for `node` (whose exact probe already
  /// missed). `ancestors` is the node's root-to-parent ancestor chain,
  /// used by the order-safety gate for aggregate compensation.
  /// `node_normalized` is the node's already-computed normalized hash.
  /// On success returns the bound compensation subtree (schema-identical
  /// to `node`); on failure returns null. Matches discarded by the cost
  /// model count as reuse_rejected_by_cost.
  PlanNodePtr TryContainment(const PlanNodePtr& node,
                             const Hash128& node_normalized,
                             const std::vector<const PlanNode*>& ancestors);

  /// Ends the containment_verify span (if one was opened), stamping the
  /// funnel rows of `counters` as attributes. Called once after the reuse
  /// walk.
  void FinishSpan();

 private:
  struct ViewSide;  // per-candidate structural analysis (view_matcher.cc)

  PlanNodePtr TryCandidate(const PlanNodePtr& node, const ViewAnnotation& ann,
                           const std::vector<const PlanNode*>& ancestors,
                           const CapDecomposition& qcap,
                           const ViewFeatures& qf);

  std::unordered_map<Hash128, std::vector<const ViewAnnotation*>,
                     Hash128Hasher>
      buckets_;
  ViewCatalogInterface* catalog_;
  const CostModel* cost_model_;
  JobCounters* counters_;
  obs::Span* parent_span_;
  obs::Span verify_span_;  // inactive until the first tier-2 entry
  bool span_opened_ = false;
};

/// True when output row order at a node is provably immaterial: walking
/// the ancestor chain upward crosses only order-preserving row-wise ops
/// (Filter, Exchange, and Projects that pass every `cols` column through
/// by identity) until a Sort whose key set covers `cols`. Rows unique on
/// `cols` then have a total sort order, so any reordering below the Sort
/// cannot change bytes. Exposed for unit tests.
bool OrderImmaterialAbove(const std::vector<const PlanNode*>& ancestors,
                          const std::vector<std::string>& cols);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_VIEW_MATCHER_H_
