#ifndef CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_
#define CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_

#include "optimizer/view_interfaces.h"
#include "plan/plan_node.h"
#include "storage/storage_manager.h"

namespace cloudviews {

/// \brief Cardinality / size / cost estimation over a plan tree.
///
/// Selectivity heuristics are intentionally crude (the paper's point is
/// that optimizer estimates "are often way off", Sec 5.1); when a
/// StatsProviderInterface is supplied, per-subgraph observed statistics
/// override the estimates — that is the CloudViews feedback loop.
class CostModel {
 public:
  /// Degree of parallelism assumed for partitioned stages: local work is
  /// divided by min(kDefaultDop, partition count).
  static constexpr int kDefaultDop = 16;

  /// Annotates every node's NodeEstimates (rows, bytes, cumulative cost),
  /// bottom-up. `feedback` and `storage` may be null; storage supplies
  /// compile-time input-stream statistics for Extract nodes.
  void Annotate(PlanNode* root, const StatsProviderInterface* feedback,
                const StorageManager* storage) const;

  /// Estimated selectivity of a predicate (heuristic).
  static double PredicateSelectivity(const Expr& predicate);

  /// Cost of scanning a materialized view with the given size, as used by
  /// the reuse decision.
  double ViewReadCost(double rows, double bytes) const;

  /// Cost of writing a view of the given size, before enforcing its
  /// physical design; the materialization cost gate uses it.
  double ViewWriteCost(double rows, double bytes) const;

  /// Cost of this operator alone given total child output rows/bytes
  /// (children estimates must already be annotated).
  double LocalCost(const PlanNode& node, double input_rows,
                   double input_bytes) const;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_
