#ifndef CLOUDVIEWS_OPTIMIZER_PHYSICAL_PLANNER_H_
#define CLOUDVIEWS_OPTIMIZER_PHYSICAL_PLANNER_H_

#include "common/result.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// \brief Turns a logical tree into an executable physical tree.
///
/// Deterministically (1) picks join / aggregate algorithms from the
/// children's delivered properties (merge/stream when sorted inputs are
/// already available, hash otherwise), and (2) inserts Exchange / Sort
/// enforcers wherever a child does not deliver its parent's required
/// properties. Determinism matters: recurring instances must compile to
/// identical trees for signatures to match (Sec 3).
class PhysicalPlanner {
 public:
  /// The input must be bound; the output is re-bound.
  Result<PlanNodePtr> Plan(PlanNodePtr root) const;

  /// Re-runs only the enforcer-insertion step; used after view substitution
  /// when a ViewRead's delivered design may not satisfy its parent
  /// (Sec 7.1, factor (iii): extra partitioning/sorting for views).
  Result<PlanNodePtr> RepairProperties(PlanNodePtr root) const;

 private:
  PlanNodePtr ChooseAlgorithms(PlanNodePtr node) const;
  PlanNodePtr InsertEnforcers(PlanNodePtr node) const;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_PHYSICAL_PLANNER_H_
