#ifndef CLOUDVIEWS_OPTIMIZER_VIEW_REWRITER_H_
#define CLOUDVIEWS_OPTIMIZER_VIEW_REWRITER_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "optimizer/cost_model.h"
#include "optimizer/view_interfaces.h"
#include "optimizer/view_matcher.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// Hands back the build lock of every Spool under `root` that `job_id`
/// holds (idempotent per lock; a null `catalog` holds none). Whoever
/// discards a plan that carries locks calls this.
void AbandonSpoolLocks(const PlanNodePtr& root, uint64_t job_id,
                       ViewCatalogInterface* catalog);

/// \brief Implements the two view tasks of Fig 10.
///
/// *Reuse* (upper half): top-down, largest-first matching of normalized
/// signatures, precise-signature confirmation against the metadata service,
/// and a cost-based decision to read the materialized view instead of
/// recomputing. *Materialization* (lower half): bottom-up matching,
/// propose-to-materialize locking, and Spool insertion with a per-job
/// limit.
class ViewRewriter {
 public:
  ViewRewriter(const CostModel* cost_model, ViewCatalogInterface* catalog)
      : cost_model_(cost_model), catalog_(catalog) {}

  struct ReuseOptions {
    /// When false only the exact tier-0 hash probe runs (the pre-staged
    /// behavior).
    bool enable_containment = true;
    /// Hosts the lazily-created containment_verify span; may be null.
    obs::Span* parent_span = nullptr;
  };

  /// Replaces matching, already-materialized subgraphs with ViewRead scans:
  /// tier 0 is the exact normalized+precise hash probe; on a miss the
  /// staged CandidateMatcher tries containment with a compensation plan.
  /// The plan must be bound with estimates annotated. Returns the (possibly
  /// new) root; the caller re-binds and repairs physical properties.
  /// Adds views_reused (exact plus subsumed), reuse_rejected_by_cost (from
  /// either tier) and the containment funnel into `counters`.
  PlanNodePtr ApplyReuse(PlanNodePtr root, const AnnotationIndex& annotations,
                         JobCounters* counters, const ReuseOptions& options);
  /// Default-options overload (an in-class `= ReuseOptions{}` default would
  /// need the nested type complete at the declaration).
  PlanNodePtr ApplyReuse(PlanNodePtr root, const AnnotationIndex& annotations,
                         JobCounters* counters) {
    return ApplyReuse(std::move(root), annotations, counters, ReuseOptions{});
  }

  /// Wraps matching, not-yet-materialized subgraphs in Spool nodes (after
  /// winning the metadata-service lock). Bottom-up, smaller views first,
  /// at most `max_per_job` spools (Sec 6.2). `job_cost` is the estimated
  /// cost of the whole job; a spool whose write cost exceeds
  /// `max_cost_fraction` of it is skipped (Sec 4: the optimizer may deem a
  /// view too expensive; a later, larger job builds it). Adds
  /// views_materialized, materialize_lock_denied (another job holds the
  /// build lock) and materialize_skipped_by_cost into `counters`, and
  /// appends every denied proposal to `lock_denied`, in plan order — the
  /// piggyback layer waits on these builders (work sharing).
  PlanNodePtr ApplyMaterialization(PlanNodePtr root,
                                   const AnnotationIndex& annotations,
                                   uint64_t job_id, int max_per_job,
                                   double job_cost,
                                   double max_cost_fraction,
                                   JobCounters* counters,
                                   std::vector<std::pair<Hash128, Hash128>>*
                                       lock_denied);

 private:
  PlanNodePtr ReuseInternal(PlanNodePtr node,
                            const AnnotationIndex& annotations,
                            JobCounters* counters, CandidateMatcher* matcher,
                            std::vector<const PlanNode*>* ancestors);
  PlanNodePtr MaterializeInternal(PlanNodePtr node,
                                  const AnnotationIndex& annotations,
                                  uint64_t job_id, double max_spool_cost,
                                  int* budget, JobCounters* counters,
                                  std::vector<std::pair<Hash128, Hash128>>*
                                      lock_denied);

  const CostModel* cost_model_;
  ViewCatalogInterface* catalog_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_VIEW_REWRITER_H_
