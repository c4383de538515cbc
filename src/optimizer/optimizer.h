#ifndef CLOUDVIEWS_OPTIMIZER_OPTIMIZER_H_
#define CLOUDVIEWS_OPTIMIZER_OPTIMIZER_H_

#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "optimizer/cost_model.h"
#include "optimizer/job_counters.h"
#include "optimizer/physical_planner.h"
#include "optimizer/view_interfaces.h"
#include "optimizer/view_rewriter.h"
#include "plan/plan_node.h"

namespace cloudviews {

namespace obs {
class Span;
}  // namespace obs

struct OptimizerConfig {
  /// Logical rewrites (filter pushdown etc.) on/off — ablation knob.
  bool enable_logical_rewrites = true;
  /// Per-job cap on online view materializations; "could be changed by the
  /// user via a job submission parameter" (Sec 6.2).
  int max_materialized_views_per_job = 1;
  /// Skip materializing a view whose estimated write cost exceeds this
  /// fraction of the job's own cost (0 disables the gate). Keeps cheap
  /// jobs from paying for expensive views; a larger job builds them.
  double max_materialize_cost_fraction = 1.0;
  /// Containment matching (tiers 1-3 of the staged CandidateMatcher) on
  /// exact-probe misses — ablation knob; false restores exact-only reuse.
  bool enable_containment_matching = true;
};

/// Everything the optimizer consults for one compilation.
struct OptimizeContext {
  /// Compile-time statistics for input streams; may be null.
  const StorageManager* storage = nullptr;
  /// Prior-run statistics (the feedback loop); may be null.
  const StatsProviderInterface* feedback = nullptr;
  /// Metadata service view; null disables CloudViews entirely.
  ViewCatalogInterface* view_catalog = nullptr;
  /// Annotations relevant to this job, keyed by normalized signature: the
  /// result of the job's one metadata lookup.
  AnnotationIndex annotations;
  uint64_t job_id = 0;
  /// Parent trace span (usually the job's "optimize" stage); when non-null
  /// the optimizer nests one child span per phase under it. Null disables
  /// tracing.
  obs::Span* span = nullptr;
  /// Wall-time source for optimize_seconds.
  MonotonicClock* clock = MonotonicClock::Real();
  /// When non-null, Optimize deposits a clone of the logically-rewritten
  /// (pre-physical) tree here — the plan *skeleton* the plan cache stores
  /// so later occurrences of the template skip the logical rewrites.
  PlanNodePtr* skeleton_out = nullptr;
};

/// A compiled plan plus the rewrite counters of the compile that produced
/// it: the reuse and materialization passes write their JobCounters rows
/// (views_reused through compensation_nodes_added) directly into this
/// block. Every row is zero for plans served from the plan cache, and the
/// containment funnel for exact-only compiles; the runtime rows stay zero.
struct OptimizedPlan : JobCounters {
  PlanNodePtr root;
  double estimated_cost = 0;
  /// (normalized, precise) signature of every lock-denied materialization
  /// proposal — the work-sharing piggyback layer waits on these builders
  /// and re-optimizes once their views register.
  std::vector<std::pair<Hash128, Hash128>> lock_denied_signatures;
  /// Wall time spent optimizing (reported in the overheads study, Sec 7.3).
  double optimize_seconds = 0;
};

/// \brief The query optimizer: logical rewrites, physical planning, and the
/// CloudViews reuse / online-materialization tasks (Fig 10).
class Optimizer {
 public:
  explicit Optimizer(OptimizerConfig config = {}) : config_(config) {}

  const OptimizerConfig& config() const { return config_; }

  /// Compiles a logical plan into an executable physical plan. The input
  /// tree is not modified (it is cloned internally). The result is bound
  /// and has node ids assigned.
  Result<OptimizedPlan> Optimize(const PlanNodePtr& logical,
                                 const OptimizeContext& ctx) const;

  /// Recurring-job fast path: compiles a cached logical *skeleton* (already
  /// logically rewritten; `{param}` holes already rebound to the new
  /// instance). Physical planning and the reuse/materialization passes run
  /// fresh against current statistics and the current view catalog, so the
  /// result is identical to a full Optimize of the same instance — only
  /// the logical rewrites are skipped (and no `logical_rewrite` span is
  /// emitted). Takes ownership of `skeleton`; pass a private clone.
  Result<OptimizedPlan> OptimizeFromSkeleton(PlanNodePtr skeleton,
                                             const OptimizeContext& ctx) const;

  /// Recurring-job fastest path: finishes a fully optimized physical plan
  /// served from the plan cache — bind, re-annotate costs with current
  /// statistics, assign node ids. No rewrite phases run; the caller has
  /// already validated the plan against the catalog epoch. Takes ownership
  /// of `root`; pass a private clone.
  Result<OptimizedPlan> FinishCachedPlan(PlanNodePtr root,
                                         const OptimizeContext& ctx) const;

 private:
  /// Phases 2..5 shared by Optimize and OptimizeFromSkeleton: physical
  /// planning, the view-reuse pass, and the materialization pass.
  Result<OptimizedPlan> PlanPhysical(PlanNodePtr root,
                                     const OptimizeContext& ctx,
                                     obs::Span* parent, double start) const;

  OptimizerConfig config_;
  CostModel cost_model_;
  PhysicalPlanner physical_planner_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_OPTIMIZER_H_
