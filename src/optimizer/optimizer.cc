#include "optimizer/optimizer.h"

#include "common/clock.h"
#include "obs/trace.h"
#include "optimizer/rules.h"

namespace cloudviews {

Result<OptimizedPlan> Optimizer::Optimize(const PlanNodePtr& logical,
                                          const OptimizeContext& ctx) const {
  double start = ctx.clock->NowSeconds();
  // With no parent span the local inactive one makes every StartChild /
  // SetAttribute below a no-op.
  obs::Span inactive;
  obs::Span* parent = ctx.span != nullptr ? ctx.span : &inactive;

  PlanNodePtr root = logical->Clone();
  CV_RETURN_NOT_OK(root->Bind());

  // 1. Logical rewrites (deterministic, so recurring instances compile to
  //    identical trees).
  if (config_.enable_logical_rewrites) {
    obs::Span span = parent->StartChild("logical_rewrite");
    root = MergeAdjacentFilters(std::move(root));
    root = PushDownFilters(std::move(root));
    CV_RETURN_NOT_OK(root->Bind());
  }

  // The tree at this point is the catalog-independent template skeleton:
  // everything from here on depends on current statistics and the current
  // view catalog, everything up to here only on the job script.
  if (ctx.skeleton_out != nullptr) {
    *ctx.skeleton_out = root->Clone();
  }

  return PlanPhysical(std::move(root), ctx, parent, start);
}

Result<OptimizedPlan> Optimizer::OptimizeFromSkeleton(
    PlanNodePtr skeleton, const OptimizeContext& ctx) const {
  double start = ctx.clock->NowSeconds();
  obs::Span inactive;
  obs::Span* parent = ctx.span != nullptr ? ctx.span : &inactive;

  // The skeleton was captured after the logical rewrites of a previous
  // occurrence; rebinding `{param}` holes cannot invalidate schemas, but
  // Bind re-derives them for the new instance anyway.
  CV_RETURN_NOT_OK(skeleton->Bind());
  return PlanPhysical(std::move(skeleton), ctx, parent, start);
}

Result<OptimizedPlan> Optimizer::FinishCachedPlan(
    PlanNodePtr root, const OptimizeContext& ctx) const {
  double start = ctx.clock->NowSeconds();

  CV_RETURN_NOT_OK(root->Bind());
  // Costs are advisory at this point (the plan shape is fixed), but
  // re-annotating keeps estimated_cost and the explain output consistent
  // with what a fresh compile would report.
  cost_model_.Annotate(root.get(), ctx.feedback, ctx.storage);
  AssignNodeIds(root.get());

  OptimizedPlan out;
  out.root = std::move(root);
  out.estimated_cost = out.root->estimates().cost;
  out.optimize_seconds = ctx.clock->NowSeconds() - start;
  return out;
}

Result<OptimizedPlan> Optimizer::PlanPhysical(PlanNodePtr root,
                                              const OptimizeContext& ctx,
                                              obs::Span* parent,
                                              double start) const {
  // 2. Physical planning: algorithms + property enforcers. Signatures are
  //    computed over this physical tree, mirroring SCOPE plan fingerprints.
  //    Cost annotation (the feedback loop) rides in the same phase.
  {
    obs::Span span = parent->StartChild("physical_plan");
    CV_ASSIGN_OR_RETURN(root, physical_planner_.Plan(std::move(root)));
    root = RemoveRedundantEnforcers(std::move(root));
    CV_RETURN_NOT_OK(root->Bind());
    cost_model_.Annotate(root.get(), ctx.feedback, ctx.storage);
  }

  OptimizedPlan out;
  ViewRewriter rewriter(&cost_model_, ctx.view_catalog);

  // 4. Reuse pass first (Fig 10): never materialize what can be read.
  {
    obs::Span span = parent->StartChild("reuse");
    ViewRewriter::ReuseOptions reuse_options;
    reuse_options.enable_containment = config_.enable_containment_matching;
    reuse_options.parent_span = &span;
    root = rewriter.ApplyReuse(std::move(root), ctx.annotations, &out,
                               reuse_options);
    CV_RETURN_NOT_OK(root->Bind());
    if (out.views_reused > 0) {
      // A substituted view may not deliver the properties its parent
      // needs; add the extra partitioning/sorting (Sec 7.1 factor iii).
      CV_ASSIGN_OR_RETURN(
          root, physical_planner_.RepairProperties(std::move(root)));
      // Re-annotate: actual view statistics now propagate up the tree
      // (Sec 6.3).
      cost_model_.Annotate(root.get(), ctx.feedback, ctx.storage);
    }
    span.SetAttribute("views_reused", static_cast<int64_t>(out.views_reused));
    span.SetAttribute("rejected_by_cost",
                      static_cast<int64_t>(out.reuse_rejected_by_cost));
    // Only stamp funnel attributes when the containment tiers actually
    // ran, so exact-only compiles keep a byte-identical span tree.
    if (out.candidates_filtered > 0) {
      span.SetAttribute("views_reused_subsumed",
                        static_cast<int64_t>(out.views_reused_subsumed));
    }
  }

  // 5. Follow-up optimization: propose online materializations (Fig 10,
  //    lower half), then final annotation & ids.
  {
    obs::Span span = parent->StartChild("materialize");
    root = rewriter.ApplyMaterialization(
        std::move(root), ctx.annotations, ctx.job_id,
        config_.max_materialized_views_per_job, root->estimates().cost,
        config_.max_materialize_cost_fraction, &out,
        &out.lock_denied_signatures);
    Status bound = root->Bind();
    if (!bound.ok()) {
      // The plan now carries build locks taken by ApplyMaterialization;
      // if it is discarded here they would leak until lease expiry.
      // Release them before surfacing the error.
      AbandonSpoolLocks(root, ctx.job_id, ctx.view_catalog);
      return bound;
    }
    cost_model_.Annotate(root.get(), ctx.feedback, ctx.storage);
    AssignNodeIds(root.get());
    span.SetAttribute("views_materialized",
                      static_cast<int64_t>(out.views_materialized));
    span.SetAttribute("lock_denied",
                      static_cast<int64_t>(out.materialize_lock_denied));
    span.SetAttribute("skipped_by_cost",
                      static_cast<int64_t>(out.materialize_skipped_by_cost));
  }

  out.root = std::move(root);
  out.estimated_cost = out.root->estimates().cost;
  out.optimize_seconds = ctx.clock->NowSeconds() - start;
  return out;
}

}  // namespace cloudviews
