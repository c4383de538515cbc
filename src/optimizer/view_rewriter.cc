#include "optimizer/view_rewriter.h"

#include <memory>

#include "signature/signature.h"
#include "storage/storage_manager.h"

namespace cloudviews {

void AbandonSpoolLocks(const PlanNodePtr& root, uint64_t job_id,
                       ViewCatalogInterface* catalog) {
  if (catalog == nullptr || root == nullptr) return;
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kSpool) {
      catalog->AbandonLock(static_cast<SpoolNode*>(n)->precise_signature(),
                           job_id);
    }
  }
}

PlanNodePtr ViewRewriter::ApplyReuse(PlanNodePtr root,
                                     const AnnotationIndex& annotations,
                                     JobCounters* counters,
                                     const ReuseOptions& options) {
  if (annotations.empty() || catalog_ == nullptr) return root;
  std::unique_ptr<CandidateMatcher> matcher;
  if (options.enable_containment) {
    matcher = std::make_unique<CandidateMatcher>(
        annotations, catalog_, cost_model_, counters, options.parent_span);
    if (!matcher->has_candidates()) matcher.reset();
  }
  std::vector<const PlanNode*> ancestors;
  root = ReuseInternal(std::move(root), annotations, counters, matcher.get(),
                       &ancestors);
  if (matcher != nullptr) matcher->FinishSpan();
  return root;
}

PlanNodePtr ViewRewriter::ReuseInternal(
    PlanNodePtr node, const AnnotationIndex& annotations,
    JobCounters* counters, CandidateMatcher* matcher,
    std::vector<const PlanNode*>* ancestors) {
  // Top-down: try the largest subgraph first (Sec 6.3).
  if (IsReusableRoot(*node) && node->kind() != OpKind::kOutput) {
    Hash128 normalized = node->SubtreeHash(SignatureMode::kNormalized);
    auto it = annotations.find(normalized);
    if (it != annotations.end()) {
      Hash128 precise = node->SubtreeHash(SignatureMode::kPrecise);
      auto view = catalog_->FindMaterialized(normalized, precise);
      if (view.has_value()) {
        // Cost-based acceptance: reading the view must beat recomputing
        // the subtree (the optimizer may discard an expensive view,
        // Sec 4 requirement 4). View scans parallelize like any other
        // partitioned stage, so compare at the same DOP as subtree costs.
        double read_cost =
            cost_model_->ViewReadCost(view->rows, view->bytes) /
            CostModel::kDefaultDop;
        double compute_cost = node->estimates().cost;
        if (read_cost < compute_cost) {
          // compensation: none — exact tier-0 match; the view read alone
          // reproduces the subtree byte-for-byte.
          auto replacement = std::make_shared<ViewReadNode>(
              view->path, normalized, precise, node->output_schema(),
              view->design, view->rows, view->bytes);
          Status st = replacement->Bind();
          if (st.ok()) {
            ++counters->views_reused;
            return replacement;
          }
        } else {
          ++counters->reuse_rejected_by_cost;
        }
      }
    }
    // Tier 0 missed: try the staged containment matcher (tiers 1-3).
    if (matcher != nullptr) {
      PlanNodePtr compensated =
          matcher->TryContainment(node, normalized, *ancestors);
      if (compensated != nullptr) {
        ++counters->views_reused;
        return compensated;
      }
    }
  }
  ancestors->push_back(node.get());
  for (auto& c : node->mutable_children()) {
    c = ReuseInternal(c, annotations, counters, matcher, ancestors);
  }
  ancestors->pop_back();
  return node;
}

PlanNodePtr ViewRewriter::ApplyMaterialization(
    PlanNodePtr root, const AnnotationIndex& annotations, uint64_t job_id,
    int max_per_job, double job_cost, double max_cost_fraction,
    JobCounters* counters,
    std::vector<std::pair<Hash128, Hash128>>* lock_denied) {
  if (annotations.empty() || catalog_ == nullptr || max_per_job <= 0) {
    return root;
  }
  int budget = max_per_job;
  double max_spool_cost = max_cost_fraction > 0 && job_cost > 0
                              ? max_cost_fraction * job_cost
                              : 0;  // 0 = no gate
  return MaterializeInternal(std::move(root), annotations, job_id,
                             max_spool_cost, &budget, counters, lock_denied);
}

PlanNodePtr ViewRewriter::MaterializeInternal(
    PlanNodePtr node, const AnnotationIndex& annotations, uint64_t job_id,
    double max_spool_cost, int* budget, JobCounters* counters,
    std::vector<std::pair<Hash128, Hash128>>* lock_denied) {
  // Bottom-up: smaller views first, as they typically have more overlaps
  // (Sec 6.2).
  for (auto& c : node->mutable_children()) {
    c = MaterializeInternal(c, annotations, job_id, max_spool_cost, budget,
                            counters, lock_denied);
  }
  if (*budget <= 0) return node;
  if (!IsReusableRoot(*node) || node->kind() == OpKind::kOutput) return node;
  // Never spool a bare input scan: that would only copy the input.
  if (node->kind() == OpKind::kExtract) return node;

  Hash128 normalized = node->SubtreeHash(SignatureMode::kNormalized);
  auto it = annotations.find(normalized);
  if (it == annotations.end()) return node;
  const ViewAnnotation& ann = it->second;
  if (ann.offline) return node;  // built by a dedicated offline job instead

  // Cost gate: don't let a cheap job pay for an expensive view build; a
  // later job containing the same computation will build it instead.
  if (max_spool_cost > 0) {
    double rows = node->estimates().rows;
    double bytes = node->estimates().bytes;
    double spool_cost =
        cost_model_->ViewWriteCost(rows, bytes) / CostModel::kDefaultDop;
    if (spool_cost > max_spool_cost) {
      ++counters->materialize_skipped_by_cost;
      return node;
    }
  }

  Hash128 precise = node->SubtreeHash(SignatureMode::kPrecise);
  if (catalog_->FindMaterialized(normalized, precise).has_value()) {
    // Already available: the reuse pass either used it or rejected it on
    // cost; re-materializing would be pure waste.
    return node;
  }
  if (!catalog_->ProposeMaterialize(normalized, precise, job_id,
                                    ann.avg_runtime_seconds)) {
    ++counters->materialize_lock_denied;
    lock_denied->emplace_back(normalized, precise);
    return node;
  }
  std::string path = EncodeViewPath(normalized, precise, job_id);
  // compensation: none — Spool is a materialization side-effect wrapper,
  // not a compensation operator; it passes its input through unchanged.
  auto spool = std::make_shared<SpoolNode>(node, path, normalized, precise,
                                           ann.design);
  spool->set_lifetime_seconds(ann.lifetime_seconds);
  --*budget;
  ++counters->views_materialized;
  return spool;
}

}  // namespace cloudviews
