#include "runtime/plan_cache.h"

#include "expr/aggregate.h"
#include "expr/expr.h"
#include "signature/containment.h"

namespace cloudviews {

PlanCache::PlanCache(size_t capacity, obs::MetricsRegistry* metrics)
    : capacity_(capacity == 0 ? 1 : capacity) {
  metrics = obs::SharedOrOwned(metrics, &own_metrics_);
  obs_.hits_full = metrics->GetCounter(
      "cv_plan_cache_hits_full_total", {},
      "Plan-cache probes served the fully optimized physical plan (metadata "
      "lookup and the whole optimizer skipped)");
  obs_.hits_skeleton = metrics->GetCounter(
      "cv_plan_cache_hits_skeleton_total", {},
      "Plan-cache probes served the logical skeleton (logical rewrites "
      "skipped; physical + view passes re-run)");
  obs_.misses = metrics->GetCounter("cv_plan_cache_misses_total", {},
                                    "Plan-cache probes that found no entry "
                                    "for the template");
  obs_.epoch_invalidations = metrics->GetCounter(
      "cv_plan_cache_epoch_invalidations_total", {},
      "Cached rewritten plans not served because the catalog epoch moved "
      "(a view was registered, purged, or lock-flipped since compile)");
  obs_.precise_mismatches = metrics->GetCounter(
      "cv_plan_cache_precise_mismatches_total", {},
      "Cached rewritten plans not served because they were compiled for "
      "another instance of the template (precise signature differs at the "
      "current catalog epoch)");
  obs_.demotions = metrics->GetCounter(
      "cv_plan_cache_demotions_total", {},
      "Full-hit candidates demoted to the skeleton tier because a view "
      "they read was no longer live");
  obs_.rebind_failures = metrics->GetCounter(
      "cv_plan_cache_rebind_failures_total", {},
      "Skeleton hits abandoned because the new instance's param holes "
      "could not be rebound; the job replanned fully");
  obs_.insertions = metrics->GetCounter("cv_plan_cache_insertions_total", {},
                                        "Plan-cache entries inserted or "
                                        "replaced");
  obs_.evictions = metrics->GetCounter("cv_plan_cache_evictions_total", {},
                                       "Plan-cache entries evicted by the "
                                       "LRU capacity bound");
  obs_.explicit_invalidations = metrics->GetCounter(
      "cv_plan_cache_explicit_invalidations_total", {},
      "Plan-cache entries dropped after a job of their template fell back "
      "from a failed view read (views_fallback)");
  obs_.entries = metrics->GetGauge("cv_plan_cache_entries", {},
                                   "Plan-cache entries currently resident");
}

PlanCache::Probe PlanCache::Lookup(const Key& key, uint64_t epoch,
                                   const Hash128& precise) {
  Probe probe;
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    obs_.misses->Increment();
    return probe;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  probe.entry = it->second->entry;
  if (probe.entry->rewritten != nullptr) {
    if (probe.entry->catalog_epoch != epoch) {
      obs_.epoch_invalidations->Increment();
    } else if (probe.entry->precise != precise) {
      obs_.precise_mismatches->Increment();
    } else {
      probe.rewritten_valid = true;
    }
  }
  return probe;
}

void PlanCache::Insert(const Key& key, Entry entry) {
  auto shared = std::make_shared<const Entry>(std::move(entry));
  MutexLock lock(mu_);
  obs_.insertions->Increment();
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Node{key, std::move(shared)});
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      obs_.evictions->Increment();
    }
  }
  obs_.entries->Set(static_cast<double>(lru_.size()));
}

void PlanCache::Invalidate(const Key& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
  obs_.explicit_invalidations->Increment();
  obs_.entries->Set(static_cast<double>(lru_.size()));
}

void PlanCache::OnServed(bool full_hit) {
  (full_hit ? obs_.hits_full : obs_.hits_skeleton)->Increment();
}

void PlanCache::OnDemoted() { obs_.demotions->Increment(); }

void PlanCache::OnRebindFailed() { obs_.rebind_failures->Increment(); }

PlanCache::Stats PlanCache::stats() const {
  Stats out;
  out.hits_full = obs_.hits_full->value();
  out.hits_skeleton = obs_.hits_skeleton->value();
  out.misses = obs_.misses->value();
  out.epoch_invalidations = obs_.epoch_invalidations->value();
  out.precise_mismatches = obs_.precise_mismatches->value();
  out.demotions = obs_.demotions->value();
  out.rebind_failures = obs_.rebind_failures->value();
  out.insertions = obs_.insertions->value();
  out.evictions = obs_.evictions->value();
  out.explicit_invalidations = obs_.explicit_invalidations->value();
  out.entries = static_cast<size_t>(obs_.entries->value());
  return out;
}

namespace {

/// Pre-order collection of the nodes carrying node-local `{param}` holes.
void CollectParamHoleNodes(PlanNode* node, std::vector<PlanNode*>* out) {
  switch (node->kind()) {
    case OpKind::kExtract:
    case OpKind::kProcess:
    case OpKind::kReduce:
    case OpKind::kOutput:
      out->push_back(node);
      break;
    default:
      break;
  }
  for (const PlanNodePtr& child : node->children()) {
    CollectParamHoleNodes(child.get(), out);
  }
}

}  // namespace

bool HasExprLevelParamHoles(const PlanNode& plan) {
  switch (plan.kind()) {
    case OpKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(plan);
      if (filter.predicate() != nullptr &&
          VariesByInstance(*filter.predicate())) {
        return true;
      }
      break;
    }
    case OpKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(plan);
      for (const NamedExpr& ne : project.exprs()) {
        if (ne.expr != nullptr && VariesByInstance(*ne.expr)) return true;
      }
      break;
    }
    case OpKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(plan);
      for (const AggregateSpec& spec : agg.aggregates()) {
        if (spec.arg != nullptr && VariesByInstance(*spec.arg)) return true;
      }
      break;
    }
    default:
      break;
  }
  for (const PlanNodePtr& child : plan.children()) {
    if (child != nullptr && HasExprLevelParamHoles(*child)) return true;
  }
  return false;
}

bool RebindSkeletonParams(PlanNode* skeleton, PlanNode* fresh_logical) {
  std::vector<PlanNode*> cached;
  std::vector<PlanNode*> fresh;
  CollectParamHoleNodes(skeleton, &cached);
  CollectParamHoleNodes(fresh_logical, &fresh);
  if (cached.size() != fresh.size()) return false;
  // Verify the whole pairing before mutating anything, so a mismatch
  // leaves the skeleton clone untouched (the caller discards it anyway).
  for (size_t i = 0; i < cached.size(); ++i) {
    if (cached[i]->kind() != fresh[i]->kind()) return false;
    switch (cached[i]->kind()) {
      case OpKind::kExtract: {
        auto* c = static_cast<ExtractNode*>(cached[i]);
        auto* f = static_cast<ExtractNode*>(fresh[i]);
        if (c->template_name() != f->template_name()) return false;
        break;
      }
      case OpKind::kProcess: {
        auto* c = static_cast<ProcessNode*>(cached[i]);
        auto* f = static_cast<ProcessNode*>(fresh[i]);
        if (c->processor() != f->processor() ||
            c->library() != f->library()) {
          return false;
        }
        break;
      }
      case OpKind::kReduce: {
        auto* c = static_cast<ReduceNode*>(cached[i]);
        auto* f = static_cast<ReduceNode*>(fresh[i]);
        if (c->processor() != f->processor() ||
            c->library() != f->library()) {
          return false;
        }
        break;
      }
      default:
        break;
    }
  }
  for (size_t i = 0; i < cached.size(); ++i) {
    switch (cached[i]->kind()) {
      case OpKind::kExtract: {
        auto* f = static_cast<ExtractNode*>(fresh[i]);
        static_cast<ExtractNode*>(cached[i])
            ->RebindInstance(f->stream_name(), f->guid());
        break;
      }
      case OpKind::kProcess: {
        static_cast<ProcessNode*>(cached[i])
            ->set_version(static_cast<ProcessNode*>(fresh[i])->version());
        break;
      }
      case OpKind::kReduce: {
        static_cast<ReduceNode*>(cached[i])
            ->set_version(static_cast<ReduceNode*>(fresh[i])->version());
        break;
      }
      case OpKind::kOutput: {
        static_cast<OutputNode*>(cached[i])
            ->set_stream_name(
                static_cast<OutputNode*>(fresh[i])->stream_name());
        break;
      }
      default:
        break;
    }
  }
  return true;
}

}  // namespace cloudviews
