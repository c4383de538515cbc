#include "analyzer/view_selection.h"

#include <algorithm>
#include <map>

namespace cloudviews {

namespace {

void SortByUtilityDesc(std::vector<const SubgraphAggregate*>* v) {
  std::sort(v->begin(), v->end(),
            [](const SubgraphAggregate* a, const SubgraphAggregate* b) {
              if (a->TotalUtility() != b->TotalUtility()) {
                return a->TotalUtility() > b->TotalUtility();
              }
              return a->normalized < b->normalized;  // deterministic ties
            });
}

double Density(const SubgraphAggregate& agg) {
  return agg.TotalUtility() / std::max(1.0, agg.AvgBytes());
}

}  // namespace

std::vector<const SubgraphAggregate*> ViewSelector::Filter(
    const std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher>&
        aggregates) const {
  std::vector<const SubgraphAggregate*> out;
  // order-insensitive: every selection policy re-sorts the candidates
  // with a deterministic tie-break (utility/density, then normalized
  // signature) before any result is taken from the vector.
  for (const auto& [sig, agg] : aggregates) {
    if (agg.frequency < config_.min_frequency) continue;
    if (agg.AvgLatency() < config_.min_runtime_seconds) continue;
    if (agg.ViewToQueryCostRatio() < config_.min_cost_fraction_of_job) {
      continue;
    }
    if (config_.exclude_extract_roots &&
        agg.root_kind == OpKind::kExtract) {
      continue;
    }
    // An Output-rooted subgraph is the whole job; the view candidate is
    // the computation beneath it (entirely-duplicate jobs are surfaced to
    // their owners instead, Sec 8 "Discarding redundant jobs").
    if (agg.root_kind == OpKind::kOutput) continue;
    out.push_back(&agg);
  }
  return out;
}

void ViewSelector::ApplyPerJobCap(
    std::vector<const SubgraphAggregate*>* selected) const {
  if (config_.max_per_job <= 0) return;
  std::map<uint64_t, int> per_job;
  std::vector<const SubgraphAggregate*> kept;
  for (const SubgraphAggregate* agg : *selected) {
    bool ok = true;
    for (uint64_t job : agg->jobs) {
      if (per_job[job] >= config_.max_per_job) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (uint64_t job : agg->jobs) ++per_job[job];
    kept.push_back(agg);
  }
  *selected = std::move(kept);
}

std::vector<const SubgraphAggregate*> ViewSelector::PackGreedy(
    std::vector<const SubgraphAggregate*> candidates) const {
  std::sort(candidates.begin(), candidates.end(),
            [](const SubgraphAggregate* a, const SubgraphAggregate* b) {
              if (Density(*a) != Density(*b)) {
                return Density(*a) > Density(*b);
              }
              return a->normalized < b->normalized;
            });
  std::vector<const SubgraphAggregate*> out;
  double used = 0;
  for (const SubgraphAggregate* agg : candidates) {
    if (used + agg->AvgBytes() > config_.storage_budget_bytes) continue;
    used += agg->AvgBytes();
    out.push_back(agg);
  }
  SortByUtilityDesc(&out);
  return out;
}

std::vector<const SubgraphAggregate*> ViewSelector::PackKnapsack(
    std::vector<const SubgraphAggregate*> candidates) const {
  const double gran = std::max(1.0, config_.knapsack_granularity_bytes);
  size_t capacity =
      static_cast<size_t>(config_.storage_budget_bytes / gran);
  // Guard against a blow-up; the greedy result is a fine fallback.
  if (capacity == 0 || capacity > 2'000'000 || candidates.size() > 4096) {
    return PackGreedy(std::move(candidates));
  }
  size_t n = candidates.size();
  std::vector<size_t> weight(n);
  for (size_t i = 0; i < n; ++i) {
    weight[i] = static_cast<size_t>(candidates[i]->AvgBytes() / gran) + 1;
  }
  // dp[w] = best value using items so far with weight exactly <= w.
  std::vector<double> dp(capacity + 1, 0);
  std::vector<std::vector<bool>> take(n,
                                      std::vector<bool>(capacity + 1, false));
  for (size_t i = 0; i < n; ++i) {
    double value = candidates[i]->TotalUtility();
    for (size_t w = capacity + 1; w-- > weight[i];) {
      double with = dp[w - weight[i]] + value;
      if (with > dp[w]) {
        dp[w] = with;
        take[i][w] = true;
      }
    }
  }
  std::vector<const SubgraphAggregate*> out;
  size_t w = capacity;
  for (size_t i = n; i-- > 0;) {
    if (take[i][w]) {
      out.push_back(candidates[i]);
      w -= weight[i];
    }
  }
  SortByUtilityDesc(&out);
  return out;
}

std::vector<const SubgraphAggregate*> ViewSelector::Select(
    const std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher>&
        aggregates) const {
  std::vector<const SubgraphAggregate*> candidates = Filter(aggregates);

  switch (config_.policy) {
    case SelectionConfig::Policy::kTopKUtility: {
      SortByUtilityDesc(&candidates);
      ApplyPerJobCap(&candidates);
      if (candidates.size() > static_cast<size_t>(config_.top_k)) {
        candidates.resize(static_cast<size_t>(config_.top_k));
      }
      return candidates;
    }
    case SelectionConfig::Policy::kTopKUtilityPerByte: {
      std::sort(candidates.begin(), candidates.end(),
                [](const SubgraphAggregate* a, const SubgraphAggregate* b) {
                  if (Density(*a) != Density(*b)) {
                    return Density(*a) > Density(*b);
                  }
                  return a->normalized < b->normalized;
                });
      ApplyPerJobCap(&candidates);
      if (candidates.size() > static_cast<size_t>(config_.top_k)) {
        candidates.resize(static_cast<size_t>(config_.top_k));
      }
      return candidates;
    }
    case SelectionConfig::Policy::kPackGreedy: {
      ApplyPerJobCap(&candidates);
      return PackGreedy(std::move(candidates));
    }
    case SelectionConfig::Policy::kPackKnapsack: {
      ApplyPerJobCap(&candidates);
      return PackKnapsack(std::move(candidates));
    }
  }
  return candidates;
}

}  // namespace cloudviews
