#ifndef CLOUDVIEWS_ANALYZER_VIEW_SELECTION_H_
#define CLOUDVIEWS_ANALYZER_VIEW_SELECTION_H_

#include <vector>

#include "analyzer/overlap_analyzer.h"

namespace cloudviews {

/// \brief Knobs for picking the subgraphs to materialize (Sec 5.2; the
/// Sec 7.1 workload used min_frequency=3, min_cost_fraction=0.2,
/// max_per_job=1, top_k=3 on utility).
struct SelectionConfig {
  enum class Policy {
    /// Top-k by total utility = (frequency-1) x avg runtime.
    kTopKUtility,
    /// Top-k by utility normalized by storage footprint.
    kTopKUtilityPerByte,
    /// Greedy storage-budget packing by utility density.
    kPackGreedy,
    /// Exact 0/1 knapsack under the storage budget (small candidate sets).
    kPackKnapsack,
  };

  Policy policy = Policy::kTopKUtility;
  int top_k = 10;

  /// Candidate filters.
  int64_t min_frequency = 2;
  double min_runtime_seconds = 0;
  /// Subgraph cost must be at least this fraction of its containing job's
  /// cost (view-to-query ratio).
  double min_cost_fraction_of_job = 0;
  /// Skip bare input scans (materializing them just copies the input).
  bool exclude_extract_roots = true;
  /// At most this many selected views containing any single job (0 = off);
  /// "considering at most one overlapping computation per job" (Sec 7.1).
  int max_per_job = 0;

  /// Storage budget for the packing policies, in bytes.
  double storage_budget_bytes = 0;
  /// Knapsack weight granularity (bytes per unit).
  double knapsack_granularity_bytes = 1024;
};

/// \brief Selects the views to materialize from the mined aggregates.
class ViewSelector {
 public:
  explicit ViewSelector(SelectionConfig config = {}) : config_(config) {}

  /// Returns the selected aggregates, in descending utility order. Inputs
  /// must outlive the returned pointers.
  std::vector<const SubgraphAggregate*> Select(
      const std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher>&
          aggregates) const;

 private:
  std::vector<const SubgraphAggregate*> Filter(
      const std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher>&
          aggregates) const;
  std::vector<const SubgraphAggregate*> PackGreedy(
      std::vector<const SubgraphAggregate*> candidates) const;
  std::vector<const SubgraphAggregate*> PackKnapsack(
      std::vector<const SubgraphAggregate*> candidates) const;
  void ApplyPerJobCap(std::vector<const SubgraphAggregate*>* selected) const;

  SelectionConfig config_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_ANALYZER_VIEW_SELECTION_H_
