#ifndef CLOUDVIEWS_ANALYZER_OVERLAP_ANALYZER_H_
#define CLOUDVIEWS_ANALYZER_OVERLAP_ANALYZER_H_

#include <map>
#include <string>
#include <vector>

#include "runtime/subgraph_mining.h"

namespace cloudviews {

/// Everything the figure benches need about one analyzed window; the data
/// behind Figs 1-5 and the Sec 5.5 admin dashboard.
struct OverlapReport {
  size_t total_jobs = 0;
  size_t overlapping_jobs = 0;
  size_t total_users = 0;
  size_t users_with_overlap = 0;
  size_t total_subgraph_templates = 0;
  size_t overlapping_subgraph_templates = 0;
  /// Instance-weighted counts: a fragment occurring 10x contributes 10.
  int64_t total_subgraph_instances = 0;
  int64_t overlapping_subgraph_instances = 0;

  double PctOverlappingJobs() const {
    return total_jobs ? 100.0 * overlapping_jobs / total_jobs : 0;
  }
  double PctUsersWithOverlap() const {
    return total_users ? 100.0 * users_with_overlap / total_users : 0;
  }
  /// Fraction of subgraph *instances* that appear at least twice (how the
  /// paper's "overlapping subgraphs" percentages read).
  double PctOverlappingSubgraphs() const {
    return total_subgraph_instances
               ? 100.0 * static_cast<double>(overlapping_subgraph_instances) /
                     static_cast<double>(total_subgraph_instances)
               : 0;
  }

  /// Per-VC: percentage of the VC's jobs that overlap; average overlap
  /// frequency of its overlapping subgraphs (Fig 2).
  struct VcOverlap {
    size_t jobs = 0;
    size_t overlapping_jobs = 0;
    double avg_overlap_frequency = 0;
  };
  std::map<std::string, VcOverlap> per_vc;

  /// CDF samples (Fig 3): overlapping-subgraph occurrences per job / user /
  /// VC; per input: the max frequency among subgraphs consuming it.
  std::vector<double> overlaps_per_job;
  std::vector<double> overlaps_per_user;
  std::vector<double> overlaps_per_vc;
  std::vector<double> per_input_max_frequency;

  /// Operator-wise share of overlapping subgraph occurrences (Fig 4a) and
  /// per-operator frequency samples (Figs 4b-4d).
  std::map<OpKind, int64_t> overlap_occurrences_by_operator;
  std::map<OpKind, std::vector<double>> frequency_by_operator;

  /// Sec 8 lessons: subgraphs rooted at Output shared by several jobs are
  /// jobs producing the same output without realizing it; their owners are
  /// asked to remove the redundant statements.
  size_t redundant_output_groups = 0;
  size_t jobs_with_redundant_output = 0;

  /// Impact CDF samples over overlapping templates (Fig 5).
  std::vector<double> frequencies;
  std::vector<double> runtimes_seconds;
  std::vector<double> sizes_bytes;
  std::vector<double> view_query_cost_ratios;
};

/// Builds the figure/report data of a mined window (Figs 1-5, the Sec 5.5
/// admin dashboard).
OverlapReport BuildOverlapReport(const MinedWindow& window);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_ANALYZER_OVERLAP_ANALYZER_H_
