#include "analyzer/overlap_analyzer.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cloudviews {

OverlapReport BuildOverlapReport(const MinedWindow& window) {
  const auto& aggregates = window.aggregates;
  OverlapReport report;
  report.total_subgraph_templates = aggregates.size();

  // Subgraph-template level metrics.
  std::unordered_map<std::string, double> input_max_freq;
  for (const auto& [sig, agg] : aggregates) {
    report.total_subgraph_instances += agg.frequency;
    if (agg.IsOverlapping()) {
      ++report.overlapping_subgraph_templates;
      report.overlapping_subgraph_instances += agg.frequency;
      report.frequencies.push_back(static_cast<double>(agg.frequency));
      report.runtimes_seconds.push_back(agg.AvgLatency());
      report.sizes_bytes.push_back(agg.AvgBytes());
      report.view_query_cost_ratios.push_back(agg.ViewToQueryCostRatio());
      // The operator chart counts computations, not bare input scans.
      if (agg.subtree_size >= 2) {
        report.overlap_occurrences_by_operator[agg.root_kind] +=
            agg.frequency;
        report.frequency_by_operator[agg.root_kind].push_back(
            static_cast<double>(agg.frequency));
      }
      for (const auto& input : agg.input_templates) {
        double& slot = input_max_freq[input];
        slot = std::max(slot, static_cast<double>(agg.frequency));
      }
    } else {
      for (const auto& input : agg.input_templates) {
        input_max_freq.emplace(input, 1.0);
      }
    }
  }
  // Emit per-input samples ordered by template name: the CDF vector must
  // be byte-stable across runs, and hash-map iteration order is not.
  std::vector<std::pair<std::string, double>> by_input(
      input_max_freq.begin(), input_max_freq.end());
  std::sort(by_input.begin(), by_input.end());
  for (const auto& [input, freq] : by_input) {
    report.per_input_max_frequency.push_back(freq);
  }
  for (const auto& [sig, agg] : aggregates) {
    if (agg.root_kind == OpKind::kOutput && agg.jobs.size() >= 2) {
      ++report.redundant_output_groups;
      report.jobs_with_redundant_output += agg.jobs.size();
    }
  }

  // Job / user / VC level metrics: a job overlaps when it contains at least
  // one subgraph shared with another job.
  std::map<std::string, double> user_overlaps;
  std::map<std::string, double> vc_overlaps;
  std::map<std::string, OverlapReport::VcOverlap> per_vc;
  // Distinct overlapping templates per VC; the per-VC "average overlap
  // frequency" of Fig 2b averages over templates, not occurrences.
  std::map<std::string, std::set<Hash128>> vc_distinct;
  std::set<std::string> users_with_overlap;
  std::set<std::string> all_users;

  for (const MinedJob& job : window.jobs) {
    // A job without a plan has nothing mined; it counts for nothing here.
    if (!job.has_plan) continue;
    ++report.total_jobs;
    all_users.insert(job.user);
    auto& vc = per_vc[job.vc];
    ++vc.jobs;
    int64_t job_overlaps = 0;
    bool shares_with_other_job = false;
    for (const auto& sig : job.subgraphs) {
      const auto& agg = aggregates.at(sig);
      // Bare input scans are not computation overlap: every consumer of a
      // popular stream shares them. Job/user/VC overlap requires at least
      // one operator on top of the scan.
      if (agg.subtree_size < 2) continue;
      if (agg.IsOverlapping()) {
        ++job_overlaps;
        vc_distinct[job.vc].insert(sig);
      }
      if (agg.SharedAcrossJobs()) shares_with_other_job = true;
    }
    if (shares_with_other_job) {
      ++report.overlapping_jobs;
      ++vc.overlapping_jobs;
      users_with_overlap.insert(job.user);
    }
    if (job_overlaps > 0) {
      report.overlaps_per_job.push_back(static_cast<double>(job_overlaps));
      user_overlaps[job.user] += static_cast<double>(job_overlaps);
      vc_overlaps[job.vc] += static_cast<double>(job_overlaps);
    }
  }

  report.total_users = all_users.size();
  report.users_with_overlap = users_with_overlap.size();
  for (auto& [vc, entry] : per_vc) {
    auto it = vc_distinct.find(vc);
    if (it != vc_distinct.end() && !it->second.empty()) {
      double sum = 0;
      for (const auto& sig : it->second) {
        sum += static_cast<double>(aggregates.at(sig).frequency);
      }
      entry.avg_overlap_frequency =
          sum / static_cast<double>(it->second.size());
    }
  }
  report.per_vc = std::move(per_vc);
  for (const auto& [user, count] : user_overlaps) {
    report.overlaps_per_user.push_back(count);
  }
  for (const auto& [vc, count] : vc_overlaps) {
    report.overlaps_per_vc.push_back(count);
  }
  return report;
}

}  // namespace cloudviews
