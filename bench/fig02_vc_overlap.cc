// Reproduces Figure 2: per-virtual-cluster percentage of overlapping jobs
// (2a) and average overlap frequency (2b) in the largest cluster.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "analyzer/overlap_analyzer.h"
#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace cloudviews {
namespace bench {
namespace {

int Run() {
  FigureHeader(
      "Figure 2", "Overlap across virtual clusters in the largest cluster",
      "some VCs have 0% overlap, 54% of VCs have >50% jobs overlapping, a "
      "few have 100%; avg overlap frequency 1.5..112, median ~2.96");

  ClusterRun run = RunClusterInstance(LargestClusterProfile(), "2018-01-01");
  MinedWindow window = run.cv->repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);

  // 2(a): per-VC percentage overlap, sorted ascending like the figure.
  std::vector<double> pct_overlap;
  DistributionSummary freq_summary;
  size_t vcs_over_50 = 0, vcs_zero = 0, vcs_full = 0;
  for (const auto& [vc, entry] : report.per_vc) {
    double pct = entry.jobs
                     ? 100.0 * static_cast<double>(entry.overlapping_jobs) /
                           static_cast<double>(entry.jobs)
                     : 0;
    pct_overlap.push_back(pct);
    if (pct > 50) ++vcs_over_50;
    if (pct == 0) ++vcs_zero;
    if (pct >= 100) ++vcs_full;
    if (entry.avg_overlap_frequency > 0) {
      freq_summary.Add(entry.avg_overlap_frequency);
    }
  }
  std::sort(pct_overlap.begin(), pct_overlap.end());

  std::printf("\nFig 2(a) series: %% jobs overlapping per VC (sorted)\n");
  TablePrinter series_a({"vc rank", "% overlap"});
  for (size_t i = 0; i < pct_overlap.size();
       i += std::max<size_t>(1, pct_overlap.size() / 16)) {
    series_a.AddRow(StrFormat("%zu", i), {pct_overlap[i]}, 1);
  }
  series_a.AddRow(StrFormat("%zu", pct_overlap.size() - 1),
                  {pct_overlap.back()}, 1);
  series_a.Print(std::cout);

  std::printf("\nFig 2(b) series: average overlap frequency per VC\n");
  std::printf("  %s\n", freq_summary.ToString().c_str());

  std::printf("\nsummary\n");
  PaperVsMeasured("total VCs", "~160",
                  StrFormat("%zu", report.per_vc.size()));
  PaperVsMeasured(
      "VCs with >50% jobs overlapping", "54%",
      StrFormat("%.1f%%", 100.0 * static_cast<double>(vcs_over_50) /
                              static_cast<double>(report.per_vc.size())));
  PaperVsMeasured("VCs with zero overlap", "some",
                  StrFormat("%zu", vcs_zero));
  PaperVsMeasured("VCs with 100% overlap", "few",
                  StrFormat("%zu", vcs_full));
  PaperVsMeasured("avg overlap frequency median", "2.96",
                  StrFormat("%.2f", freq_summary.Median()));
  PaperVsMeasured("avg overlap frequency p75 / p95", "3.82 / 7.1",
                  StrFormat("%.2f / %.2f", freq_summary.Percentile(75),
                            freq_summary.Percentile(95)));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
