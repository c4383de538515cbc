// Reproduces Figure 1: percentage of overlapping jobs, users with
// overlapping jobs, and overlapping subgraphs across five clusters.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "analyzer/overlap_analyzer.h"
#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace cloudviews {
namespace bench {
namespace {

int Run() {
  FigureHeader(
      "Figure 1", "Overlap in different production clusters",
      "all clusters except cluster3 have >45% overlapping jobs; >65% of "
      "users overlap; overlapping subgraphs up to ~80%");

  TablePrinter table({"cluster", "jobs", "overlapping jobs %",
                      "users w/ overlap %", "overlapping subgraphs %"});
  double min_jobs_pct = 100, min_users_pct = 100, max_subgraph_pct = 0;
  double cluster3_jobs_pct = 0;
  for (int c = 0; c < 5; ++c) {
    ClusterProfile profile = Fig1ClusterProfile(c);
    ClusterRun run = RunClusterInstance(profile, "2018-01-01");
    MinedWindow window = run.cv->repository()->Mine();
    OverlapReport report = BuildOverlapReport(window);
    table.AddRow(profile.name,
                 {static_cast<double>(report.total_jobs),
                  report.PctOverlappingJobs(), report.PctUsersWithOverlap(),
                  report.PctOverlappingSubgraphs()},
                 1);
    if (c == 2) {
      cluster3_jobs_pct = report.PctOverlappingJobs();
    } else {
      min_jobs_pct = std::min(min_jobs_pct, report.PctOverlappingJobs());
    }
    min_users_pct = std::min(min_users_pct, report.PctUsersWithOverlap());
    max_subgraph_pct =
        std::max(max_subgraph_pct, report.PctOverlappingSubgraphs());
  }
  table.Print(std::cout);

  std::printf("\nsummary\n");
  PaperVsMeasured("non-outlier clusters: overlapping jobs", "> 45%",
                  StrFormat("min %.1f%%", min_jobs_pct));
  PaperVsMeasured("cluster3 (outlier): overlapping jobs", "lowest, < 45%",
                  StrFormat("%.1f%%", cluster3_jobs_pct));
  PaperVsMeasured("users with overlapping jobs", "> 65%",
                  StrFormat("min %.1f%%", min_users_pct));
  PaperVsMeasured("overlapping subgraphs", "up to ~80%",
                  StrFormat("max %.1f%%", max_subgraph_pct));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
