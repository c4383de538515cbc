// Reproduces Figure 3: cumulative distributions of overlap by jobs, inputs,
// users, and VCs in one of the largest business units.
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

void PrintCdf(const char* name, const std::vector<double>& samples,
              double lo, double hi) {
  DistributionSummary summary;
  summary.AddAll(samples);
  std::printf("\n%s (n=%zu)\n", name, summary.count());
  TablePrinter table({"x", "fraction <= x"});
  for (double x : LogSpace(lo, hi, 1)) {
    table.AddRow(StrFormat("%.0f", x), {summary.CdfAt(x)}, 3);
  }
  table.Print(std::cout);
}

int Run() {
  FigureHeader(
      "Figure 3", "Cumulative distributions of overlap (business unit)",
      "jobs have 10s-100s of overlapping subgraphs; >90% of inputs are "
      "consumed in the same subgraphs at least twice, 40% >= 5 times, 25% "
      ">= 10 times; top users have 1000s of overlaps");

  ClusterRun run = RunClusterInstance(BusinessUnitProfile(), "2018-01-01");
  MinedWindow window = run.cv->repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);

  PrintCdf("Fig 3(a): overlapping subgraphs per job",
           report.overlaps_per_job, 1, 1000);
  PrintCdf("Fig 3(b): per-input max overlap frequency",
           report.per_input_max_frequency, 1, 1000);
  PrintCdf("Fig 3(c): overlapping subgraphs per user",
           report.overlaps_per_user, 1, 10000);
  PrintCdf("Fig 3(d): overlapping subgraphs per VC", report.overlaps_per_vc,
           1, 10000);

  DistributionSummary inputs;
  inputs.AddAll(report.per_input_max_frequency);
  DistributionSummary per_job;
  per_job.AddAll(report.overlaps_per_job);
  DistributionSummary per_user;
  per_user.AddAll(report.overlaps_per_user);

  std::printf("\nsummary\n");
  PaperVsMeasured("inputs consumed in same subgraphs >= 2x", "> 90%",
                  StrFormat("%.0f%%", 100 * inputs.FractionAtLeast(2)));
  PaperVsMeasured("inputs >= 5x", "40%",
                  StrFormat("%.0f%%", 100 * inputs.FractionAtLeast(5)));
  PaperVsMeasured("inputs >= 10x", "25%",
                  StrFormat("%.0f%%", 100 * inputs.FractionAtLeast(10)));
  PaperVsMeasured("median overlaps per job", "10s",
                  StrFormat("%.0f", per_job.Median()));
  PaperVsMeasured("p90 overlaps per user", "100s+",
                  StrFormat("%.0f", per_user.Percentile(90)));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
