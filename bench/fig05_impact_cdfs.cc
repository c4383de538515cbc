// Reproduces Figure 5: cumulative distributions of overlapping-computation
// frequency, runtime, output size, and view-to-query cost ratio.
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
      "Figure 5", "Impact of overlap (business unit)",
      "frequency heavily skewed (avg 4.2, median 2, p95 14, p99 36); 26% of "
      "overlaps run <= 1s; 35% of outputs < 0.1MB; 46% of overlaps have "
      "view-to-query cost ratio <= 0.01, only 23% > 0.1, 4% > 0.5");

  ClusterRun run = RunClusterInstance(BusinessUnitProfile(), "2018-01-01");
  MinedWindow window = run.cv->repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);

  DistributionSummary freq, runtime, size, ratio;
  freq.AddAll(report.frequencies);
  runtime.AddAll(report.runtimes_seconds);
  size.AddAll(report.sizes_bytes);
  ratio.AddAll(report.view_query_cost_ratios);

  std::printf("\nFig 5(a): frequency CDF (n=%zu)\n", freq.count());
  TablePrinter ta({"frequency", "fraction <= x"});
  for (double x : {2.0, 3.0, 5.0, 10.0, 50.0, 100.0}) {
    ta.AddRow(StrFormat("%.0f", x), {freq.CdfAt(x)}, 3);
  }
  ta.Print(std::cout);

  std::printf("\nFig 5(b): runtime CDF (seconds, n=%zu)\n", runtime.count());
  TablePrinter tb({"seconds", "fraction <= x"});
  for (double x : {0.0001, 0.001, 0.01, 0.1, 1.0}) {
    tb.AddRow(StrFormat("%g", x), {runtime.CdfAt(x)}, 3);
  }
  tb.Print(std::cout);

  std::printf("\nFig 5(c): output size CDF (bytes, n=%zu)\n", size.count());
  TablePrinter tc({"bytes", "fraction <= x"});
  for (double x : {100.0, 1e3, 1e4, 1e5, 1e6, 1e7}) {
    tc.AddRow(HumanBytes(x), {size.CdfAt(x)}, 3);
  }
  tc.Print(std::cout);

  std::printf("\nFig 5(d): view-to-query cost ratio CDF (n=%zu)\n",
              ratio.count());
  TablePrinter td({"ratio", "fraction <= x"});
  for (double x : {0.01, 0.1, 0.2, 0.5, 0.8, 1.0}) {
    td.AddRow(StrFormat("%.2f", x), {ratio.CdfAt(x)}, 3);
  }
  td.Print(std::cout);

  std::printf("\nsummary\n");
  PaperVsMeasured("frequency: median / p95", "2 / 14",
                  StrFormat("%.0f / %.0f", freq.Median(),
                            freq.Percentile(95)));
  PaperVsMeasured("frequency skew (mean > median)", "4.2 > 2",
                  StrFormat("%.1f > %.0f", freq.Mean(), freq.Median()));
  // The engine runs ~1000x smaller data than production SCOPE; 1ms here
  // plays the role of the paper's 1s prune threshold.
  PaperVsMeasured("cheap overlaps (prunable)", "26% <= 1s",
                  StrFormat("%.0f%% <= 1ms", 100 * runtime.CdfAt(0.001)));
  PaperVsMeasured("ratio <= 0.01", "46%",
                  StrFormat("%.0f%%", 100 * ratio.CdfAt(0.01)));
  PaperVsMeasured("ratio > 0.1", "23%",
                  StrFormat("%.0f%%", 100 * (1 - ratio.CdfAt(0.1))));
  PaperVsMeasured("ratio > 0.5", "4%",
                  StrFormat("%.0f%%", 100 * (1 - ratio.CdfAt(0.5))));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
