// Reproduces Figure 4: operator-wise breakdown of overlapping subgraphs
// (4a) and per-operator overlap-frequency CDFs for shuffle, filter, and
// user-defined processors (4b-4d).
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

void PrintOperatorCdf(const char* figure, const char* name,
                      const std::vector<double>& freqs) {
  DistributionSummary summary;
  summary.AddAll(freqs);
  std::printf("\n%s: overlap frequency CDF for %s (n=%zu)\n", figure, name,
              summary.count());
  TablePrinter table({"frequency", "fraction <= x"});
  for (double x : {2.0, 5.0, 10.0, 50.0, 100.0, 1000.0}) {
    table.AddRow(StrFormat("%.0f", x), {summary.CdfAt(x)}, 3);
  }
  table.Print(std::cout);
}

int Run() {
  FigureHeader(
      "Figure 4", "Operator-wise overlap (business unit)",
      "sort and exchange (shuffle) are the top overlapping computations; "
      "UDO frequency distributions are flatter than shuffles (shared "
      "libraries)");

  ClusterRun run = RunClusterInstance(BusinessUnitProfile(), "2018-01-01");
  MinedWindow window = run.cv->repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);

  int64_t total = 0;
  for (const auto& [kind, count] : report.overlap_occurrences_by_operator) {
    total += count;
  }
  std::printf("\nFig 4(a): share of overlapping subgraph occurrences\n");
  std::vector<std::pair<OpKind, int64_t>> rows(
      report.overlap_occurrences_by_operator.begin(),
      report.overlap_occurrences_by_operator.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  TablePrinter table({"operator", "occurrences", "% of overlaps"});
  for (const auto& [kind, count] : rows) {
    table.AddRow(OpKindToString(kind),
                 {static_cast<double>(count),
                  100.0 * static_cast<double>(count) /
                      static_cast<double>(total)},
                 2);
  }
  table.Print(std::cout);

  auto freqs_of = [&](OpKind kind) -> std::vector<double> {
    auto it = report.frequency_by_operator.find(kind);
    return it == report.frequency_by_operator.end() ? std::vector<double>{}
                                                    : it->second;
  };
  PrintOperatorCdf("Fig 4(b)", "Exchange (shuffle)",
                   freqs_of(OpKind::kExchange));
  PrintOperatorCdf("Fig 4(c)", "Filter", freqs_of(OpKind::kFilter));
  PrintOperatorCdf("Fig 4(d)", "Processor (UDO)",
                   freqs_of(OpKind::kProcess));

  // Top-two check.
  std::string top_two = rows.size() >= 2
                            ? std::string(OpKindToString(rows[0].first)) +
                                  ", " + OpKindToString(rows[1].first)
                            : "n/a";
  DistributionSummary shuffle_freqs;
  shuffle_freqs.AddAll(freqs_of(OpKind::kExchange));
  std::printf("\nsummary\n");
  PaperVsMeasured("top overlapping operators", "Sort, Exchange", top_two);
  PaperVsMeasured(
      "shuffles with frequency > 10", "small fraction",
      StrFormat("%.0f%%", 100 * shuffle_freqs.FractionAtLeast(11)));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
