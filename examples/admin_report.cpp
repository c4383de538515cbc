// Admin reporting (Sec 4 goal 7, Sec 5.5): the CLI stand-in for the
// PowerBI dashboard — workload overlap summary, drill-down into the
// top overlapping computations, and expected gains/storage costs.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "analyzer/analyzer.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/cloudviews.h"
#include "workload/synthetic.h"

using namespace cloudviews;

int main() {
  // Populate a business unit's day of history.
  CloudViews cv;
  ClusterProfile profile = BusinessUnitProfile();
  profile.num_templates = 250;  // keep the demo quick
  SyntheticWorkloadGenerator gen(profile);
  gen.WriteInputs(cv.storage(), "2018-01-01");
  for (const auto& def : gen.Instance("2018-01-01")) {
    (void)cv.Submit(def, false);
  }

  MinedWindow window = cv.repository()->Mine();
  OverlapReport report = BuildOverlapReport(window);

  std::printf("=== workload overlap summary (%s) ===\n",
              profile.name.c_str());
  std::printf("  jobs analyzed           %zu\n", report.total_jobs);
  std::printf("  overlapping jobs        %zu (%.1f%%)\n",
              report.overlapping_jobs, report.PctOverlappingJobs());
  std::printf("  users with overlap      %zu of %zu (%.1f%%)\n",
              report.users_with_overlap, report.total_users,
              report.PctUsersWithOverlap());
  std::printf("  subgraph templates      %zu (%zu overlapping)\n",
              report.total_subgraph_templates,
              report.overlapping_subgraph_templates);
  std::printf("  overlapping instances   %.1f%% of all subgraphs\n\n",
              report.PctOverlappingSubgraphs());

  std::printf("=== top overlapping computations (drill-down) ===\n");
  std::vector<const SubgraphAggregate*> all;
  for (const auto& [sig, agg] : window.aggregates) {
    if (agg.IsOverlapping() && agg.subtree_size >= 2) all.push_back(&agg);
  }
  std::sort(all.begin(), all.end(),
            [](const SubgraphAggregate* a, const SubgraphAggregate* b) {
              return a->TotalUtility() > b->TotalUtility();
            });
  TablePrinter table({"signature", "root", "freq", "jobs", "users",
                      "avg runtime", "avg size", "utility (s)", "design"});
  for (size_t i = 0; i < std::min<size_t>(10, all.size()); ++i) {
    const auto* agg = all[i];
    table.AddRow({agg->normalized.ToHex().substr(0, 12),
                  OpKindToString(agg->root_kind),
                  StrFormat("%lld", static_cast<long long>(agg->frequency)),
                  StrFormat("%zu", agg->jobs.size()),
                  StrFormat("%zu", agg->users.size()),
                  StrFormat("%.2fms", agg->AvgLatency() * 1000),
                  HumanBytes(agg->AvgBytes()),
                  StrFormat("%.4f", agg->TotalUtility()),
                  agg->PopularDesign().ToString()});
  }
  table.Print(std::cout);

  // What would the admin pay / save if the top-k were materialized?
  std::printf("\n=== expected impact of enabling CloudViews ===\n");
  AnalyzerConfig analyzer_config;
  analyzer_config.selection.top_k = 10;
  CloudViewsAnalyzer analyzer(analyzer_config);
  auto analysis = analyzer.Analyze(cv.repository()->Mine());
  double saved = 0, storage = 0;
  for (const auto& agg : analysis.selected) {
    saved += agg.TotalUtility();
    storage += agg.AvgBytes();
  }
  std::printf("  views selected          %zu\n", analysis.selected.size());
  std::printf("  expected runtime saved  %.2fms per recurring instance\n",
              saved * 1000);
  std::printf("  storage cost            %s\n",
              HumanBytes(storage).c_str());
  std::printf("  analysis took           %.1fms for %zu jobs\n",
              analysis.analysis_seconds * 1000, analysis.jobs_analyzed);

  std::printf("\n=== recommended submission order (builders first) ===\n  ");
  for (size_t i = 0; i < std::min<size_t>(8, analysis.submission_order.size());
       ++i) {
    std::printf("job#%llu ", static_cast<unsigned long long>(
                                 analysis.submission_order[i]));
  }
  std::printf("...\n");
  return 0;
}
