// Ablation (Sec 5.3): utility of view physical design. Day-2 reuse with
// the analyzer-mined design vs views stored with no useful layout.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace cloudviews {
namespace bench {
namespace {

struct PassResult {
  double reuse_latency = 0;  // total latency of view-consuming jobs
  int reused = 0;
  int enforcers_over_views = 0;  // Exchange/Sort inserted above ViewReads
};

/// Counts enforcers sitting directly above ViewRead scans (the extra
/// repartitioning/sorting a bad view design forces on every consumer).
int CountEnforcersOverViews(const PlanNodePtr& root) {
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  int count = 0;
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kExchange || n->kind() == OpKind::kSort) {
      const PlanNode* below = n->children()[0].get();
      while (below->kind() == OpKind::kExchange ||
             below->kind() == OpKind::kSort) {
        below = below->children()[0].get();
      }
      if (below->kind() == OpKind::kViewRead) ++count;
    }
  }
  return count;
}

PassResult RunPass(bool strip_design) {
  ProductionWorkload workload;
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 3;
  config.analyzer.selection.min_frequency = 3;
  config.analyzer.selection.min_cost_fraction_of_job = 0.2;
  config.analyzer.selection.max_per_job = 1;
  CloudViews cv(config);

  workload.WriteInputs(cv.storage(), "2018-01-01");
  for (const auto& def : workload.Instance("2018-01-01")) {
    (void)cv.Submit(def, false);
  }
  // Mine annotations, optionally stripping the mined physical design
  // ("views with poor physical design end up not being used", Sec 5.3).
  CloudViewsAnalyzer analyzer(config.analyzer);
  AnalysisResult analysis = analyzer.Analyze(cv.repository()->Mine());
  if (strip_design) {
    for (auto& comp : analysis.annotations) {
      comp.annotation.design = PhysicalProperties{};
    }
  }
  cv.metadata()->LoadAnalysis(analysis.annotations);

  PassResult result;
  // Average the reuse pass over several fresh instances to smooth
  // wall-clock noise at this scale.
  for (int day = 2; day <= 4; ++day) {
    std::string date = StrFormat("2018-01-%02d", day);
    workload.WriteInputs(cv.storage(), date);
    for (const auto& def : workload.Instance(date)) {
      auto r = cv.Submit(def, true);
      if (r.ok() && r->views_reused > 0) {
        result.reuse_latency += r->run_stats.latency_seconds;
        result.reused += r->views_reused;
        result.enforcers_over_views +=
            CountEnforcersOverViews(r->executed_plan);
      }
    }
  }
  return result;
}

int Run() {
  FigureHeader(
      "Ablation: view physical design",
      "mined partitioning/sorting vs unstructured views (Sec 5.3)",
      "\"materialized views with poor physical design end up not being "
      "used because the computation savings get over-shadowed by any "
      "additional repartitioning or sorting\"");

  PassResult mined = RunPass(/*strip_design=*/false);
  PassResult stripped = RunPass(/*strip_design=*/true);

  TablePrinter table({"variant", "view-consumer latency (ms)",
                      "views reused", "extra enforcers over views"});
  table.AddRow({"analyzer-mined design",
                StrFormat("%.1f", mined.reuse_latency * 1000),
                StrFormat("%d", mined.reused),
                StrFormat("%d", mined.enforcers_over_views)});
  table.AddRow({"no physical design",
                StrFormat("%.1f", stripped.reuse_latency * 1000),
                StrFormat("%d", stripped.reused),
                StrFormat("%d", stripped.enforcers_over_views)});
  table.Print(std::cout);

  std::printf("\nsummary\n");
  PaperVsMeasured(
      "repartition/sort forced on consumers", "overshadows the savings",
      StrFormat("%d -> %d enforcers", mined.enforcers_over_views,
                stripped.enforcers_over_views));
  PaperVsMeasured(
      "consumer latency without view design", "> mined design",
      StrFormat("%+.1f%%",
                100.0 * (stripped.reuse_latency - mined.reuse_latency) /
                    mined.reuse_latency));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
