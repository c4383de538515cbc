// Ablation (Sec 5.2): view selection policies under a storage budget.
#include <cstdio>
#include <iostream>

#include "analyzer/view_selection.h"
#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace cloudviews {
namespace bench {
namespace {

int Run() {
  FigureHeader(
      "Ablation: view selection policies",
      "top-k heuristics vs storage-budget packing (Sec 5.2)",
      "the system allows plugging custom heuristics; packing under "
      "constraints is the companion BigSubs work");

  ClusterRun run = RunClusterInstance(BusinessUnitProfile(), "2018-01-01");
  MinedWindow window = run.cv->repository()->Mine();

  auto evaluate = [&](SelectionConfig config, const char* name,
                      TablePrinter* table) {
    ViewSelector selector(config);
    auto selected = selector.Select(window.aggregates);
    double utility = 0, bytes = 0;
    for (const auto* agg : selected) {
      utility += agg->TotalUtility();
      bytes += agg->AvgBytes();
    }
    table->AddRow({name, StrFormat("%zu", selected.size()),
                   StrFormat("%.4f", utility),
                   HumanBytes(bytes)});
    return utility;
  };

  double budget = 64 * 1024;  // 64 KB of view storage at this scale

  TablePrinter table({"policy", "views", "captured utility (s)",
                      "storage used"});
  SelectionConfig base;
  base.min_frequency = 2;
  base.exclude_extract_roots = true;

  SelectionConfig topk = base;
  topk.policy = SelectionConfig::Policy::kTopKUtility;
  topk.top_k = 10;
  evaluate(topk, "top-10 by utility (no budget)", &table);

  SelectionConfig per_byte = base;
  per_byte.policy = SelectionConfig::Policy::kTopKUtilityPerByte;
  per_byte.top_k = 10;
  evaluate(per_byte, "top-10 by utility/byte", &table);

  SelectionConfig greedy = base;
  greedy.policy = SelectionConfig::Policy::kPackGreedy;
  greedy.storage_budget_bytes = budget;
  double g = evaluate(greedy, "greedy pack (64KB budget)", &table);

  SelectionConfig knapsack = base;
  knapsack.policy = SelectionConfig::Policy::kPackKnapsack;
  knapsack.storage_budget_bytes = budget;
  knapsack.knapsack_granularity_bytes = 1;
  double k = evaluate(knapsack, "knapsack pack (64KB budget)", &table);

  SelectionConfig capped = base;
  capped.policy = SelectionConfig::Policy::kTopKUtility;
  capped.top_k = 10;
  capped.max_per_job = 1;
  evaluate(capped, "top-10, at most one per job", &table);

  table.Print(std::cout);

  std::printf("\nsummary\n");
  PaperVsMeasured("knapsack vs greedy under budget", ">= greedy",
                  StrFormat("%+.1f%% utility",
                            g > 0 ? 100.0 * (k - g) / g : 0));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
