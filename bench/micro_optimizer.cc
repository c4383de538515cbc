// Microbenchmarks: compilation latency with and without CloudViews tasks.
#include <benchmark/benchmark.h>

#include "optimizer/optimizer.h"
#include "signature/signature.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace {

void BM_OptimizePlain(benchmark::State& state) {
  auto logical = tpcds::BuildQuery(static_cast<int>(state.range(0)));
  Optimizer opt;
  for (auto _ : state) {
    auto r = opt.Optimize(logical, {});
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OptimizePlain)->Arg(1)->Arg(14)->Arg(72);

class NullCatalog : public ViewCatalogInterface {
 public:
  std::optional<MaterializedViewInfo> FindMaterialized(
      const Hash128&, const Hash128&) override {
    return std::nullopt;
  }
  bool ProposeMaterialize(const Hash128&, const Hash128&, uint64_t,
                          double) override {
    return false;  // always lock-denied: pure matching overhead
  }
};

void BM_OptimizeWithAnnotations(benchmark::State& state) {
  auto logical = tpcds::BuildQuery(14);
  // Annotate every join subgraph of the query (worst-case matching load).
  Status st = logical->Bind();
  if (!st.ok()) std::abort();
  Optimizer probe_opt;
  auto physical = probe_opt.Optimize(logical, {});
  OptimizeContext ctx;
  NullCatalog catalog;
  ctx.view_catalog = &catalog;
  for (const auto& entry : EnumerateSubgraphs(physical->root)) {
    if (entry.node->kind() != OpKind::kJoin) continue;
    ViewAnnotation ann;
    ann.normalized_signature = entry.sigs.normalized;
    ann.frequency = 3;
    ctx.annotations.emplace(ann.normalized_signature, ann);
  }
  Optimizer opt;
  for (auto _ : state) {
    auto r = opt.Optimize(logical, ctx);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OptimizeWithAnnotations);

void BM_LogicalRewritesOnly(benchmark::State& state) {
  auto logical = tpcds::BuildQuery(27);
  OptimizerConfig with, without;
  without.enable_logical_rewrites = false;
  Optimizer opt_with(with), opt_without(without);
  bool flip = false;
  for (auto _ : state) {
    auto r = (flip ? opt_with : opt_without).Optimize(logical, {});
    benchmark::DoNotOptimize(r.ok());
    flip = !flip;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogicalRewritesOnly);

}  // namespace
}  // namespace cloudviews
