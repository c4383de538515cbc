// Microbenchmarks: metadata service operations under varying numbers of
// loaded annotations.
#include <benchmark/benchmark.h>

#include <memory>

#include "metadata/metadata_service.h"

namespace cloudviews {
namespace {

std::vector<AnnotatedComputation> MakeAnnotations(int n) {
  std::vector<AnnotatedComputation> comps;
  comps.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    AnnotatedComputation comp;
    comp.annotation.normalized_signature =
        Hash128{static_cast<uint64_t>(i + 1), 7};
    comp.annotation.frequency = 3;
    comp.tags = {"template:t" + std::to_string(i % (n / 4 + 1)),
                 "vc:v" + std::to_string(i % 16)};
    comps.push_back(std::move(comp));
  }
  return comps;
}

void BM_LoadAnalysis(benchmark::State& state) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  MetadataService service(&clock, &storage);
  auto comps = MakeAnnotations(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    service.LoadAnalysis(comps);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LoadAnalysis)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GetRelevantViews(benchmark::State& state) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  MetadataService service(&clock, &storage);
  service.LoadAnalysis(MakeAnnotations(static_cast<int>(state.range(0))));
  std::vector<std::string> tags{"template:t1", "vc:v3"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.GetRelevantViews(tags));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GetRelevantViews)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ProposeAndReport(benchmark::State& state) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  MetadataService service(&clock, &storage);
  uint64_t i = 0;
  for (auto _ : state) {
    Hash128 precise{++i, 99};
    benchmark::DoNotOptimize(
        service.ProposeMaterialize(Hash128{1, 1}, precise, i, 10));
    MaterializedViewInfo info;
    info.normalized_signature = Hash128{1, 1};
    info.precise_signature = precise;
    info.producer_job_id = i;
    info.path = "/views/x/y.ss";
    // Intentional drop: throughput benchmark, the registration cannot fail.
    (void)service.ReportMaterialized(info, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProposeAndReport);

void BM_FindMaterialized(benchmark::State& state) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  MetadataService service(&clock, &storage);
  for (uint64_t i = 0; i < 10000; ++i) {
    MaterializedViewInfo info;
    info.normalized_signature = Hash128{i, 1};
    info.precise_signature = Hash128{i, 2};
    info.path = "/views/x/y.ss";
    // Intentional drop: setup loop, registrations cannot fail here.
    (void)service.ReportMaterialized(info, 0);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    Hash128 sig{(i++) % 10000, 1};
    benchmark::DoNotOptimize(
        service.FindMaterialized(sig, Hash128{sig.hi, 2}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindMaterialized);

/// Containment tier 2.5 probe with `range(0)` live instances of one
/// template, each over its own core (a recurring view materialized on that
/// many dates). The probe asks for one core, so its time must not grow
/// with the instance count.
void BM_FindSubsumableInstances(benchmark::State& state) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  MetadataService service(&clock, &storage);
  const Hash128 normalized{1, 1};
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; ++i) {
    MaterializedViewInfo info;
    info.normalized_signature = normalized;
    info.precise_signature = Hash128{i, 2};
    info.path = "/views/x/y.ss";
    auto features = std::make_shared<ViewFeatures>();
    features->core_precise = Hash128{i, 3};
    info.reuse_features = std::move(features);
    // Intentional drop: setup loop, registrations cannot fail here.
    (void)service.ReportMaterialized(info, 0);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    Hash128 core{(i++) % n, 3};
    benchmark::DoNotOptimize(
        service.FindSubsumableInstances(normalized, core));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindSubsumableInstances)->Arg(1)->Arg(64)->Arg(512);

}  // namespace
}  // namespace cloudviews
