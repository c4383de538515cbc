// Reproduces the Sec 7.3 overheads study: analyzer runtime, metadata
// lookup latency (1 vs 5 service threads), and the optimization-time
// impact of creating vs using materialized views.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace bench {
namespace {

int Run() {
  FigureHeader(
      "Section 7.3", "CloudViews overheads",
      "analyzer: couple of hours for tens of thousands of jobs (run only "
      "on workload change); metadata lookup 19ms (1 thread) -> 14.3ms (5 "
      "threads); optimization time +28% when creating a view, -17% when "
      "using one");

  // --- Analyzer cost --------------------------------------------------------
  // The repository mines each job once as it completes (feeding the
  // feedback index and its submit time's bucket), and an analyzer run
  // merges a window's buckets. Both count as analyzer cost: the ingest
  // share is the run's `record` stage, whose span wraps AddJob.
  {
    ClusterRun run =
        RunClusterInstance(BusinessUnitProfile(), "2018-01-01");
    const double jobs = static_cast<double>(
        std::max<size_t>(1, run.cv->repository()->NumJobs()));
    double ingest =
        run.cv->metrics()
            ->GetHistogram("cv_job_stage_seconds", {{"stage", "record"}})
            ->sum();
    double t0 = MonotonicNowSeconds();
    MinedWindow window = run.cv->repository()->Mine();
    double merge = MonotonicNowSeconds() - t0;
    CloudViewsAnalyzer analyzer;
    auto analysis = analyzer.Analyze(std::move(window));
    double total = ingest + merge + analysis.analysis_seconds;

    std::printf("\nanalyzer cost (%zu jobs, %zu subgraphs mined)\n",
                analysis.jobs_analyzed, analysis.subgraphs_mined);
    TablePrinter table({"step", "ms", "us per job"});
    auto row = [&](const char* step, double seconds) {
      table.AddRow({step, StrFormat("%.2f", seconds * 1e3),
                    StrFormat("%.1f", 1e6 * seconds / jobs)});
    };
    row("ingest: enumerate, feedback, bucket fold", ingest);
    row("window merge (Mine)", merge);
    row("analysis: select, order, annotate", analysis.analysis_seconds);
    row("total", total);
    table.Print(std::cout);
    PaperVsMeasured("analysis scales linearly in jobs",
                    "~2h for 10k-100k jobs",
                    StrFormat("%.0fus/job here", 1e6 * total / jobs));
  }

  // --- Metadata lookup latency ----------------------------------------------
  {
    std::printf("\nmetadata service lookup latency (simulated AzureSQL "
                "backend)\n");
    TablePrinter table({"service threads", "latency (ms)"});
    SimulatedClock clock;
    StorageManager storage(&clock);
    double one = 0, five = 0;
    for (int threads : {1, 2, 3, 4, 5}) {
      MetadataServiceConfig config;
      config.service_threads = threads;
      MetadataService service(&clock, &storage, config);
      double ms = service.SimulatedLookupLatency() * 1000;
      if (threads == 1) one = ms;
      if (threads == 5) five = ms;
      table.AddRow({StrFormat("%d", threads), StrFormat("%.1f", ms)});
    }
    table.Print(std::cout);
    PaperVsMeasured("lookup latency, 1 thread", "19ms",
                    StrFormat("%.1fms", one));
    PaperVsMeasured("lookup latency, 5 threads", "14.3ms",
                    StrFormat("%.1fms", five));
  }

  // --- Optimization time: create vs use --------------------------------------
  {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 10;
    config.analyzer.selection.min_frequency = 3;
    CloudViews cv(config);
    tpcds::TpcdsGenerator gen;
    (void)gen.WriteTables(cv.storage());

    // History + annotations + materialized views.
    for (int q = 1; q <= tpcds::kNumQueries; ++q) {
      (void)cv.Submit(tpcds::MakeQueryJob(q), false);
    }
    cv.RunAnalyzerAndLoad();
    for (int q = 1; q <= tpcds::kNumQueries; ++q) {
      (void)cv.Submit(tpcds::MakeQueryJob(q), true);
    }

    // A catalog that always grants the build lock and never finds a view:
    // every compile against it exercises the "creating" path, repeatably.
    class AlwaysCreateCatalog : public ViewCatalogInterface {
     public:
      std::optional<MaterializedViewInfo> FindMaterialized(
          const Hash128&, const Hash128&) override {
        return std::nullopt;
      }
      bool ProposeMaterialize(const Hash128&, const Hash128&, uint64_t,
                              double) override {
        return true;
      }
    };
    AlwaysCreateCatalog create_catalog;

    Optimizer optimizer(config.optimizer);
    auto min_compile = [&](const PlanNodePtr& logical,
                           const OptimizeContext& ctx, int* built,
                           int* used) {
      double best = 1e18;
      for (int rep = 0; rep < 5; ++rep) {
        auto r = optimizer.Optimize(logical, ctx);
        if (!r.ok()) return 0.0;
        best = std::min(best, r->optimize_seconds);
        if (built != nullptr) *built = r->views_materialized;
        if (used != nullptr) *used = r->views_reused;
      }
      return best;
    };

    double create_sum = 0, use_sum = 0, create_base = 0, use_base = 0;
    int creates = 0, uses = 0;
    for (int q = 1; q <= tpcds::kNumQueries; ++q) {
      JobDefinition def = tpcds::MakeQueryJob(q);
      OptimizeContext plain_ctx;
      plain_ctx.storage = cv.storage();
      plain_ctx.feedback = cv.repository();
      double plain = min_compile(def.logical_plan, plain_ctx, nullptr,
                                 nullptr);

      OptimizeContext cv_ctx = plain_ctx;
      auto relevant =
          cv.metadata()->GetRelevantViews(JobService::DefaultTags(def));
      if (!relevant.ok() || relevant->empty()) continue;
      cv_ctx.annotations = std::move(relevant).ValueOrDie();

      // Using: the real metadata service holds the materialized views.
      cv_ctx.view_catalog = cv.metadata();
      int used = 0;
      double with_use = min_compile(def.logical_plan, cv_ctx, nullptr,
                                    &used);
      if (used > 0) {
        use_sum += with_use;
        use_base += plain;
        ++uses;
      }

      // Creating: the grant-everything catalog forces the build path.
      cv_ctx.view_catalog = &create_catalog;
      int built = 0;
      double with_create = min_compile(def.logical_plan, cv_ctx, &built,
                                       nullptr);
      if (built > 0) {
        create_sum += with_create;
        create_base += plain;
        ++creates;
      }
    }
    std::printf("\noptimization time impact (TPC-DS, min of 5 compiles per "
                "query)\n");
    TablePrinter table({"mode", "queries", "avg plain (us)",
                        "avg with CloudViews (us)", "change %"});
    if (creates > 0) {
      table.AddRow({"creating a view", StrFormat("%d", creates),
                    StrFormat("%.0f", 1e6 * create_base / creates),
                    StrFormat("%.0f", 1e6 * create_sum / creates),
                    StrFormat("%+.0f",
                              -PctImprovement(create_base, create_sum))});
    }
    if (uses > 0) {
      table.AddRow({"using a view", StrFormat("%d", uses),
                    StrFormat("%.0f", 1e6 * use_base / uses),
                    StrFormat("%.0f", 1e6 * use_sum / uses),
                    StrFormat("%+.0f", -PctImprovement(use_base, use_sum))});
    }
    table.Print(std::cout);
    PaperVsMeasured(
        "optimization time when creating", "+28%",
        creates ? StrFormat("%+.0f%%",
                            -PctImprovement(create_base, create_sum))
                : "n/a");
    PaperVsMeasured(
        "optimization time when using", "-17%",
        uses ? StrFormat("%+.0f%%", -PctImprovement(use_base, use_sum))
             : "n/a");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
