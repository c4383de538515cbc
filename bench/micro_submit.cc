// Recurring-job submit-path microbenchmark: cold vs warm (plan-cache) and
// sequential vs concurrent SubmitJob latency, cache on vs off, over a
// recurring template that materializes and reuses a view — so the metadata
// hot path (FindMaterialized / ProposeMaterialize under the service's one
// lock) is exercised and its lock-wait histogram lands in the exported
// metrics. Writes
// BENCH_submit.json for the CI bench-smoke artifact.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/export.h"
#include "plan/plan_builder.h"

namespace cloudviews {
namespace bench {
namespace {

Schema ClickSchema() {
  return Schema({{"user", DataType::kInt64},
                 {"page", DataType::kString},
                 {"latency", DataType::kInt64},
                 {"when", DataType::kDate}});
}

void WriteClicks(StorageManager* storage, const std::string& date,
                 size_t rows) {
  Rng rng(Hash128Hasher()(Hash128{1, 1}) + rows);
  Batch b(ClickSchema());
  int64_t day = 0;
  ParseDate(date, &day);
  static const char* kPages[] = {"/home", "/search", "/cart", "/about"};
  for (size_t i = 0; i < rows; ++i) {
    (void)b.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
                       Value::String(kPages[rng.Uniform(4)]),
                       Value::Int64(static_cast<int64_t>(rng.Uniform(500))),
                       Value::Date(day)});
  }
  (void)storage->WriteStream(MakeStreamData(
      "clicks_" + date, "guid-clicks_" + date, ClickSchema(), {b},
      storage->clock()->Now()));
}

PlanNodePtr SharedAgg(const std::string& date) {
  return PlanBuilder::Extract("clicks_{date}", "clicks_" + date,
                              "guid-clicks_" + date, ClickSchema())
      .Filter(Gt(Col("latency"), Lit(int64_t{50})))
      .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"},
                            {AggFunc::kSum, Col("latency"), "total"}})
      .Build();
}

JobDefinition Job(const std::string& id, const std::string& date) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = PlanBuilder::From(SharedAgg(date))
                         .Sort({{"n", false}})
                         .Output(id + "_" + date)
                         .Build();
  return def;
}

std::string Date(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2018-%02d-%02d", 2 + i / 28, 1 + i % 28);
  return buf;
}

struct Sample {
  std::string mode;
  int threads = 1;
  int jobs = 0;
  double total_seconds = 0;
  double min_seconds = 1e100;
  double max_seconds = 0;

  void Add(double s) {
    ++jobs;
    total_seconds += s;
    min_seconds = std::min(min_seconds, s);
    max_seconds = std::max(max_seconds, s);
  }
  double MeanMs() const {
    return jobs > 0 ? 1e3 * total_seconds / jobs : 0;
  }
};

/// A CloudViews instance with day-0 recurring history analyzed and loaded,
/// so benchmark submissions materialize and then reuse a view.
struct Instance {
  std::unique_ptr<CloudViews> cv;

  explicit Instance(int days) {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    cv = std::make_unique<CloudViews>(config);
    for (int d = 0; d < days; ++d) WriteClicks(cv->storage(), Date(d), 400);
    (void)cv->Submit(Job("jobA", Date(0)), false);
    (void)cv->Submit(Job("jobB", Date(0)), false);
    cv->RunAnalyzerAndLoad();
  }
};

int Run() {
  FigureHeader("micro", "submit-path latency: recurring-job fast path",
               "warm-cache submissions of a recurring template skip the "
               "logical rewrites or the whole compile (Sec 4: compile-time "
               "reuse of recurring jobs)");

  constexpr int kDays = 24;
  constexpr int kConcurrent = 8;
  JobServiceOptions cache_on;
  cache_on.enable_cloudviews = true;
  cache_on.enable_plan_cache = true;
  JobServiceOptions cache_off = cache_on;
  cache_off.enable_plan_cache = false;
  std::vector<Sample> samples;

  auto sequential = [&](const char* mode, Instance& inst,
                        const JobServiceOptions& options, int first_day,
                        int days) {
    Sample s;
    s.mode = mode;
    s.threads = 1;
    for (int d = first_day; d < first_day + days; ++d) {
      double start = MonotonicNowSeconds();
      auto r = inst.cv->job_service()->SubmitJob(Job("jobA", Date(d)),
                                                 options);
      double elapsed = MonotonicNowSeconds() - start;
      if (!r.ok()) {
        std::fprintf(stderr, "submit failed (%s): %s\n", mode,
                     r.status().ToString().c_str());
        std::exit(1);
      }
      s.Add(elapsed);
    }
    samples.push_back(s);
    std::printf("  %-28s mean=%7.3fms  min=%7.3fms  jobs=%d\n", mode,
                s.MeanMs(), s.min_seconds * 1e3, s.jobs);
  };

  // Cache off: every submission pays the full compile pipeline.
  Instance off_inst(kDays);
  sequential("seq_cache_off", off_inst, cache_off, 1, kDays - 1);

  // Cache on: the first pass over fresh dates is cold, a second sweep over
  // the same dates serves the skeleton tier (same template, different
  // precise signature per date), and resubmitting one identical job serves
  // the full tier (metadata lookup and the whole optimizer skipped).
  Instance on_inst(kDays);
  sequential("seq_cache_on_cold", on_inst, cache_on, 1, kDays - 1);
  sequential("seq_cache_on_warm_skeleton", on_inst, cache_on, 1, kDays - 1);
  (void)on_inst.cv->job_service()->SubmitJob(Job("jobA", Date(1)),
                                             cache_on);  // prime
  {
    Sample s;
    s.mode = "seq_cache_on_warm_full";
    s.threads = 1;
    for (int i = 0; i < kDays - 1; ++i) {
      double start = MonotonicNowSeconds();
      auto r =
          on_inst.cv->job_service()->SubmitJob(Job("jobA", Date(1)), cache_on);
      double elapsed = MonotonicNowSeconds() - start;
      if (!r.ok() || !r->plan_cache_hit) {
        std::fprintf(stderr, "expected a warm full hit: %s\n",
                     r.ok() ? "served cold" : r.status().ToString().c_str());
        std::exit(1);
      }
      s.Add(elapsed);
    }
    samples.push_back(s);
    std::printf("  %-28s mean=%7.3fms  min=%7.3fms  jobs=%d\n",
                s.mode.c_str(), s.MeanMs(), s.min_seconds * 1e3, s.jobs);
  }
  auto cache_stats = on_inst.cv->job_service()->plan_cache().stats();

  // Concurrent submissions: kConcurrent same-template jobs race on the
  // metadata service's lock and the plan cache.
  auto concurrent = [&](const char* mode, Instance& inst,
                        const JobServiceOptions& options, int rounds) {
    Sample s;
    s.mode = mode;
    s.threads = kConcurrent;
    for (int round = 0; round < rounds; ++round) {
      std::vector<JobDefinition> defs;
      defs.reserve(kConcurrent);
      for (int i = 0; i < kConcurrent; ++i) {
        defs.push_back(Job("jobA", Date(1 + (round * kConcurrent + i) %
                                                (kDays - 1))));
      }
      double start = MonotonicNowSeconds();
      auto results = inst.cv->job_service()->SubmitConcurrent(defs, options);
      double elapsed = MonotonicNowSeconds() - start;
      for (const auto& r : results) {
        if (!r.ok()) {
          std::fprintf(stderr, "concurrent submit failed (%s): %s\n", mode,
                       r.status().ToString().c_str());
          std::exit(1);
        }
      }
      // Per-batch wall time; divide by batch size for per-job throughput.
      s.Add(elapsed);
    }
    samples.push_back(s);
    std::printf("  %-28s mean=%7.3fms/batch(%d)  batches=%d\n", mode,
                s.MeanMs(), kConcurrent, s.jobs);
  };
  Instance conc_off(kDays);
  concurrent("conc_cache_off", conc_off, cache_off, 3);
  Instance conc_on(kDays);
  concurrent("conc_cache_on_cold", conc_on, cache_on, 3);
  concurrent("conc_cache_on_warm", conc_on, cache_on, 3);

  std::printf(
      "  plan cache: %llu full hits, %llu skeleton hits, %llu misses\n",
      static_cast<unsigned long long>(cache_stats.hits_full),
      static_cast<unsigned long long>(cache_stats.hits_skeleton),
      static_cast<unsigned long long>(cache_stats.misses));

  FILE* f = std::fopen("BENCH_submit.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_submit.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"submit_fast_path\",\n");
  std::fprintf(f, "  \"template\": \"filter_aggregate_sort_output\",\n");
  std::fprintf(f, "  \"dates\": %d,\n", kDays);
  std::fprintf(f, "  \"concurrent_batch\": %d,\n", kConcurrent);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %d, \"samples\": %d, "
                 "\"mean_ms\": %.4f, \"min_ms\": %.4f, \"max_ms\": %.4f}%s\n",
                 s.mode.c_str(), s.threads, s.jobs, s.MeanMs(),
                 s.min_seconds * 1e3, s.max_seconds * 1e3,
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"plan_cache\": {\"hits_full\": %llu, \"hits_skeleton\": %llu, "
      "\"misses\": %llu, \"epoch_invalidations\": %llu, \"demotions\": "
      "%llu, \"insertions\": %llu, \"evictions\": %llu},\n",
      static_cast<unsigned long long>(cache_stats.hits_full),
      static_cast<unsigned long long>(cache_stats.hits_skeleton),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.epoch_invalidations),
      static_cast<unsigned long long>(cache_stats.demotions),
      static_cast<unsigned long long>(cache_stats.insertions),
      static_cast<unsigned long long>(cache_stats.evictions));
  // Full instrument dump of the warm cache-on instance: includes the
  // metadata service's cv_metadata_lock_wait_seconds histogram.
  std::fprintf(f, "  \"metrics\": %s\n",
               obs::RenderMetricsJson(*on_inst.cv->metrics()).c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote BENCH_submit.json\n");

  // Smoke gate: the warm pass must actually have served from the cache.
  if (cache_stats.hits_full == 0) {
    std::fprintf(stderr, "warm pass produced no full cache hits\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
