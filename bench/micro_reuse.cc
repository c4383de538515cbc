// Reuse-coverage microbenchmark for the staged containment matcher: a
// recurring template plus filter/group-by perturbed variants of it are
// replayed over many dates with containment matching on vs off. Reports
// per-category submit latency (exact hit / subsumed hit / miss), the
// match-funnel counters, and the reuse-coverage ratio — the paper's
// motivation for subsumption-based matching is exactly that perturbed
// recurrences of a shared computation should still hit the materialized
// view. Writes BENCH_reuse.json for the CI bench-smoke artifact.
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
  Rng rng(Hash128Hasher()(Hash128{7, 3}) + rows);
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

PlanBuilder Clicks(const std::string& date) {
  return PlanBuilder::Extract("clicks_{date}", "clicks_" + date,
                              "guid-clicks_" + date, ClickSchema());
}

std::vector<AggregateSpec> SharedSpecs() {
  return {{AggFunc::kCount, nullptr, "n"},
          {AggFunc::kSum, Col("latency"), "total"}};
}

PlanNodePtr SharedAgg(const std::string& date) {
  return Clicks(date)
      .Filter(Gt(Col("latency"), Lit(int64_t{50})))
      .Aggregate({"page"}, SharedSpecs())
      .Build();
}

JobDefinition MakeJob(const std::string& id, PlanNodePtr plan) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = std::move(plan);
  return def;
}

JobDefinition BuilderJob(const std::string& date) {
  return MakeJob("builder", PlanBuilder::From(SharedAgg(date))
                                .Sort({{"n", false}})
                                .Output("builder_" + date)
                                .Build());
}

/// The perturbed recurring family. "exact" recurs with the shared subplan
/// verbatim; the others vary the filter or the group-by inside the cap, so
/// only containment matching can serve them from the view. The last two
/// are deliberate non-matches (weaker predicate; no covering sort).
struct Variant {
  const char* name;
  PlanNodePtr (*make)(const std::string& date);
};
const Variant kVariants[] = {
    {"exact",
     [](const std::string& d) {
       return PlanBuilder::From(SharedAgg(d))
           .Filter(Gt(Col("n"), Lit(int64_t{0})))
           .Output("exact_" + d)
           .Build();
     }},
    {"page_eq",
     [](const std::string& d) {
       return Clicks(d)
           .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                       Eq(Col("page"), Lit("/cart"))))
           .Aggregate({"page"}, SharedSpecs())
           .Sort({{"page", true}})
           .Output("page_eq_" + d)
           .Build();
     }},
    {"page_range",
     [](const std::string& d) {
       return Clicks(d)
           .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                       Ge(Col("page"), Lit("/c"))))
           .Aggregate({"page"}, SharedSpecs())
           .Sort({{"page", true}})
           .Output("page_range_" + d)
           .Build();
     }},
    {"global_rollup",
     [](const std::string& d) {
       return Clicks(d)
           .Filter(Gt(Col("latency"), Lit(int64_t{50})))
           .Aggregate({}, {{AggFunc::kCount, nullptr, "rows"}})
           .Sort({{"rows", true}})
           .Output("global_" + d)
           .Build();
     }},
    {"weaker_filter",
     [](const std::string& d) {
       return Clicks(d)
           .Filter(Gt(Col("latency"), Lit(int64_t{10})))
           .Aggregate({"page"}, SharedSpecs())
           .Sort({{"page", true}})
           .Output("weaker_" + d)
           .Build();
     }},
    {"unsorted",
     [](const std::string& d) {
       return Clicks(d)
           .Filter(And(Gt(Col("latency"), Lit(int64_t{50})),
                       Eq(Col("page"), Lit("/search"))))
           .Aggregate({"page"}, SharedSpecs())
           .Output("unsorted_" + d)
           .Build();
     }},
};

std::string Date(int i) {
  char buf[32];  // room for any int in both fields
  std::snprintf(buf, sizeof(buf), "2018-%02d-%02d", 3 + i / 28, 1 + i % 28);
  return buf;
}

struct Sample {
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
  double MeanMs() const { return jobs > 0 ? 1e3 * total_seconds / jobs : 0; }
};

struct ModeResult {
  std::string mode;
  int eligible_jobs = 0;
  int exact_hits = 0;
  int subsumed_hits = 0;
  int misses = 0;
  long long candidates_filtered = 0;
  long long containment_verified = 0;
  long long containment_rejected = 0;
  long long compensation_nodes = 0;
  Sample exact_latency;
  Sample subsumed_latency;
  Sample miss_latency;

  double Coverage() const {
    return eligible_jobs > 0
               ? static_cast<double>(exact_hits + subsumed_hits) /
                     eligible_jobs
               : 0;
  }
};

ModeResult RunMode(const std::string& mode, bool containment, int days,
                   std::string* metrics_json) {
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 1;
  config.analyzer.selection.min_frequency = 2;
  config.optimizer.enable_containment_matching = containment;
  CloudViews cv(config);
  for (int d = 0; d < days; ++d) WriteClicks(cv.storage(), Date(d), 400);

  // Day-0 history seeds the analyzer with the shared aggregate. The
  // second seed recurs under the same template id as the day-N "exact"
  // variant so the tag-scoped exact lookup sees the annotation even with
  // containment (and its table-set prefetch) disabled.
  (void)cv.Submit(BuilderJob(Date(0)), false);
  (void)cv.Submit(MakeJob("q_exact", kVariants[0].make(Date(0))), false);
  cv.RunAnalyzerAndLoad();

  ModeResult result;
  result.mode = mode;
  for (int d = 1; d < days; ++d) {
    std::string date = Date(d);
    // The builder materializes the view for this date; the perturbed
    // family behind it is what we score.
    auto built = cv.Submit(BuilderJob(date));
    if (!built.ok() || built->views_materialized != 1) {
      std::fprintf(stderr, "view build failed on %s\n", date.c_str());
      std::exit(1);
    }
    for (const Variant& v : kVariants) {
      double start = MonotonicNowSeconds();
      auto r = cv.Submit(MakeJob(std::string("q_") + v.name, v.make(date)));
      double elapsed = MonotonicNowSeconds() - start;
      if (!r.ok()) {
        std::fprintf(stderr, "submit failed (%s, %s): %s\n", mode.c_str(),
                     v.name, r.status().ToString().c_str());
        std::exit(1);
      }
      ++result.eligible_jobs;
      result.candidates_filtered += r->candidates_filtered;
      result.containment_verified += r->containment_verified;
      result.containment_rejected += r->containment_rejected;
      result.compensation_nodes += r->compensation_nodes_added;
      if (r->views_reused_subsumed > 0) {
        ++result.subsumed_hits;
        result.subsumed_latency.Add(elapsed);
      } else if (r->views_reused > 0) {
        ++result.exact_hits;
        result.exact_latency.Add(elapsed);
      } else {
        ++result.misses;
        result.miss_latency.Add(elapsed);
      }
    }
  }
  if (metrics_json != nullptr) {
    *metrics_json = obs::RenderMetricsJson(*cv.metrics());
  }
  return result;
}

void PrintMode(const ModeResult& m) {
  std::printf(
      "  %-16s coverage=%4.0f%%  exact=%d subsumed=%d miss=%d  "
      "(filtered=%lld verified=%lld rejected=%lld comp_nodes=%lld)\n",
      m.mode.c_str(), 100 * m.Coverage(), m.exact_hits, m.subsumed_hits,
      m.misses, m.candidates_filtered, m.containment_verified,
      m.containment_rejected, m.compensation_nodes);
  std::printf(
      "  %-16s latency: exact=%.3fms subsumed=%.3fms miss=%.3fms\n", "",
      m.exact_latency.MeanMs(), m.subsumed_latency.MeanMs(),
      m.miss_latency.MeanMs());
}

void WriteSample(FILE* f, const char* name, const Sample& s,
                 const char* trailer) {
  std::fprintf(f,
               "      {\"category\": \"%s\", \"samples\": %d, \"mean_ms\": "
               "%.4f, \"min_ms\": %.4f, \"max_ms\": %.4f}%s\n",
               name, s.jobs, s.MeanMs(),
               s.jobs > 0 ? s.min_seconds * 1e3 : 0, s.max_seconds * 1e3,
               trailer);
}

void WriteMode(FILE* f, const ModeResult& m, const char* trailer) {
  std::fprintf(f, "    {\"mode\": \"%s\",\n", m.mode.c_str());
  std::fprintf(f, "     \"eligible_jobs\": %d,\n", m.eligible_jobs);
  std::fprintf(f, "     \"exact_hits\": %d,\n", m.exact_hits);
  std::fprintf(f, "     \"subsumed_hits\": %d,\n", m.subsumed_hits);
  std::fprintf(f, "     \"misses\": %d,\n", m.misses);
  std::fprintf(f, "     \"reuse_coverage\": %.4f,\n", m.Coverage());
  std::fprintf(f,
               "     \"funnel\": {\"candidates_filtered\": %lld, "
               "\"containment_verified\": %lld, \"containment_rejected\": "
               "%lld, \"compensation_nodes_added\": %lld},\n",
               m.candidates_filtered, m.containment_verified,
               m.containment_rejected, m.compensation_nodes);
  std::fprintf(f, "     \"latency\": [\n");
  WriteSample(f, "exact_hit", m.exact_latency, ",");
  WriteSample(f, "subsumed_hit", m.subsumed_latency, ",");
  WriteSample(f, "miss", m.miss_latency, "");
  std::fprintf(f, "     ]}%s\n", trailer);
}

int Run() {
  FigureHeader("micro",
               "reuse coverage: staged containment matcher",
               "perturbed recurrences of a shared computation are served "
               "from the materialized view via containment + compensation "
               "(Sec 5: normalized signatures over-conservatively miss "
               "perturbed matches)");

  constexpr int kDays = 12;
  std::string metrics_json;
  ModeResult off = RunMode("containment_off", false, kDays, nullptr);
  ModeResult on = RunMode("containment_on", true, kDays, &metrics_json);
  PrintMode(off);
  PrintMode(on);
  PaperVsMeasured("reuse coverage (perturbed workload)",
                  "subsumption recovers misses",
                  std::to_string(static_cast<int>(100 * off.Coverage())) +
                      "% -> " +
                      std::to_string(static_cast<int>(100 * on.Coverage())) +
                      "%");

  FILE* f = std::fopen("BENCH_reuse.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_reuse.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"containment_reuse\",\n");
  std::fprintf(f, "  \"dates\": %d,\n", kDays);
  std::fprintf(f, "  \"variants_per_date\": %d,\n",
               static_cast<int>(sizeof(kVariants) / sizeof(kVariants[0])));
  std::fprintf(f, "  \"modes\": [\n");
  WriteMode(f, off, ",");
  WriteMode(f, on, "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"metrics\": %s\n", metrics_json.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote BENCH_reuse.json\n");

  // Smoke gates: containment must actually recover perturbed misses, and
  // must never lose coverage relative to exact-only matching.
  if (on.subsumed_hits == 0) {
    std::fprintf(stderr, "containment_on produced no subsumed hits\n");
    return 1;
  }
  if (off.subsumed_hits != 0) {
    std::fprintf(stderr, "containment_off produced subsumed hits\n");
    return 1;
  }
  if (on.Coverage() < off.Coverage()) {
    std::fprintf(stderr, "containment reduced reuse coverage\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main() { return cloudviews::bench::Run(); }
