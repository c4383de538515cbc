// Integration tests for the observability subsystem: job lifecycle span
// trees (deterministic under a fake clock), the metrics the stack emits end
// to end, per-job profile rendering, and the executor's refusal of a plan
// that is not a tree (per-node stats are keyed by node id, one row per
// node).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/cloudviews.h"
#include "core/explain.h"
#include "exec/executor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "tests/test_util.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace {

using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

double CounterValue(obs::MetricsRegistry* registry, const std::string& name,
                    obs::Labels labels = {}) {
  return static_cast<double>(
      registry->GetCounter(name, std::move(labels))->value());
}

// ---------------------------------------------------------------------------
// Span-tree shape over one TPC-DS job, with an injected fake clock so the
// trace is byte-deterministic.
// ---------------------------------------------------------------------------

class TpcdsProfileTest : public ::testing::Test {
 protected:
  TpcdsProfileTest() {
    CloudViewsConfig config;
    config.exec.worker_threads = 2;
    config.wall_clock = &wall_clock_;
    cv_ = std::make_unique<CloudViews>(config);
    tpcds::TpcdsOptions options;
    options.store_sales_rows = 500;
    options.web_sales_rows = 200;
    options.catalog_sales_rows = 200;
    options.customers = 50;
    tpcds::TpcdsGenerator gen(options);
    EXPECT_TRUE(gen.WriteTables(cv_->storage()).ok());
  }

  FakeMonotonicClock wall_clock_{5.0};
  std::unique_ptr<CloudViews> cv_;
};

TEST_F(TpcdsProfileTest, JobTraceHasTheDocumentedShape) {
  auto result = cv_->Submit(tpcds::MakeQueryJob(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);

  const obs::SpanRecord& job = *result->trace;
  EXPECT_EQ(job.name, "job");
  // The fake clock never advances, so every timestamp is the injected
  // start value — this is what makes profile output deterministic.
  EXPECT_DOUBLE_EQ(job.start_seconds, 5.0);
  EXPECT_DOUBLE_EQ(job.end_seconds, 5.0);

  ASSERT_EQ(job.children.size(), 4u);
  EXPECT_EQ(job.children[0]->name, "metadata_lookup");
  EXPECT_EQ(job.children[1]->name, "optimize");
  EXPECT_EQ(job.children[2]->name, "execute");
  EXPECT_EQ(job.children[3]->name, "record");

  const obs::SpanRecord& optimize = *job.children[1];
  ASSERT_EQ(optimize.children.size(), 4u);
  EXPECT_EQ(optimize.children[0]->name, "logical_rewrite");
  EXPECT_EQ(optimize.children[1]->name, "physical_plan");
  EXPECT_EQ(optimize.children[2]->name, "reuse");
  EXPECT_EQ(optimize.children[3]->name, "materialize");

  // Root attributes identify the job.
  bool saw_job_id = false, saw_template = false;
  for (const auto& [key, value] : job.attributes) {
    saw_job_id |= key == "job_id";
    saw_template |= key == "template_id";
  }
  EXPECT_TRUE(saw_job_id);
  EXPECT_TRUE(saw_template);

  // The execute span carries the run statistics.
  const obs::SpanRecord* execute = job.Find("execute");
  ASSERT_NE(execute, nullptr);
  bool saw_rows = false;
  for (const auto& [key, value] : execute->attributes) {
    saw_rows |= key == "output_rows";
  }
  EXPECT_TRUE(saw_rows);

  // The tracer retains the same finished trace.
  EXPECT_EQ(cv_->tracer()->LatestTrace().get(), result->trace.get());
}

TEST_F(TpcdsProfileTest, RegistryReflectsTheWorkload) {
  obs::MetricsRegistry* m = cv_->metrics();
  constexpr int kJobs = 3;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(cv_->Submit(tpcds::MakeQueryJob(1 + i)).ok());
  }
  EXPECT_EQ(CounterValue(m, "cv_jobs_submitted_total"), kJobs);
  EXPECT_EQ(CounterValue(m, "cv_jobs_succeeded_total"), kJobs);
  EXPECT_EQ(CounterValue(m, "cv_jobs_failed_total"), 0);
  EXPECT_DOUBLE_EQ(m->GetGauge("cv_jobs_active")->value(), 0.0);
  EXPECT_GE(CounterValue(m, "cv_metadata_lookups_total"), kJobs);
  EXPECT_GT(CounterValue(m, "cv_exec_rows_total"), 0);
  EXPECT_EQ(m->GetHistogram("cv_job_latency_seconds")->count(),
            static_cast<uint64_t>(kJobs));
  for (const char* stage :
       {"metadata_lookup", "optimize", "execute", "record"}) {
    EXPECT_EQ(m->GetHistogram("cv_job_stage_seconds", {{"stage", stage}})
                  ->count(),
              static_cast<uint64_t>(kJobs))
        << stage;
  }
  // worker_threads=2 gives a one-worker shared pool named "exec".
  EXPECT_DOUBLE_EQ(
      m->GetGauge("cv_threadpool_threads", {{"pool", "exec"}})->value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      m->GetGauge("cv_threadpool_busy_workers", {{"pool", "exec"}})->value(),
      0.0);
  EXPECT_GT(
      m->GetCounter("cv_threadpool_tasks_total", {{"pool", "exec"}})->value(),
      0u);

  // The whole registry renders in both exposition formats.
  std::string prom = obs::RenderPrometheus(*m);
  EXPECT_NE(prom.find("# TYPE cv_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("cv_job_stage_seconds_bucket{stage=\"execute\",le="),
            std::string::npos);
  std::string json = obs::RenderMetricsJson(*m);
  EXPECT_NE(json.find("\"cv_threadpool_tasks_total\""), std::string::npos);
}

TEST_F(TpcdsProfileTest, ExplainAnalyzeAndJsonProfileRender) {
  auto result = cv_->Submit(tpcds::MakeQueryJob(2));
  ASSERT_TRUE(result.ok());

  std::string text = ExplainAnalyze(*result);
  EXPECT_NE(text.find("EXPLAIN ANALYZE job"), std::string::npos) << text;
  EXPECT_NE(text.find("lifecycle:"), std::string::npos) << text;
  EXPECT_NE(text.find("optimize"), std::string::npos) << text;
  EXPECT_NE(text.find("plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("actual:"), std::string::npos) << text;

  std::string json = JobProfileJson(*result);
  EXPECT_NE(json.find("\"job_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":{"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\":{"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_seconds\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The reuse feedback loop shows up in the registry: materializations and
// reuses land in the cv_rewrite_* counters.
// ---------------------------------------------------------------------------

TEST(ReuseMetricsTest, RewriteDecisionsReachTheRegistry) {
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 1;
  config.analyzer.selection.min_frequency = 2;
  CloudViews cv(config);
  WriteClickStream(cv.storage(), "clicks_2018-01-01", 1500, 1, "2018-01-01");

  auto job = [&](const std::string& id, PlanNodePtr plan) {
    JobDefinition def;
    def.template_id = id;
    def.vc = "vc";
    def.user = "u-" + id;
    def.logical_plan = std::move(plan);
    return def;
  };
  auto plan_a = [&] {
    return PlanBuilder::From(SharedAggPlan("2018-01-01"))
        .Sort({{"n", false}})
        .Output("A")
        .Build();
  };
  auto plan_b = [&] {
    return PlanBuilder::From(SharedAggPlan("2018-01-01"))
        .Filter(Gt(Col("n"), Lit(int64_t{0})))
        .Output("B")
        .Build();
  };
  // Day 1: plain runs feed the repository; then analyze.
  ASSERT_TRUE(cv.Submit(job("jobA", plan_a()), false).ok());
  ASSERT_TRUE(cv.Submit(job("jobB", plan_b()), false).ok());
  cv.RunAnalyzerAndLoad();

  // Day 2: first job materializes the shared aggregate, second reuses it.
  auto first = cv.Submit(job("jobA", plan_a()));
  ASSERT_TRUE(first.ok());
  auto second = cv.Submit(job("jobB", plan_b()));
  ASSERT_TRUE(second.ok());
  ASSERT_GE(first->views_materialized, 1);
  ASSERT_GE(second->views_reused, 1);

  obs::MetricsRegistry* m = cv.metrics();
  EXPECT_GE(CounterValue(m, "cv_rewrite_views_materialized_total"), 1);
  EXPECT_GE(CounterValue(m, "cv_rewrite_views_reused_total"), 1);
  EXPECT_GE(CounterValue(m, "cv_metadata_views_registered_total"), 1);
  EXPECT_GE(m->GetGauge("cv_metadata_registered_views")->value(), 1.0);
  EXPECT_GE(m->GetGauge("cv_storage_views")->value(), 1.0);
  EXPECT_GT(m->GetGauge("cv_storage_view_bytes")->value(), 0.0);
  EXPECT_GE(m->GetHistogram("cv_storage_lock_wait_seconds")->count(), 1u);
  EXPECT_GE(m->GetHistogram("cv_metadata_lock_wait_seconds")->count(), 1u);
}

// ---------------------------------------------------------------------------
// Each analyzer run is one trace, "analyzer.run", whose stages the tracer
// turns into cv_job_stage_seconds series; the repository's mutex, which
// ingest now holds longer, has a wait histogram.
// ---------------------------------------------------------------------------

TEST(AnalyzerStagesTest, EachRunMovesEveryStageSeriesByOne) {
  CloudViews cv;
  WriteClickStream(cv.storage(), "clicks_2018-01-01", 500, 1, "2018-01-01");
  for (const char* name : {"a", "b"}) {
    JobDefinition def;
    def.template_id = name;
    def.logical_plan = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                           .Output(std::string("out_") + name)
                           .Build();
    ASSERT_TRUE(cv.Submit(def, false).ok());
  }
  obs::MetricsRegistry* m = cv.metrics();
  EXPECT_GE(m->GetHistogram("cv_repository_lock_wait_seconds")->count(), 2u);

  const std::vector<std::string> stages = {
      "analyzer.mine",     "analyzer.select",       "analyzer.order",
      "analyzer.annotate", "metadata.load_analysis"};
  auto count = [&](const std::string& stage) {
    return m->GetHistogram("cv_job_stage_seconds", {{"stage", stage}})
        ->count();
  };
  for (int run = 1; run <= 2; ++run) {
    SCOPED_TRACE(run);
    uint64_t runs_before = count("analyzer.run");
    std::vector<uint64_t> before;
    for (const auto& stage : stages) before.push_back(count(stage));
    AnalysisResult analysis = cv.RunAnalyzerAndLoad();
    EXPECT_FALSE(analysis.annotations.empty());
    EXPECT_EQ(count("analyzer.run"), runs_before + 1);
    for (size_t i = 0; i < stages.size(); ++i) {
      EXPECT_EQ(count(stages[i]), before[i] + 1) << stages[i];
    }
    auto trace = cv.tracer()->LatestTrace();
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->name, "analyzer.run");
    std::vector<std::string> children;
    for (const auto& child : trace->children) children.push_back(child->name);
    EXPECT_EQ(children, stages);
  }
}

// ---------------------------------------------------------------------------
// One stats path: the snapshot accessors read the registered counters and
// gauges, so observability on and off report the same numbers, and with it
// on each field equals its series in the exported registry.
// ---------------------------------------------------------------------------

/// Field -> metric of every PlanCache::Stats and MetadataService::Counters
/// field, plus the storage and metadata levels.
struct FieldMetric {
  const char* field;
  const char* metric;
  uint64_t (*read)(CloudViews* cv);
};

#define CV_CACHE_FIELD(f, m)                                          \
  FieldMetric {                                                       \
    #f, m, [](CloudViews* cv) -> uint64_t {                           \
      return cv->job_service()->plan_cache().stats().f;               \
    }                                                                 \
  }
#define CV_METADATA_FIELD(f, m)                                        \
  FieldMetric {                                                        \
    #f, m, [](CloudViews* cv) -> uint64_t {                            \
      return cv->metadata()->counters().f;                             \
    }                                                                  \
  }

const FieldMetric kStatsFields[] = {
    CV_CACHE_FIELD(hits_full, "cv_plan_cache_hits_full_total"),
    CV_CACHE_FIELD(hits_skeleton, "cv_plan_cache_hits_skeleton_total"),
    CV_CACHE_FIELD(misses, "cv_plan_cache_misses_total"),
    CV_CACHE_FIELD(epoch_invalidations,
                   "cv_plan_cache_epoch_invalidations_total"),
    CV_CACHE_FIELD(precise_mismatches,
                   "cv_plan_cache_precise_mismatches_total"),
    CV_CACHE_FIELD(demotions, "cv_plan_cache_demotions_total"),
    CV_CACHE_FIELD(rebind_failures, "cv_plan_cache_rebind_failures_total"),
    CV_CACHE_FIELD(insertions, "cv_plan_cache_insertions_total"),
    CV_CACHE_FIELD(evictions, "cv_plan_cache_evictions_total"),
    CV_CACHE_FIELD(explicit_invalidations,
                   "cv_plan_cache_explicit_invalidations_total"),
    CV_CACHE_FIELD(entries, "cv_plan_cache_entries"),
    CV_METADATA_FIELD(lookups, "cv_metadata_lookups_total"),
    CV_METADATA_FIELD(propose_attempts,
                      "cv_metadata_propose_attempts_total"),
    CV_METADATA_FIELD(proposals, "cv_metadata_proposals_total"),
    CV_METADATA_FIELD(locks_granted, "cv_metadata_build_locks_granted_total"),
    CV_METADATA_FIELD(locks_denied, "cv_metadata_build_locks_denied_total"),
    CV_METADATA_FIELD(locks_abandoned,
                      "cv_metadata_build_locks_abandoned_total"),
    CV_METADATA_FIELD(leases_reclaimed,
                      "cv_metadata_lock_leases_reclaimed_total"),
    CV_METADATA_FIELD(stale_registrations_rejected,
                      "cv_metadata_stale_registrations_total"),
    CV_METADATA_FIELD(orphans_cleaned, "cv_metadata_orphans_cleaned_total"),
    CV_METADATA_FIELD(views_registered, "cv_metadata_views_registered_total"),
    CV_METADATA_FIELD(views_purged, "cv_metadata_views_purged_total"),
    {"NumRegisteredViews", "cv_metadata_registered_views",
     [](CloudViews* cv) -> uint64_t {
       return cv->metadata()->NumRegisteredViews();
     }},
    {"TotalBytes", "cv_storage_total_bytes",
     [](CloudViews* cv) -> uint64_t {
       return static_cast<uint64_t>(cv->storage()->TotalBytes());
     }},
    {"NumStreams", "cv_storage_streams",
     [](CloudViews* cv) -> uint64_t { return cv->storage()->NumStreams(); }},
};

#undef CV_CACHE_FIELD
#undef CV_METADATA_FIELD

/// Every counter series of `registry`, keyed by name and labels.
std::map<std::string, double> CounterSeries(
    const obs::MetricsRegistry& registry) {
  std::map<std::string, double> out;
  for (const obs::FamilySnapshot& family : registry.Snapshot()) {
    if (family.type != obs::MetricType::kCounter) continue;
    for (const obs::SeriesSnapshot& series : family.series) {
      out[family.name + "{" + obs::RenderLabels(series.labels) + "}"] =
          series.value;
    }
  }
  return out;
}

/// One deterministic single-threaded workload: history, the analyzer, a
/// view build, reuse through the skeleton tier, a full-hit re-submission, a
/// second template reusing the view, a demotion once the view expires, the
/// purge, and a rebuild.
std::unique_ptr<CloudViews> RunStatsWorkload(bool observability,
                                             MonotonicClock* wall_clock) {
  CloudViewsConfig config;
  config.enable_observability = observability;
  config.wall_clock = wall_clock;
  // One view, so the third occurrence is a full hit. Under the fake clock
  // every candidate's utility is zero and the tie-break is by signature.
  config.analyzer.selection.top_k = 1;
  config.analyzer.selection.min_frequency = 2;
  auto cv = std::make_unique<CloudViews>(config);
  auto job = [](const std::string& id, const std::string& date) {
    PlanBuilder shared = PlanBuilder::From(SharedAggPlan(date));
    PlanBuilder plan =
        id == "jobA" ? std::move(shared).Sort({{"n", false}})
                     : std::move(shared).Filter(Gt(Col("n"), Lit(int64_t{0})));
    JobDefinition def;
    def.template_id = id;
    def.vc = "vc";
    def.user = "u-" + id;
    def.logical_plan = std::move(plan).Output(id + "_" + date).Build();
    return def;
  };
  WriteClickStream(cv->storage(), "clicks_2018-01-01", 1500, 1, "2018-01-01");
  WriteClickStream(cv->storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  EXPECT_TRUE(cv->Submit(job("jobA", "2018-01-01"), false).ok());
  EXPECT_TRUE(cv->Submit(job("jobB", "2018-01-01"), false).ok());
  cv->RunAnalyzerAndLoad();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cv->Submit(job("jobA", "2018-01-02")).ok());
  }
  EXPECT_TRUE(cv->Submit(job("jobB", "2018-01-02")).ok());
  cv->clock()->AdvanceSeconds(30 * kSecondsPerDay);
  EXPECT_TRUE(cv->Submit(job("jobA", "2018-01-02")).ok());
  EXPECT_GE(cv->PurgeExpired(), 1u);
  EXPECT_TRUE(cv->Submit(job("jobA", "2018-01-02")).ok());
  return cv;
}

TEST(StatsPathTest, ObservabilityOnAndOffReportTheSameStats) {
  FakeMonotonicClock wall_clock{5.0};
  auto on = RunStatsWorkload(true, &wall_clock);
  auto off = RunStatsWorkload(false, &wall_clock);
  const PlanCache::Stats cache = on->job_service()->plan_cache().stats();
  const MetadataService::Counters metadata = on->metadata()->counters();
  // The workload reaches every tier it is meant to.
  EXPECT_GE(cache.hits_full, 1u);
  EXPECT_GE(cache.hits_skeleton, 1u);
  EXPECT_GE(cache.demotions, 1u);
  EXPECT_GE(metadata.views_registered, 2u);
  EXPECT_GE(metadata.views_purged, 1u);
  for (const FieldMetric& f : kStatsFields) {
    EXPECT_EQ(f.read(on.get()), f.read(off.get())) << f.field;
  }

  // Off, the same counters reached metrics() with the same values.
  EXPECT_EQ(CounterSeries(*off->metrics()), CounterSeries(*on->metrics()));
}

/// Instrument families in `registry`, `cv_job_stage_seconds` aside: only
/// the tracer, which observability attaches, feeds that one.
std::set<std::string> FamiliesBesidesStages(
    const obs::MetricsRegistry& registry) {
  std::set<std::string> out;
  for (const obs::FamilySnapshot& family : registry.Snapshot()) {
    if (family.name != "cv_job_stage_seconds") out.insert(family.name);
  }
  return out;
}

TEST(ConstructionWiringTest, ObservabilityOnlyAttachesTheTracer) {
  FakeMonotonicClock wall_clock{5.0};  // never advances
  auto make = [&](bool observability) {
    CloudViewsConfig config;
    config.enable_observability = observability;
    config.wall_clock = &wall_clock;
    return std::make_unique<CloudViews>(config);
  };
  auto on = make(true);
  auto off = make(false);

  // Every component registered its instruments at construction, into the
  // one registry, whether or not observability is on.
  const std::set<std::string> constructed =
      FamiliesBesidesStages(*on->metrics());
  EXPECT_EQ(FamiliesBesidesStages(*off->metrics()), constructed);
  for (const char* family :
       {"cv_storage_lock_wait_seconds", "cv_metadata_lock_wait_seconds",
        "cv_repository_lock_wait_seconds", "cv_job_latency_seconds"}) {
    EXPECT_EQ(constructed.count(family), 1u) << family;
  }

  auto submit = [](CloudViews* cv) {
    WriteClickStream(cv->storage(), "clicks_2018-01-01", 500, 1,
                     "2018-01-01");
    JobDefinition def;
    def.template_id = "jobA";
    def.logical_plan = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                           .Output("jobA_2018-01-01")
                           .Build();
    return cv->Submit(def);
  };
  auto on_result = submit(on.get());
  auto off_result = submit(off.get());
  ASSERT_TRUE(on_result.ok()) << on_result.status().ToString();
  ASSERT_TRUE(off_result.ok()) << off_result.status().ToString();
  EXPECT_EQ(FamiliesBesidesStages(*off->metrics()),
            FamiliesBesidesStages(*on->metrics()));

  // Off, the job still times on the injected clock, and no span is kept.
  EXPECT_EQ(off_result->compile_seconds, 0.0);
  EXPECT_EQ(off_result->run_stats.latency_seconds, 0.0);
  ASSERT_FALSE(off_result->run_stats.operators.empty());
  for (const auto& [id, op] : off_result->run_stats.operators) {
    EXPECT_EQ(op.exclusive_seconds, 0.0) << "operator " << id;
  }
  EXPECT_EQ(off_result->trace, nullptr);
  EXPECT_TRUE(off->tracer()->FinishedTraces().empty());
  EXPECT_NE(on_result->trace, nullptr);
}

TEST(StatsPathTest, EveryStatsFieldEqualsItsExportedSeries) {
  FakeMonotonicClock wall_clock{5.0};
  auto cv = RunStatsWorkload(true, &wall_clock);
  const std::string prom = obs::RenderPrometheus(*cv->metrics());
  for (const FieldMetric& f : kStatsFields) {
    const std::string line_start = std::string("\n") + f.metric + " ";
    size_t pos = prom.find(line_start);
    ASSERT_NE(pos, std::string::npos) << f.metric << " is not exported";
    double exported = std::stod(prom.substr(pos + line_start.size()));
    EXPECT_EQ(static_cast<double>(f.read(cv.get())), exported)
        << f.field << " vs " << f.metric;
  }
}

// ---------------------------------------------------------------------------
// Executed plans are trees: per-node stats rows are keyed by node id, so a
// node reachable through two parents is rejected before anything runs.
// ---------------------------------------------------------------------------

class DagExecTest : public ::testing::Test {
 protected:
  DagExecTest() : storage_(&clock_) {
    Schema schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
    Batch b(schema);
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(b.AppendRow({Value::Int64(i % 7),
                               Value::Double(static_cast<double>(i))})
                      .ok());
    }
    EXPECT_TRUE(storage_
                    .WriteStream(MakeStreamData("t", "g-t", schema, {b},
                                                clock_.Now()))
                    .ok());
    schema_ = schema;
  }

  /// agg(k -> sum v) over the base table.
  PlanNodePtr Agg() {
    return PlanBuilder::Extract("t", "t", "g-t", schema_)
        .Aggregate({"k"}, {{AggFunc::kSum, Col("v"), "sv"}})
        .Build();
  }

  /// Join of the aggregate with a renamed projection of `right_input`;
  /// passing one `Agg()` as both inputs makes the plan a DAG.
  static PlanNodePtr SelfJoin(PlanNodePtr left, PlanNodePtr right_input) {
    auto renamed = std::make_shared<ProjectNode>(
        std::move(right_input),
        std::vector<NamedExpr>{{Col("k"), "k2"}, {Col("sv"), "sv2"}});
    return std::make_shared<JoinNode>(
        std::move(left), renamed, JoinType::kInner,
        std::vector<std::pair<std::string, std::string>>{{"k", "k2"}});
  }

  Result<JobRunStats> Run(const PlanNodePtr& plan,
                          obs::MetricsRegistry* metrics) {
    EXPECT_TRUE(plan->Bind().ok());
    AssignNodeIds(plan.get());
    ExecContext ctx;
    ctx.storage = &storage_;
    ctx.metrics = metrics;
    ctx.options.morsel_rows = 64;
    return Executor(ctx).Execute(plan);
  }

  SimulatedClock clock_;
  StorageManager storage_;
  Schema schema_;
};

TEST_F(DagExecTest, PlanThatIsNotATreeIsRejectedBeforeAnythingRuns) {
  auto shared = Agg();
  obs::MetricsRegistry dag_metrics;
  auto dag = Run(SelfJoin(shared, shared), &dag_metrics);
  EXPECT_TRUE(dag.status().IsInvalidArgument()) << dag.status().ToString();
  EXPECT_EQ(CounterValue(&dag_metrics, "cv_exec_morsels_total"), 0);

  // The same shape built as a tree runs all six operators.
  obs::MetricsRegistry tree_metrics;
  auto tree = Run(SelfJoin(Agg(), Agg()), &tree_metrics);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->operators.size(), 6u);
  EXPECT_GT(CounterValue(&tree_metrics, "cv_exec_morsels_total"), 0);
}

}  // namespace
}  // namespace cloudviews
