#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timed_lock.h"
#include "obs/trace.h"

namespace cloudviews {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.Set(3.5);
  g.Add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(MetricsTest, ScopedGaugeIncrementRestoresLevel) {
  Gauge g;
  {
    ScopedGaugeIncrement a(&g);
    ScopedGaugeIncrement b(&g);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
  }
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsTest, HistogramBucketsAreExponential) {
  HistogramOptions opts;
  opts.first_bound = 0.001;
  opts.growth = 10.0;
  opts.num_buckets = 3;  // bounds 0.001, 0.01, 0.1 + overflow
  Histogram h(opts);
  ASSERT_EQ(h.bounds().size(), 3u);
  h.Observe(0.0005);  // bucket 0
  h.Observe(0.005);   // bucket 1
  h.Observe(0.05);    // bucket 2
  h.Observe(5.0);     // overflow
  auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0005 + 0.005 + 0.05 + 5.0);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameSeriesReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("cv_x_total", {{"k", "v"}});
  Counter* b = registry.GetCounter("cv_x_total", {{"k", "v"}});
  EXPECT_EQ(a, b);
  Counter* c = registry.GetCounter("cv_x_total", {{"k", "w"}});
  EXPECT_NE(a, c);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter* a =
      registry.GetCounter("cv_x_total", {{"a", "1"}, {"b", "2"}});
  Counter* b =
      registry.GetCounter("cv_x_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("cv_b_total")->Increment(2);
  registry.GetGauge("cv_a")->Set(7);
  registry.GetHistogram("cv_c_seconds")->Observe(0.5);
  auto families = registry.Snapshot();
  ASSERT_EQ(families.size(), 3u);
  EXPECT_EQ(families[0].name, "cv_a");
  EXPECT_EQ(families[1].name, "cv_b_total");
  EXPECT_EQ(families[2].name, "cv_c_seconds");
  EXPECT_EQ(families[0].type, MetricType::kGauge);
  EXPECT_EQ(families[1].type, MetricType::kCounter);
  EXPECT_EQ(families[2].type, MetricType::kHistogram);
  EXPECT_DOUBLE_EQ(families[0].series[0].value, 7.0);
  EXPECT_DOUBLE_EQ(families[1].series[0].value, 2.0);
  EXPECT_EQ(families[2].series[0].count, 1u);
}

/// The concurrency contract: registration from many threads for the same
/// and different names, plus lock-free mutation, must produce exact totals
/// (run under TSan in the sanitizer build).
TEST(MetricsRegistryTest, ConcurrentHammerProducesExactTotals) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Re-resolve instruments every few iterations so the shard locks
      // are exercised concurrently with the lock-free mutations.
      Counter* shared = registry.GetCounter("cv_hammer_total");
      Histogram* hist = registry.GetHistogram("cv_hammer_seconds");
      Gauge* gauge = registry.GetGauge("cv_hammer_level");
      Counter* own = registry.GetCounter(
          "cv_hammer_per_thread_total", {{"t", std::to_string(t)}});
      for (int i = 0; i < kIters; ++i) {
        if (i % 1024 == 0) {
          shared = registry.GetCounter("cv_hammer_total");
        }
        shared->Increment();
        own->Increment();
        hist->Observe(1e-4);
        gauge->Add(1);
        gauge->Add(-1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.GetCounter("cv_hammer_total")->value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.GetHistogram("cv_hammer_seconds")->count(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(registry.GetGauge("cv_hammer_level")->value(), 0.0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry
                  .GetCounter("cv_hammer_per_thread_total",
                              {{"t", std::to_string(t)}})
                  ->value(),
              static_cast<uint64_t>(kIters));
  }
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

/// Builds a registry with one instrument of each type and fixed values,
/// so the rendered exposition is byte-deterministic.
void FillGoldenRegistry(MetricsRegistry* registry) {
  registry
      ->GetCounter("cv_jobs_submitted_total", {}, "Jobs submitted")
      ->Increment(3);
  registry
      ->GetCounter("cv_job_stage_errors_total", {{"stage", "execute"}},
                   "Stage errors")
      ->Increment(1);
  registry
      ->GetCounter("cv_job_stage_errors_total", {{"stage", "optimize"}},
                   "Stage errors")
      ->Increment(2);
  registry->GetGauge("cv_jobs_active", {}, "Jobs in flight")->Set(2);
  HistogramOptions opts;
  opts.first_bound = 0.001;
  opts.growth = 10.0;
  opts.num_buckets = 3;
  Histogram* h = registry->GetHistogram("cv_job_latency_seconds", {}, opts,
                                        "Job latency");
  h->Observe(0.0005);
  h->Observe(0.05);
  h->Observe(2.0);
}

std::string GoldenPath() {
  return std::string(CV_TEST_GOLDEN_DIR) + "/metrics.prom";
}

TEST(ExportTest, PrometheusRenderingMatchesGoldenFile) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  std::string actual = RenderPrometheus(registry);

  if (std::getenv("CV_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to update " << GoldenPath();
    return;
  }
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << GoldenPath()
      << "; run with CV_UPDATE_GOLDEN=1 to (re)generate";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(actual, ss.str())
      << "exposition drifted; rerun with CV_UPDATE_GOLDEN=1 if intended";
}

TEST(ExportTest, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  std::string text = RenderPrometheus(registry);
  // 0.0005 and 0.05 fall below le="0.1"; everything is below +Inf.
  EXPECT_NE(text.find("cv_job_latency_seconds_bucket{le=\"0.1\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cv_job_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cv_job_latency_seconds_count 3"), std::string::npos);
}

TEST(ExportTest, MetricsJsonContainsEveryFamily) {
  MetricsRegistry registry;
  FillGoldenRegistry(&registry);
  std::string json = RenderMetricsJson(registry);
  EXPECT_NE(json.find("\"cv_jobs_submitted_total\""), std::string::npos);
  EXPECT_NE(json.find("\"cv_jobs_active\""), std::string::npos);
  EXPECT_NE(json.find("\"cv_job_latency_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"execute\""), std::string::npos);
}

TEST(JsonWriterTest, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Key("text").String("a\"b\\c\nd");
  w.Key("arr").BeginArray().Int(-1).Uint(2).Bool(true).Null().EndArray();
  w.Key("num").Double(0.25);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"text\":\"a\\\"b\\\\c\\nd\","
            "\"arr\":[-1,2,true,null],\"num\":0.25}");
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

TEST(TraceTest, SpanTreeShapeAndTimesWithFakeClock) {
  FakeMonotonicClock clock(100.0);
  Tracer tracer(&clock);

  Span job = tracer.StartTrace("job");
  job.SetAttribute("job_id", uint64_t{7});
  clock.AdvanceSeconds(0.5);
  {
    Span opt = job.StartChild("optimize");
    clock.AdvanceSeconds(0.25);
    {
      Span reuse = opt.StartChild("reuse");
      reuse.SetAttribute("views_reused", int64_t{2});
      clock.AdvanceSeconds(0.125);
    }
  }
  clock.AdvanceSeconds(1.0);
  auto root = job.Finish();
  ASSERT_NE(root, nullptr);

  EXPECT_EQ(root->name, "job");
  EXPECT_DOUBLE_EQ(root->start_seconds, 100.0);
  EXPECT_DOUBLE_EQ(root->end_seconds, 101.875);
  ASSERT_EQ(root->attributes.size(), 1u);
  EXPECT_EQ(root->attributes[0].first, "job_id");
  EXPECT_EQ(root->attributes[0].second, "7");

  ASSERT_EQ(root->children.size(), 1u);
  const SpanRecord& opt = *root->children[0];
  EXPECT_EQ(opt.name, "optimize");
  EXPECT_DOUBLE_EQ(opt.start_seconds, 100.5);
  EXPECT_DOUBLE_EQ(opt.end_seconds, 100.875);
  ASSERT_EQ(opt.children.size(), 1u);
  EXPECT_EQ(opt.children[0]->name, "reuse");
  EXPECT_EQ(opt.children[0]->attributes[0].second, "2");

  const SpanRecord* found = root->Find("reuse");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->end_seconds - found->start_seconds, 0.125);
  EXPECT_EQ(root->Find("absent"), nullptr);

  // The tracer retains the identical tree.
  EXPECT_EQ(tracer.LatestTrace().get(), root.get());
}

TEST(TraceTest, InactiveSpanIsANoop) {
  Span inactive;
  EXPECT_FALSE(inactive.active());
  inactive.SetAttribute("k", "v");
  Span child = inactive.StartChild("child");
  EXPECT_FALSE(child.active());
  inactive.End();
  EXPECT_EQ(inactive.Finish(), nullptr);
}

TEST(TraceTest, RootEndClosesOpenDescendants) {
  FakeMonotonicClock clock;
  Tracer tracer(&clock);
  Span job = tracer.StartTrace("job");
  Span child = job.StartChild("execute");  // never explicitly ended
  clock.AdvanceSeconds(2.0);
  auto root = job.Finish();
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_DOUBLE_EQ(root->children[0]->end_seconds, 2.0);
}

/// Delivers one trace named `name` lasting `seconds`; `attribute`, when
/// set, goes on a child span with the value "true".
void FinishTrace(Tracer* tracer, FakeMonotonicClock* clock,
                 const std::string& name, double seconds,
                 const std::string& attribute = "") {
  Span root = tracer->StartTrace(name);
  {
    Span child = root.StartChild("execute");
    if (!attribute.empty()) child.SetAttribute(attribute, true);
    clock->AdvanceSeconds(seconds);
  }
  root.End();
}

std::vector<std::string> Names(
    const std::vector<std::shared_ptr<const SpanRecord>>& traces) {
  std::vector<std::string> names;
  for (const auto& trace : traces) names.push_back(trace->name);
  return names;
}

TEST(TraceTest, RetentionDropsOldestTraces) {
  // Four slots: the latest two, plus two kept among older traces, failed
  // ones first, then the slowest. Unremarkable older traces drop.
  FakeMonotonicClock clock;
  Tracer tracer(&clock, nullptr, /*max_traces=*/4);
  FinishTrace(&tracer, &clock, "fast0", 0.1);
  FinishTrace(&tracer, &clock, "slow1", 5.0);
  FinishTrace(&tracer, &clock, "failed2", 0.1, "error");
  FinishTrace(&tracer, &clock, "fast3", 0.2);
  FinishTrace(&tracer, &clock, "fast4", 0.1);
  FinishTrace(&tracer, &clock, "fast5", 0.3);
  FinishTrace(&tracer, &clock, "latest6", 0.1);
  FinishTrace(&tracer, &clock, "latest7", 0.1);
  EXPECT_EQ(Names(tracer.FinishedTraces()),
            (std::vector<std::string>{"slow1", "failed2", "latest6",
                                      "latest7"}));
  EXPECT_EQ(tracer.LatestTrace()->name, "latest7");
  EXPECT_EQ(tracer.dropped_traces(), 4u);
}

TEST(TraceTest, RetentionKeepsNewerFailedOrDegradedTracesOverSlowOnes) {
  // One latest slot and one kept among older traces: a failed trace beats
  // a slower unremarkable one, and a newer degraded trace beats an older
  // failed one.
  FakeMonotonicClock clock;
  Tracer tracer(&clock, nullptr, /*max_traces=*/2);
  FinishTrace(&tracer, &clock, "failed0", 0.1, "error");
  FinishTrace(&tracer, &clock, "slow1", 9.0);
  EXPECT_EQ(Names(tracer.FinishedTraces()),
            (std::vector<std::string>{"failed0", "slow1"}));
  FinishTrace(&tracer, &clock, "degraded2", 0.1, "degraded");
  EXPECT_EQ(Names(tracer.FinishedTraces()),
            (std::vector<std::string>{"failed0", "degraded2"}));
  FinishTrace(&tracer, &clock, "fast3", 0.1);
  EXPECT_EQ(Names(tracer.FinishedTraces()),
            (std::vector<std::string>{"degraded2", "fast3"}));
  EXPECT_EQ(tracer.dropped_traces(), 2u);

  // Equally slow traces: the newer one is kept.
  Tracer ties(&clock, nullptr, /*max_traces=*/2);
  for (int i = 0; i < 4; ++i) {
    FinishTrace(&ties, &clock, "t" + std::to_string(i), 1.0);
  }
  EXPECT_EQ(Names(ties.FinishedTraces()),
            (std::vector<std::string>{"t2", "t3"}));
  EXPECT_EQ(ties.dropped_traces(), 2u);
}

TEST(TraceTest, SpanToJsonRendersTree) {
  FakeMonotonicClock clock;
  Tracer tracer(&clock);
  Span job = tracer.StartTrace("job");
  { Span child = job.StartChild("record"); }
  auto root = job.Finish();
  JsonWriter w;
  SpanToJson(*root, &w);
  std::string json = w.Take();
  EXPECT_NE(json.find("\"name\":\"job\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"record\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\":["), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// TimedMutexLock.
// ---------------------------------------------------------------------------

TEST(TimedLockTest, ObservesOneWaitPerAcquisition) {
  Mutex mu;
  Histogram wait;
  {
    TimedMutexLock lock(mu, &wait, MonotonicClock::Real());
  }
  {
    TimedMutexLock lock(mu, &wait, MonotonicClock::Real());
  }
  EXPECT_EQ(wait.count(), 2u);
}

}  // namespace
}  // namespace obs
}  // namespace cloudviews
