// Microbenchmarks: executor operator throughput and thread scaling.
//
// Besides the google-benchmark operator suite (now parameterized by worker
// count), main() times the single-thread rows/s of the five operator plans
// the suite runs at 10000 rows (median and quartiles of repeated runs),
// runs a scan->filter->aggregate thread-scaling sweep over 1/2/4/8
// workers, verifies the outputs are byte-identical across worker counts,
// and writes the measurements (plus the sweep's executor counters) to
// BENCH_executor.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"

namespace cloudviews {
namespace {

struct Env {
  SimulatedClock clock;
  StorageManager storage{&clock};
  obs::MetricsRegistry metrics;

  explicit Env(int64_t rows) {
    Schema schema({{"k", DataType::kInt64},
                   {"g", DataType::kString},
                   {"v", DataType::kDouble}});
    Rng rng(7);
    static const char* kGroups[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
    Batch b(schema);
    for (int64_t i = 0; i < rows; ++i) {
      (void)b.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(
                             static_cast<uint64_t>(rows)))),
                         Value::String(kGroups[rng.Uniform(8)]),
                         Value::Double(rng.NextDouble())});
    }
    (void)storage.WriteStream(
        MakeStreamData("data", "g1", schema, {b}, 0));
    (void)storage.WriteStream(
        MakeStreamData("data2", "g2", schema, {b}, 0));
  }

  PlanBuilder Scan(const char* name = "data") {
    Schema schema({{"k", DataType::kInt64},
                   {"g", DataType::kString},
                   {"v", DataType::kDouble}});
    return PlanBuilder::Extract(name, name, name[4] ? "g2" : "g1", schema);
  }

  double RunPlan(PlanNodePtr plan, ThreadPool* pool = nullptr,
                 ExecOptions options = {}) {
    Status st = plan->Bind();
    if (!st.ok()) std::abort();
    AssignNodeIds(plan.get());
    ExecContext ctx;
    ctx.storage = &storage;
    ctx.pool = pool;
    ctx.options = options;
    ctx.metrics = &metrics;
    Executor exec(std::move(ctx));
    auto r = exec.Execute(plan);
    if (!r.ok()) std::abort();
    return r->output_rows;
  }
};

/// Pool sized for `workers` total threads (submitter helps while waiting);
/// null for single-threaded execution.
std::unique_ptr<ThreadPool> MakePool(int workers) {
  if (workers <= 1) return nullptr;
  return std::make_unique<ThreadPool>(workers - 1);
}

ExecOptions Opts(int workers) {
  ExecOptions options;
  options.worker_threads = workers;
  return options;
}

// The operator plans of the BM_* suite, shared with the rate table below.

PlanNodePtr FilterPlan(Env& env) {
  return env.Scan().Filter(Gt(Col("v"), Lit(0.5))).Build();
}

PlanNodePtr HashAggregatePlan(Env& env) {
  return env.Scan()
      .Aggregate({"g"}, {{AggFunc::kCount, nullptr, "n"},
                         {AggFunc::kSum, Col("v"), "sv"}})
      .Build();
}

PlanNodePtr SortPlan(Env& env) {
  return env.Scan().Sort({{"v", false}}).Build();
}

PlanNodePtr HashJoinPlan(Env& env) {
  auto right =
      env.Scan("data2").Project({{Col("k"), "k2"}, {Col("v"), "v2"}});
  return env.Scan()
      .Join(std::move(right), JoinType::kInner, {{"k", "k2"}})
      .Aggregate({}, {{AggFunc::kCount, nullptr, "n"}})
      .Build();
}

PlanNodePtr ExchangePlan(Env& env) {
  return env.Scan().Exchange(Partitioning::Hash({"k"}, 16)).Build();
}

void RunOperatorBenchmark(benchmark::State& state,
                          PlanNodePtr (*plan)(Env&)) {
  Env env(state.range(0));
  int workers = static_cast<int>(state.range(1));
  auto pool = MakePool(workers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        env.RunPlan(plan(env), pool.get(), Opts(workers)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Filter(benchmark::State& state) {
  RunOperatorBenchmark(state, FilterPlan);
}
BENCHMARK(BM_Filter)->Args({1000, 1})->Args({10000, 1})->Args({10000, 4});

void BM_HashAggregate(benchmark::State& state) {
  RunOperatorBenchmark(state, HashAggregatePlan);
}
BENCHMARK(BM_HashAggregate)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({10000, 4});

void BM_Sort(benchmark::State& state) {
  RunOperatorBenchmark(state, SortPlan);
}
BENCHMARK(BM_Sort)->Args({1000, 1})->Args({10000, 1})->Args({10000, 4});

void BM_HashJoin(benchmark::State& state) {
  RunOperatorBenchmark(state, HashJoinPlan);
}
BENCHMARK(BM_HashJoin)->Args({1000, 1})->Args({10000, 1})->Args({10000, 4});

void BM_Exchange(benchmark::State& state) {
  RunOperatorBenchmark(state, ExchangePlan);
}
BENCHMARK(BM_Exchange)->Args({1000, 1})->Args({10000, 1})->Args({10000, 4});

// ---------------------------------------------------------------------------
// Operator rates: the single-thread rows/s of each BM_*/10000/1 plan, as the
// median and quartiles of repeated timed runs.
// ---------------------------------------------------------------------------

struct OperatorRate {
  const char* name;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

constexpr int64_t kRateRows = 10000;
constexpr int kRateRepetitions = 7;

std::vector<OperatorRate> MeasureOperatorRates() {
  struct Op {
    const char* name;
    PlanNodePtr (*plan)(Env&);
  };
  const Op kOps[] = {{"Filter", FilterPlan},
                     {"HashAggregate", HashAggregatePlan},
                     {"Sort", SortPlan},
                     {"HashJoin", HashJoinPlan},
                     {"Exchange", ExchangePlan}};
  Env env(kRateRows);
  std::printf("\n=== Operator rates: single thread, %lld rows, median "
              "[q1, q3] of %d repetitions ===\n",
              static_cast<long long>(kRateRows), kRateRepetitions);
  std::vector<OperatorRate> rates;
  for (const Op& op : kOps) {
    // Warm up, and size a repetition to about 0.2 s.
    int iterations = 0;
    double start = MonotonicNowSeconds();
    while (MonotonicNowSeconds() - start < 0.05) {
      env.RunPlan(op.plan(env), nullptr, Opts(1));
      ++iterations;
    }
    const int per_repetition = std::max(1, iterations * 4);
    DistributionSummary rows_per_s;
    for (int rep = 0; rep < kRateRepetitions; ++rep) {
      double t0 = MonotonicNowSeconds();
      for (int i = 0; i < per_repetition; ++i) {
        env.RunPlan(op.plan(env), nullptr, Opts(1));
      }
      double elapsed = MonotonicNowSeconds() - t0;
      rows_per_s.Add(static_cast<double>(per_repetition) *
                     static_cast<double>(kRateRows) / elapsed);
    }
    OperatorRate rate{op.name};
    rate.median = rows_per_s.Median();
    rate.q1 = rows_per_s.Percentile(25);
    rate.q3 = rows_per_s.Percentile(75);
    std::printf("  %-14s %7.2fM rows/s  [%.2fM, %.2fM]\n", op.name,
                rate.median / 1e6, rate.q1 / 1e6, rate.q3 / 1e6);
    rates.push_back(rate);
  }
  return rates;
}

// ---------------------------------------------------------------------------
// Thread-scaling sweep.
// ---------------------------------------------------------------------------

bool BatchesBitIdentical(const Batch& a, const Batch& b) {
  if (a.num_rows() != b.num_rows() || !(a.schema() == b.schema())) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (ca.IsNull(r) != cb.IsNull(r)) return false;
    }
    switch (a.schema().field(c).type) {
      case DataType::kDouble:
        if (std::memcmp(ca.double_data().data(), cb.double_data().data(),
                        ca.double_data().size() * sizeof(double)) != 0) {
          return false;
        }
        break;
      case DataType::kInt64:
      case DataType::kDate:
        if (ca.int64_data() != cb.int64_data()) return false;
        break;
      case DataType::kBool:
        if (ca.bool_data() != cb.bool_data()) return false;
        break;
      case DataType::kString:
        if (ca.string_data() != cb.string_data()) return false;
        break;
    }
  }
  return true;
}

struct SweepPoint {
  int workers;
  double best_seconds;
};

int RunThreadScalingSweep(const std::vector<OperatorRate>& rates) {
  constexpr int64_t kRows = 400000;
  constexpr int kRepeats = 5;
  const std::vector<int> kWorkerCounts = {1, 2, 4, 8};

  unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("\n=== Thread-scaling sweep: scan -> filter -> aggregate "
              "(%lld rows, %u host cpus) ===\n",
              static_cast<long long>(kRows), host_cpus);
  if (host_cpus < 2) {
    std::printf("  note: single-core host; workers timeshare one core, so "
                "wall-clock speedup cannot exceed 1x here\n");
  }
  Env env(kRows);
  auto make_plan = [&](const std::string& out) {
    return env.Scan()
        .Filter(Gt(Col("v"), Lit(0.25)))
        .Aggregate({"g"}, {{AggFunc::kCount, nullptr, "n"},
                           {AggFunc::kSum, Col("v"), "sv"},
                           {AggFunc::kMin, Col("v"), "mn"},
                           {AggFunc::kMax, Col("v"), "mx"}})
        .Output(out)
        .Build();
  };

  std::vector<SweepPoint> sweep;
  Batch reference;
  bool byte_identical = true;
  for (int workers : kWorkerCounts) {
    auto pool = MakePool(workers);
    double best = 1e100;
    std::string out = "sweep_out_w" + std::to_string(workers);
    for (int i = 0; i < kRepeats; ++i) {
      double start = MonotonicNowSeconds();
      env.RunPlan(make_plan(out), pool.get(), Opts(workers));
      double s = MonotonicNowSeconds() - start;
      if (s < best) best = s;
    }
    auto handle = env.storage.OpenStream(out);
    if (!handle.ok()) std::abort();
    Batch result = CombineBatches((*handle)->schema, (*handle)->batches);
    if (workers == 1) {
      reference = std::move(result);
    } else if (!BatchesBitIdentical(reference, result)) {
      byte_identical = false;
    }
    sweep.push_back({workers, best});
    std::printf("  workers=%d  best=%8.2f ms  speedup=%.2fx\n", workers,
                best * 1e3, sweep.front().best_seconds / best);
  }
  std::printf("  byte-identical across worker counts: %s\n",
              byte_identical ? "yes" : "NO");

  FILE* f = std::fopen("BENCH_executor.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_executor.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"executor_thread_scaling\",\n");
  std::fprintf(f, "  \"pipeline\": \"scan_filter_aggregate\",\n");
  std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(kRows));
  std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(f, "  \"morsel_rows\": %d,\n", ExecOptions{}.morsel_rows);
  std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(f, "  \"byte_identical\": %s,\n",
               byte_identical ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(f,
                 "    {\"workers\": %d, \"best_seconds\": %.6f, "
                 "\"speedup\": %.3f}%s\n",
                 sweep[i].workers, sweep[i].best_seconds,
                 sweep.front().best_seconds / sweep[i].best_seconds,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"operator_rates\": {\"rows\": %lld, \"workers\": 1, "
               "\"repetitions\": %d, \"unit\": \"rows/s\", "
               "\"operators\": [\n",
               static_cast<long long>(kRateRows), kRateRepetitions);
  for (size_t i = 0; i < rates.size(); ++i) {
    std::fprintf(f,
                 "    {\"operator\": \"%s\", \"median\": %.0f, \"q1\": "
                 "%.0f, \"q3\": %.0f}%s\n",
                 rates[i].name, rates[i].median, rates[i].q1, rates[i].q3,
                 i + 1 < rates.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"metrics\": %s\n",
               obs::RenderMetricsJson(env.metrics).c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote BENCH_executor.json\n");
  return byte_identical ? 0 : 1;
}

}  // namespace
}  // namespace cloudviews

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return cloudviews::RunThreadScalingSweep(
      cloudviews::MeasureOperatorRates());
}
