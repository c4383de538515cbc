#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/cloudviews.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace {

using tpcds::kNumQueries;
using tpcds::TpcdsGenerator;
using tpcds::TpcdsOptions;

// ---------------------------------------------------------------------------
// ThreadPool primitives.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NestedForkJoinDoesNotDeadlockOnSmallPool) {
  // More in-flight groups than workers: waiters must help, not block.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.Spawn([&pool, &total] {
      ParallelFor(&pool, 16, [&](size_t) { total.fetch_add(1); });
    });
  }
  outer.Wait();
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, BusyAndDepthGaugesTrackBlockedAndQueuedTasks) {
  // The gauges a fire-and-forget user of the pool (the front door's "net"
  // pool) reads: busy_workers counts tasks running, queue_depth counts
  // tasks enqueued but not started, so together they are the backlog.
  obs::MetricsRegistry metrics;
  obs::Labels labels{{"pool", "gauge_test"}};
  obs::Gauge* busy =
      metrics.GetGauge("cv_threadpool_busy_workers", labels, "");
  obs::Gauge* depth = metrics.GetGauge("cv_threadpool_queue_depth", labels, "");
  obs::Counter* tasks =
      metrics.GetCounter("cv_threadpool_tasks_total", labels, "");

  Mutex mu;
  CondVar release_cv;
  bool released = false;
  std::atomic<int> started{0};
  std::atomic<bool> third_ran{false};
  auto blocker = [&] {
    ++started;
    MutexLock lock(mu);
    while (!released) release_cv.Wait(mu);
  };
  {
    ThreadPool pool(2, &metrics, "gauge_test");
    // Block both workers, then queue one more task behind them.
    pool.Enqueue(blocker);
    pool.Enqueue(blocker);
    pool.Enqueue([&third_ran] { third_ran = true; });
    while (started.load() < 2) std::this_thread::yield();

    EXPECT_EQ(busy->value(), 2.0);
    EXPECT_EQ(depth->value(), 1.0);
    EXPECT_FALSE(third_ran.load());
    {
      MutexLock lock(mu);
      released = true;
    }
    release_cv.NotifyAll();
  }  // the destructor runs the queued task, then joins
  EXPECT_TRUE(third_ran.load());
  EXPECT_EQ(busy->value(), 0.0);
  EXPECT_EQ(depth->value(), 0.0);
  EXPECT_EQ(tasks->value(), 3u);
}

// ---------------------------------------------------------------------------
// Determinism: the parallel engine must be byte-identical to the
// single-threaded one on every TPC-DS example query. Floating point makes
// this strict — any reordering of double sums would change low bits — so
// the comparison is on exact bit patterns, not EXPECT_DOUBLE_EQ.
// ---------------------------------------------------------------------------

void ExpectBitIdentical(const Batch& a, const Batch& b, int query) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << "q" << query;
  ASSERT_TRUE(a.schema() == b.schema()) << "q" << query;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r))
          << "q" << query << " col " << c << " row " << r;
    }
    switch (a.schema().field(c).type) {
      case DataType::kDouble: {
        const auto& da = ca.double_data();
        const auto& db = cb.double_data();
        // memcmp on an empty vector's data() is UB (null pointer).
        if (!da.empty()) {
          ASSERT_EQ(0, std::memcmp(da.data(), db.data(),
                                   da.size() * sizeof(double)))
              << "q" << query << " col " << c << " (double bits differ)";
        }
        break;
      }
      case DataType::kInt64:
      case DataType::kDate:
        ASSERT_EQ(ca.int64_data(), cb.int64_data())
            << "q" << query << " col " << c;
        break;
      case DataType::kBool:
        ASSERT_EQ(ca.bool_data(), cb.bool_data())
            << "q" << query << " col " << c;
        break;
      case DataType::kString:
        ASSERT_EQ(ca.string_data(), cb.string_data())
            << "q" << query << " col " << c;
        break;
    }
  }
}

TpcdsOptions SmallOptions() {
  TpcdsOptions options;
  options.store_sales_rows = 2000;
  options.web_sales_rows = 800;
  options.catalog_sales_rows = 1000;
  options.customers = 200;
  return options;
}

CloudViewsConfig ConfigWith(int workers, int morsel_rows) {
  CloudViewsConfig config;
  config.exec.worker_threads = workers;
  config.exec.morsel_rows = morsel_rows;
  return config;
}

TEST(ParallelExecTest, EveryTpcdsQueryIsByteIdenticalAcrossWorkerCounts) {
  CloudViews serial(ConfigWith(1, 256));
  CloudViews parallel(ConfigWith(4, 256));
  TpcdsGenerator gen(SmallOptions());
  ASSERT_TRUE(gen.WriteTables(serial.storage()).ok());
  ASSERT_TRUE(gen.WriteTables(parallel.storage()).ok());

  for (int q = 1; q <= kNumQueries; ++q) {
    auto def = tpcds::MakeQueryJob(q);
    auto r1 = serial.Submit(def, /*enable_cloudviews=*/false);
    auto r4 = parallel.Submit(def, /*enable_cloudviews=*/false);
    ASSERT_TRUE(r1.ok()) << "q" << q << ": " << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << "q" << q << ": " << r4.status().ToString();

    std::string out = "tpcds_q" + std::to_string(q) + "_out";
    auto s1 = serial.storage()->OpenStream(out);
    auto s4 = parallel.storage()->OpenStream(out);
    ASSERT_TRUE(s1.ok() && s4.ok()) << "q" << q;
    ExpectBitIdentical(CombineBatches((*s1)->schema, (*s1)->batches),
                       CombineBatches((*s4)->schema, (*s4)->batches), q);

    // Per-operator attribution: cardinalities and sizes must be exact,
    // whatever the worker count.
    const auto& ops1 = r1->run_stats.operators;
    const auto& ops4 = r4->run_stats.operators;
    ASSERT_EQ(ops1.size(), ops4.size()) << "q" << q;
    for (const auto& [id, op1] : ops1) {
      auto it = ops4.find(id);
      ASSERT_NE(it, ops4.end()) << "q" << q << " node " << id;
      EXPECT_EQ(op1.rows, it->second.rows) << "q" << q << " node " << id;
      EXPECT_EQ(op1.bytes, it->second.bytes) << "q" << q << " node " << id;
    }
    EXPECT_EQ(r1->run_stats.output_rows, r4->run_stats.output_rows)
        << "q" << q;
  }
}

TEST(ParallelExecTest, MorselSizeDoesNotChangeResults) {
  // Odd, tiny, and larger-than-input morsels must all agree.
  CloudViews base(ConfigWith(1, 4096));
  TpcdsGenerator gen(SmallOptions());
  ASSERT_TRUE(gen.WriteTables(base.storage()).ok());

  for (int morsel_rows : {7, 64, 100000}) {
    CloudViews other(ConfigWith(4, morsel_rows));
    ASSERT_TRUE(gen.WriteTables(other.storage()).ok());
    for (int q : {1, 17, 42, 73, 99}) {
      auto def = tpcds::MakeQueryJob(q);
      auto rb = base.Submit(def, /*enable_cloudviews=*/false);
      auto ro = other.Submit(def, /*enable_cloudviews=*/false);
      ASSERT_TRUE(rb.ok()) << "q" << q << ": " << rb.status().ToString();
      ASSERT_TRUE(ro.ok()) << "q" << q << ": " << ro.status().ToString();
      std::string out = "tpcds_q" + std::to_string(q) + "_out";
      auto sb = base.storage()->OpenStream(out);
      auto so = other.storage()->OpenStream(out);
      ASSERT_TRUE(sb.ok() && so.ok()) << "q" << q;
      ExpectBitIdentical(CombineBatches((*sb)->schema, (*sb)->batches),
                         CombineBatches((*so)->schema, (*so)->batches), q);
    }
  }
}

TEST(ParallelExecTest, CloudViewsReuseIsDeterministicUnderParallelism) {
  // With reuse on, spooled views and rewritten plans must also reproduce
  // the single-threaded results exactly. View *selection* ranks candidates
  // by observed wall-clock utility, which legitimately differs between the
  // two instances, so lift the top-k cutoff: every qualifying subgraph gets
  // selected and the reused-view set depends only on plan structure.
  CloudViewsConfig serial_config = ConfigWith(1, 128);
  CloudViewsConfig parallel_config = ConfigWith(4, 128);
  serial_config.analyzer.selection.top_k = 1000;
  parallel_config.analyzer.selection.top_k = 1000;
  CloudViews serial(serial_config);
  CloudViews parallel(parallel_config);
  TpcdsGenerator gen(SmallOptions());
  ASSERT_TRUE(gen.WriteTables(serial.storage()).ok());
  ASSERT_TRUE(gen.WriteTables(parallel.storage()).ok());

  for (int q : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(serial.Submit(tpcds::MakeQueryJob(q)).ok());
    ASSERT_TRUE(parallel.Submit(tpcds::MakeQueryJob(q)).ok());
  }
  serial.RunAnalyzerAndLoad();
  parallel.RunAnalyzerAndLoad();
  for (int q : {1, 2, 3, 4, 5}) {
    auto rs = serial.Submit(tpcds::MakeQueryJob(q));
    auto rp = parallel.Submit(tpcds::MakeQueryJob(q));
    ASSERT_TRUE(rs.ok() && rp.ok()) << "q" << q;
    EXPECT_EQ(rs->views_reused, rp->views_reused) << "q" << q;
    std::string out = "tpcds_q" + std::to_string(q) + "_out";
    auto ss = serial.storage()->OpenStream(out);
    auto sp = parallel.storage()->OpenStream(out);
    ASSERT_TRUE(ss.ok() && sp.ok()) << "q" << q;
    ExpectBitIdentical(CombineBatches((*ss)->schema, (*ss)->batches),
                       CombineBatches((*sp)->schema, (*sp)->batches), q);
  }
}

}  // namespace
}  // namespace cloudviews
