#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/storage_manager.h"

namespace cloudviews {
namespace {

Schema SimpleSchema() { return Schema({{"v", DataType::kInt64}}); }

Batch SimpleBatch(int n) {
  Batch b(SimpleSchema());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(b.AppendRow({Value::Int64(i)}).ok());
  }
  return b;
}

TEST(ViewPathTest, EncodeParseRoundTrip) {
  Hash128 norm{0x1111, 0x2222}, precise{0x3333, 0x4444};
  std::string path = EncodeViewPath(norm, precise, 777);
  Hash128 n2, p2;
  uint64_t job = 0;
  ASSERT_TRUE(ParseViewPath(path, &n2, &p2, &job));
  EXPECT_EQ(n2, norm);
  EXPECT_EQ(p2, precise);
  EXPECT_EQ(job, 777u);
}

TEST(ViewPathTest, RejectsNonViewPaths) {
  Hash128 n, p;
  uint64_t job;
  EXPECT_FALSE(ParseViewPath("/data/foo.ss", &n, &p, &job));
  EXPECT_FALSE(ParseViewPath("/views/zz/bad", &n, &p, &job));
}

TEST(StorageTest, WriteOpenDelete) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("s1", "g1", SimpleSchema(),
                                              {SimpleBatch(10)}, clock.Now()))
                  .ok());
  ASSERT_TRUE(storage.StreamExists("s1"));
  auto handle = storage.OpenStream("s1");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->total_rows, 10);
  EXPECT_EQ((*handle)->guid, "g1");
  ASSERT_TRUE(storage.DeleteStream("s1").ok());
  EXPECT_FALSE(storage.StreamExists("s1"));
  EXPECT_TRUE(storage.OpenStream("s1").status().IsNotFound());
  EXPECT_TRUE(storage.DeleteStream("s1").IsNotFound());
}

TEST(StorageTest, EmptyNameRejected) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  EXPECT_TRUE(storage
                  .WriteStream(MakeStreamData("", "g", SimpleSchema(), {},
                                              clock.Now()))
                  .IsInvalidArgument());
}

TEST(StorageTest, ReplaceInstallsNewVersion) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("s", "g1", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now()))
                  .ok());
  // An old reader holds the first version; a rewrite must not disturb it.
  auto old_handle = *storage.OpenStream("s");
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("s", "g2", SimpleSchema(),
                                              {SimpleBatch(5)}, clock.Now()))
                  .ok());
  EXPECT_EQ(old_handle->guid, "g1");
  EXPECT_EQ((*storage.OpenStream("s"))->guid, "g2");
  EXPECT_EQ((*storage.OpenStream("s"))->total_rows, 5);
}

TEST(StorageTest, PurgeExpiredHonorsClock) {
  SimulatedClock clock(1000);
  StorageManager storage(&clock);
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("keeps", "g", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now(),
                                              /*expires_at=*/0))
                  .ok());
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("hourly", "g", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now(),
                                              clock.Now() + kSecondsPerHour))
                  .ok());
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("weekly", "g", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now(),
                                              clock.Now() + kSecondsPerWeek))
                  .ok());
  EXPECT_EQ(storage.PurgeExpired(), 0u);
  clock.AdvanceSeconds(kSecondsPerDay);
  EXPECT_EQ(storage.PurgeExpired(), 1u);  // hourly gone
  EXPECT_TRUE(storage.StreamExists("weekly"));
  clock.AdvanceSeconds(kSecondsPerWeek);
  EXPECT_EQ(storage.PurgeExpired(), 1u);  // weekly gone
  EXPECT_TRUE(storage.StreamExists("keeps"));
}

TEST(StorageTest, ListByPrefixAndTotals) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  for (const char* name : {"/views/a", "/views/b", "/data/c"}) {
    ASSERT_TRUE(storage
                    .WriteStream(MakeStreamData(name, "g", SimpleSchema(),
                                                {SimpleBatch(3)},
                                                clock.Now()))
                    .ok());
  }
  EXPECT_EQ(storage.ListStreams("/views/").size(), 2u);
  EXPECT_EQ(storage.ListStreams().size(), 3u);
  EXPECT_EQ(storage.NumStreams(), 3u);
  EXPECT_GT(storage.TotalBytes(), 0);
}

TEST(StorageTest, LevelsTrackEveryChange) {
  SimulatedClock clock(1000);
  obs::MetricsRegistry metrics;
  fault::FaultInjector fault(1);
  StorageManager storage(&clock, &metrics, MonotonicClock::Real(), &fault);

  // What the test wrote and believes is stored: name -> bytes.
  std::map<std::string, int64_t> stored;
  auto expect_levels = [&](const std::string& step) {
    int64_t total = 0;
    int64_t view_bytes = 0;
    size_t views = 0;
    for (const auto& [name, bytes] : stored) {
      total += bytes;
      if (name.rfind("/views/", 0) == 0) {
        view_bytes += bytes;
        ++views;
      }
    }
    EXPECT_EQ(storage.TotalBytes(), total) << step;
    EXPECT_EQ(storage.NumStreams(), stored.size()) << step;
    EXPECT_EQ(metrics.GetGauge("cv_storage_streams")->value(),
              static_cast<double>(stored.size()))
        << step;
    EXPECT_EQ(metrics.GetGauge("cv_storage_total_bytes")->value(),
              static_cast<double>(total))
        << step;
    EXPECT_EQ(metrics.GetGauge("cv_storage_view_bytes")->value(),
              static_cast<double>(view_bytes))
        << step;
    EXPECT_EQ(metrics.GetGauge("cv_storage_views")->value(),
              static_cast<double>(views))
        << step;
  };
  auto make = [&](const std::string& name, std::vector<Batch> batches,
                  LogicalTime expires_at) {
    return MakeStreamData(name, "g-" + name, SimpleSchema(),
                          std::move(batches), clock.Now(), expires_at);
  };
  auto write = [&](const std::string& name, int rows,
                   LogicalTime expires_at) {
    StreamData data =
        make(name, {SimpleBatch(rows), SimpleBatch(rows)}, expires_at);
    stored[name] = data.total_bytes;
    EXPECT_TRUE(storage.WriteStream(std::move(data)).ok()) << name;
  };
  const LogicalTime hour = clock.Now() + kSecondsPerHour;

  write("a", 10, 0);
  write("b", 20, hour);
  expect_levels("new writes");

  write("a", 50, 0);
  expect_levels("same-name rewrite");

  const std::string view = EncodeViewPath({1, 2}, {3, 4}, 7);
  write(view, 30, 0);
  expect_levels("view write");

  // A torn view write leaves its first half behind, incomplete.
  fault::FaultSpec torn;
  torn.trigger_every = 1;
  torn.max_fires = 1;
  fault.Arm(fault::points::kStorageViewWriteTorn, torn);
  const std::string partial = EncodeViewPath({1, 2}, {5, 6}, 8);
  std::vector<Batch> batches = {SimpleBatch(5), SimpleBatch(6),
                                SimpleBatch(7), SimpleBatch(8)};
  stored[partial] = batches[0].ByteSize() + batches[1].ByteSize();
  EXPECT_FALSE(storage.WriteStream(make(partial, batches, hour)).ok());
  EXPECT_FALSE(storage.OpenStream(partial).ok());
  expect_levels("torn view write");

  ASSERT_TRUE(storage.DeleteStream(view).ok());
  stored.erase(view);
  expect_levels("delete");

  clock.AdvanceSeconds(kSecondsPerDay);
  EXPECT_EQ(storage.PurgeExpired(), 2u);
  stored.erase("b");
  stored.erase(partial);
  expect_levels("purge");
}

TEST(StorageTest, ConcurrentWritersAndReaders) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&storage, &clock, t] {
      for (int i = 0; i < 50; ++i) {
        std::string name = "s" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(storage
                        .WriteStream(MakeStreamData(name, "g", SimpleSchema(),
                                                    {SimpleBatch(2)},
                                                    clock.Now()))
                        .ok());
        ASSERT_TRUE(storage.OpenStream(name).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(storage.NumStreams(), 200u);
}

}  // namespace
}  // namespace cloudviews
