// AdmissionController tests: every grant and every refusal is counted
// once, under the reason the caller was told, and the admitted counter
// moves in the same critical section as the queued and in-flight counts,
// so a scrape never sees work that no counted admission explains.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "net/admission.h"
#include "net/net_config.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace net {
namespace {

/// Admits a submit from `conn_id` whose task, run on `pool`, starts, runs
/// `work` and releases its token, as the server's submissions do.
template <typename Work>
std::optional<ShedReason> AdmitOnto(AdmissionController* admission,
                                    ThreadPool* pool, uint64_t conn_id,
                                    Work work) {
  return admission->Admit(conn_id, [pool, work](AdmissionToken admitted) {
    auto token = std::make_shared<AdmissionToken>(std::move(admitted));
    pool->Enqueue([token, work] {
      token->Start();
      work();
      token->Release();
    });
  });
}

TEST(AdmissionTest, AdmittedAndShedCountsMatchUnderContention) {
  obs::MetricsRegistry metrics;
  NetServerConfig config;
  config.submission_queue_capacity = 8;  // small: force kQueueFull sheds
  config.per_connection_inflight_cap = 4;
  AdmissionController admission(config, nullptr, &metrics);

  std::atomic<uint64_t> granted{0}, executed{0};
  std::array<std::atomic<uint64_t>, 4> refused{};
  {
    ThreadPool pool(2, &metrics, "net");
    std::vector<std::thread> producers;
    for (uint64_t conn = 0; conn < 4; ++conn) {
      producers.emplace_back([&, conn] {
        for (int i = 0; i < 200; ++i) {
          auto shed = AdmitOnto(&admission, &pool, conn,
                                [&executed] { ++executed; });
          if (shed.has_value()) {
            ++refused[static_cast<size_t>(*shed)];
          } else {
            ++granted;
          }
        }
      });
    }
    for (auto& t : producers) t.join();
  }  // the pool runs every admitted task, then joins

  EXPECT_EQ(admission.accepted(), granted.load());
  EXPECT_EQ(metrics.GetCounter("cv_net_accepted_total")->value(),
            granted.load());
  const char* reasons[] = {"queue_full", "conn_cap", "draining", "injected"};
  for (size_t r = 0; r < refused.size(); ++r) {
    EXPECT_EQ(admission.shed_count(static_cast<ShedReason>(r)),
              refused[r].load())
        << reasons[r];
    EXPECT_EQ(metrics.GetCounter("cv_net_shed_total", {{"reason", reasons[r]}})
                  ->value(),
              refused[r].load())
        << reasons[r];
  }
  EXPECT_EQ(granted.load() + refused[0] + refused[1], 800u);
  EXPECT_EQ(executed.load(), granted.load());
  EXPECT_EQ(admission.queued(), 0u);
  EXPECT_EQ(admission.inflight(), 0u);
}

TEST(AdmissionTest, ScrapeNeverSeesQueuedOrInflightAboveAdmitted) {
  // A concurrent reader snapshotting (queued, in flight, admitted) must
  // never observe more outstanding work than the admissions that explain
  // it. The counter only grows, so reading it after the levels can only
  // loosen the bound; counting an admission after the critical section
  // would let the first scrape see 1 queued with 0 admitted.
  obs::MetricsRegistry metrics;
  NetServerConfig config;
  config.submission_queue_capacity = 32;
  config.per_connection_inflight_cap = 1 << 20;
  AdmissionController admission(config, nullptr, &metrics);
  obs::Counter* accepted = metrics.GetCounter("cv_net_accepted_total");

  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      uint64_t queued = admission.queued();
      uint64_t inflight = admission.inflight();
      uint64_t counted_after = accepted->value();
      if (queued > counted_after || inflight > counted_after) violated = true;
    }
  });
  {
    ThreadPool pool(2, &metrics, "net");
    for (int i = 0; i < 2000; ++i) {
      (void)AdmitOnto(&admission, &pool, 1, [] {
        // A touch of work so the queue actually backs up under the scraper.
        std::atomic<int> spin{0};
        while (spin.fetch_add(1, std::memory_order_relaxed) < 64) {
        }
      });
    }
  }
  stop = true;
  scraper.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(admission.queued(), 0u);
  EXPECT_EQ(admission.inflight(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace cloudviews
