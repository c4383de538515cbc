// Sustained-load harness for the network front door: a self-hosted
// JobServiceServer on loopback driven by multi-client closed-loop traffic
// (warm / fresh-date / subsumed script mixes, per-request percentiles)
// followed by an open-loop async flood that overruns the submission queue
// on purpose — the server must shed with typed RETRY_AFTER, memory stays
// bounded, and every retried shed eventually lands with zero failed jobs.
// Writes BENCH_service.json (throughput, p50/p99/p999, the process's peak
// resident set, the storage, metadata and repository lock waits, queue-depth
// and shed-count timeline, full metrics dump) and metrics.prom for CI.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_util.h"
#include "common/mutex.h"
#include "fault/backoff.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/export.h"

namespace cloudviews {
namespace bench {
namespace {

// Script A: the recurring slow-page aggregate. {tag} keeps output streams
// distinct across clients and iterations.
const char* kScriptA = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
slow   = SELECT page, COUNT(*) AS n, SUM(latency) AS total_latency
         FROM clicks WHERE latency > 50 GROUP BY page;
OUTPUT slow TO "slow_pages_{tag}_{date}";
)";

// Script B: Script A's aggregate narrowed to one page. It shares no
// subgraph with A exactly; its only reuse is A's view through containment
// (residual page filter, re-aggregation, and the covering ORDER BY that
// makes group order immaterial — the shape SubsumptionServiceTest's
// ResidualGroupKeyFilterServedBySubsumption proves byte-identical).
const char* kScriptB = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
home   = SELECT page, COUNT(*) AS n, SUM(latency) AS total_latency
         FROM clicks WHERE latency > 50 AND page == "/home" GROUP BY page
         ORDER BY page;
OUTPUT home TO "home_pages_{tag}_{date}";
)";

std::string Date(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2018-%02d-%02d", 3 + i / 28, 1 + i % 28);
  return buf;
}

void WriteClicks(StorageManager* storage, const std::string& date,
                 size_t rows) {
  Rng rng(0x5eedULL + rows);
  Schema schema({{"user", DataType::kInt64},
                 {"page", DataType::kString},
                 {"latency", DataType::kInt64},
                 {"when", DataType::kDate}});
  Batch b(schema);
  int64_t day = 0;
  ParseDate(date, &day);
  static const char* kPages[] = {"/home", "/search", "/cart", "/about"};
  for (size_t i = 0; i < rows; ++i) {
    (void)b.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
                       Value::String(kPages[rng.Uniform(4)]),
                       Value::Int64(static_cast<int64_t>(rng.Uniform(500))),
                       Value::Date(day)});
  }
  (void)storage->WriteStream(MakeStreamData("clicks_" + date,
                                            "guid-clicks_" + date, schema,
                                            {b}, storage->clock()->Now()));
}

net::SubmitRequest MakeRequest(const char* script, const std::string& tmpl,
                               const std::string& tag,
                               const std::string& date, int instance) {
  net::SubmitRequest req;
  req.script = script;
  req.params.push_back({"date", net::WireParamKind::kDate, date, 0});
  req.params.push_back({"tag", net::WireParamKind::kString, tag, 0});
  req.template_id = tmpl;
  req.vc = "vc-" + tmpl;
  req.user = tmpl;
  req.recurring_instance = instance;
  return req;
}

struct MixStats {
  std::vector<double> latencies;  // seconds, per completed request
  long plan_cache_hits = 0;
  long views_reused = 0;
  long views_reused_subsumed = 0;
  long compensation_nodes = 0;
  long views_materialized = 0;
  long retries = 0;

  void Absorb(const MixStats& other) {
    latencies.insert(latencies.end(), other.latencies.begin(),
                     other.latencies.end());
    plan_cache_hits += other.plan_cache_hits;
    views_reused += other.views_reused;
    views_reused_subsumed += other.views_reused_subsumed;
    compensation_nodes += other.compensation_nodes;
    views_materialized += other.views_materialized;
    retries += other.retries;
  }
  void Record(const net::JobOutcome& outcome, double seconds, int retries_n) {
    latencies.push_back(seconds);
    plan_cache_hits += outcome.plan_cache_hit ? 1 : 0;
    views_reused += outcome.views_reused;
    views_reused_subsumed += outcome.views_reused_subsumed;
    compensation_nodes += outcome.compensation_nodes_added;
    views_materialized += outcome.views_materialized;
    retries += retries_n;
  }
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

struct TimelinePoint {
  double t = 0;
  uint64_t queue_depth = 0;
  uint64_t inflight = 0;
  uint64_t shed_total = 0;
  uint64_t completed = 0;
  uint64_t connections = 0;
};

/// The process's peak resident set so far, in MB (ru_maxrss is in KiB).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t TotalSheds(const net::ServerStatsResponse& s) {
  return s.shed_queue_full + s.shed_conn_cap + s.shed_draining +
         s.shed_injected;
}

struct Options {
  int clients = 6;
  int closed_jobs_per_client = 3000;  // closed-loop phase, per client
  int open_jobs_per_client = 1500;    // open-loop flood, per client
  size_t rows = 384;
  std::string out = "BENCH_service.json";
  std::string prom_out = "metrics.prom";
};

int Fail(const char* what) {
  std::fprintf(stderr, "service bench gate failed: %s\n", what);
  return 1;
}

int Run(const Options& opt) {
  FigureHeader("micro",
               "job-service front door: sustained wire load + admission",
               "the service admits recurring submissions at scale and sheds "
               "overload with typed RETRY_AFTER instead of queuing "
               "unboundedly (Sec 4: job service integration)");

  constexpr int kDates = 8;
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 1;
  config.analyzer.selection.min_frequency = 2;
  config.net.submission_workers = 4;
  config.net.submission_queue_capacity = 16;
  config.net.per_connection_inflight_cap = 8;
  config.net.retry_after_ms = 2;
  config.net.max_connections = opt.clients + 4;
  CloudViews cv(config);
  for (int d = 0; d < kDates; ++d) WriteClicks(cv.storage(), Date(d), opt.rows);

  net::JobServiceServer server(&cv, cv.config().net);
  auto port = server.Start();
  if (!port.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 port.status().ToString().c_str());
    return 1;
  }

  // Prime: day-0 history for both templates (Script A twice, so its
  // aggregate reaches min_frequency on its own), then analyze, so the warm
  // and subsumed mixes find a selected view from the first measured
  // request.
  {
    auto prime = net::Client::Connect("127.0.0.1", *port);
    if (!prime.ok()) return Fail("prime connect");
    const struct {
      const char* script;
      const char* tmpl;
      const char* tag;
    } primes[] = {{kScriptA, "svc-A", "prime"},
                  {kScriptA, "svc-A", "prime2"},
                  {kScriptB, "svc-B", "prime"}};
    for (const auto& p : primes) {
      auto r = prime->Submit(MakeRequest(p.script, p.tmpl, p.tag, Date(0), 1));
      if (!r.ok() || r->kind != net::Client::SubmitReply::Kind::kResult) {
        return Fail("prime submit");
      }
    }
    cv.RunAnalyzerAndLoad();
  }
  net::ServerStatsResponse primed = server.Stats();

  // Timeline sampler: queue depth, in-flight, shed and completion counts
  // every ~20ms for the BENCH artifact's over-time series.
  std::vector<TimelinePoint> timeline;
  Mutex timeline_mu;
  std::atomic<bool> sampling{true};
  double bench_start = MonotonicNowSeconds();
  std::thread sampler([&] {
    fault::Sleeper* sleeper = fault::Sleeper::Real();
    while (sampling.load(std::memory_order_acquire)) {
      net::ServerStatsResponse s = server.Stats();
      TimelinePoint p;
      p.t = MonotonicNowSeconds() - bench_start;
      p.queue_depth = s.queue_depth;
      p.inflight = s.inflight;
      p.shed_total = TotalSheds(s);
      p.completed = s.completed;
      p.connections = s.connections;
      {
        MutexLock lock(timeline_mu);
        timeline.push_back(p);
      }
      sleeper->Sleep(0.02);
    }
  });

  // ---------------------------------------------------------------------
  // Phase 1 — closed loop: each client thread keeps exactly one waited
  // submission in flight, cycling a warm / subsumed / fresh-date mix.
  // Warm serves the plan cache's full tier; fresh-date is the recurring
  // next-day instance (skeleton tier: new precise signature, same shape).
  enum Mix { kWarm = 0, kSubsumed = 1, kFreshDate = 2, kMixCount = 3 };
  std::vector<std::vector<MixStats>> per_thread(
      opt.clients, std::vector<MixStats>(kMixCount));
  std::atomic<int> closed_failures{0};
  double closed_start = MonotonicNowSeconds();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        auto client = net::Client::Connect("127.0.0.1", *port);
        if (!client.ok()) {
          closed_failures.fetch_add(opt.closed_jobs_per_client);
          return;
        }
        fault::RetryPolicy policy;
        policy.max_attempts = 1000;
        policy.initial_backoff_seconds = 0;
        const std::string cid = std::to_string(c);
        for (int i = 0; i < opt.closed_jobs_per_client; ++i) {
          Mix mix = i % 2 == 0 ? kWarm
                    : i % 4 == 1 ? kSubsumed
                                 : kFreshDate;
          net::SubmitRequest req;
          switch (mix) {
            case kWarm:
              // Same template, same date, same output: repeated identical
              // submissions serve the plan cache and reuse the view.
              req = MakeRequest(kScriptA, "svc-A", "w" + cid, Date(0), 1);
              break;
            case kSubsumed:
              // A different template contained by Script A's view.
              req = MakeRequest(kScriptB, "svc-B", "s" + cid, Date(0), 1);
              break;
            default:
              // Fresh date + fresh output: new precise signature, so the
              // full tier misses and the skeleton tier carries it.
              req = MakeRequest(kScriptA, "svc-cold",
                                "c" + cid + "_" + std::to_string(i),
                                Date(1 + i % (kDates - 1)), i);
              break;
          }
          int retries = 0;
          double start = MonotonicNowSeconds();
          auto reply =
              client->SubmitWithRetry(req, policy, nullptr, &retries);
          double elapsed = MonotonicNowSeconds() - start;
          if (!reply.ok() ||
              reply->kind != net::Client::SubmitReply::Kind::kResult ||
              reply->result.outcome.output_rows <= 0) {
            closed_failures.fetch_add(1);
            continue;
          }
          per_thread[c][mix].Record(reply->result.outcome, elapsed, retries);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  double closed_seconds = MonotonicNowSeconds() - closed_start;
  if (closed_failures.load() != 0) return Fail("closed-loop submissions");
  MixStats mixes[kMixCount];
  for (auto& thread_mixes : per_thread) {
    for (int m = 0; m < kMixCount; ++m) mixes[m].Absorb(thread_mixes[m]);
  }
  long closed_total = 0;
  for (int m = 0; m < kMixCount; ++m) {
    closed_total += static_cast<long>(mixes[m].latencies.size());
  }
  net::ServerStatsResponse after_closed = server.Stats();

  // ---------------------------------------------------------------------
  // Phase 2 — open loop: async flood. 6 clients * cap 8 = 48 admissible
  // in-flight submissions against a 16-slot queue and 4 workers: the queue
  // and the per-connection caps must shed, and every shed retried in.
  std::atomic<int> open_failures{0};
  std::atomic<long> open_retries{0};
  double open_start = MonotonicNowSeconds();
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        auto client = net::Client::Connect("127.0.0.1", *port);
        if (!client.ok()) {
          open_failures.fetch_add(opt.open_jobs_per_client);
          return;
        }
        fault::RetryPolicy policy;
        policy.max_attempts = 100000;
        policy.initial_backoff_seconds = 0;
        const std::string cid = std::to_string(c);
        for (int i = 0; i < opt.open_jobs_per_client; ++i) {
          net::SubmitRequest req =
              MakeRequest(kScriptA, "svc-A", "o" + cid, Date(0), i);
          req.wait = false;
          int retries = 0;
          auto reply =
              client->SubmitWithRetry(req, policy, nullptr, &retries);
          open_retries.fetch_add(retries);
          if (!reply.ok() ||
              reply->kind != net::Client::SubmitReply::Kind::kAccepted) {
            open_failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  if (open_failures.load() != 0) return Fail("open-loop submissions");
  const uint64_t open_total =
      static_cast<uint64_t>(opt.clients) *
      static_cast<uint64_t>(opt.open_jobs_per_client);
  // Drain: every admitted async job must complete.
  {
    fault::Sleeper* sleeper = fault::Sleeper::Real();
    double deadline = MonotonicNowSeconds() + 120;
    while (MonotonicNowSeconds() < deadline) {
      net::ServerStatsResponse s = server.Stats();
      if (s.completed + s.failed >= after_closed.completed + open_total) break;
      sleeper->Sleep(0.005);
    }
  }
  double open_seconds = MonotonicNowSeconds() - open_start;
  net::ServerStatsResponse final_stats = server.Stats();
  sampling.store(false, std::memory_order_release);
  sampler.join();
  server.Stop();

  // ---------------------------------------------------------------------
  // Gates: nothing failed, nothing leaked, overload actually shed.
  if (final_stats.failed != 0) return Fail("failed jobs under load");
  if (final_stats.queue_depth != 0 || final_stats.inflight != 0) {
    return Fail("leaked queue slots or admission tokens");
  }
  if (final_stats.completed !=
      primed.completed + static_cast<uint64_t>(closed_total) + open_total) {
    return Fail("admitted jobs lost");
  }
  uint64_t open_sheds = TotalSheds(final_stats) - TotalSheds(after_closed);
  if (open_sheds == 0) return Fail("open-loop flood never shed");
  if (open_retries.load() == 0) return Fail("sheds were never retried");
  if (mixes[kWarm].plan_cache_hits == 0) {
    return Fail("warm mix never hit the plan cache");
  }
  if (mixes[kWarm].views_reused + mixes[kSubsumed].views_reused +
          mixes[kSubsumed].views_reused_subsumed ==
      0) {
    return Fail("no view reuse over the wire");
  }
  if (mixes[kSubsumed].views_reused_subsumed == 0 ||
      cv.metrics()->GetCounter("cv_containment_verified_total")->value() ==
          0) {
    return Fail("subsumed mix never went through containment");
  }

  const char* mix_names[kMixCount] = {"warm", "subsumed", "fresh_date"};
  std::printf("  closed loop: %ld jobs, %d clients, %.2fs (%.0f jobs/s)\n",
              closed_total, opt.clients, closed_seconds,
              static_cast<double>(closed_total) / closed_seconds);
  for (int m = 0; m < kMixCount; ++m) {
    std::vector<double> lat = mixes[m].latencies;  // copy; Percentile sorts
    double p50 = Percentile(&lat, 0.50) * 1e3;
    double p99 = Percentile(&lat, 0.99) * 1e3;
    double p999 = Percentile(&lat, 0.999) * 1e3;
    std::printf(
        "    %-8s n=%-6zu p50=%6.2fms p99=%6.2fms p999=%6.2fms "
        "cache_hits=%ld reused=%ld subsumed=%ld\n",
        mix_names[m], mixes[m].latencies.size(), p50, p99, p999,
        mixes[m].plan_cache_hits, mixes[m].views_reused,
        mixes[m].views_reused_subsumed);
  }
  std::printf(
      "  open loop: %llu async jobs in %.2fs, sheds=%llu "
      "(queue_full=%llu conn_cap=%llu), retries=%ld, failed=%llu\n",
      static_cast<unsigned long long>(open_total), open_seconds,
      static_cast<unsigned long long>(open_sheds),
      static_cast<unsigned long long>(final_stats.shed_queue_full),
      static_cast<unsigned long long>(final_stats.shed_conn_cap),
      open_retries.load(),
      static_cast<unsigned long long>(final_stats.failed));
  const double peak_rss_mb = PeakRssMb();
  std::printf("  peak RSS: %.1f MB\n", peak_rss_mb);
  // Where the front door waits: the whole run's waits on the locks every
  // job takes.
  const char* lock_waits[] = {"cv_storage_lock_wait_seconds",
                              "cv_metadata_lock_wait_seconds",
                              "cv_repository_lock_wait_seconds"};
  std::printf("  lock waits:");
  for (const char* name : lock_waits) {
    const obs::Histogram* h = cv.metrics()->GetHistogram(name);
    std::printf(" %s sum=%.4fs count=%llu", name, h->sum(),
                static_cast<unsigned long long>(h->count()));
  }
  std::printf("\n");

  FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) return Fail("cannot write BENCH_service.json");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"service_front_door\",\n");
  std::fprintf(f,
               "  \"config\": {\"clients\": %d, \"closed_jobs_per_client\": "
               "%d, \"open_jobs_per_client\": %d, \"workers\": %d, "
               "\"queue_capacity\": %d, \"per_conn_cap\": %d, "
               "\"retry_after_ms\": %u},\n",
               opt.clients, opt.closed_jobs_per_client,
               opt.open_jobs_per_client, config.net.submission_workers,
               static_cast<int>(config.net.submission_queue_capacity),
               config.net.per_connection_inflight_cap,
               config.net.retry_after_ms);
  std::fprintf(f,
               "  \"closed_loop\": {\"jobs\": %ld, \"seconds\": %.3f, "
               "\"throughput_jobs_per_sec\": %.1f, \"mixes\": {\n",
               closed_total, closed_seconds,
               static_cast<double>(closed_total) / closed_seconds);
  for (int m = 0; m < kMixCount; ++m) {
    std::vector<double> lat = mixes[m].latencies;
    std::fprintf(
        f,
        "    \"%s\": {\"jobs\": %zu, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"p999_ms\": %.3f, \"plan_cache_hits\": %ld, \"views_reused\": "
        "%ld, \"views_reused_subsumed\": %ld, \"compensation_nodes\": %ld, "
        "\"views_materialized\": %ld, \"retries\": %ld}%s\n",
        mix_names[m], mixes[m].latencies.size(),
        Percentile(&lat, 0.50) * 1e3, Percentile(&lat, 0.99) * 1e3,
        Percentile(&lat, 0.999) * 1e3, mixes[m].plan_cache_hits,
        mixes[m].views_reused, mixes[m].views_reused_subsumed,
        mixes[m].compensation_nodes, mixes[m].views_materialized,
        mixes[m].retries, m + 1 < kMixCount ? "," : "");
  }
  std::fprintf(f, "  }},\n");
  std::fprintf(
      f,
      "  \"open_loop\": {\"submitted\": %llu, \"seconds\": %.3f, "
      "\"throughput_jobs_per_sec\": %.1f, \"sheds\": {\"queue_full\": %llu, "
      "\"conn_cap\": %llu, \"draining\": %llu, \"injected\": %llu}, "
      "\"retries\": %ld, \"failed\": %llu},\n",
      static_cast<unsigned long long>(open_total), open_seconds,
      static_cast<double>(open_total) / open_seconds,
      static_cast<unsigned long long>(final_stats.shed_queue_full),
      static_cast<unsigned long long>(final_stats.shed_conn_cap),
      static_cast<unsigned long long>(final_stats.shed_draining),
      static_cast<unsigned long long>(final_stats.shed_injected),
      open_retries.load(),
      static_cast<unsigned long long>(final_stats.failed));
  std::fprintf(f, "  \"peak_rss_mb\": %.1f,\n", peak_rss_mb);
  std::fprintf(f, "  \"lock_waits\": {");
  for (size_t i = 0; i < std::size(lock_waits); ++i) {
    const obs::Histogram* h = cv.metrics()->GetHistogram(lock_waits[i]);
    std::fprintf(f, "%s\"%s\": {\"sum_seconds\": %.6f, \"count\": %llu}",
                 i == 0 ? "" : ", ", lock_waits[i], h->sum(),
                 static_cast<unsigned long long>(h->count()));
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"timeline\": [\n");
  {
    MutexLock lock(timeline_mu);
    for (size_t i = 0; i < timeline.size(); ++i) {
      const TimelinePoint& p = timeline[i];
      std::fprintf(f,
                   "    {\"t\": %.3f, \"queue_depth\": %llu, \"inflight\": "
                   "%llu, \"shed_total\": %llu, \"completed\": %llu, "
                   "\"connections\": %llu}%s\n",
                   p.t, static_cast<unsigned long long>(p.queue_depth),
                   static_cast<unsigned long long>(p.inflight),
                   static_cast<unsigned long long>(p.shed_total),
                   static_cast<unsigned long long>(p.completed),
                   static_cast<unsigned long long>(p.connections),
                   i + 1 < timeline.size() ? "," : "");
    }
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"metrics\": %s\n",
               obs::RenderMetricsJson(*cv.metrics()).c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", opt.out.c_str());

  FILE* prom = std::fopen(opt.prom_out.c_str(), "w");
  if (prom == nullptr) return Fail("cannot write metrics.prom");
  std::string rendered = obs::RenderPrometheus(*cv.metrics());
  std::fwrite(rendered.data(), 1, rendered.size(), prom);
  std::fclose(prom);
  std::printf("  wrote %s\n", opt.prom_out.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace cloudviews

int main(int argc, char** argv) {
  cloudviews::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next_int = [&](int* out) {
      if (i + 1 < argc) *out = std::atoi(argv[++i]);
    };
    if (std::strcmp(argv[i], "--clients") == 0) {
      next_int(&opt.clients);
    } else if (std::strcmp(argv[i], "--closed-jobs") == 0) {
      next_int(&opt.closed_jobs_per_client);
    } else if (std::strcmp(argv[i], "--open-jobs") == 0) {
      next_int(&opt.open_jobs_per_client);
    } else if (std::strcmp(argv[i], "--rows") == 0) {
      int rows = 0;
      next_int(&rows);
      opt.rows = static_cast<size_t>(rows);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(argv[i], "--prom-out") == 0 && i + 1 < argc) {
      opt.prom_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: micro_service [--clients N] [--closed-jobs N] "
                   "[--open-jobs N] [--rows N] [--out FILE] [--prom-out "
                   "FILE]\n");
      return 2;
    }
  }
  return cloudviews::bench::Run(opt);
}
