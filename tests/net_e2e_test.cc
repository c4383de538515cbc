/// End-to-end front-door tests over real sockets: wire submissions must be
/// byte-identical to in-process SubmitJob on an identically seeded twin
/// instance, concurrent clients must all complete, overload must shed with
/// RETRY_AFTER and retried sheds must eventually succeed, and Stop() must
/// drain everything admitted while refusing new work.

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/outcome.h"
#include "net/wire.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "tests/net_test_util.h"

namespace cloudviews {
namespace net {
namespace {

using testing_util::NetScript;
using testing_util::NetSubmit;
using testing_util::ServerFixture;
using testing_util::StartServerFixture;
using testing_util::WaitUntil;
using testing_util::WriteClickStream;

/// Builds the same JobDefinition the server builds from `req`, against
/// `cv`'s catalog — the in-process half of the byte-identity comparison.
JobDefinition InProcessDef(CloudViews* cv, const SubmitRequest& req) {
  ParamMap params;
  for (const WireParam& p : req.params) {
    switch (p.kind) {
      case WireParamKind::kDate:
        params[p.name] = DateParam(p.text);
        break;
      case WireParamKind::kInt:
        params[p.name] = IntParam(p.int_value);
        break;
      case WireParamKind::kString:
        params[p.name] = StringParam(p.text);
        break;
    }
  }
  StorageManager* storage = cv->storage();
  ScopeScriptParser parser;
  auto plan =
      parser.Parse(req.script, params, [storage](const std::string& name) {
        auto handle = storage->OpenStream(name);
        return handle.ok() ? (*handle)->guid : std::string();
      });
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  JobDefinition def;
  def.logical_plan = std::move(*plan);
  def.template_id = req.template_id;
  def.cluster = req.cluster;
  def.business_unit = req.business_unit;
  def.vc = req.vc;
  def.user = req.user;
  def.recurring_instance = static_cast<int>(req.recurring_instance);
  def.recurrence_period = static_cast<LogicalTime>(req.recurrence_period_seconds);
  def.tags = req.tags;
  return def;
}

TEST(NetE2E, WireOutcomeByteIdenticalToInProcess) {
  // Twin universes: one behind the socket server, one driven in-process.
  // Identical seeds, identical submission order; the wire must add
  // transport, never semantics.
  ServerFixture wire = StartServerFixture();
  CloudViewsConfig twin_config;
  twin_config.net.submission_workers = 1;
  CloudViews twin(twin_config);
  const std::vector<std::string> dates = {"2024-01-01", "2024-01-02"};
  for (size_t i = 0; i < dates.size(); ++i) {
    WriteClickStream(twin.storage(), "clicks_" + dates[i], 512,
                     /*seed=*/77 + i, dates[i]);
  }
  auto client = Client::Connect("127.0.0.1", wire.port);
  ASSERT_TRUE(client.ok());

  // Day 1 (cold), two templates sharing the cooked subplan; then the
  // analyzer; then day 2 (materialize + reuse). Every step is compared.
  struct Step {
    const char* tmpl;
    const char* tag;
    const char* date;
    int instance;
    bool analyze_first;
  };
  const Step steps[] = {
      {"tmpl-A", "a", "2024-01-01", 1, false},
      {"tmpl-B", "b", "2024-01-01", 1, false},
      {"tmpl-A", "a", "2024-01-02", 2, true},
      {"tmpl-B", "b", "2024-01-02", 2, false},
  };
  for (const Step& step : steps) {
    if (step.analyze_first) {
      wire.cv->RunAnalyzerAndLoad();
      twin.RunAnalyzerAndLoad();
    }
    SubmitRequest req =
        NetSubmit(step.tmpl, step.tag, step.date, step.instance);
    auto reply = client->Submit(req);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kResult)
        << "step " << step.tmpl << "/" << step.date;

    auto in_process = twin.Submit(InProcessDef(&twin, req));
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    JobOutcome twin_outcome =
        OutcomeFromJobResult(*in_process, twin.storage());

    EXPECT_EQ(EncodeJobOutcome(reply->result.outcome),
              EncodeJobOutcome(twin_outcome))
        << "wire and in-process outcomes diverged at " << step.tmpl << "/"
        << step.date;
    EXPECT_GT(reply->result.outcome.output_rows, 0);
    EXPECT_NE(reply->result.outcome.output_fingerprint.hi |
                  reply->result.outcome.output_fingerprint.lo,
              0u)
        << "output fingerprint missing — outcome not actually read back";
  }
  ServerStatsResponse stats = wire.server->Stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(NetE2E, ConcurrentClientsAllComplete) {
  ServerFixture fx = StartServerFixture(
      [](CloudViewsConfig* config) { config->net.submission_workers = 2; });
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 5;
  std::atomic<int> failures{0};
  Mutex ids_mu;
  std::vector<uint64_t> job_ids;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", fx.port);
      if (!client.ok()) {
        failures.fetch_add(kJobsPerThread);
        return;
      }
      for (int i = 0; i < kJobsPerThread; ++i) {
        SubmitRequest req =
            NetSubmit("tmpl-c" + std::to_string(t),
                      "c" + std::to_string(t) + "_" + std::to_string(i),
                      "2024-01-01", i + 1);
        fault::RetryPolicy policy;
        policy.max_attempts = 50;
        auto reply = client->SubmitWithRetry(req, policy);
        if (!reply.ok() ||
            reply->kind != Client::SubmitReply::Kind::kResult ||
            reply->result.outcome.output_rows <= 0) {
          failures.fetch_add(1);
          continue;
        }
        MutexLock lock(ids_mu);
        job_ids.push_back(reply->result.outcome.job_id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_EQ(job_ids.size(),
            static_cast<size_t>(kThreads * kJobsPerThread));
  std::set<uint64_t> unique(job_ids.begin(), job_ids.end());
  EXPECT_EQ(unique.size(), job_ids.size()) << "job ids must be distinct";
  ServerStatsResponse stats = fx.server->Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(NetE2E, OverloadShedsTypedAndRetriedShedsSucceed) {
  // A deliberately tiny service: one worker, one queue slot, two in-flight
  // per connection. An async flood must shed (bounded memory), and every
  // shed submission retried must eventually land. Zero failed jobs.
  ServerFixture fx = StartServerFixture([](CloudViewsConfig* config) {
    config->net.submission_workers = 1;
    config->net.submission_queue_capacity = 1;
    config->net.per_connection_inflight_cap = 2;
    config->net.retry_after_ms = 1;
  });
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());

  constexpr int kJobs = 24;
  fault::RetryPolicy policy;
  policy.max_attempts = 100000;  // retry until the queue drains
  policy.initial_backoff_seconds = 0;
  policy.max_backoff_seconds = 0;
  fault::RecordingSleeper no_sleep;  // spin instead of sleeping
  std::vector<uint64_t> tickets;
  int total_retries = 0;
  for (int i = 0; i < kJobs; ++i) {
    SubmitRequest req =
        NetSubmit("tmpl-flood", "f" + std::to_string(i), "2024-01-01", i + 1);
    req.wait = false;
    int retries = 0;
    auto reply = client->SubmitWithRetry(req, policy, &no_sleep, &retries);
    total_retries += retries;
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kAccepted)
        << "submission " << i << " never admitted";
    tickets.push_back(reply->accepted.ticket);
  }
  // The flood outran one worker with one queue slot: sheds must have
  // happened, and every one of them was retried into an admission.
  ServerStatsResponse stats = fx.server->Stats();
  EXPECT_GT(stats.shed_queue_full + stats.shed_conn_cap, 0u);
  EXPECT_GT(total_retries, 0);
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kJobs));

  ASSERT_TRUE(WaitUntil([&fx] {
    ServerStatsResponse s = fx.server->Stats();
    return s.completed + s.failed == kJobs;
  }));
  stats = fx.server->Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.failed, 0u) << "overload must shed, never fail jobs";
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // And every admitted ticket reports done over the wire.
  for (uint64_t ticket : tickets) {
    auto status = client->QueryStatus(ticket);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->state, WireJobState::kDone);
    EXPECT_GT(status->outcome.output_rows, 0);
  }

  // SERVER_STATS reads the registered instruments: each counter field is
  // its exported series.
  stats = fx.server->Stats();
  const std::string prom = obs::RenderPrometheus(*fx.cv->metrics());
  const std::pair<const char*, uint64_t> series[] = {
      {"cv_net_accepted_total", stats.accepted},
      {"cv_net_completed_total", stats.completed},
      {"cv_net_failed_total", stats.failed},
      {"cv_net_shed_total{reason=\"queue_full\"}", stats.shed_queue_full},
      {"cv_net_shed_total{reason=\"conn_cap\"}", stats.shed_conn_cap},
      {"cv_net_shed_total{reason=\"draining\"}", stats.shed_draining},
      {"cv_net_shed_total{reason=\"injected\"}", stats.shed_injected},
      {"cv_net_inflight", stats.inflight},
  };
  for (const auto& [name, value] : series) {
    const std::string line_start = std::string("\n") + name + " ";
    size_t pos = prom.find(line_start);
    ASSERT_NE(pos, std::string::npos) << name << " is not exported";
    EXPECT_EQ(std::stod(prom.substr(pos + line_start.size())),
              static_cast<double>(value))
        << name;
  }
}

TEST(NetE2E, ReplyMeansItsInFlightSlotIsFree) {
  // A submission's admission token is released before its reply is
  // written (docs/wire_protocol.md), so with one in-flight slot per
  // connection a client that sends its next submit as soon as a reply
  // arrives never meets its previous submit's slot.
  ServerFixture fx = StartServerFixture([](CloudViewsConfig* config) {
    config->net.submission_workers = 1;
    config->net.per_connection_inflight_cap = 1;
  });
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 50; ++i) {
    auto reply =
        client->Submit(NetSubmit("tmpl-slot", "sl", "2024-01-01", i + 1));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kResult)
        << "submit " << i << " got no result (RETRY_AFTER reason "
        << static_cast<int>(reply->retry.reason) << ")";
    EXPECT_EQ(fx.server->Stats().inflight, 0u) << "after reply " << i;
  }
}

TEST(NetE2E, AsyncTicketLifecycleAndProfile) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  SubmitRequest req = NetSubmit("tmpl-async", "as", "2024-01-01", 1);
  req.wait = false;
  auto reply = client->Submit(req);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kAccepted);
  uint64_t ticket = reply->accepted.ticket;
  ASSERT_GT(ticket, 0u);

  ASSERT_TRUE(WaitUntil([&client, ticket] {
    auto status = client->QueryStatus(ticket);
    return status.ok() && status->state == WireJobState::kDone;
  }));
  auto status = client->QueryStatus(ticket);
  ASSERT_TRUE(status.ok());
  EXPECT_GT(status->outcome.output_rows, 0);
  EXPECT_GT(status->outcome.job_id, 0u);

  // The fetched profile is the request's span tree with the job nested
  // inside — front door and runtime in one trace.
  auto profile = client->FetchProfile(ticket);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->ticket, ticket);
  EXPECT_NE(profile->profile_json.find("net.request"), std::string::npos);
  EXPECT_NE(profile->profile_json.find("job"), std::string::npos);
}

/// The tracer's retained net.request trace of `ticket`, or null once the
/// tracer has dropped it.
std::shared_ptr<const obs::SpanRecord> RetainedTraceOf(CloudViews* cv,
                                                       uint64_t ticket) {
  const std::string id = std::to_string(ticket);
  for (const auto& trace : cv->tracer()->FinishedTraces()) {
    if (trace->name != "net.request") continue;
    for (const auto& [key, value] : trace->attributes) {
      if (key == "ticket" && value == id) return trace;
    }
  }
  return nullptr;
}

TEST(NetE2E, FetchedProfileIsTheRetainedTraceRendered) {
  // PROFILE_RESULT carries the tracer's retained net.request trace of the
  // ticket as SpanToJson renders it, byte for byte.
  FakeMonotonicClock clock{3.0};
  ServerFixture fx = StartServerFixture(
      [&clock](CloudViewsConfig* config) { config->wall_clock = &clock; });
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  auto reply = client->Submit(NetSubmit("tmpl-prof", "pf", "2024-01-01", 1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kResult);
  const uint64_t ticket = reply->result.ticket;

  auto profile = client->FetchProfile(ticket);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  auto trace = RetainedTraceOf(fx.cv.get(), ticket);
  ASSERT_NE(trace, nullptr);
  ASSERT_NE(trace->Find("job"), nullptr);
  obs::JsonWriter rendered;
  obs::SpanToJson(*trace, &rendered);
  EXPECT_EQ(profile->profile_json, rendered.Take());
}

/// Submits `count` waited jobs of NetScript(); false on the first job that
/// does not come back with a result.
bool SubmitJobs(Client* client, int count) {
  for (int i = 0; i < count; ++i) {
    auto reply =
        client->Submit(NetSubmit("tmpl-later", "lt", "2024-01-01", i + 2));
    if (!reply.ok() || reply->kind != Client::SubmitReply::Kind::kResult) {
      return false;
    }
  }
  return true;
}

TEST(NetE2E, ProfileOfADroppedTraceIsNotFoundWhileItsStatusAnswers) {
  // Under a frozen clock every trace lasts 0 s, so none is slower than a
  // newer one: 129 later traces push the first job's trace out of both
  // the latest and the slowest half of the tracer's bound (128).
  FakeMonotonicClock clock{3.0};
  ServerFixture fx = StartServerFixture(
      [&clock](CloudViewsConfig* config) { config->wall_clock = &clock; });
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  auto first = client->Submit(NetSubmit("tmpl-first", "fs", "2024-01-01", 1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->kind, Client::SubmitReply::Kind::kResult);
  const uint64_t ticket = first->result.ticket;
  ASSERT_TRUE(SubmitJobs(&*client, 129));
  EXPECT_EQ(RetainedTraceOf(fx.cv.get(), ticket), nullptr);

  auto profile = client->FetchProfile(ticket);
  ASSERT_FALSE(profile.ok());
  EXPECT_EQ(profile.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(profile.status().message(),
            "profile of ticket " + std::to_string(ticket) +
                " is no longer retained");
  auto status = client->QueryStatus(ticket);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->state, WireJobState::kDone);
  EXPECT_GT(status->outcome.output_rows, 0);
  // The newest job's profile is still there.
  auto latest = client->FetchProfile(ticket + 129);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_NE(latest->profile_json.find("net.request"), std::string::npos);
}

TEST(NetE2E, ProfileOfAFailedWireJobOutlivesLaterSuccesses) {
  // The tracer keeps failed traces ahead of unremarkable ones, so the
  // profile of a job that failed in execution can be fetched after 128
  // later successful jobs.
  fault::FaultInjector injector;
  FakeMonotonicClock clock{3.0};
  ServerFixture fx = StartServerFixture([&](CloudViewsConfig* config) {
    config->wall_clock = &clock;
    config->fault = &injector;
  });
  fault::FaultSpec once;
  once.trigger_every = 1;
  once.max_fires = 1;
  injector.Arm(fault::points::kExecMorsel, once);
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  SubmitRequest req = NetSubmit("tmpl-fails", "fl", "2024-01-01", 1);
  req.wait = false;
  auto reply = client->Submit(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kAccepted);
  const uint64_t ticket = reply->accepted.ticket;
  ASSERT_TRUE(WaitUntil([&client, ticket] {
    auto status = client->QueryStatus(ticket);
    return status.ok() && status->state == WireJobState::kFailed;
  }));
  EXPECT_EQ(injector.fires(fault::points::kExecMorsel), 1u);
  ASSERT_TRUE(SubmitJobs(&*client, 128));

  auto profile = client->FetchProfile(ticket);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NE(profile->profile_json.find("\"error\""), std::string::npos)
      << profile->profile_json;
  auto trace = RetainedTraceOf(fx.cv.get(), ticket);
  ASSERT_NE(trace, nullptr);
  obs::JsonWriter rendered;
  obs::SpanToJson(*trace, &rendered);
  EXPECT_EQ(profile->profile_json, rendered.Take());
}

TEST(NetE2E, FrontDoorTimersReadTheInstanceWallClock) {
  // Under a wall clock that never advances every front-door timer reads 0:
  // none of them may time itself with the real clock.
  FakeMonotonicClock frozen{5.0};
  ServerFixture fx = StartServerFixture(
      [&frozen](CloudViewsConfig* config) { config->wall_clock = &frozen; });
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  auto reply = client->Submit(NetSubmit("tmpl-clock", "ck", "2024-01-01", 1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kResult);
  EXPECT_EQ(reply->result.timings.queue_seconds, 0);

  obs::MetricsRegistry* metrics = fx.cv->metrics();
  obs::Histogram* request = metrics->GetHistogram("cv_net_request_seconds");
  obs::Histogram* queue_wait = metrics->GetHistogram(
      "cv_threadpool_task_wait_seconds", {{"pool", "net"}});
  obs::Histogram* reply_write = metrics->GetHistogram("cv_net_reply_seconds");
  EXPECT_EQ(request->count(), 1u);
  EXPECT_EQ(request->sum(), 0);
  EXPECT_EQ(queue_wait->count(), 1u);
  EXPECT_EQ(queue_wait->sum(), 0);
  // The reply's write is timed after the client can already read it.
  EXPECT_TRUE(WaitUntil([reply_write] { return reply_write->count() == 1; }));
  EXPECT_EQ(reply_write->sum(), 0);

  EXPECT_EQ(fx.cv->RunAnalyzerAndLoad().analysis_seconds, 0);
}

TEST(NetE2E, OutOfRangeLiteralIsATypedErrorAndTheServerKeepsServing) {
  // The server parses wire scripts in its own process: a literal that does
  // not fit its type must come back as a typed parse error, not abort it.
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  SubmitRequest hostile = NetSubmit("tmpl-hostile", "h", "2024-01-01", 1);
  hostile.script = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
slow   = SELECT page FROM clicks WHERE latency > 99999999999999999999;
OUTPUT slow TO "hostile_{tag}_{date}";
)";
  auto refused = client->Submit(hostile);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  ASSERT_EQ(refused->kind, Client::SubmitReply::Kind::kError);
  EXPECT_EQ(refused->error.code,
            static_cast<uint8_t>(StatusCode::kParseError));
  EXPECT_NE(refused->error.message.find("out of range"), std::string::npos)
      << refused->error.message;

  // Same server, same connection: a well-formed job still runs.
  auto served = client->Submit(NetSubmit("tmpl-ok", "ok", "2024-01-01", 1));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->kind, Client::SubmitReply::Kind::kResult);
  EXPECT_GT(served->result.outcome.output_rows, 0);
}

TEST(NetE2E, Int64OverflowScriptGetsAResultAndTheServerKeepsServing) {
  // INT64_MIN % -1 traps on x86, and signed overflow is undefined: a
  // script that builds either from plain literals gets a result, not a
  // dead server.
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  SubmitRequest hostile = NetSubmit("tmpl-overflow", "o", "2024-01-01", 1);
  hostile.script = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
boom   = SELECT page, (user - user - 9223372036854775807 - 1) % -1 AS boom,
                latency + 9223372036854775807 AS wrap
         FROM clicks;
total  = SELECT page, SUM(wrap) AS s FROM boom GROUP BY page;
OUTPUT total TO "overflow_{tag}_{date}";
)";
  auto reply = client->Submit(hostile);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kResult)
      << reply->error.message;
  EXPECT_GT(reply->result.outcome.output_rows, 0);

  // Same server, same connection: a well-formed job still runs.
  auto served = client->Submit(NetSubmit("tmpl-ok", "ok", "2024-01-01", 1));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->kind, Client::SubmitReply::Kind::kResult);
  EXPECT_GT(served->result.outcome.output_rows, 0);
}

TEST(NetE2E, DeepScriptsGetATypedErrorAndTheServerKeepsServing) {
  // Each of these scripts once overflowed the stack of the process hosting
  // the server: 6,000 nested parentheses, a sum of 60,000 terms, and 50,000
  // chained statements. The parser's limits refuse each with a ParseError.
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  const std::string head =
      "clicks = EXTRACT user:int, page:string, latency:int, when:date\n"
      "         FROM \"clicks_{date}\";\n";
  const std::string tail = "OUTPUT s TO \"deep_{tag}_{date}\";\n";
  std::string sum = "0";
  for (int i = 0; i < 60000; ++i) sum += "+1";
  std::string chained = head + "s = SELECT * FROM clicks WHERE latency > 0;\n";
  for (int i = 1; i < 50000; ++i) {
    chained += "s = SELECT * FROM s WHERE latency > 0;\n";
  }
  const std::string scripts[] = {
      head + "s = SELECT page FROM clicks WHERE latency > " +
          std::string(6000, '(') + "1" + std::string(6000, ')') + ";\n" +
          tail,
      head + "s = SELECT page FROM clicks WHERE latency > " + sum + ";\n" +
          tail,
      chained + tail};
  for (const std::string& script : scripts) {
    SubmitRequest hostile = NetSubmit("tmpl-deep", "d", "2024-01-01", 1);
    hostile.script = script;
    auto refused = client->Submit(hostile);
    ASSERT_TRUE(refused.ok()) << refused.status().ToString();
    ASSERT_EQ(refused->kind, Client::SubmitReply::Kind::kError);
    EXPECT_EQ(refused->error.code,
              static_cast<uint8_t>(StatusCode::kParseError))
        << refused->error.message;
  }

  // Same server, same connection: a well-formed job still runs.
  auto served = client->Submit(NetSubmit("tmpl-ok", "ok", "2024-01-01", 1));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->kind, Client::SubmitReply::Kind::kResult);
  EXPECT_GT(served->result.outcome.output_rows, 0);
}

TEST(NetE2E, DoublingProjectionChainGetsAResultAndTheServerKeepsServing) {
  // 40 chained `latency + latency AS latency` projections under a filter:
  // inlining the filter's predicate through all of them would build 2^41
  // expression nodes. The optimizer stops at its budget and the job runs.
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  std::string script =
      "clicks = EXTRACT user:int, page:string, latency:int, when:date\n"
      "         FROM \"clicks_{date}\";\n"
      "s0 = SELECT page, latency + latency AS latency FROM clicks;\n";
  for (int i = 1; i < 40; ++i) {
    script += "s" + std::to_string(i) +
              " = SELECT page, latency + latency AS latency FROM s" +
              std::to_string(i - 1) + ";\n";
  }
  script += "f = SELECT * FROM s39 WHERE latency > 5;\n";
  script += "OUTPUT f TO \"doubling_{tag}_{date}\";\n";
  SubmitRequest doubling = NetSubmit("tmpl-doubling", "d", "2024-01-01", 1);
  doubling.script = script;
  auto reply = client->Submit(doubling);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kResult)
      << reply->error.message;

  // Same server, same connection: a well-formed job still runs.
  auto served = client->Submit(NetSubmit("tmpl-ok", "ok", "2024-01-01", 1));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->kind, Client::SubmitReply::Kind::kResult);
  EXPECT_GT(served->result.outcome.output_rows, 0);
}

TEST(NetE2E, SelfDoublingUnionChainGetsATypedErrorAndTheServerKeepsServing) {
  // Each `aN = aN-1 UNION ALL aN-1` uses the dataset before it twice, so
  // the 40-statement chain (~1 KB, plan height 42) names 2^41 nodes once
  // every use is expanded, as signatures and the optimizer's clone do. The
  // parser's expansion budget refuses it with a ParseError.
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  std::string script =
      "a0 = EXTRACT user:int, page:string, latency:int, when:date\n"
      "     FROM \"clicks_{date}\";\n";
  for (int i = 1; i <= 40; ++i) {
    script += "a" + std::to_string(i) + " = a" + std::to_string(i - 1) +
              " UNION ALL a" + std::to_string(i - 1) + ";\n";
  }
  script += "OUTPUT a40 TO \"union_{tag}_{date}\";\n";
  SubmitRequest hostile = NetSubmit("tmpl-union", "u", "2024-01-01", 1);
  hostile.script = script;
  auto refused = client->Submit(hostile);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  ASSERT_EQ(refused->kind, Client::SubmitReply::Kind::kError);
  EXPECT_EQ(refused->error.code,
            static_cast<uint8_t>(StatusCode::kParseError))
      << refused->error.message;

  // Same server, same connection: a well-formed job still runs.
  auto served = client->Submit(NetSubmit("tmpl-ok", "ok", "2024-01-01", 1));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->kind, Client::SubmitReply::Kind::kResult);
  EXPECT_GT(served->result.outcome.output_rows, 0);
}

TEST(NetE2E, UntracedInstanceKeepsNoTraceOfAWireJob) {
  // enable_observability = false turns tracing off for wire jobs as it
  // does in process: no net.request trace, no stage histograms, and an
  // empty stored profile.
  ServerFixture fx = StartServerFixture([](CloudViewsConfig* config) {
    config->enable_observability = false;
  });
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  SubmitRequest req = NetSubmit("tmpl-untraced", "ut", "2024-01-01", 1);
  req.wait = false;
  auto reply = client->Submit(req);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kAccepted);
  uint64_t ticket = reply->accepted.ticket;
  ASSERT_TRUE(WaitUntil([&client, ticket] {
    auto status = client->QueryStatus(ticket);
    return status.ok() && status->state == WireJobState::kDone;
  }));

  EXPECT_TRUE(fx.cv->tracer()->FinishedTraces().empty());
  EXPECT_EQ(obs::RenderPrometheus(*fx.cv->metrics()).find(
                "cv_job_stage_seconds"),
            std::string::npos);
  auto profile = client->FetchProfile(ticket);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->profile_json, "");
}

/// A Sleeper that parks every caller until Release().
class GateSleeper : public fault::Sleeper {
 public:
  void Sleep(double) override EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!released_) cv_.Wait(mu_);
  }
  void Release() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool released_ GUARDED_BY(mu_) = false;
};

TEST(NetE2E, StopDrainsAdmittedWorkAndRefusesNew) {
  // The single worker parks inside the first backlog job until the client
  // has seen a kDraining shed: that job's metadata lookup fails once, and
  // its retry backoff sleeps on `gate`. Without this, Stop() could finish
  // the backlog and close the sockets before any late submit arrived.
  fault::FaultInjector injector;
  GateSleeper gate;
  ServerFixture fx = StartServerFixture([&](CloudViewsConfig* config) {
    config->net.submission_workers = 1;
    config->net.submission_queue_capacity = 64;
    config->net.per_connection_inflight_cap = 64;
    config->fault = &injector;
    config->sleeper = &gate;
  });
  // Released on every exit path, before ~ServerFixture drains the queue.
  struct ReleaseOnExit {
    GateSleeper* gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{&gate};
  fault::FaultSpec once;
  once.trigger_every = 1;
  once.max_fires = 1;
  injector.Arm(fault::points::kMetadataLookup, once);

  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  // Queue up a backlog of async jobs behind the parked one.
  constexpr int kBacklog = 12;
  for (int i = 0; i < kBacklog; ++i) {
    SubmitRequest req =
        NetSubmit("tmpl-drain", "d" + std::to_string(i), "2024-01-01", i + 1);
    req.wait = false;
    auto reply = client->Submit(req);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->kind, Client::SubmitReply::Kind::kAccepted);
  }
  uint64_t admitted = fx.server->Stats().accepted;
  ASSERT_EQ(admitted, static_cast<uint64_t>(kBacklog));

  // Stop in the background; submissions racing the drain must be refused
  // with a typed kDraining RETRY_AFTER (or a closed connection once the
  // teardown reaches the sockets) — never silently queued. Before the
  // drain gate flips, late submits are admitted until the per-connection
  // cap sheds them; from the first kDraining shed on, every shed is one.
  std::thread stopper([&fx] { fx.server->Stop(); });
  int draining_sheds = 0;
  for (int i = 0; i < 10000; ++i) {
    SubmitRequest req = NetSubmit("tmpl-drain", "late", "2024-01-01", 99);
    req.wait = false;
    auto reply = client->Submit(req);
    if (!reply.ok()) break;  // sockets torn down: refusal by close
    if (reply->kind == Client::SubmitReply::Kind::kRetryAfter) {
      if (draining_sheds > 0) {
        EXPECT_EQ(reply->retry.reason, ShedReason::kDraining);
      }
      if (reply->retry.reason == ShedReason::kDraining) {
        ++draining_sheds;
        gate.Release();  // the drain window was observed; let it close
      }
    } else if (reply->kind == Client::SubmitReply::Kind::kAccepted) {
      // This submit raced ahead of the drain gate flipping — legitimately
      // admitted, so Stop() owes it completion like the rest.
      ++admitted;
    } else {
      ADD_FAILURE() << "unexpected reply kind during drain";
      break;
    }
  }
  gate.Release();
  stopper.join();
  EXPECT_GE(draining_sheds, 1);
  EXPECT_EQ(injector.fires(fault::points::kMetadataLookup), 1u);

  // Everything admitted before the drain ran to completion.
  ServerStatsResponse stats = fx.server->Stats();
  EXPECT_EQ(stats.completed, admitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_GE(stats.shed_draining, 1u);

  // And the front door is closed: new connections are refused outright, or
  // die before a round-trip completes.
  auto late = Client::Connect("127.0.0.1", fx.port);
  if (late.ok()) {
    EXPECT_FALSE(late->ServerStats().ok());
  }
}

}  // namespace
}  // namespace net
}  // namespace cloudviews
