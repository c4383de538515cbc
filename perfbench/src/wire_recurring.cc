// wire_recurring: recurring ScopeScript jobs over loopback TCP, closed loop.
//
// Why this workload exists: it is the only one that goes through the net
// and parser layers, and the one where the plan cache serves most compiles.
// Every (template, date) writes its own output, so live streams reach the
// thousands and StorageManager's per-write walk over every stream shows;
// its daily jobs read only a few hundred rows, so the executor does little.
//
// Load: kClients client threads, each with one waited submission in flight
// (a pipeline stage waiting on its job), against a server with one worker.
// Thirteen templates with distinct normalized signatures (far fewer than the
// plan cache's 256 entries):
//   - shared: three daily templates over one cooked subplan (view reuse by
//     exact signature once the first of them materializes it each date);
//   - containment: two daily templates whose only reuse is the shared view
//     through containment and compensation;
//   - private: seven unrelated daily shapes (aggregate, join, sort/top,
//     union);
//   - weekly: one rollup over the last seven dates of both inputs, run on
//     every seventh date. It is the big job of the mix, and the latency tail
//     is made of it: the weekly job and the two jobs queued behind it.
// Each client owns every kClients-th date and submits its templates in a
// seeded order (a shared template always before the containment ones), each
// followed by its byte-for-byte re-submission: half of the jobs are exact
// re-submissions.
#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "parser/parser.h"
#include "signature/signature.h"
#include "types/value.h"
#include "workload.h"

namespace perfbench {
namespace {

using cloudviews::CloudViews;
using cloudviews::CloudViewsConfig;
using cloudviews::Hash128;
using cloudviews::MonotonicNowSeconds;
namespace net = cloudviews::net;

constexpr int kClients = 3;
constexpr size_t kClickRows = 256;
constexpr size_t kOrderRows = 128;
/// Measured dates per client per second of phase work (24 jobs per date),
/// sized so a phase takes about that long on the 4-core reference host.
constexpr double kDatesPerClientPerSecond = 8;
/// Warm-up dates per client before the measured phase.
constexpr int kWarmupDatesPerClient = 40;
/// Closed-loop blocks (segments) the measured dates are split into.
constexpr int kBlocks = 8;

enum class Family { kShared, kContainment, kPrivate, kWeekly };

struct Template {
  const char* id;
  Family family;
  const char* body;  // statements after the EXTRACTs, ending in OUTPUT
};

constexpr const char* kExtracts = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
orders = EXTRACT buyer:int, item:string, amount:int FROM "orders_{date}";
)";

constexpr const char* kCooked = R"(
cooked = SELECT page, COUNT(*) AS n, SUM(latency) AS total
         FROM clicks WHERE latency > 50 GROUP BY page;
)";

/// The weekly rollup runs on every kWeeklyPeriod-th date and reads that
/// many dates of input, ending at its own.
constexpr int kWeeklyPeriod = 7;

const Template kTemplates[] = {
    {"shared_top", Family::kShared,
     R"(top = SELECT page, n, total FROM cooked ORDER BY n DESC TOP 3;
OUTPUT top TO "shared_top_{date}";)"},
    {"shared_busy", Family::kShared,
     R"(busy = SELECT page, total FROM cooked WHERE n > 20;
OUTPUT busy TO "shared_busy_{date}";)"},
    {"shared_scaled", Family::kShared,
     R"(scaled = SELECT page, n, total * 2 AS doubled FROM cooked;
OUTPUT scaled TO "shared_scaled_{date}";)"},
    {"contain_page", Family::kContainment,
     R"(cart = SELECT page, COUNT(*) AS n, SUM(latency) AS total
       FROM clicks WHERE latency > 50 AND page == "/cart" GROUP BY page;
OUTPUT cart TO "contain_page_{date}";)"},
    {"contain_range", Family::kContainment,
     R"(late = SELECT page, COUNT(*) AS n, SUM(latency) AS total
       FROM clicks WHERE latency > 50 AND page >= "/h" GROUP BY page;
OUTPUT late TO "contain_range_{date}";)"},
    {"user_worst", Family::kPrivate,
     R"(worst = SELECT user, MAX(latency) AS worst FROM clicks
        WHERE latency > 400 GROUP BY user;
OUTPUT worst TO "user_worst_{date}";)"},
    {"page_avg", Family::kPrivate,
     R"(avg = SELECT page, AVG(latency) AS avg_latency FROM clicks GROUP BY page;
OUTPUT avg TO "page_avg_{date}";)"},
    {"order_items", Family::kPrivate,
     R"(items = SELECT item, SUM(amount) AS revenue, COUNT(*) AS n FROM orders
        GROUP BY item;
OUTPUT items TO "order_items_{date}";)"},
    {"buyer_pages", Family::kPrivate,
     R"(j = SELECT page, amount FROM clicks JOIN orders ON user == buyer;
spend = SELECT page, SUM(amount) AS spend FROM j GROUP BY page;
OUTPUT spend TO "buyer_pages_{date}";)"},
    {"slow_clicks", Family::kPrivate,
     R"(slow = SELECT user, page, latency FROM clicks WHERE latency > 450
       ORDER BY latency DESC, user TOP 20;
OUTPUT slow TO "slow_clicks_{date}";)"},
    {"big_orders", Family::kPrivate,
     R"(big = SELECT buyer, item, amount * 3 AS weighted FROM orders
      WHERE amount > 90;
OUTPUT big TO "big_orders_{date}";)"},
    {"union_labels", Family::kPrivate,
     R"(a = SELECT page AS label FROM clicks WHERE latency < 20;
b = SELECT item AS label FROM orders WHERE amount < 5;
u = a UNION ALL b;
c = SELECT label, COUNT(*) AS n FROM u GROUP BY label;
OUTPUT c TO "union_labels_{date}";)"},
    {"weekly_spend", Family::kWeekly,
     R"(j = SELECT page, item, amount FROM clicks JOIN orders ON user == buyer;
spend = SELECT page, item, SUM(amount) AS spend, COUNT(*) AS n FROM j
        GROUP BY page, item;
OUTPUT spend TO "weekly_spend_{date}";)"},
};
constexpr int kNumTemplates = static_cast<int>(std::size(kTemplates));
/// The daily templates come first; the weekly one is last.
constexpr int kWeekly = kNumTemplates - 1;
constexpr int kNumDaily = kWeekly;

/// Name of the date parameter `back` dates before the job's own date.
std::string DateParamName(int back) {
  return back == 0 ? "date" : "d" + std::to_string(back);
}

/// The weekly rollup's EXTRACTs: both inputs of each of its dates, unioned
/// date by date into `clicks` and `orders`.
std::string WeeklyExtracts() {
  std::string s;
  for (int back = 0; back < kWeeklyPeriod; ++back) {
    const std::string d = std::to_string(back);
    const std::string p = DateParamName(back);
    s += "c" + d + " = EXTRACT user:int, page:string, latency:int, when:date "
         "FROM \"clicks_{" + p + "}\";\n";
    s += "o" + d + " = EXTRACT buyer:int, item:string, amount:int FROM "
         "\"orders_{" + p + "}\";\n";
  }
  for (int back = 1; back < kWeeklyPeriod; ++back) {
    const std::string d = std::to_string(back);
    const bool last = back == kWeeklyPeriod - 1;
    const std::string prev = back == 1 ? "0" : "u" + std::to_string(back - 1);
    s += (last ? "clicks" : "cu" + d) + " = c" + prev + " UNION ALL c" + d +
         ";\n";
    s += (last ? "orders" : "ou" + d) + " = o" + prev + " UNION ALL o" + d +
         ";\n";
  }
  return s;
}

const std::vector<std::string>& Scripts() {
  static const std::vector<std::string> scripts = [] {
    std::vector<std::string> s;
    for (const Template& t : kTemplates) {
      if (t.family == Family::kWeekly) {
        s.push_back(WeeklyExtracts() + t.body);
        continue;
      }
      s.push_back(std::string(kExtracts) +
                  (t.family == Family::kPrivate ? "" : kCooked) + t.body);
    }
    return s;
  }();
  return scripts;
}

std::string DateOf(int index) {
  int64_t base = 0;
  cloudviews::ParseDate("2017-01-01", &base);
  return cloudviews::FormatDate(base + index);
}

/// One submission: template and date index.
struct Job {
  int tmpl = 0;
  int date = 0;
};

/// Dates of input a template's job reads, ending at its own.
int DatesRead(int tmpl) { return tmpl == kWeekly ? kWeeklyPeriod : 1; }

bool IsWeeklyDate(int date) {
  return date >= kWeeklyPeriod && date % kWeeklyPeriod == 0;
}

net::SubmitRequest MakeRequest(const Job& job, bool cloudviews_on) {
  net::SubmitRequest req;
  req.script = Scripts()[static_cast<size_t>(job.tmpl)];
  for (int back = 0; back < DatesRead(job.tmpl); ++back) {
    req.params.push_back({DateParamName(back), net::WireParamKind::kDate,
                          DateOf(job.date - back), 0});
  }
  req.template_id = kTemplates[job.tmpl].id;
  req.vc = "vc-wire";
  req.user = kTemplates[job.tmpl].id;
  req.recurring_instance = job.date;
  req.enable_cloudviews = cloudviews_on;
  return req;
}

cloudviews::ParamMap ParamsOf(const Job& job) {
  cloudviews::ParamMap params;
  for (int back = 0; back < DatesRead(job.tmpl); ++back) {
    params[DateParamName(back)] =
        cloudviews::DateParam(DateOf(job.date - back));
  }
  return params;
}

/// The jobs of one date: every daily template in a seeded order, a shared
/// template ahead of the containment ones, plus the weekly rollup on its
/// dates; each submitted twice in a row (the second an exact
/// re-submission).
std::vector<Job> DateJobs(uint64_t seed, int date) {
  const uint64_t date_seed =
      seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(date);
  std::vector<int> order = SeededPermutation(kNumDaily, date_seed);
  auto first_shared = std::find_if(order.begin(), order.end(), [](int t) {
    return kTemplates[t].family == Family::kShared;
  });
  auto first_contain = std::find_if(order.begin(), order.end(), [](int t) {
    return kTemplates[t].family == Family::kContainment;
  });
  if (first_contain < first_shared) std::iter_swap(first_contain, first_shared);
  if (IsWeeklyDate(date)) {
    cloudviews::Rng rng(date_seed ^ 0x5bd1e995);
    order.insert(order.begin() + static_cast<long>(rng.Uniform(kNumDaily + 1)),
                 kWeekly);
  }
  std::vector<Job> jobs;
  for (int t : order) {
    jobs.push_back({t, date});
    jobs.push_back({t, date});
  }
  return jobs;
}

void WriteInputs(cloudviews::StorageManager* storage, uint64_t seed,
                 int date_index) {
  const std::string date = DateOf(date_index);
  int64_t day = 0;
  cloudviews::ParseDate(date, &day);
  cloudviews::Rng rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(day));
  static const char* kPages[] = {"/home", "/search", "/cart", "/list",
                                 "/detail", "/pay"};
  static const char* kItems[] = {"book", "lamp", "desk", "pen", "mug"};
  cloudviews::Schema clicks({{"user", cloudviews::DataType::kInt64},
                             {"page", cloudviews::DataType::kString},
                             {"latency", cloudviews::DataType::kInt64},
                             {"when", cloudviews::DataType::kDate}});
  cloudviews::Batch cb(clicks);
  for (size_t i = 0; i < kClickRows; ++i) {
    (void)cb.AppendRow(
        {cloudviews::Value::Int64(static_cast<int64_t>(rng.Uniform(200))),
         cloudviews::Value::String(kPages[rng.Uniform(6)]),
         cloudviews::Value::Int64(static_cast<int64_t>(rng.Uniform(500))),
         cloudviews::Value::Date(day)});
  }
  cloudviews::Schema orders({{"buyer", cloudviews::DataType::kInt64},
                             {"item", cloudviews::DataType::kString},
                             {"amount", cloudviews::DataType::kInt64}});
  cloudviews::Batch ob(orders);
  for (size_t i = 0; i < kOrderRows; ++i) {
    (void)ob.AppendRow(
        {cloudviews::Value::Int64(static_cast<int64_t>(rng.Uniform(200))),
         cloudviews::Value::String(kItems[rng.Uniform(5)]),
         cloudviews::Value::Int64(static_cast<int64_t>(rng.Uniform(100)))});
  }
  for (auto& [name, schema, batch] :
       {std::tuple{"clicks_" + date, clicks, cb},
        std::tuple{"orders_" + date, orders, ob}}) {
    (void)storage->WriteStream(cloudviews::MakeStreamData(
        name, "guid-" + name, schema, {batch}, storage->clock()->Now()));
  }
}

/// What one client thread saw.
struct ClientTally {
  explicit ClientTally(bool traced) : spans(traced) {}

  std::vector<double> latencies;
  std::vector<std::pair<Job, Hash128>> outputs;
  uint64_t failed = 0;
  uint64_t refused = 0;
  double thread_cpu_seconds = 0;

  ReuseTally reuse;
  /// containment_verified of the containment family's jobs alone.
  uint64_t containment_family_verified = 0;
  // Traced run only.
  std::vector<double> queue_s, compile_s, execute_s, exec_cpu_s;
  SpanLog spans;
};

/// Submits `jobs` in order over one connection, each waited for.
void ClientLoop(net::Client* client, CloudViews* cv, int client_index,
                const std::vector<Job>& jobs, ClientTally* out) {
  const double cpu0 = cloudviews::ThreadCpuSeconds();
  SpanLog* log = &out->spans;
  const bool traced = log->enabled();
  cloudviews::GuidResolver resolver = [cv](const std::string& name) {
    auto handle = cv->storage()->OpenStream(name);
    return handle.ok() ? (*handle)->guid : std::string();
  };
  uint64_t trace_id = static_cast<uint64_t>(client_index) << 40;
  for (const Job& job : jobs) {
    ++trace_id;
    net::SubmitRequest req = MakeRequest(job, /*cloudviews_on=*/true);
    if (traced) {
      // The server parses, signs and encodes internally; the benchmark
      // repeats each step on the same request to time it.
      cloudviews::PlanNodePtr plan;
      {
        ScopedSpan span(log, "parser.parse", trace_id);
        auto parsed =
            cloudviews::ScopeScriptParser().Parse(req.script, ParamsOf(job),
                                                  resolver);
        if (parsed.ok()) plan = std::move(parsed).ValueOrDie();
      }
      if (plan != nullptr) {
        {
          ScopedSpan span(log, "signature.compute", trace_id);
          (void)cloudviews::ComputeSignatures(*plan);
        }
        ScopedSpan span(log, "signature.enumerate", trace_id);
        (void)cloudviews::EnumerateSubgraphs(plan);
      }
      ScopedSpan span(log, "net.encode", trace_id);
      net::WireWriter w;
      net::EncodeSubmitRequest(req, &w);
    }

    int span = log->Begin("net.submit", trace_id);
    double t0 = MonotonicNowSeconds();
    auto reply = client->Submit(req);
    double t1 = MonotonicNowSeconds();
    log->End(span);

    if (!reply.ok() ||
        (reply->kind != net::Client::SubmitReply::Kind::kResult &&
         reply->kind != net::Client::SubmitReply::Kind::kRetryAfter)) {
      ++out->failed;
      out->latencies.push_back(t1 - t0);
      continue;
    }
    if (reply->kind == net::Client::SubmitReply::Kind::kRetryAfter) {
      // A refusal misses every latency limit.
      ++out->refused;
      out->latencies.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    out->latencies.push_back(t1 - t0);
    const net::JobOutcome& o = reply->result.outcome;
    const net::WireTimings& timing = reply->result.timings;
    out->outputs.emplace_back(job, o.output_fingerprint);
    out->reuse.Add(o.views_materialized, o.views_reused,
                   o.views_reused_subsumed, o.reuse_rejected_by_cost,
                   o.containment_verified);
    if (kTemplates[job.tmpl].family == Family::kContainment) {
      out->containment_family_verified +=
          static_cast<uint64_t>(o.containment_verified);
    }
    if (traced) {
      log->AddReported("net.queue", span, timing.queue_seconds);
      log->AddReported("optimizer.compile", span, timing.compile_seconds);
      log->AddReported("exec.execute", span, timing.latency_seconds);
      out->queue_s.push_back(timing.queue_seconds);
      out->compile_s.push_back(timing.compile_seconds);
      out->execute_s.push_back(timing.latency_seconds);
      out->exec_cpu_s.push_back(timing.cpu_seconds);
      net::WireWriter w;
      net::EncodeSubmitResultResponse(reply->result, &w);
      ScopedSpan decode(log, "net.decode", trace_id);
      net::SubmitResultResponse decoded;
      (void)net::DecodeSubmitResultResponse(w.bytes(), &decoded);
    }
  }
  out->thread_cpu_seconds = cloudviews::ThreadCpuSeconds() - cpu0;
}

struct Instance {
  std::unique_ptr<CloudViews> cv;
  std::unique_ptr<net::JobServiceServer> server;
  uint16_t port = 0;
  cloudviews::AnalysisResult analysis;

  /// Stops the server before the instance it serves goes away.
  void Reset() {
    server.reset();
    cv.reset();
    analysis = {};
  }
};

/// Connects one client per closed-loop thread; empty when a connect fails.
std::vector<net::Client> ConnectClients(const Instance& inst) {
  std::vector<net::Client> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = net::Client::Connect("127.0.0.1", inst.port);
    if (!client.ok()) return {};
    clients.push_back(std::move(client).ValueOrDie());
  }
  return clients;
}

/// Runs one closed-loop block: clients[c] submits plans[c]. Returns one
/// tally per client and sets the block's wall seconds and service CPU
/// seconds.
std::vector<ClientTally> ClosedLoop(Instance* inst,
                                    std::vector<net::Client>* clients,
                                    const std::vector<std::vector<Job>>& plans,
                                    bool traced, double* wall_seconds,
                                    double* service_cpu_seconds) {
  std::vector<ClientTally> tallies;
  for (size_t c = 0; c < plans.size(); ++c) tallies.emplace_back(traced);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = MonotonicNowSeconds();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back(ClientLoop, &(*clients)[c], inst->cv.get(),
                         static_cast<int>(c), std::cref(plans[c]),
                         &tallies[c]);
  }
  for (std::thread& t : threads) t.join();
  *wall_seconds = MonotonicNowSeconds() - t0;
  double load_cpu = 0;
  for (const ClientTally& t : tallies) load_cpu += t.thread_cpu_seconds;
  *service_cpu_seconds = ProcessCpuSeconds() - cpu0 - load_cpu;
  return tallies;
}

/// Dates of client `c` within [first, first + per_client * kClients).
std::vector<std::vector<Job>> Plans(uint64_t seed, int first, int per_client) {
  std::vector<std::vector<Job>> plans(kClients);
  for (int i = 0; i < per_client * kClients; ++i) {
    std::vector<Job> date_jobs = DateJobs(seed, first + i);
    auto& plan = plans[static_cast<size_t>(i % kClients)];
    plan.insert(plan.end(), date_jobs.begin(), date_jobs.end());
  }
  return plans;
}

bool Setup(const RunOptions& opt, int total_dates, Instance* inst,
           WorkloadRun* run) {
  CloudViewsConfig config;
  SelectEveryCandidate(&config.analyzer.selection);
  // One worker: the closed loop's concurrency is at the front door
  // (connections, admission, the queue) and jobs run one at a time, so a
  // descheduled storage-lock holder cannot convoy the other workers. The
  // queue has room for every client's single in-flight request, so the
  // closed loop never sheds.
  config.net.submission_workers = 1;
  config.net.submission_queue_capacity = 64;
  config.net.per_connection_inflight_cap = 4;
  config.net.max_connections = 4 * kClients;
  inst->cv = std::make_unique<CloudViews>(config);
  CloudViews* cv = inst->cv.get();
  for (int d = 0; d < total_dates; ++d) WriteInputs(cv->storage(), opt.seed, d);

  inst->server =
      std::make_unique<net::JobServiceServer>(cv, cv->config().net);
  auto port = inst->server->Start();
  if (!port.ok()) {
    run->Check(false, "wire_recurring: server start failed");
    return false;
  }
  inst->port = *port;

  // History: date 0 of every daily template with CloudViews off, so only
  // subgraphs shared across templates recur (the cooked subplan).
  {
    auto client = net::Client::Connect("127.0.0.1", inst->port);
    if (!client.ok()) {
      run->Check(false, "wire_recurring: connect failed");
      return false;
    }
    for (int t = 0; t < kNumDaily; ++t) {
      auto reply = client->Submit(MakeRequest({t, 0}, false));
      if (!reply.ok() ||
          reply->kind != net::Client::SubmitReply::Kind::kResult) {
        run->Check(false, "wire_recurring: history job failed");
        return false;
      }
    }
  }
  {
    ScopedSpan span(&run->spans, "analyzer.run", 0);
    inst->analysis = cv->RunAnalyzerAndLoad();
  }

  // Warm-up: the closed loop itself over its own dates, so skeletons are
  // cached and the stream count has grown before measuring.
  const int warmup = Scaled(kWarmupDatesPerClient, opt.scale, 2);
  std::vector<net::Client> clients = ConnectClients(*inst);
  if (clients.empty()) {
    run->Check(false, "wire_recurring: connect failed");
    return false;
  }
  double wall = 0, cpu = 0;
  std::vector<ClientTally> tallies = ClosedLoop(
      inst, &clients, Plans(opt.seed, 1, warmup), false, &wall, &cpu);
  for (const ClientTally& t : tallies) {
    if (t.failed + t.refused > 0) {
      run->Check(false, "wire_recurring: warm-up job failed");
      return false;
    }
  }
  return true;
}

/// Fingerprints of the CloudViews-off outputs of every (template, date) the
/// clients got a result for, from a fresh instance fed the same inputs.
std::map<std::pair<int, int>, Hash128> ReferenceOutputs(
    uint64_t seed, const std::vector<ClientTally>& tallies) {
  std::map<std::pair<int, int>, Hash128> ref;
  for (const ClientTally& t : tallies) {
    for (const auto& [job, fp] : t.outputs) {
      (void)fp;
      ref.emplace(std::make_pair(job.tmpl, job.date), Hash128{});
    }
  }
  CloudViewsConfig config;
  config.enable_observability = false;
  CloudViews reference(config);
  cloudviews::JobServiceOptions plain;
  plain.enable_cloudviews = false;
  plain.enable_plan_cache = false;
  plain.record_in_repository = false;
  cloudviews::GuidResolver resolver = [&](const std::string& name) {
    auto handle = reference.storage()->OpenStream(name);
    return handle.ok() ? (*handle)->guid : std::string();
  };
  std::set<int> dates;
  for (const auto& [key, fp] : ref) {
    for (int back = 0; back < DatesRead(key.first); ++back) {
      dates.insert(key.second - back);
    }
  }
  for (int date : dates) WriteInputs(reference.storage(), seed, date);
  for (auto& [key, fp] : ref) {
    Job job{key.first, key.second};
    auto plan = cloudviews::ScopeScriptParser().Parse(
        Scripts()[static_cast<size_t>(job.tmpl)], ParamsOf(job), resolver);
    if (!plan.ok()) continue;
    cloudviews::JobDefinition def;
    def.template_id = kTemplates[job.tmpl].id;
    def.logical_plan = std::move(plan).ValueOrDie();
    if (!reference.Submit(def, plain).ok()) continue;
    fp = FingerprintOutput(&reference, std::string(kTemplates[job.tmpl].id) +
                                           "_" + DateOf(job.date));
  }
  return ref;
}

}  // namespace

WorkloadRun WireRecurringPhase(const RunOptions& opt, bool traced) {
  WorkloadRun run;
  run.spans = SpanLog(traced);
  const int warmup = Scaled(kWarmupDatesPerClient, opt.scale, 2);
  const int measured =
      Scaled(kDatesPerClientPerSecond * PhaseSeconds(opt), opt.scale, 4);
  const int total_dates = 1 + (warmup + measured) * kClients;
  Instance inst;
  const double t0 = MonotonicNowSeconds();
  if (!Setup(opt, total_dates, &inst, &run)) {
    inst.Reset();
    return run;
  }
  run.setup_seconds.push_back(MonotonicNowSeconds() - t0);
  CloudViews* cv = inst.cv.get();

  ServiceSnapshot start = ServiceSnapshot::Take(cv);
  net::ServerStatsResponse stats0 = inst.server->Stats();
  // The measured dates run as kBlocks consecutive closed-loop blocks, one
  // segment each.
  const int blocks = std::min(kBlocks, measured);
  std::vector<ClientTally> tallies;
  std::vector<net::Client> clients = ConnectClients(inst);
  if (clients.empty()) {
    run.Check(false, "wire_recurring: connect failed");
    inst.Reset();
    return run;
  }
  int first = 1 + warmup * kClients;
  for (int b = 0; b < blocks; ++b) {
    int per_client = measured * (b + 1) / blocks - measured * b / blocks;
    Segment seg;
    std::vector<ClientTally> block =
        ClosedLoop(&inst, &clients, Plans(opt.seed, first, per_client),
                   traced, &seg.seconds, &seg.cpu_seconds);
    first += per_client * kClients;
    for (ClientTally& t : block) {
      seg.latencies.insert(seg.latencies.end(), t.latencies.begin(),
                           t.latencies.end());
      seg.completed += t.latencies.size() - t.failed - t.refused;
      tallies.push_back(std::move(t));
    }
    run.segments.push_back(std::move(seg));
  }
  run.peak_rss_mb = PeakRssMb();
  run.stored_mb =
      static_cast<double>(cv->storage()->TotalBytes()) / (1 << 20);
  net::ServerStatsResponse stats1 = inst.server->Stats();
  ServiceSnapshot end = ServiceSnapshot::Take(cv);

  ClientTally all(traced);
  for (ClientTally& t : tallies) {
    run.attempted += t.latencies.size();
    run.failed += t.failed + t.refused;
    all.refused += t.refused;
    all.reuse.Merge(t.reuse);
    all.containment_family_verified += t.containment_family_verified;
    all.queue_s.insert(all.queue_s.end(), t.queue_s.begin(), t.queue_s.end());
    all.compile_s.insert(all.compile_s.end(), t.compile_s.begin(),
                         t.compile_s.end());
    all.execute_s.insert(all.execute_s.end(), t.execute_s.begin(),
                         t.execute_s.end());
    all.exec_cpu_s.insert(all.exec_cpu_s.end(), t.exec_cpu_s.begin(),
                          t.exec_cpu_s.end());
    run.spans.Merge(t.spans);
  }
  const uint64_t jobs = run.attempted;
  PlanCacheDelta tiers = Delta(start.cache, end.cache);
  const uint64_t sheds =
      (stats1.shed_queue_full + stats1.shed_conn_cap + stats1.shed_draining +
       stats1.shed_injected) -
      (stats0.shed_queue_full + stats0.shed_conn_cap + stats0.shed_draining +
       stats0.shed_injected);

  run.Count("views_selected", inst.analysis.selected.size());
  run.CountHash("selected_hash", SelectedSetHash(inst.analysis));
  run.Count("subgraphs_mined", inst.analysis.subgraphs_mined);
  run.Count("measured_jobs", jobs);
  // Three clients race: which epoch a compile sees, and so the tier and
  // the reuse it gets, depends on timing.
  run.Count("plan_cache_full", tiers.full, false);
  run.Count("plan_cache_skeleton", tiers.skeleton, false);
  run.Count("plan_cache_miss", tiers.miss, false);
  run.Count("views_materialized", all.reuse.views_materialized);
  run.Count("views_reused", all.reuse.views_reused, false);
  run.Count("views_reused_subsumed", all.reuse.views_subsumed, false);
  run.Count("containment_family_verified", all.containment_family_verified,
            false);
  run.Count("sheds", sheds);
  run.Count("streams", cv->storage()->NumStreams());

  // Label checks: the stated mix reached the tiers and paths it names.
  const double n = static_cast<double>(std::max<uint64_t>(jobs, 1));
  run.Check(static_cast<double>(tiers.full) / n >= 0.10,
            "wire_recurring: full tier served under 10% of jobs");
  run.Check(static_cast<double>(tiers.full + tiers.skeleton) / n >= 0.95,
            "wire_recurring: plan cache served under 95% of jobs");
  run.Check(static_cast<double>(tiers.miss) / n <= 0.02,
            "wire_recurring: plan-cache misses above 2% of jobs");
  run.Check(all.containment_family_verified > 0,
            "wire_recurring: containment family never verified a view");
  run.Check(sheds == 0, "wire_recurring: the server shed load");

  if (traced) {
    ProbeWrites(cv, &run.spans);
    FillServiceLayers(cv, start, jobs, &run);
    auto& l = run.layers;
    const SpanLog& s = run.spans;
    l["net.rtt_ms"] = Median(s.Durations("net.submit")) * 1e3;
    l["net.transport_ms"] = Median(s.SelfTimes("net.submit")) * 1e3;
    l["net.queue_wait_ms"] =
        TailPercentile(all.queue_s, 0.99).value_or(0) * 1e3;
    l["net.codec_us"] = (Median(s.Durations("net.encode")) +
                         Median(s.Durations("net.decode"))) *
                        1e6;
    l["net.refused_frac"] = static_cast<double>(all.refused) / n;
    l["parser.parse_us"] = Median(s.Durations("parser.parse")) * 1e6;
    l["signature.compute_us"] = Median(s.Durations("signature.compute")) * 1e6;
    l["signature.enumerate_us"] =
        Median(s.Durations("signature.enumerate")) * 1e6;
    // The wire does not report the plan-cache tier, so compile time is
    // the median over every job.
    l["optimizer.compile_ms"] = Median(all.compile_s) * 1e3;
    all.reuse.FillLayers(jobs, &run);
    l["exec.execute_ms"] = Median(all.execute_s) * 1e3;
    l["exec.cpu_ms"] = Mean(all.exec_cpu_s) * 1e3;
    l["analyzer.subgraphs_mined"] =
        static_cast<double>(inst.analysis.subgraphs_mined);
    l["analyzer.views_selected"] =
        static_cast<double>(inst.analysis.selected.size());
  }

  // Correctness, after the measured phase: every reply's fingerprint
  // against the CloudViews-off output of its (template, date).
  clients.clear();
  inst.Reset();
  auto reference = ReferenceOutputs(opt.seed, tallies);
  for (const ClientTally& t : tallies) {
    for (const auto& [job, fp] : t.outputs) {
      ++run.outputs_checked;
      if (reference[{job.tmpl, job.date}] != fp) ++run.output_mismatches;
    }
  }
  cloudviews::HashBuilder outputs;
  for (const auto& [key, fp] : reference) outputs.Add(fp);
  run.CountHash("outputs_hash", outputs.Finish());
  return run;
}

}  // namespace perfbench
