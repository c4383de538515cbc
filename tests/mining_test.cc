// WorkloadRepository::Mine merges per-submit-time buckets filled at ingest.
// It must return what one pass over every record of the window returns. The
// repository keeps no record, so each test keeps its own copies, rebuilt
// from the job results where a service ran them: they share the executed
// plans the buckets point into.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <thread>

#include "analyzer/analyzer.h"
#include "common/string_util.h"
#include "core/cloudviews.h"
#include "signature/signature.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace cloudviews {
namespace {

// --- The reference: one pass over the window's records ---------------------

void ReferenceInputs(const PlanNode& node, std::set<std::string>* out) {
  if (node.kind() == OpKind::kExtract) {
    out->insert(static_cast<const ExtractNode&>(node).template_name());
  }
  for (const auto& c : node.children()) ReferenceInputs(*c, out);
}

/// A window mined the direct way: every record submitted in [from, to), in
/// the order given, enumerated and folded one occurrence at a time. The
/// fold copies each design's properties; `designs` holds them.
struct ReferenceWindow {
  MinedWindow window;
  std::map<std::pair<Hash128, Hash128>, PhysicalProperties> designs;
};

ReferenceWindow ReferenceFold(
    const std::vector<std::shared_ptr<const JobRecord>>& records,
    LogicalTime from, LogicalTime to) {
  ReferenceWindow ref;
  for (const auto& job : records) {
    if (job->submit_time < from || job->submit_time >= to) continue;
    MinedJob& facts = ref.window.jobs.emplace_back();
    facts.job_id = job->job_id;
    facts.user = job->user;
    facts.vc = job->vc;
    facts.template_id = job->template_id;
    facts.latency_seconds = job->run_stats.latency_seconds;
    facts.has_plan = job->plan != nullptr;
    if (job->plan == nullptr) continue;
    for (const SubgraphEntry& entry : EnumerateSubgraphs(job->plan)) {
      const Hash128 sig = entry.sigs.normalized;
      facts.subgraphs.push_back(sig);
      SubgraphAggregate& agg = ref.window.aggregates[sig];
      if (agg.frequency == 0) {
        agg.normalized = sig;
        agg.first = std::shared_ptr<const PlanNode>(job, entry.node);
        agg.root_kind = entry.node->kind();
        agg.subtree_size = entry.subtree_size;
      }
      ++agg.frequency;
      agg.jobs.insert(job->job_id);
      agg.users.insert(job->user);
      agg.vcs.insert(job->vc);
      agg.templates.insert(job->template_id);
      ReferenceInputs(*entry.node, &agg.input_templates);
      agg.max_recurrence_period =
          std::max(agg.max_recurrence_period, job->recurrence_period);
      auto it = job->run_stats.operators.find(entry.node->id());
      if (it != job->run_stats.operators.end()) {
        agg.sum_rows += it->second.rows;
        agg.sum_bytes += it->second.bytes;
        agg.sum_latency += it->second.inclusive_seconds;
        agg.sum_job_latency += job->run_stats.latency_seconds;
      }
      PhysicalProperties design = entry.node->Delivered();
      auto& slot = agg.designs[design.Fingerprint()];
      ++slot.first;
      slot.second = std::shared_ptr<const PlanNode>(job, entry.node);
      ref.designs[{sig, design.Fingerprint()}] = design;
    }
  }
  return ref;
}

// --- Comparison --------------------------------------------------------------

bool SameSum(double mined, double reference) {
  return std::abs(mined - reference) <= 1e-12 * std::abs(reference);
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void ExpectSameSamples(const std::vector<double>& mined,
                       const std::vector<double>& reference,
                       const std::string& what) {
  std::vector<double> m = Sorted(mined), r = Sorted(reference);
  ASSERT_EQ(m.size(), r.size()) << what;
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_TRUE(SameSum(m[i], r[i])) << what << "[" << i << "]";
  }
}

void ExpectSameReport(const OverlapReport& m, const OverlapReport& r) {
  EXPECT_EQ(m.total_jobs, r.total_jobs);
  EXPECT_EQ(m.overlapping_jobs, r.overlapping_jobs);
  EXPECT_EQ(m.total_users, r.total_users);
  EXPECT_EQ(m.users_with_overlap, r.users_with_overlap);
  EXPECT_EQ(m.total_subgraph_templates, r.total_subgraph_templates);
  EXPECT_EQ(m.overlapping_subgraph_templates,
            r.overlapping_subgraph_templates);
  EXPECT_EQ(m.total_subgraph_instances, r.total_subgraph_instances);
  EXPECT_EQ(m.overlapping_subgraph_instances,
            r.overlapping_subgraph_instances);
  ASSERT_EQ(m.per_vc.size(), r.per_vc.size());
  for (const auto& [vc, entry] : r.per_vc) {
    ASSERT_TRUE(m.per_vc.count(vc)) << vc;
    EXPECT_EQ(m.per_vc.at(vc).jobs, entry.jobs) << vc;
    EXPECT_EQ(m.per_vc.at(vc).overlapping_jobs, entry.overlapping_jobs) << vc;
    EXPECT_EQ(m.per_vc.at(vc).avg_overlap_frequency,
              entry.avg_overlap_frequency)
        << vc;
  }
  EXPECT_EQ(m.overlaps_per_job, r.overlaps_per_job);
  EXPECT_EQ(m.overlaps_per_user, r.overlaps_per_user);
  EXPECT_EQ(m.overlaps_per_vc, r.overlaps_per_vc);
  EXPECT_EQ(m.per_input_max_frequency, r.per_input_max_frequency);
  EXPECT_EQ(m.overlap_occurrences_by_operator,
            r.overlap_occurrences_by_operator);
  ASSERT_EQ(m.frequency_by_operator.size(), r.frequency_by_operator.size());
  for (const auto& [kind, samples] : r.frequency_by_operator) {
    ExpectSameSamples(m.frequency_by_operator.at(kind), samples,
                      OpKindToString(kind));
  }
  EXPECT_EQ(m.redundant_output_groups, r.redundant_output_groups);
  EXPECT_EQ(m.jobs_with_redundant_output, r.jobs_with_redundant_output);
  ExpectSameSamples(m.frequencies, r.frequencies, "frequencies");
  ExpectSameSamples(m.runtimes_seconds, r.runtimes_seconds, "runtimes");
  ExpectSameSamples(m.sizes_bytes, r.sizes_bytes, "sizes");
  ExpectSameSamples(m.view_query_cost_ratios, r.view_query_cost_ratios,
                    "ratios");
}

/// Every aggregate field equal (sums to 1e-12 relative), the same jobs in
/// the same order, and each first occurrence the reference's: the window's
/// earliest occurrence, not merely an equal one.
void ExpectSameWindow(const MinedWindow& mined, const ReferenceWindow& ref) {
  const MinedWindow& want = ref.window;
  ASSERT_EQ(mined.aggregates.size(), want.aggregates.size());
  for (const auto& [sig, r] : want.aggregates) {
    auto it = mined.aggregates.find(sig);
    ASSERT_NE(it, mined.aggregates.end()) << sig.ToHex();
    const SubgraphAggregate& m = it->second;
    SCOPED_TRACE(sig.ToHex());
    EXPECT_EQ(m.normalized, r.normalized);
    EXPECT_EQ(m.root_kind, r.root_kind);
    EXPECT_EQ(m.subtree_size, r.subtree_size);
    EXPECT_EQ(m.first.get(), r.first.get());
    EXPECT_EQ(m.frequency, r.frequency);
    EXPECT_EQ(m.jobs, r.jobs);
    EXPECT_EQ(m.users, r.users);
    EXPECT_EQ(m.vcs, r.vcs);
    EXPECT_EQ(m.templates, r.templates);
    EXPECT_EQ(m.input_templates, r.input_templates);
    EXPECT_TRUE(SameSum(m.sum_rows, r.sum_rows));
    EXPECT_TRUE(SameSum(m.sum_bytes, r.sum_bytes));
    EXPECT_TRUE(SameSum(m.sum_latency, r.sum_latency));
    EXPECT_TRUE(SameSum(m.sum_job_latency, r.sum_job_latency));
    EXPECT_EQ(m.max_recurrence_period, r.max_recurrence_period);
    ASSERT_EQ(m.designs.size(), r.designs.size());
    for (const auto& [fp, entry] : r.designs) {
      ASSERT_TRUE(m.designs.count(fp));
      EXPECT_EQ(m.designs.at(fp).first, entry.first);
      EXPECT_EQ(m.designs.at(fp).second->Delivered(),
                ref.designs.at({sig, fp}));
    }
    EXPECT_EQ(m.PopularDesign(), r.PopularDesign());
  }
  ASSERT_EQ(mined.jobs.size(), want.jobs.size());
  for (size_t i = 0; i < want.jobs.size(); ++i) {
    const MinedJob& m = mined.jobs[i];
    const MinedJob& r = want.jobs[i];
    EXPECT_EQ(m.job_id, r.job_id) << i;
    EXPECT_EQ(m.user, r.user) << i;
    EXPECT_EQ(m.vc, r.vc) << i;
    EXPECT_EQ(m.template_id, r.template_id) << i;
    EXPECT_EQ(m.latency_seconds, r.latency_seconds) << i;
    EXPECT_EQ(m.has_plan, r.has_plan) << i;
    EXPECT_EQ(m.subgraphs, r.subgraphs) << i;
  }
}

CloudViewsAnalyzer SelectEveryCandidate() {
  AnalyzerConfig config;
  config.selection.top_k = std::numeric_limits<int>::max();
  return CloudViewsAnalyzer(config);
}

std::vector<Hash128> SelectedSignatures(const AnalysisResult& a) {
  std::vector<Hash128> sigs;
  for (const auto& agg : a.selected) sigs.push_back(agg.normalized);
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

// --- The workload ------------------------------------------------------------

ClusterProfile SmallProfile() {
  ClusterProfile p;
  p.name = "mining";
  p.num_vcs = 4;
  p.num_users = 6;
  p.num_templates = 30;
  p.num_shared_fragments = 8;
  p.num_input_datasets = 6;
  p.rows_per_input = 60;
  p.seed = 7;
  return p;
}

/// Four days of one small cluster. Every ten jobs the clock moves an hour,
/// so each day fills three buckets. Days 1-2 run without reuse; then the
/// analyzer loads views that days 3-4 build and read. One record without a
/// plan lands on day 3. `records_` holds every record, in ingest order.
class MiningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = std::numeric_limits<int>::max();
    cv_ = std::make_unique<CloudViews>(config);
    SyntheticWorkloadGenerator gen(SmallProfile());
    for (int day = 1; day <= 4; ++day) {
      cv_->clock()->AdvanceTo(day * kSecondsPerDay);
      std::string date = StrFormat("2018-01-0%d", day);
      gen.WriteInputs(cv_->storage(), date);
      std::vector<JobDefinition> jobs = gen.Instance(date);
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (i > 0 && i % 10 == 0) cv_->clock()->AdvanceSeconds(3600);
        auto r = cv_->Submit(jobs[i], day >= 3);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        reused_ += r->views_reused;
        records_.push_back(std::make_shared<const JobRecord>(
            testing_util::RecordOf(jobs[i], *r, cv_->clock()->Now())));
        if (day == 3 && i == 15) {
          JobRecord planless;
          planless.job_id = 1u << 30;
          planless.vc = "vc-planless";
          planless.user = "planless";
          planless.template_id = "planless";
          planless.submit_time = cv_->clock()->Now();
          cv_->repository()->AddJob(planless);
          records_.push_back(
              std::make_shared<const JobRecord>(std::move(planless)));
        }
      }
      if (day == 2) cv_->RunAnalyzerAndLoad(0, cv_->clock()->Now() + 1);
    }
  }

  /// Every submit time that holds a bucket, ascending.
  std::vector<LogicalTime> BucketTimes() const {
    std::set<LogicalTime> times;
    for (const auto& r : records_) times.insert(r->submit_time);
    return {times.begin(), times.end()};
  }

  std::unique_ptr<CloudViews> cv_;
  std::vector<std::shared_ptr<const JobRecord>> records_;
  int reused_ = 0;
};

TEST_F(MiningTest, MineMatchesTheReferenceFoldOnEveryWindow) {
  ASSERT_GT(reused_, 0) << "the workload must read views";
  std::vector<LogicalTime> t = BucketTimes();
  ASSERT_EQ(t.size(), 12u);
  const LogicalTime lo = std::numeric_limits<LogicalTime>::min();
  const LogicalTime hi = std::numeric_limits<LogicalTime>::max();

  std::vector<std::pair<LogicalTime, LogicalTime>> windows = {
      {lo, hi},                   // everything
      {t[0] - 100, t[0]},         // empty: before the first bucket
      {t.back() + 1, hi},         // empty: after the last
      {t[4], t[4]},               // empty: from == to
      {t[5], t[4]},               // empty: from > to
      {t[0] + 1, t[1]},           // empty: edges between two buckets
      {t[2] + 1, t[3]},           // empty: across the night
      {t[0] + 1, t[3] + 1},       // edges between buckets
      {t[2] - 1, t[7] + 1},
      {t[1] + 1800, t[9] - 1800},
      {t[6], t.back() + 1},       // days 3-4, which read views
      {t[6], t[9]},               // day 3, with the planless record
  };
  for (size_t i = 0; i < t.size(); ++i) {
    windows.push_back({t[i], t[i] + 1});  // one bucket each
  }
  for (size_t i = 0; i + 3 < t.size(); i += 3) {
    windows.push_back({t[i], t[i + 3]});  // one day each
  }
  ASSERT_GE(windows.size(), 20u);

  const auto& records = records_;
  ASSERT_EQ(records.size(), 4u * 30u + 1u);
  ASSERT_EQ(cv_->repository()->NumJobs(), records.size());
  size_t planless = 0;
  for (const MinedJob& job : cv_->repository()->Mine(t[6], t[9]).jobs) {
    planless += job.has_plan ? 0 : 1;
  }
  EXPECT_EQ(planless, 1u);
  size_t nonempty = 0;
  for (const auto& [from, to] : windows) {
    SCOPED_TRACE(StrFormat("window [%lld, %lld)", static_cast<long long>(from),
                           static_cast<long long>(to)));
    MinedWindow mined = cv_->repository()->Mine(from, to);
    ReferenceWindow ref = ReferenceFold(records, from, to);
    ExpectSameWindow(mined, ref);
    ExpectSameReport(BuildOverlapReport(mined), BuildOverlapReport(ref.window));
    nonempty += mined.jobs.empty() ? 0 : 1;

    AnalysisResult got = SelectEveryCandidate().Analyze(std::move(mined));
    AnalysisResult want =
        SelectEveryCandidate().Analyze(std::move(ref.window));
    EXPECT_EQ(got.jobs_analyzed, want.jobs_analyzed);
    EXPECT_EQ(got.subgraphs_mined, want.subgraphs_mined);
    EXPECT_EQ(got.submission_order, want.submission_order);
    EXPECT_EQ(SelectedSignatures(got), SelectedSignatures(want));
  }
  EXPECT_GE(nonempty, 15u);
}

TEST_F(MiningTest, DefinitionIsTheWindowsEarliestOccurrence) {
  // One template on three days; each window's definition is a clone of
  // that window's earliest occurrence, not of any other.
  CloudViews cv;
  std::vector<JobRecord> records;
  auto run = [&](int day) {
    cv.clock()->AdvanceTo(day * kSecondsPerDay);
    std::string date = StrFormat("2018-02-0%d", day);
    testing_util::WriteClickStream(cv.storage(), "clicks_" + date, 200,
                                   static_cast<uint64_t>(day), date);
    JobDefinition def;
    def.template_id = "daily";
    def.vc = "vc";
    def.user = "u";
    def.logical_plan = PlanBuilder::From(testing_util::SharedAggPlan(date))
                           .Output("daily_" + date)
                           .Build();
    auto r = cv.Submit(def, false);
    ASSERT_TRUE(r.ok());
    records.push_back(testing_util::RecordOf(def, *r, cv.clock()->Now()));
  };
  run(1);
  run(2);
  run(3);
  ASSERT_EQ(records.size(), 3u);
  ASSERT_EQ(cv.repository()->NumJobs(), 3u);

  for (int first_day : {1, 2}) {
    SCOPED_TRACE(StrFormat("window [day %d, day 3]", first_day));
    const LogicalTime from = first_day * kSecondsPerDay;
    AnalysisResult analysis =
        cv.RunAnalyzerAndLoad(from, 3 * kSecondsPerDay + 1);
    const JobRecord& earliest = records[static_cast<size_t>(first_day - 1)];
    ASSERT_EQ(earliest.submit_time, from);
    std::map<Hash128, Hash128> precise_by_normalized;
    for (const SubgraphEntry& e : EnumerateSubgraphs(earliest.plan)) {
      precise_by_normalized.emplace(e.sigs.normalized, e.sigs.precise);
    }
    ASSERT_FALSE(analysis.annotations.empty());
    for (const AnnotatedComputation& comp : analysis.annotations) {
      ASSERT_NE(comp.annotation.definition, nullptr);
      EXPECT_EQ(
          comp.annotation.definition->SubtreeHash(SignatureMode::kPrecise),
          precise_by_normalized.at(comp.annotation.normalized_signature));
    }
  }
}

TEST(MiningBucketsTest, InputTemplatesAndSizeFollowTheOccurrences) {
  // One signature in two buckets: first read through a view (no input
  // template shows, two nodes), then computed (three nodes). The window's
  // inputs are the union; its size is the earliest occurrence's.
  PlanNodePtr computed = testing_util::SharedAggPlan("2018-01-01");
  ASSERT_TRUE(computed->Bind().ok());
  const PlanNode& scan = *computed->child();  // Filter(Extract)
  auto view = std::make_shared<ViewReadNode>(
      "/views/v", scan.SubtreeHash(SignatureMode::kNormalized),
      scan.SubtreeHash(SignatureMode::kPrecise), scan.output_schema(),
      PhysicalProperties{}, 1, 1);
  PlanNodePtr through_view = computed->Clone();
  through_view->mutable_children()[0] = view;
  ASSERT_TRUE(through_view->Bind().ok());
  const Hash128 sig = computed->SubtreeHash(SignatureMode::kNormalized);
  ASSERT_EQ(through_view->SubtreeHash(SignatureMode::kNormalized), sig);

  WorkloadRepository repo;
  std::vector<std::shared_ptr<const JobRecord>> records;
  for (LogicalTime t : {1, 2}) {
    JobRecord r;
    r.job_id = static_cast<uint64_t>(t);
    r.submit_time = t;
    r.plan = PlanBuilder::From(t == 1 ? through_view : computed->Clone())
                 .Output("out")
                 .Build();
    ASSERT_TRUE(r.plan->Bind().ok());
    AssignNodeIds(r.plan.get());
    repo.AddJob(r);
    records.push_back(std::make_shared<const JobRecord>(std::move(r)));
  }
  MinedWindow window = repo.Mine();
  const SubgraphAggregate& agg = window.aggregates.at(sig);
  EXPECT_EQ(agg.frequency, 2);
  EXPECT_EQ(agg.subtree_size, 2u);
  EXPECT_EQ(agg.input_templates, std::set<std::string>{"clicks_{date}"});
  EXPECT_TRUE(repo.Mine(1, 2).aggregates.at(sig).input_templates.empty());
  ExpectSameWindow(window, ReferenceFold(records, 0, 3));
}

TEST(MiningBucketsTest, BucketsPinOnlyThePlansTheyPointInto) {
  // Bucket 1 holds three identical executed jobs and one that reads the
  // shared aggregate's input through a view, which adds an input-template
  // set to the same signatures; bucket 2 holds one more identical job. The
  // test keeps only weak pointers to the plans: after ingest, exactly the
  // plans holding a bucket's first occurrence or a design or input-set
  // witness are alive.
  PlanNodePtr computed = testing_util::SharedAggPlan("2018-01-01");
  ASSERT_TRUE(computed->Bind().ok());
  const PlanNode& scan = *computed->child();  // Filter(Extract)
  PlanNodePtr through_view = computed->Clone();
  through_view->mutable_children()[0] = std::make_shared<ViewReadNode>(
      "/views/v", scan.SubtreeHash(SignatureMode::kNormalized),
      scan.SubtreeHash(SignatureMode::kPrecise), scan.output_schema(),
      PhysicalProperties{}, 1, 1);
  ASSERT_TRUE(through_view->Bind().ok());
  // Record i: a fresh plan on every call, with statistics set by i alone.
  auto record = [&](size_t i) {
    JobRecord r;
    r.job_id = 100 + i;
    r.user = i == 3 ? "reader" : "u";
    r.vc = "vc";
    r.template_id = i == 3 ? "through_view" : "daily";
    r.submit_time = i == 4 ? 2 : 1;
    r.plan = PlanBuilder::From((i == 3 ? through_view : computed)->Clone())
                 .Output("out")
                 .Build();
    EXPECT_TRUE(r.plan->Bind().ok());
    const int nodes = AssignNodeIds(r.plan.get());
    r.run_stats.latency_seconds = 1.0 + static_cast<double>(i);
    for (int id = 0; id < nodes; ++id) {
      OperatorRuntimeStats& op = r.run_stats.operators[id];
      op.node_id = id;
      op.rows = 10.0 * static_cast<double>(i + 1) + id;
      op.bytes = 8 * op.rows;
      op.inclusive_seconds = 0.01 * static_cast<double>(nodes - id);
      op.cpu_seconds = 0.001 * static_cast<double>(i + 1);
    }
    return r;
  };

  WorkloadRepository repo;
  std::vector<std::weak_ptr<PlanNode>> plans;
  for (size_t i = 0; i < 5; ++i) {
    JobRecord r = record(i);
    plans.push_back(r.plan);
    repo.AddJob(r);
  }
  std::vector<bool> alive;
  for (const auto& plan : plans) alive.push_back(!plan.expired());
  EXPECT_EQ(alive, (std::vector<bool>{true, false, false, true, true}));
  EXPECT_EQ(repo.NumJobs(), plans.size());

  // The reference folds the same records: the pinned plans where they
  // live, identical fresh ones where they were dropped.
  std::vector<std::shared_ptr<const JobRecord>> records;
  for (size_t i = 0; i < plans.size(); ++i) {
    JobRecord r = record(i);
    if (PlanNodePtr pinned = plans[i].lock()) r.plan = pinned;
    records.push_back(std::make_shared<const JobRecord>(std::move(r)));
  }
  ExpectSameWindow(repo.Mine(), ReferenceFold(records, 0, 3));
  ExpectSameWindow(repo.Mine(2, 3), ReferenceFold(records, 2, 3));
}

// --- Concurrency -------------------------------------------------------------

TEST_F(MiningTest, ConcurrentIngestAndMine) {
  // Four threads ingest the records while a fifth mines the whole history
  // over and over: every window it sees is whole (no half-added job), and
  // the last one matches the reference fold.
  const auto& records = records_;
  WorkloadRepository repo;
  std::atomic<int> adding{4};
  std::vector<std::thread> adders;
  for (int t = 0; t < 4; ++t) {
    adders.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < records.size(); i += 4) {
        repo.AddJob(*records[i]);
      }
      adding.fetch_sub(1);
    });
  }
  int mines = 0;
  std::thread miner([&] {
    do {
      MinedWindow w = repo.Mine();
      int64_t occurrences = 0;
      for (const MinedJob& job : w.jobs) {
        occurrences += static_cast<int64_t>(job.subgraphs.size());
        for (const Hash128& sig : job.subgraphs) {
          ASSERT_TRUE(w.aggregates.count(sig));
          ASSERT_TRUE(w.aggregates.at(sig).jobs.count(job.job_id));
        }
      }
      int64_t frequencies = 0;
      for (const auto& [sig, agg] : w.aggregates) frequencies += agg.frequency;
      ASSERT_EQ(frequencies, occurrences);
      ++mines;
    } while (adding.load() > 0);
  });
  for (auto& a : adders) a.join();
  miner.join();
  EXPECT_GE(mines, 1);

  // The threads interleaved the days; the earliest occurrence is the
  // earliest by submit time, then by ingest order, which is the order of
  // the mined jobs: the reference folds the records in that order.
  std::map<uint64_t, std::shared_ptr<const JobRecord>> by_id;
  for (const auto& r : records) by_id.emplace(r->job_id, r);
  MinedWindow window = repo.Mine();
  std::vector<std::shared_ptr<const JobRecord>> ingested;
  for (const MinedJob& job : window.jobs) {
    auto it = by_id.find(job.job_id);
    ASSERT_NE(it, by_id.end()) << job.job_id;
    ingested.push_back(it->second);
    by_id.erase(it);
  }
  EXPECT_TRUE(by_id.empty());
  EXPECT_TRUE(std::is_sorted(ingested.begin(), ingested.end(),
                             [](const auto& a, const auto& b) {
                               return a->submit_time < b->submit_time;
                             }));
  const LogicalTime lo = std::numeric_limits<LogicalTime>::min();
  const LogicalTime hi = std::numeric_limits<LogicalTime>::max();
  ExpectSameWindow(window, ReferenceFold(ingested, lo, hi));
  EXPECT_EQ(repo.NumJobs(), records.size());
}

}  // namespace
}  // namespace cloudviews
