// Recurring-job fast-path tests: the signature-keyed plan cache (full and
// skeleton tiers), its catalog-epoch invalidation triggers (analysis load,
// new-view registration), the catalog changes that move no epoch
// (build-lock handoff, purge) and the serve-time demotion that covers them
// (view expiry, purge), the fault-matrix interaction (a cached plan whose
// view read fails still takes the views_fallback path and drops the
// entry), and the workload-repository ingest fixes (instruments wired or
// not, O(n) inclusive-CPU attribution).
//
// The load-bearing assertions mirror the acceptance criteria: a warm-cache
// submission of a recurring template has NO `logical_rewrite` span in its
// job profile, and cache-on output is byte-identical to cache-off across
// all 99 TPC-DS queries.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cloudviews.h"
#include "core/explain.h"
#include "fault/fault_injector.h"
#include "runtime/plan_cache.h"
#include "signature/signature.h"
#include "tests/test_util.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace {

using testing_util::SharedAggPlan;
using testing_util::SubtreeCpuSeconds;
using testing_util::WriteClickStream;

JobDefinition MakeJob(const std::string& id, PlanNodePtr plan) {
  JobDefinition def;
  def.template_id = id;
  def.vc = "vc-" + id;
  def.user = "u-" + id;
  def.logical_plan = std::move(plan);
  return def;
}

JobDefinition JobA(const std::string& date) {
  return MakeJob("jobA", PlanBuilder::From(SharedAggPlan(date))
                             .Sort({{"n", false}})
                             .Output("A_" + date)
                             .Build());
}

JobDefinition JobB(const std::string& date) {
  return MakeJob("jobB", PlanBuilder::From(SharedAggPlan(date))
                             .Filter(Gt(Col("n"), Lit(int64_t{0})))
                             .Output("B_" + date)
                             .Build());
}

/// Canonical row-sorted rendering of a stored stream for cross-instance
/// output comparison (same contract as crash_stress_test).
std::string Fingerprint(StorageManager* storage, const std::string& stream) {
  auto open = storage->OpenStream(stream);
  if (!open.ok()) return "<unreadable: " + open.status().ToString() + ">";
  Batch all = CombineBatches((*open)->schema, (*open)->batches);
  std::vector<SortKey> keys;
  for (const auto& f : (*open)->schema.fields()) {
    keys.push_back({f.name, /*ascending=*/true});
  }
  all = SortBatch(all, keys);
  std::string out;
  for (size_t r = 0; r < all.num_rows(); ++r) {
    for (const Value& v : all.GetRow(r)) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

PlanNodePtr BoundSharedPlan(const std::string& date) {
  PlanNodePtr plan = SharedAggPlan(date);
  EXPECT_TRUE(plan->Bind().ok());
  return plan;
}

// ---------------------------------------------------------------------------
// PlanCache unit behaviour
// ---------------------------------------------------------------------------

class PlanCacheUnitTest : public ::testing::Test {
 protected:
  static PlanCache::Key KeyFor(const PlanNode& plan, bool cloudviews) {
    return PlanCache::Key{ComputeSignatures(plan).normalized, cloudviews};
  }

  static PlanCache::Entry EntryFor(const PlanNodePtr& plan, uint64_t epoch,
                                   bool with_rewritten) {
    PlanCache::Entry entry;
    entry.catalog_epoch = epoch;
    entry.precise = ComputeSignatures(*plan).precise;
    entry.skeleton = plan->Clone();
    if (with_rewritten) entry.rewritten = plan->Clone();
    return entry;
  }
};

TEST_F(PlanCacheUnitTest, MissThenInsertThenFullHit) {
  PlanCache cache(4);
  PlanNodePtr plan = BoundSharedPlan("2018-01-01");
  PlanCache::Key key = KeyFor(*plan, true);
  Hash128 precise = ComputeSignatures(*plan).precise;

  auto miss = cache.Lookup(key, /*epoch=*/7, precise);
  EXPECT_EQ(miss.entry, nullptr);
  EXPECT_FALSE(miss.rewritten_valid);

  cache.Insert(key, EntryFor(plan, /*epoch=*/7, /*with_rewritten=*/true));
  auto hit = cache.Lookup(key, 7, precise);
  ASSERT_NE(hit.entry, nullptr);
  EXPECT_TRUE(hit.rewritten_valid);
  ASSERT_NE(hit.entry->skeleton, nullptr);
  ASSERT_NE(hit.entry->rewritten, nullptr);

  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(PlanCacheUnitTest, EpochMismatchInvalidatesRewrittenKeepsSkeleton) {
  PlanCache cache(4);
  PlanNodePtr plan = BoundSharedPlan("2018-01-01");
  PlanCache::Key key = KeyFor(*plan, true);
  Hash128 precise = ComputeSignatures(*plan).precise;
  cache.Insert(key, EntryFor(plan, /*epoch=*/7, true));

  auto probe = cache.Lookup(key, /*epoch=*/8, precise);
  ASSERT_NE(probe.entry, nullptr);
  EXPECT_FALSE(probe.rewritten_valid);  // the catalog moved underneath it
  EXPECT_NE(probe.entry->skeleton, nullptr);  // template tier survives
  EXPECT_EQ(cache.stats().epoch_invalidations, 1u);
}

TEST_F(PlanCacheUnitTest, PreciseMismatchIsSkeletonTierOnly) {
  PlanCache cache(4);
  PlanNodePtr day1 = BoundSharedPlan("2018-01-01");
  PlanNodePtr day2 = BoundSharedPlan("2018-01-02");
  // Same template => same normalized signature, different precise.
  ASSERT_EQ(ComputeSignatures(*day1).normalized,
            ComputeSignatures(*day2).normalized);
  ASSERT_NE(ComputeSignatures(*day1).precise,
            ComputeSignatures(*day2).precise);

  PlanCache::Key key = KeyFor(*day1, true);
  cache.Insert(key, EntryFor(day1, 7, true));
  auto probe = cache.Lookup(key, 7, ComputeSignatures(*day2).precise);
  ASSERT_NE(probe.entry, nullptr);
  EXPECT_FALSE(probe.rewritten_valid);  // new data, not a full hit
  EXPECT_EQ(cache.stats().epoch_invalidations, 0u);
  EXPECT_EQ(cache.stats().precise_mismatches, 1u);
}

TEST_F(PlanCacheUnitTest, LruEvictsOldestAtCapacity) {
  PlanCache cache(2);
  PlanNodePtr a = BoundSharedPlan("2018-01-01");
  PlanNodePtr b = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                      .Sort({{"n", false}})
                      .Build();
  PlanNodePtr c = PlanBuilder::From(SharedAggPlan("2018-01-01"))
                      .Filter(Gt(Col("n"), Lit(int64_t{0})))
                      .Build();
  ASSERT_TRUE(b->Bind().ok());
  ASSERT_TRUE(c->Bind().ok());
  cache.Insert(KeyFor(*a, true), EntryFor(a, 1, true));
  cache.Insert(KeyFor(*b, true), EntryFor(b, 1, true));
  // Touch `a` so `b` becomes the LRU victim.
  cache.Lookup(KeyFor(*a, true), 1, ComputeSignatures(*a).precise);
  cache.Insert(KeyFor(*c, true), EntryFor(c, 1, true));

  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.Lookup(KeyFor(*b, true), 1,
                         ComputeSignatures(*b).precise).entry,
            nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(*a, true), 1,
                         ComputeSignatures(*a).precise).entry,
            nullptr);
}

TEST_F(PlanCacheUnitTest, InvalidateDropsEntry) {
  PlanCache cache(4);
  PlanNodePtr plan = BoundSharedPlan("2018-01-01");
  PlanCache::Key key = KeyFor(*plan, true);
  cache.Insert(key, EntryFor(plan, 1, true));
  cache.Invalidate(key);
  EXPECT_EQ(cache.Lookup(key, 1, ComputeSignatures(*plan).precise).entry,
            nullptr);
  EXPECT_EQ(cache.stats().explicit_invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.Invalidate(key);  // absent: no-op, still counted once
  EXPECT_EQ(cache.stats().explicit_invalidations, 1u);
}

TEST_F(PlanCacheUnitTest, CloudviewsFlagSplitsKeys) {
  PlanCache cache(4);
  PlanNodePtr plan = BoundSharedPlan("2018-01-01");
  Hash128 precise = ComputeSignatures(*plan).precise;
  cache.Insert(KeyFor(*plan, true), EntryFor(plan, 1, true));
  EXPECT_EQ(cache.Lookup(KeyFor(*plan, false), 1, precise).entry, nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(*plan, true), 1, precise).entry, nullptr);
}

// ---------------------------------------------------------------------------
// Parameter-hole detection and skeleton rebinding
// ---------------------------------------------------------------------------

TEST(ParamHoleTest, NodeLocalTemplateHasNoExprLevelHoles) {
  PlanNodePtr plan = SharedAggPlan("2018-01-01");
  // Extract stream/guid are node-local holes, and the filter literal is a
  // plain int64 — positional rebinding is sound.
  EXPECT_FALSE(HasExprLevelParamHoles(*plan));
}

TEST(ParamHoleTest, DateLiteralIsAnExprLevelHole) {
  int64_t day = 0;
  ASSERT_TRUE(ParseDate("2018-01-01", &day));
  PlanNodePtr plan =
      PlanBuilder::From(SharedAggPlan("2018-01-01"))
          .Filter(Eq(Col("page"), Lit(Value::Date(day))))
          .Build();
  // Normalized signatures abstract date values, so the same template can
  // carry per-instance dates inside expressions the rewrites may move.
  EXPECT_TRUE(HasExprLevelParamHoles(*plan));
}

TEST(ParamHoleTest, BoundParameterIsAnExprLevelHole) {
  PlanNodePtr plan =
      PlanBuilder::From(SharedAggPlan("2018-01-01"))
          .Filter(Gt(Col("n"), Param("threshold", Value::Int64(3))))
          .Build();
  EXPECT_TRUE(HasExprLevelParamHoles(*plan));
}

TEST(ParamHoleTest, RebindUpdatesNodeLocalParamsAcrossInstances) {
  PlanNodePtr skeleton = JobA("2018-01-01").logical_plan;
  PlanNodePtr fresh = JobA("2018-01-02").logical_plan;
  ASSERT_TRUE(RebindSkeletonParams(skeleton.get(), fresh.get()));

  const PlanNode* n = skeleton.get();
  while (!n->children().empty()) n = n->children()[0].get();
  ASSERT_EQ(n->kind(), OpKind::kExtract);
  const auto* extract = static_cast<const ExtractNode*>(n);
  EXPECT_EQ(extract->stream_name(), "clicks_2018-01-02");
  EXPECT_EQ(extract->guid(), "guid-clicks_2018-01-02");
  const PlanNode* root = skeleton.get();
  ASSERT_EQ(root->kind(), OpKind::kOutput);
  EXPECT_EQ(static_cast<const OutputNode*>(root)->stream_name(),
            "A_2018-01-02");
}

TEST(ParamHoleTest, RebindRefusesMismatchedTemplates) {
  PlanNodePtr skeleton = JobA("2018-01-01").logical_plan;
  // No Output tail: one hole fewer than the skeleton — the pairing cannot
  // line up, and the skeleton must be left untouched.
  PlanNodePtr other = SharedAggPlan("2018-01-02");
  EXPECT_FALSE(RebindSkeletonParams(skeleton.get(), other.get()));
  const PlanNode* n = skeleton.get();
  while (!n->children().empty()) n = n->children()[0].get();
  EXPECT_EQ(static_cast<const ExtractNode*>(n)->stream_name(),
            "clicks_2018-01-01");
}

TEST(ParamHoleTest, RebindRefusesDifferentExtractTemplate) {
  PlanNodePtr skeleton = SharedAggPlan("2018-01-01");
  PlanNodePtr other =
      PlanBuilder::Extract("impressions_{date}", "impressions_2018-01-02",
                           "guid-impressions", testing_util::ClickSchema())
          .Filter(Gt(Col("latency"), Lit(int64_t{50})))
          .Aggregate({"page"},
                     {{AggFunc::kCount, nullptr, "n"},
                      {AggFunc::kSum, Col("latency"), "total_latency"}})
          .Build();
  EXPECT_FALSE(RebindSkeletonParams(skeleton.get(), other.get()));
}

// ---------------------------------------------------------------------------
// Job-service integration: tiers, spans, profile fields
// ---------------------------------------------------------------------------

class PlanCacheServiceTest : public ::testing::Test {
 protected:
  static CloudViewsConfig Config() {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    return config;
  }

  /// Day-1 history for the shared aggregate + analysis load, so later
  /// submissions materialize and reuse views.
  /// `seeded` (optional) receives the analysis that was loaded.
  static void SeedHistory(CloudViews* cv, AnalysisResult* seeded = nullptr) {
    WriteClickStream(cv->storage(), "clicks_2018-01-01", 1500, 1,
                     "2018-01-01");
    ASSERT_TRUE(cv->Submit(JobA("2018-01-01"), false).ok());
    ASSERT_TRUE(cv->Submit(JobB("2018-01-01"), false).ok());
    AnalysisResult analysis = cv->RunAnalyzerAndLoad();
    ASSERT_GE(cv->metadata()->NumAnnotations(), 1u);
    if (seeded != nullptr) *seeded = std::move(analysis);
  }
};

TEST_F(PlanCacheServiceTest, FullHitSkipsCompileEntirely) {
  CloudViews cv;
  WriteClickStream(cv.storage(), "clicks_2018-01-01", 1200, 1, "2018-01-01");

  auto cold = cv.Submit(JobA("2018-01-01"));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->plan_cache_hit);
  EXPECT_EQ(cold->catalog_epoch, 1u);
  ASSERT_NE(cold->trace, nullptr);
  EXPECT_NE(cold->trace->Find("logical_rewrite"), nullptr);
  EXPECT_EQ(cold->trace->Find("plan_cache"), nullptr);

  // Same template over the same data at the same catalog epoch: the entire
  // compile pipeline — metadata lookup included — is skipped.
  auto warm = cv.Submit(JobA("2018-01-01"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_EQ(warm->catalog_epoch, cold->catalog_epoch);
  ASSERT_NE(warm->trace, nullptr);
  EXPECT_NE(warm->trace->Find("plan_cache"), nullptr);
  EXPECT_EQ(warm->trace->Find("optimize"), nullptr);
  EXPECT_EQ(warm->trace->Find("logical_rewrite"), nullptr);
  EXPECT_EQ(warm->trace->Find("metadata_lookup"), nullptr);

  auto stats = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(stats.hits_full, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // The profile JSON carries the new fields.
  std::string json = JobProfileJson(*warm);
  EXPECT_NE(json.find("\"plan_cache_hit\":true"), std::string::npos);
  EXPECT_NE(json.find("\"catalog_epoch\":1"), std::string::npos);

  // Cache-off reference instance: byte-identical output.
  CloudViews plain;
  WriteClickStream(plain.storage(), "clicks_2018-01-01", 1200, 1,
                   "2018-01-01");
  JobServiceOptions off;
  off.enable_cloudviews = true;
  off.enable_plan_cache = false;
  ASSERT_TRUE(plain.job_service()->SubmitJob(JobA("2018-01-01"), off).ok());
  EXPECT_EQ(Fingerprint(cv.storage(), "A_2018-01-01"),
            Fingerprint(plain.storage(), "A_2018-01-01"));
}

TEST_F(PlanCacheServiceTest, SkeletonHitRebindsNewDateWithoutLogicalRewrite) {
  CloudViews cv;
  CloudViews plain;
  for (CloudViews* instance : {&cv, &plain}) {
    WriteClickStream(instance->storage(), "clicks_2018-01-01", 1200, 1,
                     "2018-01-01");
    WriteClickStream(instance->storage(), "clicks_2018-01-02", 900, 2,
                     "2018-01-02");
  }
  ASSERT_TRUE(cv.Submit(JobA("2018-01-01")).ok());

  // New data for the same template: the skeleton tier rebinds the `{date}`
  // holes and re-runs physical planning only.
  auto warm = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  ASSERT_NE(warm->trace, nullptr);
  const obs::SpanRecord* optimize = warm->trace->Find("optimize");
  ASSERT_NE(optimize, nullptr);
  EXPECT_EQ(warm->trace->Find("logical_rewrite"), nullptr);
  bool tagged = false;
  for (const auto& [k, v] : optimize->attributes) {
    if (k == "plan_cache" && v == "skeleton") tagged = true;
  }
  EXPECT_TRUE(tagged);
  auto stats = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(stats.hits_skeleton, 1u);

  JobServiceOptions off;
  off.enable_cloudviews = true;
  off.enable_plan_cache = false;
  for (const char* date : {"2018-01-01", "2018-01-02"}) {
    ASSERT_TRUE(plain.job_service()->SubmitJob(JobA(date), off).ok());
    EXPECT_EQ(Fingerprint(cv.storage(), std::string("A_") + date),
              Fingerprint(plain.storage(), std::string("A_") + date));
  }
}

TEST_F(PlanCacheServiceTest, OtherInstanceAtOneEpochIsAPreciseMismatch) {
  CloudViews cv;
  WriteClickStream(cv.storage(), "clicks_2018-01-01", 1200, 1, "2018-01-01");
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 900, 2, "2018-01-02");
  auto first = cv.Submit(JobA("2018-01-01"));
  ASSERT_TRUE(first.ok());
  auto cold = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(cold.misses, 1u);

  // Same template over other data at the same catalog epoch: the cached
  // rewritten plan belongs to the first instance, so it is not served —
  // and the probe, which found an entry, is no miss either.
  auto second = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->catalog_epoch, first->catalog_epoch);
  auto stats = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(stats.precise_mismatches, 1u);
  EXPECT_EQ(stats.misses, cold.misses);
  EXPECT_EQ(stats.epoch_invalidations, 0u);
  EXPECT_EQ(stats.hits_full, 0u);
}

TEST_F(PlanCacheServiceTest, CacheOffTakesTheLegacyPath) {
  CloudViews cv;
  WriteClickStream(cv.storage(), "clicks_2018-01-01", 800, 1, "2018-01-01");
  JobServiceOptions off;
  off.enable_cloudviews = true;
  off.enable_plan_cache = false;
  for (int i = 0; i < 2; ++i) {
    auto r = cv.job_service()->SubmitJob(JobA("2018-01-01"), off);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->plan_cache_hit);
    EXPECT_EQ(r->catalog_epoch, 0u);  // cache disabled: epoch never read
    ASSERT_NE(r->trace, nullptr);
    EXPECT_NE(r->trace->Find("logical_rewrite"), nullptr);
  }
  auto stats = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(stats.misses + stats.hits_full + stats.hits_skeleton, 0u);
}

TEST_F(PlanCacheServiceTest, NewViewRegistrationInvalidatesFullHit) {
  CloudViews cv(Config());
  AnalysisResult seeded;
  SeedHistory(&cv, &seeded);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");

  // Occurrence 1: builds the view (side effects — rewritten tier not
  // cached). Occurrence 2: reuses it via the skeleton tier and caches the
  // rewritten plan. Occurrence 3: full hit over the live view.
  auto first = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->views_materialized, 1);
  auto second = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->views_reused, 1);
  auto third = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->views_reused, 1);
  EXPECT_TRUE(third->plan_cache_hit);
  auto before = cv.job_service()->plan_cache().stats();
  EXPECT_GE(before.hits_full, 1u);

  // Reloading the analysis bumps the catalog epoch => the cached rewrite
  // must not be served at the stale epoch. The seeded selection is
  // reloaded as-is: re-running the analyzer would re-rank candidates by
  // measured wall time and could select a subgraph other than the view
  // that was built.
  uint64_t epoch_before = cv.metadata()->CatalogEpoch();
  cv.metadata()->LoadAnalysis(seeded.annotations);
  EXPECT_GT(cv.metadata()->CatalogEpoch(), epoch_before);

  auto fourth = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(fourth.ok());
  auto after = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(after.hits_full, before.hits_full);  // NOT served full
  EXPECT_GT(after.epoch_invalidations, before.epoch_invalidations);
  EXPECT_GT(after.hits_skeleton, before.hits_skeleton);
  EXPECT_EQ(fourth->views_reused, 1);  // replanned against the live catalog
}

TEST_F(PlanCacheServiceTest, BuildLockHandoffLeavesTheEpochAndFullHitsAlone) {
  CloudViews cv(Config());
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());  // builds the view
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());  // caches the rewrite
  auto warm = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  auto before = cv.job_service()->plan_cache().stats();
  ASSERT_GE(before.hits_full, 1u);

  // A build lock changing hands (granted to a phantom builder, then handed
  // back) cannot stale a full-tier plan: that tier holds only plans that
  // built nothing and were denied no lock. Neither transition moves the
  // epoch, and the cached rewrite keeps being served.
  Hash128 other_norm{0xAAu, 0xBBu};
  Hash128 other_precise{0xCCu, 0xDDu};
  const uint64_t epoch = cv.metadata()->CatalogEpoch();
  ASSERT_TRUE(
      cv.metadata()->ProposeMaterialize(other_norm, other_precise, 9999, 10));
  EXPECT_EQ(cv.metadata()->CatalogEpoch(), epoch);

  auto during = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(during.ok());
  EXPECT_TRUE(during->plan_cache_hit);
  EXPECT_EQ(during->catalog_epoch, epoch);
  EXPECT_EQ(during->views_reused, 1);
  auto mid = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(mid.hits_full, before.hits_full + 1);
  EXPECT_EQ(mid.epoch_invalidations, before.epoch_invalidations);

  cv.metadata()->AbandonLock(other_precise, 9999);
  EXPECT_EQ(cv.metadata()->CatalogEpoch(), epoch);
  auto post = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->views_reused, 1);
  auto after = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(after.hits_full, mid.hits_full + 1);
  EXPECT_EQ(after.epoch_invalidations, before.epoch_invalidations);
  EXPECT_EQ(after.demotions, before.demotions);
}

TEST_F(PlanCacheServiceTest, ClockDrivenViewExpiryDemotesFullHit) {
  CloudViews cv(Config());
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02"))->plan_cache_hit);
  auto before = cv.job_service()->plan_cache().stats();

  // The view's lineage lifetime elapses with NO epoch bump (nothing was
  // purged): the full-hit candidate must fail live-view validation and
  // demote — never serve a scan of an expired view.
  cv.clock()->AdvanceSeconds(30 * kSecondsPerDay);
  auto r = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(r.ok());
  auto after = cv.job_service()->plan_cache().stats();
  EXPECT_GT(after.demotions, before.demotions);
  EXPECT_EQ(after.hits_full, before.hits_full);
  EXPECT_EQ(r->views_reused, 0);  // the expired view was not read
}

TEST_F(PlanCacheServiceTest, PurgeExpiredLeavesTheEpochAndDemotes) {
  CloudViews cv(Config());
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02"))->plan_cache_hit);
  auto before = cv.job_service()->plan_cache().stats();

  // The purge moves no epoch: the cached rewrite still matches, and the
  // serve-time check that its view is registered and live demotes it.
  cv.clock()->AdvanceSeconds(30 * kSecondsPerDay);
  const uint64_t epoch = cv.metadata()->CatalogEpoch();
  ASSERT_GE(cv.PurgeExpired(), 1u);
  EXPECT_EQ(cv.metadata()->CatalogEpoch(), epoch);

  auto r = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(r.ok());
  auto after = cv.job_service()->plan_cache().stats();
  EXPECT_EQ(after.demotions, before.demotions + 1);
  EXPECT_EQ(after.epoch_invalidations, before.epoch_invalidations);
  EXPECT_EQ(after.hits_full, before.hits_full);
  // The annotation is still live, so the skeleton-tier replan rebuilds the
  // view, and registering it is what moves the epoch.
  EXPECT_EQ(r->views_materialized, 1);
  EXPECT_EQ(r->views_reused, 0);
  EXPECT_EQ(cv.metadata()->CatalogEpoch(), epoch + 1);
}

TEST_F(PlanCacheServiceTest, CachedPlanWhoseViewReadFailsTakesFallback) {
  fault::FaultInjector injector(7);
  fault::RecordingSleeper sleeper;
  CloudViewsConfig config = Config();
  config.fault = &injector;
  config.sleeper = &sleeper;
  config.retry.max_attempts = 2;
  CloudViews cv(config);
  SeedHistory(&cv);
  WriteClickStream(cv.storage(), "clicks_2018-01-02", 1500, 2, "2018-01-02");
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02")).ok());
  ASSERT_TRUE(cv.Submit(JobA("2018-01-02"))->plan_cache_hit);
  auto before = cv.job_service()->plan_cache().stats();

  // Every storage-level view read now fails. Metadata still lists the view,
  // so the full-hit validation passes — the failure surfaces mid-run and
  // must take the standard views_fallback degradation, then drop the entry.
  fault::FaultSpec spec;
  spec.probability = 1.0;
  injector.Arm(fault::points::kStorageViewRead, spec);
  auto r = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->views_fallback, 1);
  EXPECT_EQ(r->views_reused, 0);
  auto after = cv.job_service()->plan_cache().stats();
  EXPECT_GT(after.explicit_invalidations, before.explicit_invalidations);

  // Byte-identical to a fault-free no-reuse baseline.
  CloudViews baseline;
  WriteClickStream(baseline.storage(), "clicks_2018-01-02", 1500, 2,
                   "2018-01-02");
  ASSERT_TRUE(baseline.Submit(JobA("2018-01-02"), false).ok());
  EXPECT_EQ(Fingerprint(cv.storage(), "A_2018-01-02"),
            Fingerprint(baseline.storage(), "A_2018-01-02"));

  // The entry is gone: the next occurrence replans from scratch.
  injector.Disarm(fault::points::kStorageViewRead);
  auto replan = cv.Submit(JobA("2018-01-02"));
  ASSERT_TRUE(replan.ok());
  EXPECT_GT(cv.job_service()->plan_cache().stats().misses, before.misses);
}

TEST_F(PlanCacheServiceTest, ConcurrentWarmSubmissionsStayCorrect) {
  CloudViews cv;
  CloudViews plain;
  std::vector<JobDefinition> defs;
  for (int day = 1; day <= 6; ++day) {
    std::string date = "2018-02-0" + std::to_string(day);
    for (CloudViews* instance : {&cv, &plain}) {
      WriteClickStream(instance->storage(), "clicks_" + date, 700 + day * 13,
                       static_cast<uint64_t>(day), date);
    }
    defs.push_back(JobA(date));
  }
  // Warm the cache, then submit all instances concurrently twice: probes,
  // inserts, and LRU updates race; results must stay byte-identical.
  ASSERT_TRUE(cv.Submit(defs[0]).ok());
  for (int round = 0; round < 2; ++round) {
    for (auto& r : cv.job_service()->SubmitConcurrent(defs, {})) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  auto stats = cv.job_service()->plan_cache().stats();
  EXPECT_GT(stats.hits_full + stats.hits_skeleton, 0u);
  JobServiceOptions off;
  off.enable_plan_cache = false;
  for (int day = 1; day <= 6; ++day) {
    std::string date = "2018-02-0" + std::to_string(day);
    ASSERT_TRUE(plain.job_service()->SubmitJob(JobA(date), off).ok());
    EXPECT_EQ(Fingerprint(cv.storage(), "A_" + date),
              Fingerprint(plain.storage(), "A_" + date));
  }
}

// ---------------------------------------------------------------------------
// Acceptance: byte-identical output cache-on vs cache-off, all 99 queries
// ---------------------------------------------------------------------------

TEST(PlanCacheTpcdsTest, ByteIdenticalCacheOnVsOffAcrossAllQueries) {
  tpcds::TpcdsOptions small;
  small.store_sales_rows = 2000;
  small.web_sales_rows = 800;
  small.catalog_sales_rows = 1000;
  small.customers = 200;

  CloudViewsConfig config;
  config.analyzer.selection.top_k = 10;
  config.analyzer.selection.min_frequency = 3;
  CloudViews cached(config);
  CloudViews uncached(config);
  tpcds::TpcdsGenerator gen(small);
  ASSERT_TRUE(gen.WriteTables(cached.storage()).ok());
  ASSERT_TRUE(gen.WriteTables(uncached.storage()).ok());

  // Round 1 (plain) builds recurring history; then both catalogs load the
  // same analysis; round 2 runs with reuse, twice per query, so the cached
  // instance serves both skeleton and full tiers.
  for (CloudViews* instance : {&cached, &uncached}) {
    for (int q = 1; q <= tpcds::kNumQueries; ++q) {
      ASSERT_TRUE(instance->Submit(tpcds::MakeQueryJob(q), false).ok())
          << "q" << q;
    }
    instance->RunAnalyzerAndLoad();
  }
  JobServiceOptions on;
  on.enable_cloudviews = true;
  on.enable_plan_cache = true;
  JobServiceOptions off = on;
  off.enable_plan_cache = false;
  auto uncached_before = uncached.job_service()->plan_cache().stats();
  for (int pass = 0; pass < 2; ++pass) {
    for (int q = 1; q <= tpcds::kNumQueries; ++q) {
      auto a = cached.job_service()->SubmitJob(tpcds::MakeQueryJob(q), on);
      ASSERT_TRUE(a.ok()) << "q" << q << ": " << a.status().ToString();
      auto b = uncached.job_service()->SubmitJob(tpcds::MakeQueryJob(q), off);
      ASSERT_TRUE(b.ok()) << "q" << q << ": " << b.status().ToString();
      EXPECT_FALSE(b->plan_cache_hit);
      std::string out = "tpcds_q" + std::to_string(q) + "_out";
      ASSERT_EQ(Fingerprint(cached.storage(), out),
                Fingerprint(uncached.storage(), out))
          << out << " diverged between cache-on and cache-off (pass "
          << pass << ")";
    }
  }
  auto stats = cached.job_service()->plan_cache().stats();
  EXPECT_GT(stats.hits_full, 0u);
  EXPECT_GT(stats.hits_skeleton, 0u);
  // The cache-off submissions never touched the cache (the round-1 history
  // runs used the default options, so the absolute counts are non-zero).
  auto uncached_after = uncached.job_service()->plan_cache().stats();
  EXPECT_EQ(uncached_after.misses, uncached_before.misses);
  EXPECT_EQ(uncached_after.hits_full + uncached_after.hits_skeleton,
            uncached_before.hits_full + uncached_before.hits_skeleton);
}

// ---------------------------------------------------------------------------
// Metadata hot path: epoch discipline and lock-wait instrumentation
// ---------------------------------------------------------------------------

TEST(CatalogEpochTest, OnlyAnalysisLoadsAndAcceptedRegistrationsMoveIt) {
  CloudViews cv;
  MetadataService* md = cv.metadata();
  uint64_t last = md->CatalogEpoch();
  EXPECT_GE(last, 1u);
  // How far the epoch moved since the previous call.
  auto moved = [&] {
    uint64_t now = md->CatalogEpoch();
    uint64_t delta = now - last;
    last = now;
    return delta;
  };
  auto view = [](uint64_t precise, uint64_t producer) {
    MaterializedViewInfo info;
    info.path = "/views/epoch/" + std::to_string(precise) + ".ss";
    info.normalized_signature = Hash128{1, 2};
    info.precise_signature = Hash128{precise, 4};
    info.producer_job_id = producer;
    return info;
  };
  const Hash128 norm{1, 2};

  md->LoadAnalysis({});
  EXPECT_EQ(moved(), 1u) << "analysis load";
  ASSERT_TRUE(md->ProposeMaterialize(norm, Hash128{3, 4}, 1, 10));
  EXPECT_EQ(moved(), 0u) << "lock grant";
  EXPECT_FALSE(md->ProposeMaterialize(norm, Hash128{3, 4}, 2, 10));
  EXPECT_EQ(moved(), 0u) << "lock denial";
  EXPECT_FALSE(md->ReportMaterialized(view(3, 2), 0).ok());
  EXPECT_EQ(moved(), 0u) << "fenced registration";
  ASSERT_TRUE(md->ReportMaterialized(view(3, 1), 0).ok());
  EXPECT_EQ(moved(), 1u) << "accepted registration";
  ASSERT_TRUE(md->ReportMaterialized(view(3, 1), 0).ok());
  EXPECT_EQ(moved(), 0u) << "idempotent re-report";
  EXPECT_FALSE(md->ReportMaterialized(view(3, 2), 0).ok());
  EXPECT_EQ(moved(), 0u) << "registration of a registered view";

  ASSERT_TRUE(md->ProposeMaterialize(norm, Hash128{5, 4}, 1, 10));
  md->AbandonLock(Hash128{5, 4}, 1);
  EXPECT_EQ(moved(), 0u) << "lock abandon";
  md->AbandonLock(Hash128{5, 4}, 1);
  EXPECT_EQ(moved(), 0u) << "abandon of a released lock";

  (void)md->DropView(Hash128{3, 4});  // no file was written: NotFound
  EXPECT_EQ(md->NumRegisteredViews(), 0u);
  EXPECT_EQ(moved(), 0u) << "drop";

  ASSERT_TRUE(
      md->ReportMaterialized(view(6, 1), cv.clock()->Now() + 10).ok());
  EXPECT_EQ(moved(), 1u) << "accepted registration";
  cv.clock()->AdvanceSeconds(11);
  ASSERT_EQ(md->PurgeExpired(), 1u);
  EXPECT_EQ(moved(), 0u) << "purge";

  md->LoadAnalysis({});
  EXPECT_EQ(moved(), 1u) << "analysis reload";
}

TEST_F(PlanCacheServiceTest, EveryMetadataCallObservesOneLockWait) {
  CloudViews cv(Config());
  MetadataService* md = cv.metadata();
  const obs::Histogram* wait =
      cv.metrics()->GetHistogram("cv_metadata_lock_wait_seconds");
  // Observations one call adds to the metadata lock-wait histogram.
  auto waits = [&](const std::function<void()>& call) {
    uint64_t before = wait->count();
    call();
    return wait->count() - before;
  };
  MaterializedViewInfo info;
  info.path = "/views/waits/1.ss";
  info.normalized_signature = Hash128{1, 2};
  info.precise_signature = Hash128{3, 4};
  info.producer_job_id = 7;
  auto features = std::make_shared<ViewFeatures>();
  features->core_precise = Hash128{5, 6};
  info.reuse_features = features;

  EXPECT_EQ(waits([&] { md->LoadAnalysis({}); }), 1u);
  EXPECT_EQ(waits([&] { (void)md->GetRelevantViews({"t"}); }), 1u);
  EXPECT_EQ(waits([&] {
              (void)md->GetRelevantViews({"t"}, {Hash128{1, 2}});
            }),
            1u);
  EXPECT_EQ(waits([&] { md->FindAnnotation(Hash128{1, 2}); }), 1u);
  EXPECT_EQ(waits([&] { (void)md->GetRelevantViews({}, {Hash128{1, 2}}); }),
            1u);
  EXPECT_EQ(waits([&] { md->NumAnnotations(); }), 1u);
  EXPECT_EQ(waits([&] {
              md->ProposeMaterialize(Hash128{1, 2}, Hash128{3, 4}, 7, 10);
            }),
            1u);
  EXPECT_EQ(waits([&] { md->NumActiveLocks(); }), 1u);
  EXPECT_EQ(waits([&] { md->HeldLocks(); }), 1u);
  EXPECT_EQ(waits([&] { ASSERT_TRUE(md->ReportMaterialized(info, 0).ok()); }),
            1u);
  EXPECT_EQ(waits([&] { md->FindMaterialized(Hash128{1, 2}, Hash128{3, 4}); }),
            1u);
  EXPECT_EQ(waits([&] {
              md->FindSubsumableInstances(Hash128{1, 2}, Hash128{5, 6});
            }),
            1u);
  EXPECT_EQ(waits([&] {
              ASSERT_TRUE(md->WaitForMaterialized(Hash128{3, 4}, 1).ok());
            }),
            1u);
  EXPECT_EQ(waits([&] { md->ListViews(); }), 1u);
  EXPECT_EQ(waits([&] { md->AbandonLock(Hash128{3, 4}, 7); }), 1u);
  EXPECT_EQ(waits([&] { md->PurgeExpired(); }), 1u);
  EXPECT_EQ(waits([&] { (void)md->DropView(Hash128{3, 4}); }), 1u);
  // The lock-free reads take no lock at all.
  EXPECT_EQ(waits([&] {
              md->CatalogEpoch();
              md->counters();
              md->NumRegisteredViews();
              md->SimulatedLookupLatency();
            }),
            0u);
}

// ---------------------------------------------------------------------------
// Workload-repository ingest fixes
// ---------------------------------------------------------------------------

class RepositoryIngestTest : public ::testing::Test {
 protected:
  /// Executes one TPC-DS query and returns its repository record — a real
  /// multi-join plan with per-operator runtime stats — rebuilt from the
  /// job's result.
  static JobRecord ExecutedRecord() {
    CloudViews cv;
    tpcds::TpcdsOptions small;
    small.store_sales_rows = 2000;
    small.web_sales_rows = 800;
    small.catalog_sales_rows = 1000;
    small.customers = 200;
    EXPECT_TRUE(tpcds::TpcdsGenerator(small).WriteTables(cv.storage()).ok());
    JobDefinition def = tpcds::MakeQueryJob(17);
    auto r = cv.Submit(def, false);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(cv.repository()->NumJobs(), 1u);
    return testing_util::RecordOf(def, *r, cv.clock()->Now());
  }
};

TEST_F(RepositoryIngestTest, PartiallyWiredInstrumentsDoNotCrashOrSkip) {
  JobRecord record = ExecutedRecord();
  {
    // Built on a shared registry: the gauge tracks the index and the
    // counters advance there.
    obs::MetricsRegistry registry;
    WorkloadRepository repo(&registry);
    repo.AddJob(record);
    EXPECT_GT(repo.NumIndexedSubgraphs(), 0u);
    EXPECT_EQ(registry.GetGauge("cv_repository_indexed_subgraphs")->value(),
              static_cast<double>(repo.NumIndexedSubgraphs()));
    EXPECT_EQ(
        registry.GetCounter("cv_repository_jobs_ingested_total")->value(),
        1u);
    EXPECT_GT(registry.GetCounter("cv_repository_subgraph_observations_total")
                  ->value(),
              0u);
  }
  {
    // Built on its own: the repository counts into a registry it owns.
    WorkloadRepository repo;
    repo.AddJob(record);
    EXPECT_GT(repo.NumIndexedSubgraphs(), 0u);
  }
}

TEST_F(RepositoryIngestTest, PrefixSumCpuMatchesPerSubtreeWalk) {
  JobRecord record = ExecutedRecord();
  ASSERT_NE(record.plan, nullptr);
  ASSERT_FALSE(record.run_stats.operators.empty());

  // Reference accumulation using the original per-subtree walk.
  struct Acc {
    double rows = 0, bytes = 0, latency = 0, cpu = 0;
    int64_t n = 0;
  };
  std::unordered_map<Hash128, Acc, Hash128Hasher> expected;
  const PlanRuntimeStats& stats = record.run_stats.operators;
  for (const auto& entry : EnumerateSubgraphs(record.plan)) {
    auto it = stats.find(entry.node->id());
    if (it == stats.end()) continue;
    Acc& acc = expected[entry.sigs.normalized];
    acc.rows += it->second.rows;
    acc.bytes += it->second.bytes;
    acc.latency += it->second.inclusive_seconds;
    acc.cpu += SubtreeCpuSeconds(*entry.node, stats);
    ++acc.n;
  }
  ASSERT_FALSE(expected.empty());

  WorkloadRepository repo;
  repo.AddJob(record);
  EXPECT_EQ(repo.NumIndexedSubgraphs(), expected.size());
  for (const auto& [sig, acc] : expected) {
    auto got = repo.Lookup(sig);
    ASSERT_TRUE(got.has_value());
    double n = static_cast<double>(acc.n);
    // The prefix sum reassociates the additions, so allow rounding noise.
    EXPECT_NEAR(got->cpu_seconds, acc.cpu / n,
                1e-9 * std::abs(acc.cpu / n) + 1e-15);
    EXPECT_DOUBLE_EQ(got->rows, acc.rows / n);
    EXPECT_DOUBLE_EQ(got->bytes, acc.bytes / n);
    EXPECT_DOUBLE_EQ(got->latency_seconds, acc.latency / n);
    EXPECT_EQ(got->observations, acc.n);
  }
}

}  // namespace
}  // namespace cloudviews
