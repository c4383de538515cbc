#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "metadata/metadata_service.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace {

Hash128 H(uint64_t a, uint64_t b = 0) { return Hash128{a, b}; }

AnnotatedComputation Comp(uint64_t sig, std::vector<std::string> tags) {
  AnnotatedComputation comp;
  comp.annotation.normalized_signature = H(sig);
  comp.annotation.frequency = 3;
  comp.annotation.avg_runtime_seconds = 10;
  comp.tags = std::move(tags);
  return comp;
}

/// A registered instance of template `normalized`; `core` names the
/// precise signature of the input it was computed over, and an instance
/// without one carries no reuse features.
MaterializedViewInfo Instance(uint64_t normalized, uint64_t precise,
                              std::optional<uint64_t> core,
                              uint64_t producer = 1) {
  MaterializedViewInfo info;
  info.path = "/views/" + std::to_string(normalized) + "/" +
              std::to_string(precise) + ".ss";
  info.normalized_signature = H(normalized);
  info.precise_signature = H(precise);
  info.producer_job_id = producer;
  if (core.has_value()) {
    auto features = std::make_shared<ViewFeatures>();
    features->core_precise = H(*core, 7);
    info.reuse_features = std::move(features);
  }
  return info;
}

Hash128 Core(uint64_t core) { return H(core, 7); }

std::vector<Hash128> PreciseOf(const std::vector<MaterializedViewInfo>& infos) {
  std::vector<Hash128> out;
  for (const auto& info : infos) out.push_back(info.precise_signature);
  return out;
}

class MetadataTest : public ::testing::Test {
 protected:
  MetadataTest() : storage_(&clock_), service_(&clock_, &storage_) {}

  SimulatedClock clock_;
  StorageManager storage_;
  MetadataService service_;
};

TEST_F(MetadataTest, InvertedIndexReturnsRelevantAnnotations) {
  service_.LoadAnalysis({Comp(1, {"template:a", "vc:v1"}),
                         Comp(2, {"template:b", "vc:v1"}),
                         Comp(3, {"template:c", "vc:v2"})});
  EXPECT_EQ(service_.NumAnnotations(), 3u);

  auto hits = service_.GetRelevantViews({"template:a"});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->begin()->second.normalized_signature, H(1));

  // vc:v1 matches two computations (false positives are fine, Sec 6.1).
  EXPECT_EQ(service_.GetRelevantViews({"vc:v1"})->size(), 2u);
  EXPECT_EQ(service_.GetRelevantViews({"vc:nope"})->size(), 0u);
  // Multiple tags union their hits.
  EXPECT_EQ(service_.GetRelevantViews({"template:a", "vc:v2"})->size(), 2u);
}

TEST_F(MetadataTest, ReloadReplacesAnalysis) {
  service_.LoadAnalysis({Comp(1, {"t:a"})});
  service_.LoadAnalysis({Comp(2, {"t:b"})});
  EXPECT_EQ(service_.NumAnnotations(), 1u);
  EXPECT_EQ(service_.GetRelevantViews({"t:a"})->size(), 0u);
  EXPECT_EQ(service_.GetRelevantViews({"t:b"})->size(), 1u);
}

/// A computation tagged `tag` whose features carry the table-set key
/// `table_set` (no features when nullopt). `marker` (its frequency) tells
/// two copies of one signature apart.
AnnotatedComputation Keyed(uint64_t sig, const std::string& tag,
                           std::optional<Hash128> table_set,
                           int64_t marker) {
  AnnotatedComputation comp = Comp(sig, {tag});
  comp.annotation.frequency = marker;
  if (table_set.has_value()) {
    auto features = std::make_shared<ViewFeatures>();
    features->table_set_key = *table_set;
    comp.annotation.features = std::move(features);
  }
  return comp;
}

/// (signature, marker) of every entry of a lookup's index, sorted.
std::vector<std::pair<Hash128, int64_t>> Entries(
    const Result<AnnotationIndex>& lookup) {
  std::vector<std::pair<Hash128, int64_t>> out;
  EXPECT_TRUE(lookup.ok()) << lookup.status().ToString();
  if (!lookup.ok()) return out;
  // order-insensitive: sorted below.
  for (const auto& [normalized, ann] : *lookup) {
    EXPECT_EQ(normalized, ann.normalized_signature);
    out.emplace_back(normalized, ann.frequency);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(MetadataTest, OneLookupUnionsTagAndTableSetMatches) {
  obs::MetricsRegistry metrics;
  fault::FaultInjector inj(3);
  MetadataService service(&clock_, &storage_, {}, &metrics,
                          MonotonicClock::Real(), &inj);
  const Hash128 k1 = H(100, 1);
  const Hash128 k2 = H(200, 2);
  // F and G share signature 5; the marker names the copy.
  service.LoadAnalysis({Keyed(1, "t", k1, 1),             // A
                        Keyed(2, "u", k1, 2),             // B
                        Keyed(3, "t", std::nullopt, 3),   // C
                        Keyed(4, "u", k2, 4),             // D
                        Keyed(5, "u", k1, 6),             // F
                        Keyed(5, "t", k1, 7)});           // G
  const obs::Counter* lookups =
      metrics.GetCounter("cv_metadata_lookups_total");
  const obs::Histogram* waits =
      metrics.GetHistogram("cv_metadata_lock_wait_seconds");
  using Contents = std::vector<std::pair<Hash128, int64_t>>;

  // Tag matches come first, so the shared signature keeps G's copy.
  uint64_t lookups_before = lookups->value();
  uint64_t waits_before = waits->count();
  EXPECT_EQ(Entries(service.GetRelevantViews({"t"}, {k1})),
            (Contents{{H(1), 1}, {H(2), 2}, {H(3), 3}, {H(5), 7}}));
  EXPECT_EQ(lookups->value(), lookups_before + 1);
  EXPECT_EQ(waits->count(), waits_before + 1);

  EXPECT_EQ(Entries(service.GetRelevantViews({"t"}, {})),
            (Contents{{H(1), 1}, {H(3), 3}, {H(5), 7}}));
  EXPECT_EQ(lookups->value(), lookups_before + 2);
  EXPECT_EQ(waits->count(), waits_before + 2);

  // Table-set matches alone, in load order: F comes before G.
  EXPECT_EQ(Entries(service.GetRelevantViews({}, {k1, k2})),
            (Contents{{H(1), 1}, {H(2), 2}, {H(4), 4}, {H(5), 6}}));
  EXPECT_EQ(lookups->value(), lookups_before + 3);
  EXPECT_EQ(waits->count(), waits_before + 3);

  // An injected timeout is returned as is and counts no lookup.
  fault::FaultSpec spec;
  spec.trigger_every = 1;
  spec.code = StatusCode::kAborted;
  spec.message = "lookup outage";
  inj.Arm(fault::points::kMetadataLookup, spec);
  auto failed = service.GetRelevantViews({"t"}, {k1});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(fault::IsInjectedFault(failed.status()));
  EXPECT_NE(failed.status().message().find("lookup outage"),
            std::string::npos);
  EXPECT_EQ(lookups->value(), lookups_before + 3);
  EXPECT_EQ(waits->count(), waits_before + 3);
  ASSERT_EQ(inj.events().size(), 1u);
  EXPECT_EQ(inj.events()[0].point, fault::points::kMetadataLookup);
  EXPECT_EQ(inj.events()[0].key, "t");
}

TEST_F(MetadataTest, LockLifecycle) {
  // Grant, deny while held, register releases.
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(10), 100, 10));
  EXPECT_FALSE(service_.ProposeMaterialize(H(1), H(10), 101, 10));

  MaterializedViewInfo info;
  info.path = "/views/a/b_100.ss";
  info.normalized_signature = H(1);
  info.precise_signature = H(10);
  info.producer_job_id = 100;
  ASSERT_TRUE(service_.ReportMaterialized(info, 0).ok());

  // Now the view exists: propose fails, find succeeds.
  EXPECT_FALSE(service_.ProposeMaterialize(H(1), H(10), 102, 10));
  auto found = service_.FindMaterialized(H(1), H(10));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->producer_job_id, 100u);

  // A different precise instance is a different view.
  EXPECT_FALSE(service_.FindMaterialized(H(1), H(11)).has_value());
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(11), 103, 10));
}

TEST_F(MetadataTest, LockExpiresAndAnotherJobRetries) {
  // Expected build 10s -> lock expiry = max(60, 2*10) = 60s.
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(10), 100, 10));
  clock_.AdvanceSeconds(30);
  EXPECT_FALSE(service_.ProposeMaterialize(H(1), H(10), 101, 10));
  clock_.AdvanceSeconds(31);
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(10), 101, 10));
}

TEST_F(MetadataTest, LongBuildsGetLongerLocks) {
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(10), 100, 1000));
  clock_.AdvanceSeconds(1500);  // < 2 * 1000
  EXPECT_FALSE(service_.ProposeMaterialize(H(1), H(10), 101, 1000));
  clock_.AdvanceSeconds(501);
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(10), 101, 1000));
}

TEST_F(MetadataTest, AbandonLockReleasesOnlyOwners) {
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(10), 100, 10));
  service_.AbandonLock(H(10), 999);  // not the owner
  EXPECT_FALSE(service_.ProposeMaterialize(H(1), H(10), 101, 10));
  service_.AbandonLock(H(10), 100);
  EXPECT_TRUE(service_.ProposeMaterialize(H(1), H(10), 101, 10));
}

TEST_F(MetadataTest, FindHonorsExpiry) {
  MaterializedViewInfo info;
  info.path = "/views/a/b_1.ss";
  info.normalized_signature = H(1);
  info.precise_signature = H(10);
  ASSERT_TRUE(service_.ReportMaterialized(info, clock_.Now() + 100).ok());
  EXPECT_TRUE(service_.FindMaterialized(H(1), H(10)).has_value());
  clock_.AdvanceSeconds(101);
  EXPECT_FALSE(service_.FindMaterialized(H(1), H(10)).has_value());
}

TEST_F(MetadataTest, PurgeRemovesMetadataThenFiles) {
  Schema s({{"v", DataType::kInt64}});
  ASSERT_TRUE(storage_
                  .WriteStream(MakeStreamData("/views/a/b_1.ss", "g", s, {},
                                              clock_.Now()))
                  .ok());
  MaterializedViewInfo info;
  info.path = "/views/a/b_1.ss";
  info.normalized_signature = H(1);
  info.precise_signature = H(10);
  ASSERT_TRUE(service_.ReportMaterialized(info, clock_.Now() + 50).ok());
  EXPECT_EQ(service_.PurgeExpired(), 0u);
  clock_.AdvanceSeconds(51);
  EXPECT_EQ(service_.PurgeExpired(), 1u);
  EXPECT_EQ(service_.NumRegisteredViews(), 0u);
  EXPECT_FALSE(storage_.StreamExists("/views/a/b_1.ss"));
  EXPECT_EQ(service_.counters().views_purged, 1u);
}

TEST_F(MetadataTest, DropViewDeletesFile) {
  Schema s({{"v", DataType::kInt64}});
  ASSERT_TRUE(storage_
                  .WriteStream(MakeStreamData("/views/a/b_1.ss", "g", s, {},
                                              clock_.Now()))
                  .ok());
  MaterializedViewInfo info;
  info.path = "/views/a/b_1.ss";
  info.normalized_signature = H(1);
  info.precise_signature = H(10);
  ASSERT_TRUE(service_.ReportMaterialized(info, 0).ok());
  ASSERT_TRUE(service_.DropView(H(10)).ok());
  EXPECT_FALSE(storage_.StreamExists("/views/a/b_1.ss"));
  EXPECT_TRUE(service_.DropView(H(10)).IsNotFound());
}

TEST_F(MetadataTest, CountersTrackActivity) {
  service_.LoadAnalysis({Comp(1, {"t:a"})});
  (void)service_.GetRelevantViews({"t:a"});
  service_.ProposeMaterialize(H(1), H(10), 1, 10);
  service_.ProposeMaterialize(H(1), H(10), 2, 10);
  auto c = service_.counters();
  EXPECT_EQ(c.lookups, 1u);
  EXPECT_EQ(c.proposals, 2u);
  EXPECT_EQ(c.locks_granted, 1u);
  EXPECT_EQ(c.locks_denied, 1u);
}

TEST_F(MetadataTest, LeaseTakeoverCleansOrphansOfTheSameJob) {
  // Regression: a builder writes a partial view, its own lease lapses
  // (torn write + slow retry), and the SAME job re-proposes. The takeover
  // must sweep the earlier partial just like a different-job reclamation —
  // skipping it leaked the file forever (nothing else ever deletes an
  // unregistered view file under an owned lock).
  Hash128 normalized = H(1), precise = H(10);
  ASSERT_TRUE(service_.ProposeMaterialize(normalized, precise, 100, 10));
  std::string partial = "/views/" + normalized.ToHex() + "/" +
                        precise.ToHex() + "_100.ss";
  Schema s({{"v", DataType::kInt64}});
  ASSERT_TRUE(
      storage_.WriteStream(MakeStreamData(partial, "g", s, {}, clock_.Now()))
          .ok());

  clock_.AdvanceSeconds(61);  // expected build 10 -> lock expiry 60s
  ASSERT_TRUE(service_.ProposeMaterialize(normalized, precise, 100, 10));
  EXPECT_FALSE(storage_.StreamExists(partial));
  EXPECT_EQ(service_.counters().orphans_cleaned, 1u);
  // Same-job takeover is not a lease reclamation (no other builder died).
  EXPECT_EQ(service_.counters().leases_reclaimed, 0u);

  // The different-job takeover still reclaims AND sweeps.
  ASSERT_TRUE(
      storage_.WriteStream(MakeStreamData(partial, "g", s, {}, clock_.Now()))
          .ok());
  clock_.AdvanceSeconds(61);
  ASSERT_TRUE(service_.ProposeMaterialize(normalized, precise, 200, 10));
  EXPECT_FALSE(storage_.StreamExists(partial));
  EXPECT_EQ(service_.counters().orphans_cleaned, 2u);
  EXPECT_EQ(service_.counters().leases_reclaimed, 1u);
}

TEST_F(MetadataTest, ProposeAttemptsCountInjectedCallsProposalsDoNot) {
  // propose_attempts counts every call; proposals counts only decisions
  // the service actually made. An injected propose fault is an attempt
  // that never reached the service, so attempts - proposals is exactly
  // the injected-denial count (see docs/job_profile_schema.md).
  fault::FaultInjector inj(5);
  fault::FaultSpec spec;
  spec.trigger_every = 2;  // every second propose is swallowed
  inj.Arm(fault::points::kMetadataPropose, spec);
  MetadataService service(&clock_, &storage_, {}, nullptr,
                          MonotonicClock::Real(), &inj);

  int granted = 0;
  for (uint64_t i = 0; i < 6; ++i) {
    if (service.ProposeMaterialize(H(1), H(100 + i), i, 10)) ++granted;
  }
  auto c = service.counters();
  EXPECT_EQ(c.propose_attempts, 6u);
  EXPECT_EQ(c.proposals, 3u);  // hits 2, 4, 6 were injected away
  EXPECT_EQ(c.propose_attempts - c.proposals, 3u);
  // Real decisions all granted (distinct signatures, no contention).
  EXPECT_EQ(c.locks_granted, 3u);
  EXPECT_EQ(c.locks_denied, 0u);
  EXPECT_EQ(granted, 3);
}

TEST_F(MetadataTest, AttemptsEqualProposalsWithoutInjection) {
  service_.ProposeMaterialize(H(1), H(10), 1, 10);
  service_.ProposeMaterialize(H(1), H(10), 2, 10);  // denied, still counted
  auto c = service_.counters();
  EXPECT_EQ(c.propose_attempts, 2u);
  EXPECT_EQ(c.proposals, 2u);
}

TEST_F(MetadataTest, SubsumableProbeListsOnlyTheAskedCore) {
  // Template 1 over three cores, registered out of precise order; template
  // 2 shares core 1; one instance of template 1 has no reuse features.
  for (const MaterializedViewInfo& info :
       {Instance(1, 30, 1), Instance(1, 20, 2), Instance(1, 10, 1),
        Instance(1, 40, 3), Instance(2, 50, 1), Instance(1, 5, std::nullopt)}) {
    ASSERT_TRUE(service_.ReportMaterialized(info, 0).ok());
  }
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(1), Core(1))),
            (std::vector<Hash128>{H(10), H(30)}));
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(1), Core(2))),
            (std::vector<Hash128>{H(20)}));
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(1), Core(3))),
            (std::vector<Hash128>{H(40)}));
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(2), Core(1))),
            (std::vector<Hash128>{H(50)}));
  EXPECT_TRUE(service_.FindSubsumableInstances(H(1), Core(4)).empty());
  EXPECT_TRUE(service_.FindSubsumableInstances(H(3), Core(1)).empty());
  // The featureless instance serves exact matches only: no core probe,
  // including one for the zero core it would have, lists it.
  EXPECT_TRUE(service_.FindMaterialized(H(1), H(5)).has_value());
  EXPECT_TRUE(service_.FindSubsumableInstances(H(1), Hash128{}).empty());
}

TEST_F(MetadataTest, SubsumableProbeForgetsPurgedAndDroppedInstances) {
  Schema s({{"v", DataType::kInt64}});
  for (const MaterializedViewInfo& info :
       {Instance(1, 10, 1), Instance(1, 20, 2), Instance(1, 30, 3)}) {
    ASSERT_TRUE(storage_
                    .WriteStream(MakeStreamData(info.path, "g", s, {},
                                                clock_.Now()))
                    .ok());
  }
  ASSERT_TRUE(
      service_.ReportMaterialized(Instance(1, 10, 1), clock_.Now() + 50)
          .ok());
  ASSERT_TRUE(service_.ReportMaterialized(Instance(1, 20, 2), 0).ok());
  ASSERT_TRUE(service_.ReportMaterialized(Instance(1, 30, 3), 0).ok());

  clock_.AdvanceSeconds(51);
  ASSERT_EQ(service_.PurgeExpired(), 1u);
  EXPECT_TRUE(service_.FindSubsumableInstances(H(1), Core(1)).empty());
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(1), Core(2))),
            (std::vector<Hash128>{H(20)}));

  ASSERT_TRUE(service_.DropView(H(20)).ok());
  EXPECT_TRUE(service_.FindSubsumableInstances(H(1), Core(2)).empty());
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(1), Core(3))),
            (std::vector<Hash128>{H(30)}));

  // Rebuilt over the same cores, the instances are listed again.
  ASSERT_TRUE(
      service_.ReportMaterialized(Instance(1, 10, 1, /*producer=*/2), 0)
          .ok());
  ASSERT_TRUE(
      service_.ReportMaterialized(Instance(1, 20, 2, /*producer=*/2), 0)
          .ok());
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(1), Core(1))),
            (std::vector<Hash128>{H(10)}));
  EXPECT_EQ(PreciseOf(service_.FindSubsumableInstances(H(1), Core(2))),
            (std::vector<Hash128>{H(20)}));
}

TEST(MetadataLatencyTest, ThreadsReduceSimulatedLatency) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  MetadataServiceConfig config;
  config.base_lookup_latency_seconds = 0.019;
  config.service_threads = 1;
  MetadataService single(&clock, &storage, config);
  config.service_threads = 5;
  MetadataService five(&clock, &storage, config);
  EXPECT_NEAR(single.SimulatedLookupLatency(), 0.019, 1e-6);
  EXPECT_NEAR(five.SimulatedLookupLatency(), 0.0143, 0.001);
  EXPECT_LT(five.SimulatedLookupLatency(), single.SimulatedLookupLatency());
}

TEST_F(MetadataTest, ConcurrentProposalsGrantExactlyOne) {
  for (int round = 0; round < 10; ++round) {
    Hash128 precise = H(1000 + static_cast<uint64_t>(round));
    std::atomic<int> granted{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        if (service_.ProposeMaterialize(H(1), precise,
                                        static_cast<uint64_t>(t), 10)) {
          ++granted;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(granted.load(), 1);
  }
}

// The seeded mixed workload of the concurrency test below: a small key
// space of precise signatures, each of a fixed template, registered over a
// core drawn per registration, so an index entry left behind by a drop or
// purge would surface under the wrong core.
constexpr uint64_t kStressPrecise = 8;
constexpr uint64_t kStressTemplates = 2;
constexpr uint64_t kStressCores = 2;

uint64_t TemplateOf(uint64_t precise) { return 1 + precise % kStressTemplates; }

/// Registration of `precise` over `core` by `producer`, expiring at
/// `expires_at`; the expiry rides in `rows` so a probe can check that what
/// it was handed was live.
MaterializedViewInfo Registration(uint64_t precise, uint64_t core,
                                  uint64_t producer, LogicalTime expires_at) {
  MaterializedViewInfo info =
      Instance(TemplateOf(precise), 100 + precise, core, producer);
  info.rows = static_cast<double>(expires_at);
  return info;
}

bool LiveAt(const MaterializedViewInfo& info, LogicalTime now) {
  return info.rows == 0 || info.rows > static_cast<double>(now);
}

/// True when every instance of a (template, core) probe is of that key,
/// was live at `before` (the clock reading taken before the probe), and
/// the list is in precise-signature order.
bool ProbeIsSound(const std::vector<MaterializedViewInfo>& found,
                  uint64_t templ, uint64_t core, LogicalTime before) {
  for (const MaterializedViewInfo& info : found) {
    if (info.normalized_signature != H(templ) ||
        TemplateOf(info.precise_signature.hi - 100) != templ ||
        info.reuse_features == nullptr ||
        info.reuse_features->core_precise != Core(core) ||
        !LiveAt(info, before)) {
      return false;
    }
  }
  return std::is_sorted(
      found.begin(), found.end(),
      [](const MaterializedViewInfo& a, const MaterializedViewInfo& b) {
        return a.precise_signature < b.precise_signature;
      });
}

/// One worker: `ops` seeded operations over the shared key space; counts
/// every unsound probe answer into `unsound`.
void StressWorker(MetadataService* service, SimulatedClock* clock,
                  uint64_t seed, int ops, std::atomic<int>* unsound) {
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const uint64_t p = rng.Uniform(kStressPrecise);
    const Hash128 norm = H(TemplateOf(p));
    const Hash128 precise = H(100 + p);
    const uint64_t job = seed * 1000000 + static_cast<uint64_t>(i) + 1;
    const LogicalTime before = clock->Now();
    switch (rng.Uniform(8)) {
      case 0:
      case 1: {  // build: propose, then register or abandon
        if (!service->ProposeMaterialize(norm, precise, job, 10)) break;
        if (rng.Bernoulli(0.2)) {
          service->AbandonLock(precise, job);
          break;
        }
        LogicalTime expires =
            rng.Bernoulli(0.5) ? 0 : before + rng.UniformRange(1, 5);
        MaterializedViewInfo info = Registration(
            p, 1 + rng.Uniform(kStressCores), job, expires);
        if (!service->ReportMaterialized(info, expires).ok()) {
          service->AbandonLock(precise, job);  // fenced out
        }
        break;
      }
      case 2: {
        auto found = service->FindMaterialized(norm, precise);
        if (found.has_value() &&
            (found->precise_signature != precise ||
             found->normalized_signature != norm || !LiveAt(*found, before))) {
          ++*unsound;
        }
        break;
      }
      case 3:
      case 4: {
        const uint64_t templ = 1 + rng.Uniform(kStressTemplates);
        const uint64_t core = 1 + rng.Uniform(kStressCores);
        if (!ProbeIsSound(
                service->FindSubsumableInstances(H(templ), Core(core)), templ,
                core, before)) {
          ++*unsound;
        }
        break;
      }
      case 5:
        (void)service->DropView(precise);  // no file was written: NotFound
        break;
      case 6:
        (void)service->WaitForMaterialized(precise, 0.001);
        break;
      default:
        clock->AdvanceSeconds(1);
        service->PurgeExpired();
        break;
    }
  }
}

TEST_F(MetadataTest, ConcurrentMixKeepsViewsLocksAndIndexInStep) {
  constexpr int kThreads = 6;
  constexpr int kOps = 1500;
  std::atomic<int> unsound{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StressWorker(&service_, &clock_, static_cast<uint64_t>(t) + 1, kOps,
                   &unsound);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(unsound.load(), 0);

  // Quiescent: every build registered or gave its lock back, and each
  // probe lists exactly the registered live views of its key.
  EXPECT_EQ(service_.NumActiveLocks(), 0u);
  const std::vector<MaterializedViewInfo> views = service_.ListViews();
  EXPECT_EQ(service_.NumRegisteredViews(), views.size());
  const LogicalTime now = clock_.Now();
  for (uint64_t templ = 1; templ <= kStressTemplates; ++templ) {
    for (uint64_t core = 1; core <= kStressCores; ++core) {
      std::vector<Hash128> expected;
      for (const MaterializedViewInfo& info : views) {
        if (info.normalized_signature == H(templ) &&
            info.reuse_features->core_precise == Core(core) &&
            LiveAt(info, now)) {
          expected.push_back(info.precise_signature);
        }
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(
          PreciseOf(service_.FindSubsumableInstances(H(templ), Core(core))),
          expected)
          << "template " << templ << " core " << core;
    }
  }
  for (uint64_t p = 0; p < kStressPrecise; ++p) {
    bool live = false;
    for (const MaterializedViewInfo& info : views) {
      if (info.precise_signature == H(100 + p)) live = LiveAt(info, now);
    }
    EXPECT_EQ(
        service_.FindMaterialized(H(TemplateOf(p)), H(100 + p)).has_value(),
        live)
        << "precise " << p;
  }

  // Once every view is dropped, no probe returns anything.
  for (const MaterializedViewInfo& info : views) {
    (void)service_.DropView(info.precise_signature);
  }
  EXPECT_EQ(service_.NumRegisteredViews(), 0u);
  EXPECT_TRUE(service_.ListViews().empty());
  for (uint64_t templ = 1; templ <= kStressTemplates; ++templ) {
    for (uint64_t core = 1; core <= kStressCores; ++core) {
      EXPECT_TRUE(
          service_.FindSubsumableInstances(H(templ), Core(core)).empty());
    }
  }
  for (uint64_t p = 0; p < kStressPrecise; ++p) {
    EXPECT_FALSE(
        service_.FindMaterialized(H(TemplateOf(p)), H(100 + p)).has_value());
  }
}

}  // namespace
}  // namespace cloudviews
