#ifndef CLOUDVIEWS_METADATA_METADATA_SERVICE_H_
#define CLOUDVIEWS_METADATA_METADATA_SERVICE_H_

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "optimizer/view_interfaces.h"
#include "storage/storage_manager.h"

namespace cloudviews {

struct MetadataServiceConfig {
  /// Simulated service-side lookup latency: the paper measured 19ms with a
  /// single service thread and 14.3ms with 5 threads (Sec 7.3).
  double base_lookup_latency_seconds = 0.019;
  int service_threads = 1;
};

/// One analyzer output row: the annotation plus the job-metadata tags used
/// to build the inverted index (Sec 6.1: "extract tags from its
/// corresponding job metadata ... create an inverted index on the tags").
struct AnnotatedComputation {
  ViewAnnotation annotation;
  std::vector<std::string> tags;
};

/// \brief The CloudViews metadata service (Fig 9), backed by AzureSQL in
/// production; here an in-memory, thread-safe store on the simulated
/// cluster.
///
/// Concurrency layout (see DESIGN.md "Recurring-job fast path"): the
/// registered-view map and build locks are striped across kNumShards
/// signature-keyed shards so concurrent SubmitJobs stop convoying on one
/// service-wide mutex, while the analyzer output + tag inverted index —
/// written rarely, read on every lookup — live in an immutable snapshot
/// swapped behind a short-critical-section pointer lock.
class MetadataService : public ViewCatalogInterface {
 public:
  /// `wall_clock` drives build-lock *leases* and times the mutex waits: a
  /// lock is also considered expired once its expiry in wall seconds
  /// elapses, so a crashed builder's lock is reclaimed even if nobody
  /// advances the simulated clock. Tests inject a FakeMonotonicClock to
  /// exercise lease expiry deterministically.
  ///
  /// The counters, the registered-view gauge and the mutex wait histograms
  /// (the aggregate `cv_metadata_lock_wait_seconds` plus one labeled
  /// histogram per shard stripe — the per-shard contention signal) are
  /// registered into `metrics`, or into a registry the service owns when
  /// it is null. Lookups and proposals go through `fault`
  /// (metadata.lookup and metadata.propose points); null disables
  /// injection.
  MetadataService(SimulatedClock* clock, StorageManager* storage,
                  MetadataServiceConfig config = {},
                  obs::MetricsRegistry* metrics = nullptr,
                  MonotonicClock* wall_clock = MonotonicClock::Real(),
                  fault::FaultInjector* fault = nullptr);

  /// Number of signature-keyed shard stripes for views + build locks.
  static constexpr size_t kNumShards = 8;

  /// Monotone counter bumped on every catalog state change a cached plan
  /// could depend on: analysis reload, view registration / purge / drop,
  /// build-lock grant / release. A plan compiled at epoch E is valid only
  /// while CatalogEpoch() == E (the plan cache's invalidation signal).
  uint64_t CatalogEpoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

  /// Installs a new analysis (replacing the previous one), rebuilding the
  /// tag inverted index. Called when the analyzer output is refreshed.
  void LoadAnalysis(const std::vector<AnnotatedComputation>& computations)
      EXCLUDES(analysis_mu_);

  /// Step 1/2 of Fig 9: one request per job returning every annotation
  /// relevant to any of the job's tags (may contain false positives — the
  /// optimizer re-matches signatures). Returns the simulated service
  /// latency through `latency_seconds` when non-null.
  std::vector<ViewAnnotation> GetRelevantViews(
      const std::vector<std::string>& tags,
      double* latency_seconds = nullptr) const EXCLUDES(analysis_mu_);

  /// Fallible variant of GetRelevantViews: the metadata.lookup injection
  /// point (keyed by the joined tags) models a lookup timeout. Callers
  /// must degrade to running without reuse, never fail the job.
  Result<std::vector<ViewAnnotation>> TryGetRelevantViews(
      const std::vector<std::string>& tags,
      double* latency_seconds = nullptr) const EXCLUDES(analysis_mu_);

  /// Looks up the loaded annotation for one computation template (admin
  /// drill-down and eviction use this).
  std::optional<ViewAnnotation> FindAnnotation(const Hash128& normalized) const
      EXCLUDES(analysis_mu_);

  /// Containment tier 1: every annotation whose feature table-set key
  /// matches one of `table_set_keys` (the keys of the job's subgraphs).
  /// Lets candidate enumeration touch only same-table-set annotations
  /// instead of scanning the full catalog. Lock-free snapshot scan, like
  /// GetRelevantViews.
  std::vector<ViewAnnotation> GetContainmentCandidates(
      const std::vector<Hash128>& table_set_keys) const EXCLUDES(analysis_mu_);

  // --- ViewCatalogInterface (optimizer-facing) -----------------------------

  std::optional<MaterializedViewInfo> FindMaterialized(
      const Hash128& normalized, const Hash128& precise) override;

  bool ProposeMaterialize(const Hash128& normalized, const Hash128& precise,
                          uint64_t job_id,
                          double expected_build_seconds) override;

  /// Containment tier 2.5: the live materialized instances of one template
  /// over one core, sorted by precise signature (the matcher's determinism
  /// contract). The probe reads one index entry, so its cost does not grow
  /// with the template's history of instances over other inputs.
  std::vector<MaterializedViewInfo> FindSubsumableInstances(
      const Hash128& normalized, const Hash128& core_precise) override
      EXCLUDES(subsume_mu_);

  // --- Job-manager-facing ---------------------------------------------------

  /// Step 5/6 of Fig 9: registers the materialized view and releases the
  /// build lock. Invoked on early materialization, i.e. possibly before
  /// the producing job finishes (Sec 6.4).
  ///
  /// Registration is fenced: once a builder's lease expired and another
  /// job reclaimed the lock, the stale builder's registration is rejected
  /// (kExpired); a view already registered by a different producer is
  /// rejected with kAlreadyExists (re-reporting by the same producer is
  /// idempotent OK). Callers must drop their written view file on
  /// rejection — the metadata decision is authoritative.
  Status ReportMaterialized(const MaterializedViewInfo& info,
                            LogicalTime expires_at);

  /// Releases a build lock without registering (job failed after
  /// proposing). Idempotent; only the owning job's lock is released. The
  /// lock also auto-expires (logical expiry or wall lease).
  void AbandonLock(const Hash128& precise, uint64_t job_id) override;

  /// Piggyback wait (work sharing): blocks until the view identified by
  /// `precise` becomes live, the live builder disappears, or
  /// `timeout_seconds` of real wall time pass. Returns OK when the view is
  /// registered and unexpired (the caller re-probes the catalog and
  /// rewrites against it), NotFound when no unexpired build lock remains
  /// and no view exists (the builder abandoned or its lease lapsed; the
  /// caller falls back to its reuse-blind plan), and Expired on timeout.
  /// The sharing.piggyback_timeout injection point forces the timeout
  /// outcome without waiting. Never call while holding a build lock of
  /// your own — builders must not piggyback on builders.
  Status WaitForMaterialized(const Hash128& precise, double timeout_seconds);

  /// Removes expired views from the metadata *first*, then deletes their
  /// files (Sec 5.4 ordering). Returns the number of views purged.
  size_t PurgeExpired();

  /// Drops a view outright (admin reclamation, Sec 5.4).
  Status DropView(const Hash128& precise);

  // --- Introspection ----------------------------------------------------------

  /// Snapshot of the registered counters.
  struct Counters {
    uint64_t lookups = 0;
    /// Every ProposeMaterialize call, including calls answered by an
    /// injected fault before reaching the service (the client-visible
    /// attempt count; a retry is a new attempt).
    uint64_t propose_attempts = 0;
    /// Proposals that actually reached the service and were decided by it
    /// (the logical proposal count: granted + denied on the real path).
    uint64_t proposals = 0;
    uint64_t locks_granted = 0;
    uint64_t locks_denied = 0;
    uint64_t locks_abandoned = 0;
    uint64_t leases_reclaimed = 0;
    uint64_t stale_registrations_rejected = 0;
    uint64_t orphans_cleaned = 0;
    uint64_t views_registered = 0;
    uint64_t views_purged = 0;
  };
  Counters counters() const;

  /// Reads the registered-view gauge; O(1).
  size_t NumRegisteredViews() const;
  size_t NumAnnotations() const EXCLUDES(analysis_mu_);
  std::vector<MaterializedViewInfo> ListViews() const;

  /// Build locks currently held (expired-but-unreclaimed included). The
  /// leak-freedom invariant tested after every workload: this must be
  /// empty once all jobs have finished.
  size_t NumActiveLocks() const;
  /// (precise signature, owning job) of every held lock, for diagnostics.
  std::vector<std::pair<Hash128, uint64_t>> HeldLocks() const;

  /// Simulated per-request latency under the configured thread count.
  double SimulatedLookupLatency() const;

 private:
  struct BuildLock {
    uint64_t job_id;
    LogicalTime expires_at;
    /// Wall-clock lease deadline (wall_clock_->NowSeconds() scale). A lock
    /// is expired when EITHER timeline passes: simulation-driven tests
    /// advance the logical clock, while a genuinely crashed builder is
    /// fenced out by the wall lease even if logical time stands still.
    double lease_deadline_wall = 0;
  };
  struct RegisteredView {
    MaterializedViewInfo info;
    LogicalTime expires_at;
    /// Unexpired at `now` (0 never expires). An expired view stays
    /// registered until PurgeExpired but is never served or waited for.
    bool LiveAt(LogicalTime now) const {
      return expires_at == 0 || expires_at > now;
    }
  };

  /// Immutable analyzer output + tag inverted index. Replaced wholesale by
  /// LoadAnalysis; lookups grab the shared_ptr under analysis_mu_ (a
  /// pointer copy) and read without any lock — the read-mostly snapshot
  /// path of the metadata hot path.
  struct AnalysisSnapshot {
    std::vector<AnnotatedComputation> computations;
    // shard-stripe: immutable after construction — this map is only ever
    // read through a shared_ptr<const AnalysisSnapshot>, never mutated
    // under a service-wide mutex.
    std::unordered_map<std::string, std::set<size_t>> tag_index;
    // shard-stripe: immutable after construction, read lock-free through
    // the snapshot pointer like tag_index. Maps a feature table-set key to
    // the computations over exactly that table set, so containment
    // candidate enumeration never scans the full catalog.
    std::unordered_map<Hash128, std::vector<size_t>, Hash128Hasher>
        table_set_index;
  };

  /// One signature-keyed stripe of the view/lock state. A precise
  /// signature's views entry and build lock live in the same shard, so
  /// FindMaterialized / ProposeMaterialize / ReportMaterialized stay
  /// atomic per signature while different signatures stop convoying on a
  /// single service-wide mutex (Sec 7.3 measures this lookup path).
  struct Shard {
    mutable Mutex mu;
    // shard-stripe: `mu` is this stripe's own mutex (1/kNumShards of the
    // keyspace, selected by precise-signature hash), not a service-wide
    // lock — see DESIGN.md "Recurring-job fast path".
    std::unordered_map<Hash128, RegisteredView, Hash128Hasher> views
        GUARDED_BY(mu);
    // shard-stripe: same stripe mutex as `views` above; a signature's view
    // and build lock must flip atomically together.
    std::unordered_map<Hash128, BuildLock, Hash128Hasher> locks
        GUARDED_BY(mu);
    /// Wakes WaitForMaterialized piggybackers when a view of this stripe
    /// registers or a build lock is released/abandoned.
    CondVar lock_cv;
    /// Per-stripe wait histogram; set at construction.
    obs::Histogram* lock_wait = nullptr;
  };

  struct Instruments {
    obs::Counter* lookups = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* propose_attempts = nullptr;
    obs::Counter* proposals = nullptr;
    obs::Counter* locks_granted = nullptr;
    obs::Counter* locks_denied = nullptr;
    obs::Counter* locks_abandoned = nullptr;
    obs::Counter* leases_reclaimed = nullptr;
    obs::Counter* stale_registrations = nullptr;
    obs::Counter* orphans_cleaned = nullptr;
    obs::Counter* views_registered = nullptr;
    obs::Counter* views_purged = nullptr;
    /// Registered views across all shards, moved by +1/-1 inside the shard
    /// critical section that adds or erases the view.
    obs::Gauge* registered_views = nullptr;
    obs::Histogram* lock_wait = nullptr;
  };

  /// True when `lock` is expired on either timeline; see BuildLock.
  static bool LockExpired(const BuildLock& lock, LogicalTime now,
                          double wall_now) {
    return lock.expires_at <= now || lock.lease_deadline_wall <= wall_now;
  }

  static size_t ShardIndex(const Hash128& precise) {
    return static_cast<size_t>(precise.lo) % kNumShards;
  }
  Shard& ShardFor(const Hash128& precise) {
    return shards_[ShardIndex(precise)];
  }

  /// Counter-free liveness check for one registered instance. Containment
  /// probes use this instead of FindMaterialized so they do not skew the
  /// exact-lookup hit/miss counters.
  std::optional<MaterializedViewInfo> LookupLive(const Hash128& precise);

  /// Catalog changed in a way a cached plan could observe; invalidate.
  void BumpEpoch() { catalog_epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// Grabs the current analysis snapshot (may be null before the first
  /// LoadAnalysis).
  std::shared_ptr<const AnalysisSnapshot> AnalysisView() const
      EXCLUDES(analysis_mu_);

  SimulatedClock* clock_;
  StorageManager* storage_;
  MetadataServiceConfig config_;
  MonotonicClock* wall_clock_;
  fault::FaultInjector* fault_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Instruments obs_;

  /// Signature-keyed stripes for registered views + build locks; see Shard.
  std::array<Shard, kNumShards> shards_;

  /// Guards only the snapshot pointer swap — the snapshot itself is
  /// immutable and read lock-free (see AnalysisSnapshot).
  mutable Mutex analysis_mu_;
  std::shared_ptr<const AnalysisSnapshot> analysis_ GUARDED_BY(analysis_mu_);

  /// Key of the containment instance index: a computation template and the
  /// precise signature of its core (the plan below the cap, i.e. the
  /// concrete input an instance was computed over).
  struct InstanceKey {
    Hash128 normalized;
    Hash128 core_precise;

    bool operator==(const InstanceKey& other) const {
      return normalized == other.normalized &&
             core_precise == other.core_precise;
    }
  };
  struct InstanceKeyHasher {
    size_t operator()(const InstanceKey& key) const {
      Hash128Hasher h;
      size_t seed = h(key.normalized);
      return seed ^ (h(key.core_precise) + 0x9e3779b97f4a7c15ULL +
                     (seed << 6) + (seed >> 2));
    }
  };

  /// The index key of a registered instance; nullopt when it carries no
  /// reuse features (such an instance only serves exact matches).
  static std::optional<InstanceKey> IndexKey(const MaterializedViewInfo& info);
  /// Removes one instance from the containment index.
  void Unindex(const InstanceKey& key, const Hash128& precise)
      REQUIRES(subsume_mu_);

  /// Secondary index for containment matching: which precise instances of
  /// each (template, core) pair are registered. Off the FindMaterialized
  /// path, so a single mutex suffices; entries are validated against the
  /// shards before use.
  mutable Mutex subsume_mu_;
  // On a recurring workload the tier 2.5 probe runs on most compiles, but
  // it copies only the instances over the query's own core (usually one).
  // shard-stripe: intentionally NOT striped — one short critical section
  // per registration, purge, drop and containment probe.
  std::unordered_map<InstanceKey, std::set<Hash128>, InstanceKeyHasher>
      instances_by_core_ GUARDED_BY(subsume_mu_);

  /// Starts at 1 so 0 can mean "no epoch observed" in callers.
  std::atomic<uint64_t> catalog_epoch_{1};
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_METADATA_METADATA_SERVICE_H_
