#ifndef CLOUDVIEWS_METADATA_METADATA_SERVICE_H_
#define CLOUDVIEWS_METADATA_METADATA_SERVICE_H_

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
/// Concurrency layout (see DESIGN.md "Recurring-job fast path"): one mutex
/// guards the registered views, the build locks, the containment instance
/// index and the pointer to the analyzer output. That output and its tag
/// inverted index, written rarely and read on every lookup, are an
/// immutable snapshot: a lookup copies the pointer under the mutex and
/// scans it with no lock held. Storage calls never run under the mutex.
class MetadataService : public ViewCatalogInterface {
 public:
  /// `wall_clock` drives build-lock *leases* and times the mutex waits: a
  /// lock is also considered expired once its expiry in wall seconds
  /// elapses, so a crashed builder's lock is reclaimed even if nobody
  /// advances the simulated clock. Tests inject a FakeMonotonicClock to
  /// exercise lease expiry deterministically.
  ///
  /// The counters, the registered-view gauge and the mutex wait histogram
  /// (`cv_metadata_lock_wait_seconds`, one observation per acquisition)
  /// are registered into `metrics`, or into a registry the service owns
  /// when it is null. Lookups and proposals go through `fault`
  /// (metadata.lookup and metadata.propose points); null disables
  /// injection.
  MetadataService(SimulatedClock* clock, StorageManager* storage,
                  MetadataServiceConfig config = {},
                  obs::MetricsRegistry* metrics = nullptr,
                  MonotonicClock* wall_clock = MonotonicClock::Real(),
                  fault::FaultInjector* fault = nullptr);

  /// Monotone counter moved only by the catalog changes that can make a
  /// served plan stale: an analysis load (new annotations change which
  /// rewrites the optimizer picks) and an accepted view registration (a
  /// cached plan could now reuse the view). A plan compiled at epoch E is
  /// served at the plan cache's full tier only while CatalogEpoch() == E.
  /// Lock grants and abandons, purges and drops leave it alone: the full
  /// tier caches only plans that built nothing and were denied no lock,
  /// and a full-hit serve re-checks that every view the plan reads is
  /// still registered and live (JobService::CachedViewReadsLive).
  uint64_t CatalogEpoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

  /// Installs a new analysis (replacing the previous one), rebuilding the
  /// tag inverted index. Called when the analyzer output is refreshed.
  void LoadAnalysis(const std::vector<AnnotatedComputation>& computations)
      EXCLUDES(mu_);

  /// Step 1/2 of Fig 9: the one request per job. Returns, keyed by
  /// normalized signature, every annotation tagged with one of `tags` and
  /// every annotation whose feature table-set key is one of
  /// `table_set_keys` (containment tier 1: the keys of the job's
  /// subgraphs, so candidate enumeration never scans the catalog). Hits may
  /// be false positives — the optimizer re-matches signatures. Tag matches
  /// come first, then table-set matches, each in ascending load order, and
  /// a signature keeps its first copy. Reads the snapshot once and returns
  /// the simulated service latency through `latency_seconds` when
  /// non-null.
  ///
  /// The metadata.lookup injection point (keyed by the joined tags) models
  /// a lookup timeout; a fired fault counts no lookup. Callers must
  /// degrade to running without reuse, never fail the job.
  Result<AnnotationIndex> GetRelevantViews(
      const std::vector<std::string>& tags,
      const std::vector<Hash128>& table_set_keys = {},
      double* latency_seconds = nullptr) const EXCLUDES(mu_);

  /// Looks up the loaded annotation for one computation template (admin
  /// drill-down and eviction use this).
  std::optional<ViewAnnotation> FindAnnotation(const Hash128& normalized) const
      EXCLUDES(mu_);

  // --- ViewCatalogInterface (optimizer-facing) -----------------------------

  std::optional<MaterializedViewInfo> FindMaterialized(
      const Hash128& normalized, const Hash128& precise) override
      EXCLUDES(mu_);

  bool ProposeMaterialize(const Hash128& normalized, const Hash128& precise,
                          uint64_t job_id,
                          double expected_build_seconds) override
      EXCLUDES(mu_);

  /// Containment tier 2.5: the live materialized instances of one template
  /// over one core, sorted by precise signature (the matcher's determinism
  /// contract). The probe reads one index entry, so its cost does not grow
  /// with the template's history of instances over other inputs.
  std::vector<MaterializedViewInfo> FindSubsumableInstances(
      const Hash128& normalized, const Hash128& core_precise) override
      EXCLUDES(mu_);

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
                            LogicalTime expires_at) EXCLUDES(mu_);

  /// Releases a build lock without registering (job failed after
  /// proposing). Idempotent; only the owning job's lock is released. The
  /// lock also auto-expires (logical expiry or wall lease).
  void AbandonLock(const Hash128& precise, uint64_t job_id) override
      EXCLUDES(mu_);

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
  Status WaitForMaterialized(const Hash128& precise, double timeout_seconds)
      EXCLUDES(mu_);

  /// Removes expired views from the metadata *first*, then deletes their
  /// files (Sec 5.4 ordering). Returns the number of views purged.
  size_t PurgeExpired() EXCLUDES(mu_);

  /// Drops a view outright (admin reclamation, Sec 5.4).
  Status DropView(const Hash128& precise) EXCLUDES(mu_);

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
  size_t NumAnnotations() const EXCLUDES(mu_);
  std::vector<MaterializedViewInfo> ListViews() const EXCLUDES(mu_);

  /// Build locks currently held (expired-but-unreclaimed included). The
  /// leak-freedom invariant tested after every workload: this must be
  /// empty once all jobs have finished.
  size_t NumActiveLocks() const EXCLUDES(mu_);
  /// (precise signature, owning job) of every held lock, for diagnostics.
  std::vector<std::pair<Hash128, uint64_t>> HeldLocks() const EXCLUDES(mu_);

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
  /// LoadAnalysis; lookups copy the shared_ptr under mu_ and read the
  /// snapshot with no lock held.
  struct AnalysisSnapshot {
    std::vector<AnnotatedComputation> computations;
    std::unordered_map<std::string, std::set<size_t>> tag_index;
    /// Maps a feature table-set key to the computations over exactly that
    /// table set, so containment candidate enumeration never scans the
    /// full catalog.
    std::unordered_map<Hash128, std::vector<size_t>, Hash128Hasher>
        table_set_index;
  };

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
    /// Registered views, moved by +1/-1 inside the critical section that
    /// adds or erases the view.
    obs::Gauge* registered_views = nullptr;
    obs::Histogram* lock_wait = nullptr;
  };

  /// True when `lock` is expired on either timeline; see BuildLock.
  static bool LockExpired(const BuildLock& lock, LogicalTime now,
                          double wall_now) {
    return lock.expires_at <= now || lock.lease_deadline_wall <= wall_now;
  }

  /// The registered view of `precise` when it is live now; null when it is
  /// absent, or expired but not yet purged. Counts nothing, so containment
  /// probes do not skew the exact-lookup hit/miss counters.
  const RegisteredView* LiveView(const Hash128& precise) const REQUIRES(mu_);

  /// The index key of a registered instance; nullopt when it carries no
  /// reuse features (such an instance only serves exact matches).
  static std::optional<InstanceKey> IndexKey(const MaterializedViewInfo& info);

  /// Erases one registered view and its containment index entry, and
  /// returns its file path for the caller to delete once mu_ is released.
  std::string EraseView(
      std::unordered_map<Hash128, RegisteredView, Hash128Hasher>::iterator it)
      REQUIRES(mu_);

  /// Catalog changed in a way a served plan could observe; invalidate.
  void BumpEpoch() { catalog_epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// Grabs the current analysis snapshot (may be null before the first
  /// LoadAnalysis).
  std::shared_ptr<const AnalysisSnapshot> AnalysisView() const EXCLUDES(mu_);

  SimulatedClock* clock_;
  StorageManager* storage_;
  MetadataServiceConfig config_;
  MonotonicClock* wall_clock_;
  fault::FaultInjector* fault_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Instruments obs_;

  /// The one lock of the service; every acquisition is timed into
  /// `cv_metadata_lock_wait_seconds`.
  mutable Mutex mu_;
  /// Wakes WaitForMaterialized piggybackers when a view registers or a
  /// build lock is abandoned.
  CondVar view_cv_;
  // shard-stripe: one lock, not eight signature stripes: on micro_service
  // (6 clients, 4 workers, 4000 jobs) 87% of stripe acquisitions fell on
  // one stripe, and all metadata waits summed to under a tenth of the
  // storage mutex's (DESIGN.md "One metadata lock").
  std::unordered_map<Hash128, RegisteredView, Hash128Hasher> views_
      GUARDED_BY(mu_);
  // shard-stripe: the one lock, per the micro_service measurement on
  // views_; a signature's view and build lock flip together.
  std::unordered_map<Hash128, BuildLock, Hash128Hasher> locks_
      GUARDED_BY(mu_);
  std::shared_ptr<const AnalysisSnapshot> analysis_ GUARDED_BY(mu_);
  /// Secondary index for containment matching: which precise instances of
  /// each (template, core) pair are registered. It moves in the same
  /// critical section as views_, so it never names an unregistered view.
  // shard-stripe: the one lock, per the micro_service measurement on
  // views_; the probe copies only the instances over the query's core.
  std::unordered_map<InstanceKey, std::set<Hash128>, InstanceKeyHasher>
      instances_by_core_ GUARDED_BY(mu_);

  /// Starts at 1 so 0 can mean "no epoch observed" in callers.
  std::atomic<uint64_t> catalog_epoch_{1};
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_METADATA_METADATA_SERVICE_H_
