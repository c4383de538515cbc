#ifndef CLOUDVIEWS_FAULT_FAULT_INJECTOR_H_
#define CLOUDVIEWS_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace fault {

/// Named injection points threaded through the reuse pipeline. A point is
/// just a string key: components call MaybeInject(point, key) at the
/// matching seam and armed specs decide whether that call fails.
namespace points {
/// StorageManager::OpenStream on a non-view stream.
inline constexpr char kStorageRead[] = "storage.read";
/// StorageManager::OpenStream on a materialized-view stream (/views/...).
inline constexpr char kStorageViewRead[] = "storage.view_read";
/// StorageManager::WriteStream on a non-view stream (job output).
inline constexpr char kStorageWrite[] = "storage.write";
/// StorageManager::WriteStream on a view stream; nothing is stored.
inline constexpr char kStorageViewWrite[] = "storage.view_write";
/// StorageManager::WriteStream on a view stream; a torn (truncated,
/// incomplete-flagged) partial is left behind and the write still fails.
inline constexpr char kStorageViewWriteTorn[] = "storage.view_write.torn";
/// MetadataService::GetRelevantViews, keyed by the job's joined tags
/// (lookup timeout).
inline constexpr char kMetadataLookup[] = "metadata.lookup";
/// MetadataService::ProposeMaterialize; an injected fault is surfaced as a
/// build-lock denial (the job runs, just without materializing).
inline constexpr char kMetadataPropose[] = "metadata.propose";
/// SpoolOperator after the view bytes are durable but before the producer
/// registers them: models a builder process dying while holding the build
/// lock, with an orphaned (complete but unregistered) view file on disk.
inline constexpr char kBuilderCrash[] = "builder.crash";
/// Executor, per morsel, keyed "job:node:phase:morsel".
inline constexpr char kExecMorsel[] = "exec.morsel";
/// JobServiceServer accept loop, after ::accept returns a connection: an
/// injected fault closes the new socket before a session starts (models a
/// front-door drop under SYN pressure).
inline constexpr char kNetAccept[] = "net.accept";
/// Connection read path, keyed by connection id, before each frame read:
/// an injected fault tears the connection down mid-stream.
inline constexpr char kNetRead[] = "net.read";
/// Connection write path, keyed by connection id, before each response
/// frame: an injected fault drops the connection with the response unsent.
inline constexpr char kNetWrite[] = "net.write";
/// AdmissionController::Admit, keyed by connection id, after the drain
/// gate: an injected fault sheds the submit with RETRY_AFTER(INJECTED).
inline constexpr char kNetQueueAdmit[] = "net.queue_admit";
/// InflightSharing leader, after executing but before fanning the result
/// out to followers, keyed by the share signature: an injected fault makes
/// the leader publish failure so every follower degrades to independent
/// execution. With crash=true the leader job itself also fails (a leader
/// process dying mid-share); without it only the fan-out is lost.
inline constexpr char kSharingLeaderCrash[] = "sharing.leader_crash";
/// MetadataService::WaitForMaterialized entry, keyed by the precise
/// signature: an injected fault forces the piggyback wait to time out
/// immediately, so the job falls back to its already-compiled reuse-blind
/// plan (the pre-sharing behavior).
inline constexpr char kSharingPiggybackTimeout[] =
    "sharing.piggyback_timeout";
}  // namespace points

/// \brief What an armed injection point does. Exactly one of `probability`
/// and `trigger_every` should be set; `trigger_every` wins when both are.
struct FaultSpec {
  /// Probability in [0,1] that any single hit fires. Draws are a pure
  /// function of (injector seed, point, key, per-key hit ordinal), so a
  /// given key sees the same fire/no-fire sequence on every run regardless
  /// of thread interleaving — and a retry of the same operation is a new
  /// ordinal, i.e. a fresh draw.
  double probability = 0;
  /// Fire on every N-th hit of the point (global hit counter), e.g. 1 =
  /// always, 3 = hits 3, 6, 9, ... Deterministic sequencing for tests.
  uint64_t trigger_every = 0;
  /// Stop firing after this many fires (the point stays armed and keeps
  /// counting hits).
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();
  /// Status code of the injected failure.
  StatusCode code = StatusCode::kIOError;
  /// Appended to the generated message, for test assertions.
  std::string message;
  /// Marks the failure as a simulated process crash: cleanup that a dead
  /// process could not have run (lock abandonment, partial deletion) must
  /// be skipped by the caller. See IsInjectedCrash().
  bool crash = false;
};

/// \brief Deterministic fault-injection registry.
///
/// One injector is shared by every component of a CloudViews instance
/// (wired through CloudViewsConfig::fault). Components call MaybeInject at
/// named seams; the injector returns OK unless the point is armed and this
/// hit draws a failure. All decisions derive from the constructor seed —
/// re-running the same single-threaded workload with the same seed yields
/// the identical fault schedule, and per-key draw sequences stay stable
/// even under concurrent jobs.
///
/// Thread-safe. A bounded event log records every fire for post-mortem
/// artifacts (EventsJson / WriteEventsJson).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 42) : seed_(seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// (Re)arms `point` with a fresh spec. The point's hit/fire counters and
  /// per-key ordinals restart so the new spec gets a full schedule; the
  /// global event log is unaffected.
  void Arm(const std::string& point, FaultSpec spec) EXCLUDES(mu_);
  void Disarm(const std::string& point) EXCLUDES(mu_);
  /// Disarms every point and clears all counters and events.
  void Reset() EXCLUDES(mu_);

  /// Returns OK, or the armed failure for `point` if this hit fires.
  /// `key` identifies the operation instance (stream name, signature, ...);
  /// unkeyed hits share the key "".
  Status MaybeInject(const std::string& point, const std::string& key = "")
      EXCLUDES(mu_);

  uint64_t hits(const std::string& point) const EXCLUDES(mu_);
  uint64_t fires(const std::string& point) const EXCLUDES(mu_);
  uint64_t total_fires() const EXCLUDES(mu_);

  struct Event {
    uint64_t sequence = 0;  ///< global fire ordinal, 1-based
    std::string point;
    std::string key;
    uint64_t point_hit = 0;  ///< value of the point's hit counter
    StatusCode code = StatusCode::kOk;
    bool crash = false;
  };
  /// The retained fire log, oldest first (bounded; see dropped_events()).
  std::vector<Event> events() const EXCLUDES(mu_);
  uint64_t dropped_events() const EXCLUDES(mu_);

  /// JSON artifact: seed, per-point hit/fire counts, and the event log.
  std::string EventsJson() const EXCLUDES(mu_);
  /// Writes EventsJson() to `path` (for CI artifact upload on failure).
  Status WriteEventsJson(const std::string& path) const;

  /// Registers `cv_fault_injections_total{point=...}` counters; safe to
  /// call before or after arming. Null unregisters.
  void SetMetrics(obs::MetricsRegistry* metrics) EXCLUDES(mu_);

 private:
  struct PointState {
    FaultSpec spec;
    bool armed = false;
    uint64_t hit_count = 0;
    uint64_t fire_count = 0;
    /// Per-key hit ordinals driving the deterministic probability draws.
    std::unordered_map<std::string, uint64_t> key_hits;
    obs::Counter* fires_counter = nullptr;
  };

  static constexpr size_t kMaxEvents = 4096;

  const uint64_t seed_;
  mutable Mutex mu_;
  /// std::map: EventsJson renders points in a stable order.
  std::map<std::string, PointState> points_ GUARDED_BY(mu_);
  std::vector<Event> events_ GUARDED_BY(mu_);
  uint64_t total_fires_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_events_ GUARDED_BY(mu_) = 0;
  obs::MetricsRegistry* metrics_ GUARDED_BY(mu_) = nullptr;
};

/// True when `status` was produced by a FaultInjector (any armed spec).
bool IsInjectedFault(const Status& status);
/// True when `status` came from a spec with crash=true — the component it
/// hit is modeling a dead process, so owners must NOT run the usual
/// failure-path cleanup (that is exactly what the lease machinery covers).
bool IsInjectedCrash(const Status& status);

}  // namespace fault
}  // namespace cloudviews

#endif  // CLOUDVIEWS_FAULT_FAULT_INJECTOR_H_
