#ifndef CLOUDVIEWS_RUNTIME_INFLIGHT_SHARING_H_
#define CLOUDVIEWS_RUNTIME_INFLIGHT_SHARING_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/operator_stats.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// \brief Signature-keyed registry of in-flight executions (work sharing).
///
/// When N concurrent submissions carry the same whole-plan signature, the
/// first to Join becomes the *leader* and runs the normal compile/execute
/// pipeline; the rest become *followers* and block until the leader
/// publishes its outcome, then adopt the executed plan + run stats instead
/// of recomputing them. Sharing is strictly an optimization with a
/// do-no-harm contract: a follower whose leader fails (or whose wait times
/// out) degrades to full independent execution, never to failure, so the
/// result is always byte-identical to what the job would have computed
/// alone.
///
/// Sharing only fires for *fully identical* plans — same normalized AND
/// precise signature AND the same CloudViews mode — which is what makes
/// adopting the leader's output trivially byte-identical. Partial-overlap
/// sharing goes through the materialized-view path (a follower that merely
/// overlaps piggybacks on the builder's view via
/// MetadataService::WaitForMaterialized instead).
///
/// Thread-safe. Entries live exactly from the leader's Join to its publish
/// (every leader exit path must publish; JobService's two tails both do);
/// a submission arriving after the publish becomes a fresh leader.
class InflightSharing {
 public:
  /// Identity of one shareable in-flight execution. Two submissions share
  /// only when every field matches: the normalized signature (template
  /// shape), the precise signature (parameter bindings — shared output
  /// must be computed over the same data), and the CloudViews mode (a
  /// reuse-enabled and a reuse-blind run of the same plan execute
  /// different physical plans and must not share).
  struct ShareKey {
    Hash128 normalized;
    Hash128 precise;
    bool cloudviews = false;

    bool operator==(const ShareKey& other) const {
      return normalized == other.normalized && precise == other.precise &&
             cloudviews == other.cloudviews;
    }
  };

  struct ShareKeyHasher {
    size_t operator()(const ShareKey& key) const {
      Hash128Hasher h;
      size_t seed = h(key.normalized);
      seed ^= h(key.precise) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
              (seed >> 2);
      return seed ^ (key.cloudviews ? 0x517cc1b727220a95ULL : 0);
    }
  };

  /// What the leader hands its followers. The plan tree is immutable after
  /// execution, so sharing the pointer across followers is safe. A
  /// follower reads its plan-shape counters off `executed_plan`; the
  /// leader's builds, lock denials and waits are not the follower's.
  struct Outcome {
    /// False until a successful publish; failed leaders publish ok=false
    /// with `status` carrying the reason (followers degrade, they do not
    /// propagate this status).
    bool ok = false;
    Status status;
    uint64_t leader_job_id = 0;
    PlanNodePtr executed_plan;
    JobRunStats run_stats;
  };

  enum class Role { kLeader, kFollower };

  struct Ticket {
    ShareKey key;
    Role role = Role::kLeader;
    /// Null when sharing is disabled for the submission (default ticket).
    std::shared_ptr<struct ShareEntry> entry;
  };

  /// Registers a submission under `key`. The first in-flight submission of
  /// a key becomes the leader; everyone else a follower of that leader.
  Ticket Join(const ShareKey& key) EXCLUDES(mu_);

  /// Follower: blocks until the leader publishes or `timeout_seconds` of
  /// real wall time pass. Returns the published outcome; on timeout an
  /// Outcome with ok=false and an Expired status. Callers treat any
  /// non-ok outcome the same way: run independently.
  Outcome WaitForLeader(const Ticket& ticket, double timeout_seconds)
      EXCLUDES(mu_);

  /// Leader: fans `outcome` (with ok forced true) out to the followers and
  /// retires the entry. Returns the number of followers still waiting.
  size_t PublishSuccess(const Ticket& ticket, Outcome outcome) EXCLUDES(mu_);

  /// Leader: wakes followers with a failure outcome (they degrade to
  /// independent execution) and retires the entry. Idempotent with
  /// PublishSuccess — the first publish wins.
  void PublishFailure(const Ticket& ticket, Status status) EXCLUDES(mu_);

  /// Entries currently pending (leaders in flight); test introspection.
  size_t NumPending() const EXCLUDES(mu_);

 private:
  size_t PublishLocked(const Ticket& ticket, Outcome outcome) REQUIRES(mu_);

  mutable Mutex mu_;
  /// One CondVar for the whole registry: publishes are rare (one per
  /// leader) and each wakes only the followers of one key.
  CondVar cv_;
  std::unordered_map<ShareKey, std::shared_ptr<ShareEntry>, ShareKeyHasher>
      pending_ GUARDED_BY(mu_);
};

/// One in-flight shared execution. All fields are guarded by the owning
/// InflightSharing's mutex; the struct is only reachable through Ticket
/// handles returned by Join and is never touched directly by callers.
struct ShareEntry {
  bool published = false;
  InflightSharing::Outcome outcome;
  /// Followers currently blocked in WaitForLeader (metrics only).
  size_t waiters = 0;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_INFLIGHT_SHARING_H_
