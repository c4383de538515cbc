#ifndef CLOUDVIEWS_RUNTIME_PLAN_CACHE_H_
#define CLOUDVIEWS_RUNTIME_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// \brief Bounded, thread-safe LRU of compiled plans for recurring job
/// templates — the recurring-job fast path (see DESIGN.md).
///
/// Keyed by the *normalized* signature of the submitted logical plan (the
/// script-template identity, Sec 3) plus the CloudViews opt-in flag. Each
/// entry carries two artifacts at different reuse tiers:
///
///  - the *skeleton*: the parsed, logically-rewritten template tree. It is
///    catalog-independent, so any later occurrence of the template can
///    rebind its `{param}` holes onto a clone and skip the logical
///    rewrites, re-running only physical planning and the view passes.
///    (Parsing is never skipped: the job service receives a parsed plan.)
///  - the *rewritten* physical plan, tagged with the metadata service's
///    catalog epoch and the instance's precise signature. It is served
///    only when the epoch still matches (no analysis was loaded and no
///    view registered since — never serve a stale rewrite) and the precise
///    signature matches (same template over the same data).
class PlanCache {
 public:
  struct Key {
    Hash128 normalized;
    /// Plans compiled with and without the view passes differ; a template
    /// submitted under both settings gets two independent entries.
    bool cloudviews = false;

    bool operator==(const Key& other) const {
      return normalized == other.normalized && cloudviews == other.cloudviews;
    }
  };

  struct Entry {
    /// Catalog epoch `rewritten` was compiled against.
    uint64_t catalog_epoch = 0;
    /// Precise signature of the instance that produced `rewritten`.
    Hash128 precise;
    /// Logically-rewritten template tree; null when the template has
    /// expression-level holes the rewrites may reorder (see
    /// HasExprLevelParamHoles). Immutable once inserted — serve by Clone.
    PlanNodePtr skeleton;
    /// Fully optimized physical plan; null when the plan is not safely
    /// replayable (it carried Spool build locks — side effects). Immutable
    /// once inserted — serve by Clone.
    PlanNodePtr rewritten;
  };

  /// Lookup outcome. The entry is shared and immutable: callers must
  /// Clone() any tree before binding or mutating it.
  struct Probe {
    std::shared_ptr<const Entry> entry;
    /// True when entry->rewritten is non-null AND its catalog epoch and
    /// precise signature both match the probe — the full-hit tier.
    bool rewritten_valid = false;
  };

  /// Registers the counters and the entry-count gauge into `metrics` (or,
  /// when it is null, a registry the cache owns).
  explicit PlanCache(size_t capacity = kDefaultCapacity,
                     obs::MetricsRegistry* metrics = nullptr);

  static constexpr size_t kDefaultCapacity = 256;

  /// Probes for `key` at the caller-observed catalog `epoch` (read BEFORE
  /// the probe, so a concurrent catalog change can only make the check
  /// conservatively stale, never unsafe) and instance signature `precise`.
  Probe Lookup(const Key& key, uint64_t epoch, const Hash128& precise)
      EXCLUDES(mu_);

  /// Inserts or replaces the entry for `key`, evicting the least recently
  /// used entry when full. Trees in `entry` must be private clones.
  void Insert(const Key& key, Entry entry) EXCLUDES(mu_);

  /// Drops the entry for `key` (e.g. after a views_fallback proved its
  /// rewritten plan unservable). No-op when absent.
  void Invalidate(const Key& key) EXCLUDES(mu_);

  /// Outcome accounting — the service decides after validation/rebinding.
  void OnServed(bool full_hit);
  /// A full-hit candidate failed live-view validation (expiry, purges and
  /// drops bump no epoch) and was demoted to the skeleton tier.
  void OnDemoted();
  /// A skeleton's `{param}` holes could not be rebound; full replan.
  void OnRebindFailed();

  /// Snapshot of the registered instruments.
  struct Stats {
    uint64_t hits_full = 0;
    uint64_t hits_skeleton = 0;
    /// Probes that found no entry for the template.
    uint64_t misses = 0;
    uint64_t epoch_invalidations = 0;
    /// Probes whose entry held a rewritten plan at the current epoch but
    /// for another precise signature (same template, other data).
    uint64_t precise_mismatches = 0;
    uint64_t demotions = 0;
    uint64_t rebind_failures = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t explicit_invalidations = 0;
    size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct KeyHasher {
    size_t operator()(const Key& key) const {
      return Hash128Hasher()(key.normalized) ^
             (key.cloudviews ? 0x9e3779b97f4a7c15ULL : 0);
    }
  };
  struct Node {
    Key key;
    std::shared_ptr<const Entry> entry;
  };
  struct Instruments {
    obs::Counter* hits_full = nullptr;
    obs::Counter* hits_skeleton = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* epoch_invalidations = nullptr;
    obs::Counter* precise_mismatches = nullptr;
    obs::Counter* demotions = nullptr;
    obs::Counter* rebind_failures = nullptr;
    obs::Counter* insertions = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* explicit_invalidations = nullptr;
    obs::Gauge* entries = nullptr;
  };

  size_t capacity_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Instruments obs_;

  mutable Mutex mu_;
  /// Most recently used at the front.
  std::list<Node> lru_ GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<Node>::iterator, KeyHasher> index_
      GUARDED_BY(mu_);
};

/// True when `plan` holds expression-level `{param}` holes — bound
/// ParameterExprs or date literals (normalized signatures abstract date
/// values, making them per-instance). The logical rewrites may merge or
/// move the predicates holding them, so positional rebinding onto a cached
/// skeleton is unsound: such templates get no skeleton tier (full-hit
/// caching by precise signature still applies).
bool HasExprLevelParamHoles(const PlanNode& plan);

/// Rebinds the node-local `{param}` holes of the cached `skeleton` —
/// Extract stream/GUID, Process/Reduce UDO version, Output stream — from
/// the freshly submitted instance `fresh_logical` of the same template, by
/// pre-order position (the logical rewrites move only filters, so the hole
/// order is stable). Verifies hole counts, kinds, and template identities
/// pairwise; returns false (skeleton unusable, caller replans fully) on
/// any mismatch.
bool RebindSkeletonParams(PlanNode* skeleton, PlanNode* fresh_logical);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_PLAN_CACHE_H_
