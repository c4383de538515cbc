#ifndef CLOUDVIEWS_OPTIMIZER_VIEW_INTERFACES_H_
#define CLOUDVIEWS_OPTIMIZER_VIEW_INTERFACES_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "plan/physical_properties.h"
#include "plan/plan_node.h"
#include "signature/containment.h"

namespace cloudviews {

/// \brief Output of the CloudViews analyzer for one selected overlapping
/// computation: "future jobs must materialize and reuse this subgraph"
/// (Sec 4, query annotations).
struct ViewAnnotation {
  /// Identity of the computation template across recurring instances.
  Hash128 normalized_signature;
  /// Physical design mined from the consumers' required properties
  /// (Sec 5.3).
  PhysicalProperties design;
  /// Statistics observed in prior runs (the feedback loop).
  double expected_rows = 0;
  double expected_bytes = 0;
  double avg_runtime_seconds = 0;
  /// How often the subgraph occurred in the analyzed window.
  int64_t frequency = 0;
  /// How long a materialized instance stays useful, from input lineage
  /// (Sec 5.4); added to the materialization time to get the absolute
  /// expiry.
  LogicalTime lifetime_seconds = 0;
  /// Offline mode: materialize in a standalone pre-job instead of inline
  /// (Sec 6.2, "offline view materialization mode").
  bool offline = false;

  /// Containment matching (tiers 1-2 of the CandidateMatcher): compact
  /// feature vector for cheap candidate filtering, and the definition
  /// skeleton (a bound clone of the first mined occurrence) that tier 2
  /// verifies containment against structurally. Both are shared read-only
  /// after the analyzer publishes them; null/empty when the analyzer did
  /// not (or could not) compute them, which simply disables containment
  /// matching for this annotation.
  std::shared_ptr<const ViewFeatures> features;
  PlanNodePtr definition;
};

/// The annotations relevant to one job, keyed by normalized signature: the
/// metadata service's one lookup per job returns it (Fig 9 steps 1/2) and
/// the optimizer's view passes probe it in O(1) per subgraph.
using AnnotationIndex =
    std::unordered_map<Hash128, ViewAnnotation, Hash128Hasher>;

/// A view instance that is already materialized and available.
struct MaterializedViewInfo {
  std::string path;
  Hash128 normalized_signature;
  Hash128 precise_signature;
  uint64_t producer_job_id = 0;
  PhysicalProperties design;
  double rows = 0;
  double bytes = 0;
  /// Instance-level features computed from the producer's spool subtree at
  /// registration: concrete predicate bounds, opaque conjunct hashes, and
  /// the core precise signature. Null for instances registered before
  /// containment matching existed (they then only serve exact matches).
  std::shared_ptr<const ViewFeatures> reuse_features;
};

/// \brief The slice of the metadata service the optimizer interacts with
/// (steps 2-4 of Fig 9).
class ViewCatalogInterface {
 public:
  virtual ~ViewCatalogInterface() = default;

  /// Step 5-of-Fig-7 matching: is this precise computation materialized?
  virtual std::optional<MaterializedViewInfo> FindMaterialized(
      const Hash128& normalized, const Hash128& precise) = 0;

  /// Step 3/4 of Fig 9: try to take the exclusive build lock. Returns true
  /// if this job should materialize the view, false if another job holds
  /// the lock or the view already exists.
  virtual bool ProposeMaterialize(const Hash128& normalized,
                                  const Hash128& precise, uint64_t job_id,
                                  double expected_build_seconds) = 0;

  /// Releases a build lock taken by ProposeMaterialize without registering
  /// a view (the owning job failed or its plan was discarded before the
  /// spool ran). Must be idempotent and a no-op when `job_id` does not own
  /// the lock. Default no-op for catalogs that never grant locks.
  virtual void AbandonLock(const Hash128& precise, uint64_t job_id) {
    (void)precise;
    (void)job_id;
  }

  /// Containment tier 2.5: lists the live materialized instances of one
  /// computation template whose reuse features name `core_precise` as
  /// their core (the query's own input), in a deterministic order, so the
  /// matcher can check per-instance predicate containment. Instances
  /// without reuse features are never listed. Default: none (catalogs
  /// without instance tracking only serve exact matches).
  virtual std::vector<MaterializedViewInfo> FindSubsumableInstances(
      const Hash128& normalized, const Hash128& core_precise) {
    (void)normalized;
    (void)core_precise;
    return {};
  }
};

/// Runtime statistics observed for a subgraph template in prior runs.
struct SubgraphObservedStats {
  double rows = 0;
  double bytes = 0;
  double latency_seconds = 0;
  double cpu_seconds = 0;
  int64_t observations = 0;
};

/// \brief Source of prior-run statistics for the feedback loop (Sec 5.1).
class StatsProviderInterface {
 public:
  virtual ~StatsProviderInterface() = default;

  virtual std::optional<SubgraphObservedStats> Lookup(
      const Hash128& normalized_signature) const = 0;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_VIEW_INTERFACES_H_
