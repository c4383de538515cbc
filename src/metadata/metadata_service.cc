#include "metadata/metadata_service.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "obs/timed_lock.h"

namespace cloudviews {

namespace {

/// Build-lock expiry = max(kMinLockSeconds, kLockExpiryMultiplier * mined
/// average runtime of the view subgraph): once expired, another job may
/// retry the materialization — the fault-tolerance story of Sec 6.1.
constexpr double kLockExpiryMultiplier = 2.0;
constexpr double kMinLockSeconds = 60;

}  // namespace

MetadataService::MetadataService(SimulatedClock* clock,
                                 StorageManager* storage,
                                 MetadataServiceConfig config,
                                 obs::MetricsRegistry* metrics,
                                 MonotonicClock* wall_clock,
                                 fault::FaultInjector* fault)
    : clock_(clock),
      storage_(storage),
      config_(config),
      wall_clock_(wall_clock),
      fault_(fault) {
  metrics = obs::SharedOrOwned(metrics, &own_metrics_);
  obs_.lookups = metrics->GetCounter(
      "cv_metadata_lookups_total", {},
      "GetRelevantViews requests, tag and table-set matches in one (one "
      "per CloudViews job the full plan-cache tier does not serve, Fig 9 "
      "step 1)");
  obs_.hits = metrics->GetCounter(
      "cv_metadata_view_hits_total", {},
      "FindMaterialized calls that returned a live view");
  obs_.misses = metrics->GetCounter(
      "cv_metadata_view_misses_total", {},
      "FindMaterialized calls that found no usable view");
  obs_.propose_attempts = metrics->GetCounter(
      "cv_metadata_propose_attempts_total", {},
      "ProposeMaterialize calls, including those answered by an injected "
      "fault before reaching the service (a retry is a new attempt)");
  obs_.proposals = metrics->GetCounter(
      "cv_metadata_proposals_total", {},
      "Build-lock proposals the service decided (granted + denied)");
  obs_.locks_granted =
      metrics->GetCounter("cv_metadata_build_locks_granted_total", {},
                          "Exclusive build locks granted (Sec 6.1)");
  obs_.locks_denied = metrics->GetCounter(
      "cv_metadata_build_locks_denied_total", {},
      "Build-lock proposals denied (already built or being built)");
  obs_.locks_abandoned =
      metrics->GetCounter("cv_metadata_build_locks_abandoned_total", {},
                          "Build locks released without registering a view "
                          "(failed or discarded materializing jobs)");
  obs_.leases_reclaimed = metrics->GetCounter(
      "cv_metadata_lock_leases_reclaimed_total", {},
      "Expired build-lock leases taken over from presumed-dead builders");
  obs_.stale_registrations = metrics->GetCounter(
      "cv_metadata_stale_registrations_total", {},
      "ReportMaterialized calls rejected by lease fencing or because "
      "another producer already registered the view");
  obs_.orphans_cleaned = metrics->GetCounter(
      "cv_metadata_orphans_cleaned_total", {},
      "Unregistered view files of a reclaimed build lease deleted before "
      "the new build");
  obs_.views_registered =
      metrics->GetCounter("cv_metadata_views_registered_total", {},
                          "Materialized views registered");
  obs_.views_purged = metrics->GetCounter(
      "cv_metadata_views_purged_total", {}, "Expired views purged");
  obs_.registered_views =
      metrics->GetGauge("cv_metadata_registered_views", {},
                        "Currently registered materialized views");
  obs_.lock_wait = metrics->GetHistogram(
      "cv_metadata_lock_wait_seconds", {}, {},
      "Wall time waiting for the metadata-service mutex (one observation "
      "per acquisition)");
}

void MetadataService::LoadAnalysis(
    const std::vector<AnnotatedComputation>& computations) {
  auto snapshot = std::make_shared<AnalysisSnapshot>();
  snapshot->computations = computations;
  for (size_t i = 0; i < snapshot->computations.size(); ++i) {
    for (const auto& tag : snapshot->computations[i].tags) {
      snapshot->tag_index[tag].insert(i);
    }
    const auto& features = snapshot->computations[i].annotation.features;
    if (features != nullptr) {
      snapshot->table_set_index[features->table_set_key].push_back(i);
    }
  }
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    analysis_ = std::move(snapshot);
  }
  // New annotations change which rewrites the optimizer would pick.
  BumpEpoch();
}

std::shared_ptr<const MetadataService::AnalysisSnapshot>
MetadataService::AnalysisView() const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  return analysis_;
}

double MetadataService::SimulatedLookupLatency() const {
  // Calibrated to the paper's measurement: ~19ms with one service thread,
  // ~14.3ms with five (Sec 7.3) — a fixed fraction of the work
  // parallelizes across service threads.
  double parallel_fraction = 0.3;
  return config_.base_lookup_latency_seconds *
         (1.0 - parallel_fraction +
          parallel_fraction / std::max(1, config_.service_threads));
}

Result<AnnotationIndex> MetadataService::GetRelevantViews(
    const std::vector<std::string>& tags,
    const std::vector<Hash128>& table_set_keys,
    double* latency_seconds) const {
  if (fault_ != nullptr) {
    std::string key;
    for (const auto& tag : tags) {
      if (!key.empty()) key += '|';
      key += tag;
    }
    CV_RETURN_NOT_OK(fault_->MaybeInject(fault::points::kMetadataLookup, key));
  }
  obs_.lookups->Increment();
  if (latency_seconds != nullptr) {
    *latency_seconds = SimulatedLookupLatency();
  }
  // Read-mostly path: one pointer copy under mu_, then the immutable
  // snapshot is scanned without any lock held.
  std::shared_ptr<const AnalysisSnapshot> snapshot = AnalysisView();
  AnnotationIndex out;
  if (snapshot == nullptr) return out;
  // Tag matches, then table-set matches, each in ascending load order; a
  // signature keeps its first copy.
  auto add_hits = [&](const auto& index, const auto& keys) {
    std::set<size_t> hits;
    for (const auto& key : keys) {
      auto it = index.find(key);
      if (it == index.end()) continue;
      hits.insert(it->second.begin(), it->second.end());
    }
    for (size_t i : hits) {
      const ViewAnnotation& a = snapshot->computations[i].annotation;
      out.try_emplace(a.normalized_signature, a);
    }
  };
  add_hits(snapshot->tag_index, tags);
  add_hits(snapshot->table_set_index, table_set_keys);
  return out;
}

std::optional<ViewAnnotation> MetadataService::FindAnnotation(
    const Hash128& normalized) const {
  std::shared_ptr<const AnalysisSnapshot> snapshot = AnalysisView();
  if (snapshot == nullptr) return std::nullopt;
  for (const auto& comp : snapshot->computations) {
    if (comp.annotation.normalized_signature == normalized) {
      return comp.annotation;
    }
  }
  return std::nullopt;
}

const MetadataService::RegisteredView* MetadataService::LiveView(
    const Hash128& precise) const {
  auto it = views_.find(precise);
  if (it == views_.end() || !it->second.LiveAt(clock_->Now())) return nullptr;
  return &it->second;
}

std::optional<MetadataService::InstanceKey> MetadataService::IndexKey(
    const MaterializedViewInfo& info) {
  if (info.reuse_features == nullptr) return std::nullopt;
  return InstanceKey{info.normalized_signature,
                     info.reuse_features->core_precise};
}

std::string MetadataService::EraseView(
    std::unordered_map<Hash128, RegisteredView, Hash128Hasher>::iterator it) {
  if (auto key = IndexKey(it->second.info)) {
    auto iit = instances_by_core_.find(*key);
    if (iit != instances_by_core_.end()) {
      iit->second.erase(it->first);
      if (iit->second.empty()) instances_by_core_.erase(iit);
    }
  }
  std::string path = std::move(it->second.info.path);
  views_.erase(it);
  obs_.registered_views->Add(-1);
  return path;
}

std::vector<MaterializedViewInfo> MetadataService::FindSubsumableInstances(
    const Hash128& normalized, const Hash128& core_precise) {
  std::vector<MaterializedViewInfo> out;
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  auto it = instances_by_core_.find(InstanceKey{normalized, core_precise});
  if (it == instances_by_core_.end()) return out;
  // std::set keeps the precise signatures ordered, which is the matcher's
  // determinism contract for instance iteration.
  for (const Hash128& precise : it->second) {
    if (const RegisteredView* view = LiveView(precise)) {
      out.push_back(view->info);
    }
  }
  return out;
}

std::optional<MaterializedViewInfo> MetadataService::FindMaterialized(
    const Hash128& normalized, const Hash128& precise) {
  std::optional<MaterializedViewInfo> info;
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    const RegisteredView* view = LiveView(precise);
    if (view != nullptr && view->info.normalized_signature == normalized) {
      info = view->info;
    }
  }
  if (!info.has_value()) {
    obs_.misses->Increment();
    return std::nullopt;
  }
  obs_.hits->Increment();
  return info;
}

bool MetadataService::ProposeMaterialize(const Hash128& normalized,
                                         const Hash128& precise,
                                         uint64_t job_id,
                                         double expected_build_seconds) {
  // Attempts count every call (a retry is a new attempt); `proposals`
  // counts only decisions the service actually made, so one logical
  // proposal retried across injected faults never double-counts (see
  // docs/job_profile_schema.md).
  obs_.propose_attempts->Increment();
  if (fault_ != nullptr) {
    Status injected =
        fault_->MaybeInject(fault::points::kMetadataPropose, precise.ToHex());
    if (!injected.ok()) {
      // A proposal the service never answered is indistinguishable from a
      // denial to the job: it simply runs without materializing this view.
      // It is NOT a service-side decision, so neither `proposals` nor
      // `locks_denied` moves; the gap propose_attempts - proposals is the
      // injected-denial count.
      return false;
    }
  }
  obs_.proposals->Increment();
  // Orphaned files of a reclaimed lease are deleted after the mutex is
  // released (same metadata-first ordering as PurgeExpired, Sec 5.4).
  std::string orphan_prefix;
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    if (views_.count(precise) > 0) {
      obs_.locks_denied->Increment();
      return false;  // already materialized
    }
    LogicalTime now = clock_->Now();
    double wall_now = wall_clock_->NowSeconds();
    auto it = locks_.find(precise);
    if (it != locks_.end()) {
      if (!LockExpired(it->second, now, wall_now)) {
        obs_.locks_denied->Increment();
        return false;  // a concurrent job is building this view
      }
      // Lease takeover: the previous build attempt is presumed dead.
      // Whatever it wrote under this signature was never registered —
      // collect it for deletion so the new build starts clean. This also
      // applies when the expired lock belonged to THIS job (a torn write
      // plus retry after the job's own lease lapsed): its earlier partial
      // files are just as orphaned and leaked forever if skipped.
      orphan_prefix =
          "/views/" + normalized.ToHex() + "/" + precise.ToHex() + "_";
      if (it->second.job_id != job_id) obs_.leases_reclaimed->Increment();
    }
    double expiry_seconds =
        std::max(kMinLockSeconds,
                 kLockExpiryMultiplier * expected_build_seconds);
    locks_[precise] =
        BuildLock{job_id, now + static_cast<LogicalTime>(expiry_seconds),
                  wall_now + expiry_seconds};
    obs_.locks_granted->Increment();
  }
  if (!orphan_prefix.empty()) {
    for (const auto& name : storage_->ListStreams(orphan_prefix)) {
      // Intentional drop: racing deletions of an unregistered orphan are
      // harmless — someone removed it, which is all we need.
      (void)storage_->DeleteStream(name);
      obs_.orphans_cleaned->Increment();
    }
  }
  return true;
}

Status MetadataService::ReportMaterialized(const MaterializedViewInfo& info,
                                          LogicalTime expires_at) {
  auto reject = [this](Status status) {
    obs_.stale_registrations->Increment();
    return status;
  };
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    auto vit = views_.find(info.precise_signature);
    if (vit != views_.end()) {
      if (vit->second.info.producer_job_id == info.producer_job_id) {
        return Status::OK();  // idempotent re-report by the same producer
      }
      return reject(Status::AlreadyExists(
          "view " + info.precise_signature.ToHex() +
          " already registered by job " +
          std::to_string(vit->second.info.producer_job_id)));
    }
    auto lit = locks_.find(info.precise_signature);
    if (lit != locks_.end() && lit->second.job_id != info.producer_job_id) {
      // Lease fencing: this builder's lock expired and another job took the
      // lease. Its registration is stale — the new builder owns the view.
      return reject(Status::Expired(
          "build lock for view " + info.precise_signature.ToHex() +
          " is now held by job " + std::to_string(lit->second.job_id) +
          "; stale registration by job " +
          std::to_string(info.producer_job_id) + " rejected"));
    }
    if (lit != locks_.end()) locks_.erase(lit);
    views_[info.precise_signature] = RegisteredView{info, expires_at};
    if (auto key = IndexKey(info)) {
      instances_by_core_[*key].insert(info.precise_signature);
    }
    obs_.registered_views->Add(1);
    obs_.views_registered->Increment();
    // Wake piggybackers blocked on this build: the view is now live.
    view_cv_.NotifyAll();
  }
  // A newly registered view invalidates cached plans that could have
  // reused it — never serve a stale rewrite.
  BumpEpoch();
  return Status::OK();
}

void MetadataService::AbandonLock(const Hash128& precise, uint64_t job_id) {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  auto it = locks_.find(precise);
  if (it != locks_.end() && it->second.job_id == job_id) {
    locks_.erase(it);
    obs_.locks_abandoned->Increment();
    // Wake piggybackers: their builder gave up, so they should stop
    // waiting and fall back to their reuse-blind plans.
    view_cv_.NotifyAll();
  }
}

Status MetadataService::WaitForMaterialized(const Hash128& precise,
                                            double timeout_seconds) {
  if (fault_ != nullptr) {
    Status injected = fault_->MaybeInject(
        fault::points::kSharingPiggybackTimeout, precise.ToHex());
    if (!injected.ok()) {
      // Forced-timeout injection: surface the timeout outcome regardless of
      // the injected spec's code so callers exercise exactly the fallback
      // path a real expiry would take.
      return Status::Expired("piggyback wait timed out (injected): " +
                             injected.message());
    }
  }
  // The deadline runs on the REAL wall clock even when wall_clock_ is a
  // test fake: a fake clock nobody advances would otherwise park waiters
  // forever, and the bound here is a liveness backstop, not lease policy.
  MonotonicClock* real = MonotonicClock::Real();
  const double deadline = real->NowSeconds() + timeout_seconds;
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  for (;;) {
    if (LiveView(precise) != nullptr) {
      return Status::OK();  // the build finished; re-probe and rewrite
    }
    auto lit = locks_.find(precise);
    if (lit == locks_.end() ||
        LockExpired(lit->second, clock_->Now(), wall_clock_->NowSeconds())) {
      return Status::NotFound(
          "no live builder for view " + precise.ToHex() +
          " (abandoned or lease lapsed); piggyback caller must fall back");
    }
    double remaining = deadline - real->NowSeconds();
    if (remaining <= 0) {
      return Status::Expired("piggyback wait for view " + precise.ToHex() +
                             " timed out");
    }
    // Bounded slices: a builder whose lease lapses without any notify (the
    // crashed-builder case) is still detected within one slice.
    view_cv_.WaitFor(mu_,
                     std::chrono::duration<double>(std::min(remaining, 0.05)));
  }
}

size_t MetadataService::PurgeExpired() {
  LogicalTime now = clock_->Now();
  std::vector<std::string> paths_to_delete;
  {
    // Clean the metadata first so no job can be handed an expired view,
    // then delete the physical files (Sec 5.4).
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    for (auto it = views_.begin(); it != views_.end();) {
      auto next = std::next(it);
      if (!it->second.LiveAt(now)) {
        paths_to_delete.push_back(EraseView(it));
        obs_.views_purged->Increment();
      }
      it = next;
    }
  }
  for (const auto& path : paths_to_delete) {
    // Intentional drop: the file may already be gone (purged by the
    // storage manager's own expiry sweep), and the metadata entry is
    // authoritative either way.
    (void)storage_->DeleteStream(path);
  }
  return paths_to_delete.size();
}

Status MetadataService::DropView(const Hash128& precise) {
  std::string path;
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    auto it = views_.find(precise);
    if (it == views_.end()) return Status::NotFound("view not registered");
    path = EraseView(it);
  }
  return storage_->DeleteStream(path);
}

MetadataService::Counters MetadataService::counters() const {
  Counters out;
  out.lookups = obs_.lookups->value();
  out.propose_attempts = obs_.propose_attempts->value();
  out.proposals = obs_.proposals->value();
  out.locks_granted = obs_.locks_granted->value();
  out.locks_denied = obs_.locks_denied->value();
  out.locks_abandoned = obs_.locks_abandoned->value();
  out.leases_reclaimed = obs_.leases_reclaimed->value();
  out.stale_registrations_rejected = obs_.stale_registrations->value();
  out.orphans_cleaned = obs_.orphans_cleaned->value();
  out.views_registered = obs_.views_registered->value();
  out.views_purged = obs_.views_purged->value();
  return out;
}

size_t MetadataService::NumRegisteredViews() const {
  return static_cast<size_t>(obs_.registered_views->value());
}

size_t MetadataService::NumAnnotations() const {
  std::shared_ptr<const AnalysisSnapshot> snapshot = AnalysisView();
  return snapshot == nullptr ? 0 : snapshot->computations.size();
}

size_t MetadataService::NumActiveLocks() const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  return locks_.size();
}

std::vector<std::pair<Hash128, uint64_t>> MetadataService::HeldLocks() const {
  std::vector<std::pair<Hash128, uint64_t>> out;
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  for (const auto& [precise, held] : locks_) {
    out.emplace_back(precise, held.job_id);
  }
  return out;
}

std::vector<MaterializedViewInfo> MetadataService::ListViews() const {
  std::vector<MaterializedViewInfo> out;
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  for (const auto& [precise, view] : views_) out.push_back(view.info);
  return out;
}

}  // namespace cloudviews
