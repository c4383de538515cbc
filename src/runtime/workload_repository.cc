#include "runtime/workload_repository.h"

#include "obs/timed_lock.h"

namespace cloudviews {

WorkloadRepository::WorkloadRepository(obs::MetricsRegistry* metrics,
                                       MonotonicClock* wall_clock)
    : wall_clock_(wall_clock) {
  metrics = obs::SharedOrOwned(metrics, &own_metrics_);
  obs_.jobs_ingested =
      metrics->GetCounter("cv_repository_jobs_ingested_total", {},
                          "Executed jobs added to the workload repository");
  obs_.subgraphs_observed = metrics->GetCounter(
      "cv_repository_subgraph_observations_total", {},
      "Per-subgraph statistic rows folded into the feedback index");
  obs_.lookups =
      metrics->GetCounter("cv_repository_lookups_total", {},
                          "Feedback-index lookups by normalized signature");
  obs_.lookup_hits = metrics->GetCounter(
      "cv_repository_lookup_hits_total", {},
      "Feedback-index lookups that found observed statistics");
  obs_.indexed_subgraphs =
      metrics->GetGauge("cv_repository_indexed_subgraphs", {},
                        "Distinct subgraph templates with statistics");
  obs_.lock_wait = metrics->GetHistogram(
      "cv_repository_lock_wait_seconds", {}, {},
      "Wall time waiting for the workload repository's mutex");
}

void WorkloadRepository::AddJob(const JobRecord& record) {
  // Mining the plan (enumeration, signature hashing, CPU attribution) is
  // pure computation over the immutable record — done before taking mu_ so
  // repository ingest does not serialize concurrent job completions. Under
  // mu_, every subgraph contributes its observed statistics to the
  // feedback index and the job joins its submit time's bucket.
  std::vector<SubgraphOccurrence> mined = MineOccurrences(record);

  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  obs_.jobs_ingested->Increment();
  uint64_t observed = 0;
  for (const SubgraphOccurrence& o : mined) {
    if (o.stats == nullptr) continue;
    Accumulator& acc = feedback_[o.normalized];
    acc.rows += o.stats->rows;
    acc.bytes += o.stats->bytes;
    acc.latency += o.stats->inclusive_seconds;
    acc.cpu += o.cpu;
    ++acc.n;
    ++observed;
  }
  obs_.subgraphs_observed->Increment(observed);
  obs_.indexed_subgraphs->Set(static_cast<double>(feedback_.size()));
  buckets_.Add(record, mined);
}

size_t WorkloadRepository::NumJobs() const {
  return static_cast<size_t>(obs_.jobs_ingested->value());
}

MinedWindow WorkloadRepository::Mine(LogicalTime from, LogicalTime to) const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  return buckets_.Merge(from, to);
}

std::optional<SubgraphObservedStats> WorkloadRepository::Lookup(
    const Hash128& normalized_signature) const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  obs_.lookups->Increment();
  auto it = feedback_.find(normalized_signature);
  if (it == feedback_.end()) return std::nullopt;
  obs_.lookup_hits->Increment();
  const Accumulator& acc = it->second;
  double n = static_cast<double>(acc.n);
  SubgraphObservedStats stats;
  stats.rows = acc.rows / n;
  stats.bytes = acc.bytes / n;
  stats.latency_seconds = acc.latency / n;
  stats.cpu_seconds = acc.cpu / n;
  stats.observations = acc.n;
  return stats;
}

size_t WorkloadRepository::NumIndexedSubgraphs() const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  return feedback_.size();
}

}  // namespace cloudviews
