#include "runtime/workload_repository.h"

#include <algorithm>

#include "signature/signature.h"

namespace cloudviews {

double SubtreeCpuSeconds(const PlanNode& node, const PlanRuntimeStats& stats) {
  // Pre-order ids: the subtree of a node with id i and size s occupies
  // exactly ids [i, i + s).
  int first = node.id();
  int last = first + static_cast<int>(node.SubtreeSize());
  double cpu = 0;
  for (int id = first; id < last; ++id) {
    auto it = stats.find(id);
    if (it != stats.end()) cpu += it->second.cpu_seconds;
  }
  return cpu;
}

void WorkloadRepository::SetMetrics(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) Register(metrics);
}

void WorkloadRepository::Register(obs::MetricsRegistry* metrics) {
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
}

void WorkloadRepository::AddJob(JobRecord record) {
  auto shared = std::make_shared<const JobRecord>(std::move(record));

  // Maintain the feedback index: every subgraph of the executed plan
  // contributes its observed statistics under its normalized signature.
  // Subgraph enumeration, signature hashing, and CPU attribution are pure
  // computation over the immutable record — done before taking mu_ so
  // repository ingest does not serialize concurrent job completions.
  struct Observation {
    Hash128 signature;
    double rows = 0, bytes = 0, latency = 0, cpu = 0;
  };
  std::vector<Observation> observed;
  if (shared->plan != nullptr) {
    const PlanRuntimeStats& stats = shared->run_stats.operators;
    std::vector<SubgraphEntry> entries = EnumerateSubgraphs(shared->plan);
    // Inclusive CPU for all subtrees in one pass: pre-order ids make each
    // subtree the id range [i, i + size), so a prefix sum over per-id CPU
    // answers every range in O(1) (the per-subtree re-walk made ingest
    // O(n²) in plan size — while holding mu_).
    int bound = 0;
    for (const auto& entry : entries) {
      bound = std::max(bound, entry.node->id() +
                                  static_cast<int>(entry.node->SubtreeSize()));
    }
    std::vector<double> prefix(static_cast<size_t>(bound) + 1, 0.0);
    for (const auto& [id, op] : stats) {
      if (id >= 0 && id < bound) {
        prefix[static_cast<size_t>(id) + 1] = op.cpu_seconds;
      }
    }
    for (size_t i = 1; i < prefix.size(); ++i) prefix[i] += prefix[i - 1];
    observed.reserve(entries.size());
    for (const auto& entry : entries) {
      auto it = stats.find(entry.node->id());
      if (it == stats.end()) continue;
      int first = std::clamp(entry.node->id(), 0, bound);
      int last = std::clamp(
          entry.node->id() + static_cast<int>(entry.node->SubtreeSize()), 0,
          bound);
      Observation o;
      o.signature = entry.sigs.normalized;
      o.rows = it->second.rows;
      o.bytes = it->second.bytes;
      o.latency = it->second.inclusive_seconds;
      o.cpu = prefix[static_cast<size_t>(last)] -
              prefix[static_cast<size_t>(first)];
      observed.push_back(o);
    }
  }

  MutexLock lock(mu_);
  jobs_.push_back(shared);
  obs_.jobs_ingested->Increment();
  for (const Observation& o : observed) {
    Accumulator& acc = feedback_[o.signature];
    acc.rows += o.rows;
    acc.bytes += o.bytes;
    acc.latency += o.latency;
    acc.cpu += o.cpu;
    ++acc.n;
  }
  obs_.subgraphs_observed->Increment(observed.size());
  obs_.indexed_subgraphs->Set(static_cast<double>(feedback_.size()));
}

size_t WorkloadRepository::NumJobs() const {
  MutexLock lock(mu_);
  return jobs_.size();
}

std::vector<std::shared_ptr<const JobRecord>> WorkloadRepository::Jobs()
    const {
  MutexLock lock(mu_);
  return jobs_;
}

std::vector<std::shared_ptr<const JobRecord>>
WorkloadRepository::JobsInWindow(LogicalTime from, LogicalTime to) const {
  MutexLock lock(mu_);
  std::vector<std::shared_ptr<const JobRecord>> out;
  for (const auto& j : jobs_) {
    if (j->submit_time >= from && j->submit_time < to) out.push_back(j);
  }
  return out;
}

std::optional<SubgraphObservedStats> WorkloadRepository::Lookup(
    const Hash128& normalized_signature) const {
  MutexLock lock(mu_);
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
  MutexLock lock(mu_);
  return feedback_.size();
}

}  // namespace cloudviews
