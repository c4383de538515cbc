#include "core/cloudviews.h"

#include <algorithm>
#include <utility>

namespace cloudviews {

CloudViews::CloudViews(CloudViewsConfig config)
    : config_(config),
      tracer_(config.wall_clock, &metrics_),
      storage_(std::make_unique<StorageManager>(
          &clock_, &metrics_, config.wall_clock, config.fault)),
      metadata_(std::make_unique<MetadataService>(
          &clock_, storage_.get(), config.metadata, &metrics_,
          config.wall_clock, config.fault)),
      repository_(
          std::make_unique<WorkloadRepository>(&metrics_, config.wall_clock)),
      job_service_(std::make_unique<JobService>(
          &clock_, storage_.get(), metadata_.get(), repository_.get(),
          &metrics_, config.wall_clock,
          config.enable_observability ? &tracer_ : nullptr, config.optimizer,
          config.exec, config.fault, config.retry, config.sleeper)) {
  // Callers build and arm the injector before this instance exists, so it
  // takes the registry here rather than at its own construction.
  if (config_.fault != nullptr) config_.fault->SetMetrics(&metrics_);
}

Result<JobResult> CloudViews::Submit(const JobDefinition& def,
                                     bool enable_cloudviews) {
  JobServiceOptions options;
  options.enable_cloudviews = enable_cloudviews;
  return Submit(def, options);
}

Result<JobResult> CloudViews::Submit(const JobDefinition& def,
                                     const JobServiceOptions& options) {
  auto result = job_service_->SubmitJob(def, options);
  if (result.ok()) {
    MutexLock lock(stats_mu_);
    ++jobs_since_analysis_;
    if (result->views_reused > 0 || result->views_materialized > 0) {
      ++view_hits_since_analysis_;
    }
  }
  return result;
}

AnalysisResult CloudViews::RunAnalyzerAndLoad() {
  return RunAnalyzerAndLoad(0, clock_.Now() + 1);
}

AnalysisResult CloudViews::RunAnalyzerAndLoad(LogicalTime from,
                                              LogicalTime to) {
  // One trace per run; the tracer turns its spans into
  // cv_job_stage_seconds{stage=analyzer.*} series.
  obs::Span trace = config_.enable_observability
                        ? tracer_.StartTrace("analyzer.run")
                        : obs::Span();
  double start = config_.wall_clock->NowSeconds();
  MinedWindow window;
  {
    obs::Span span = trace.StartChild("analyzer.mine");
    window = repository_->Mine(from, to);
  }
  CloudViewsAnalyzer analyzer(config_.analyzer);
  AnalysisResult result = analyzer.Analyze(std::move(window), &trace);
  result.analysis_seconds = config_.wall_clock->NowSeconds() - start;
  {
    obs::Span span = trace.StartChild("metadata.load_analysis");
    metadata_->LoadAnalysis(result.annotations);
  }
  trace.End();
  MutexLock lock(stats_mu_);
  jobs_since_analysis_ = 0;
  view_hits_since_analysis_ = 0;
  analysis_loaded_ = !result.annotations.empty();
  return result;
}

Result<int> CloudViews::BuildViewsOffline(const JobDefinition& def) {
  return job_service_->MaterializeOfflineViews(def);
}

size_t CloudViews::ReclaimViewStorage(double bytes_to_reclaim) {
  // Same selection routine as Sec 5.2 with the objective flipped to min
  // (Sec 5.4): drop the least useful views first.
  struct Candidate {
    Hash128 precise;
    double utility;
    double bytes;
  };
  std::vector<Candidate> candidates;
  for (const auto& view : metadata_->ListViews()) {
    Candidate c;
    c.precise = view.precise_signature;
    c.bytes = view.bytes;
    c.utility = 0;
    if (auto ann = metadata_->FindAnnotation(view.normalized_signature)) {
      c.utility = static_cast<double>(ann->frequency - 1) *
                  ann->avg_runtime_seconds;
    }
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.utility != b.utility) return a.utility < b.utility;
              return b.bytes < a.bytes;  // bigger first on utility ties
            });
  double reclaimed = 0;
  size_t dropped = 0;
  for (const auto& c : candidates) {
    if (reclaimed >= bytes_to_reclaim) break;
    if (metadata_->DropView(c.precise).ok()) {
      reclaimed += c.bytes;
      ++dropped;
    }
  }
  return dropped;
}

size_t CloudViews::PurgeExpired() {
  size_t purged = metadata_->PurgeExpired();
  purged += storage_->PurgeExpired();
  return purged;
}

bool CloudViews::AnalysisLooksStale(double min_hit_rate) const {
  MutexLock lock(stats_mu_);
  if (!analysis_loaded_) return true;
  if (jobs_since_analysis_ < 20) return false;  // not enough evidence yet
  double hit_rate = static_cast<double>(view_hits_since_analysis_) /
                    static_cast<double>(jobs_since_analysis_);
  return hit_rate < min_hit_rate;
}

}  // namespace cloudviews
