#include "workload.h"

#include <algorithm>
#include <limits>

#include "common/clock.h"
#include "common/hash.h"
#include "common/random.h"
#include "net/outcome.h"
#include "signature/signature.h"

namespace perfbench {

using cloudviews::CloudViews;
using cloudviews::Hash128;
using cloudviews::JobDefinition;
using cloudviews::JobResult;
using cloudviews::MonotonicNowSeconds;

WorkloadRun RunPhases(PhaseFn phase, const RunOptions& opt, bool traced,
                      int phases) {
  WorkloadRun run;
  for (int i = 0; i < phases; ++i) {
    WorkloadRun p = phase(opt, traced);
    run.setup_seconds.insert(run.setup_seconds.end(), p.setup_seconds.begin(),
                             p.setup_seconds.end());
    run.attempted += p.attempted;
    run.failed += p.failed;
    for (size_t j = 0; j < p.segments.size(); ++j) {
      p.segments[j].position = static_cast<int>(j);
      run.segments.push_back(std::move(p.segments[j]));
    }
    // The first phase runs in a fresh process; later phases would also
    // count what the allocator kept from earlier ones.
    if (i == 0) run.peak_rss_mb = p.peak_rss_mb;
    run.stored_mb = p.stored_mb;
    run.outputs_checked += p.outputs_checked;
    run.output_mismatches += p.output_mismatches;
    run.check_failures.insert(run.check_failures.end(),
                              p.check_failures.begin(),
                              p.check_failures.end());
    if (i > 0) {
      for (const CountValue& c : p.counts) {
        if (!c.deterministic) continue;
        for (const CountValue& prev : run.counts) {
          run.Check(prev.name != c.name || prev.value == c.value,
                    "count " + c.name + " differs between phases");
        }
      }
    }
    run.counts = std::move(p.counts);
    run.layers = std::move(p.layers);
    run.spans = std::move(p.spans);
  }
  return run;
}

void SelectEveryCandidate(cloudviews::SelectionConfig* selection) {
  selection->policy = cloudviews::SelectionConfig::Policy::kTopKUtility;
  selection->top_k = std::numeric_limits<int>::max();
  selection->min_runtime_seconds = 0;
  selection->min_cost_fraction_of_job = 0;
  selection->max_per_job = 0;
}

std::vector<int> SeededPermutation(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  cloudviews::Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

Hash128 FingerprintOutput(CloudViews* cv, const std::string& stream) {
  auto handle = cv->storage()->OpenStream(stream);
  if (!handle.ok()) return Hash128{};
  return cloudviews::net::FingerprintStream(**handle);
}

Hash128 SelectedSetHash(const cloudviews::AnalysisResult& a) {
  std::vector<Hash128> sigs;
  for (const auto& agg : a.selected) sigs.push_back(agg.normalized);
  std::sort(sigs.begin(), sigs.end());
  cloudviews::HashBuilder hb;
  for (const Hash128& s : sigs) hb.Add(s);
  return hb.Finish();
}

PlanCacheDelta Delta(const cloudviews::PlanCache::Stats& before,
                     const cloudviews::PlanCache::Stats& after) {
  PlanCacheDelta d;
  d.full = after.hits_full - before.hits_full;
  d.skeleton = after.hits_skeleton - before.hits_skeleton;
  d.miss = after.misses - before.misses;
  d.invalidations = (after.epoch_invalidations - before.epoch_invalidations) +
                    (after.demotions - before.demotions);
  return d;
}

int64_t ViewBytes(CloudViews* cv) {
  int64_t bytes = 0;
  for (const std::string& name : cv->storage()->ListStreams("/views/")) {
    auto handle = cv->storage()->OpenStream(name);
    if (handle.ok()) bytes += (*handle)->total_bytes;
  }
  return bytes;
}

void ProbeWrites(CloudViews* cv, SpanLog* log) {
  constexpr int kProbes = 32;
  constexpr size_t kRows = 256;
  cloudviews::Schema schema({{"k", cloudviews::DataType::kInt64},
                             {"v", cloudviews::DataType::kString}});
  cloudviews::Batch batch(schema);
  for (size_t i = 0; i < kRows; ++i) {
    (void)batch.AppendRow({cloudviews::Value::Int64(static_cast<int64_t>(i)),
                           cloudviews::Value::String("probe-row")});
  }
  for (int i = 0; i < kProbes; ++i) {
    std::string name = "perfbench_probe_" + std::to_string(i);
    cloudviews::StreamData data = cloudviews::MakeStreamData(
        name, "guid-" + name, schema, {batch}, cv->clock()->Now());
    {
      ScopedSpan span(log, "storage.write", 0);
      (void)cv->storage()->WriteStream(std::move(data));
    }
    (void)cv->storage()->DeleteStream(name);
  }
}

ServiceSnapshot ServiceSnapshot::Take(CloudViews* cv) {
  ServiceSnapshot s;
  s.cache = cv->job_service()->plan_cache().stats();
  s.metadata = cv->metadata()->counters();
  s.epoch = cv->metadata()->CatalogEpoch();
  return s;
}

void FillServiceLayers(CloudViews* cv, const ServiceSnapshot& start,
                       uint64_t jobs, WorkloadRun* run) {
  ServiceSnapshot end = ServiceSnapshot::Take(cv);
  PlanCacheDelta tiers = Delta(start.cache, end.cache);
  const double n = static_cast<double>(std::max<uint64_t>(jobs, 1));
  auto& l = run->layers;
  l["runtime.plan_cache_full_frac"] = static_cast<double>(tiers.full) / n;
  l["runtime.plan_cache_skeleton_frac"] =
      static_cast<double>(tiers.skeleton) / n;
  l["runtime.plan_cache_miss_frac"] = static_cast<double>(tiers.miss) / n;
  l["runtime.plan_cache_invalidations"] =
      1000.0 * static_cast<double>(tiers.invalidations) / n;
  l["runtime.repository_jobs"] =
      static_cast<double>(cv->repository()->NumJobs());
  uint64_t denied = end.metadata.locks_denied - start.metadata.locks_denied;
  uint64_t registered =
      end.metadata.views_registered - start.metadata.views_registered;
  l["metadata.lock_denied_frac"] =
      denied + registered == 0
          ? 0
          : static_cast<double>(denied) /
                static_cast<double>(denied + registered);
  l["metadata.epoch_bumps"] =
      1000.0 * static_cast<double>(end.epoch - start.epoch) / n;
  l["metadata.views_registered"] =
      static_cast<double>(cv->metadata()->NumRegisteredViews());
  l["storage.streams"] = static_cast<double>(cv->storage()->NumStreams());
  l["storage.view_mb"] = static_cast<double>(ViewBytes(cv)) / (1 << 20);
  const SpanLog& spans = run->spans;
  l["storage.write_us"] = Median(spans.Durations("storage.write")) * 1e6;
  l["storage.purge_ms"] = Median(spans.Durations("storage.purge")) * 1e3;
  l["analyzer.run_ms"] = Median(spans.Durations("analyzer.run")) * 1e3;
}

void ReuseTally::Add(int materialized, int reused, int subsumed, int rejected,
                     int verified) {
  views_materialized += static_cast<uint64_t>(materialized);
  views_reused += static_cast<uint64_t>(reused);
  jobs_reusing += reused > 0 ? 1 : 0;
  views_subsumed += static_cast<uint64_t>(subsumed);
  reuse_rejected += static_cast<uint64_t>(rejected);
  containment_verified += static_cast<uint64_t>(verified);
}

void ReuseTally::Merge(const ReuseTally& o) {
  views_materialized += o.views_materialized;
  views_reused += o.views_reused;
  jobs_reusing += o.jobs_reusing;
  views_subsumed += o.views_subsumed;
  reuse_rejected += o.reuse_rejected;
  containment_verified += o.containment_verified;
}

void ReuseTally::FillLayers(uint64_t jobs, WorkloadRun* run) const {
  auto ratio = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  auto& l = run->layers;
  l["optimizer.reuse_frac"] = ratio(jobs_reusing, jobs);
  l["optimizer.subsumed_frac"] = ratio(views_subsumed, views_reused);
  l["optimizer.reuse_rejected_frac"] =
      ratio(reuse_rejected, views_reused + reuse_rejected);
  l["optimizer.views_materialized"] = static_cast<double>(views_materialized);
}

// --- InProcessSubmitter ----------------------------------------------------

namespace {

void CollectInputs(const cloudviews::PlanNode& node,
                   std::vector<std::string>* out) {
  if (node.kind() == cloudviews::OpKind::kExtract) {
    out->push_back(
        static_cast<const cloudviews::ExtractNode&>(node).stream_name());
  }
  for (const auto& child : node.children()) CollectInputs(*child, out);
}

}  // namespace

void InProcessSubmitter::Probe(const JobDefinition& def, uint64_t trace_id) {
  // Probes run on a clone so the submitted plan is untouched.
  cloudviews::PlanNodePtr plan = def.logical_plan->Clone();
  {
    ScopedSpan span(log_, "signature.compute", trace_id);
    (void)cloudviews::ComputeSignatures(*plan);
  }
  std::vector<cloudviews::SubgraphEntry> subgraphs;
  {
    ScopedSpan span(log_, "signature.enumerate", trace_id);
    subgraphs = cloudviews::EnumerateSubgraphs(plan);
  }
  {
    ScopedSpan span(log_, "metadata.probe", trace_id);
    cloudviews::MetadataService* md = cv_->metadata();
    (void)md->GetRelevantViews(def.tags.empty()
                                   ? cloudviews::JobService::DefaultTags(def)
                                   : def.tags);
    for (const auto& entry : subgraphs) {
      (void)md->FindMaterialized(entry.sigs.normalized, entry.sigs.precise);
    }
  }
  std::vector<std::string> inputs;
  CollectInputs(*plan, &inputs);
  for (const std::string& input : inputs) {
    ScopedSpan span(log_, "storage.open", trace_id);
    (void)cv_->storage()->OpenStream(input);
  }
}

const JobResult* InProcessSubmitter::Submit(const JobDefinition& def) {
  const uint64_t trace_id = next_trace_++;
  const bool traced = log_->enabled();
  if (traced) Probe(def, trace_id);

  double cpu0 = ProcessCpuSeconds();
  int span = log_->Begin("runtime.submit", trace_id);
  double t0 = MonotonicNowSeconds();
  auto result = cv_->Submit(def, /*enable_cloudviews=*/true);
  double t1 = MonotonicNowSeconds();
  log_->End(span);
  double cpu1 = ProcessCpuSeconds();

  ++jobs_;
  segment_.latencies.push_back(t1 - t0);
  AddTimed(t1 - t0, cpu1 - cpu0);
  if (!result.ok()) {
    ++failed_;
    return nullptr;
  }
  ++segment_.completed;
  last_ = std::move(result).ValueOrDie();
  const JobResult& r = last_;
  reuse_.Add(r.views_materialized, r.views_reused, r.views_reused_subsumed,
             r.reuse_rejected_by_cost, r.containment_verified);

  if (traced) {
    log_->AddReported("optimizer.compile", span, r.compile_seconds);
    log_->AddReported("exec.execute", span, r.run_stats.latency_seconds);
    // A full-tier hit leaves a "plan_cache" span in the job's own trace.
    bool full_tier = r.trace != nullptr && r.trace->Find("plan_cache");
    if (!full_tier) compile_cold_s_.push_back(r.compile_seconds);
    execute_s_.push_back(r.run_stats.latency_seconds);
    exec_cpu_s_.push_back(r.run_stats.cpu_seconds);
    for (const auto& [id, op] : r.run_stats.operators) {
      (void)id;
      op_cpu_s_[static_cast<size_t>(op.kind)] += op.cpu_seconds;
      op_rows_ += op.rows;
      op_cpu_total_s_ += op.cpu_seconds;
    }
  }
  return &last_;
}

void InProcessSubmitter::CloseSegment() {
  segments_.push_back(std::move(segment_));
  segment_ = Segment();
}

void InProcessSubmitter::Finish(WorkloadRun* run) {
  if (!segment_.latencies.empty()) CloseSegment();
  run->attempted += jobs_;
  run->failed += failed_;
  run->segments = std::move(segments_);
  run->Count("views_materialized", reuse_.views_materialized);
  run->Count("views_reused", reuse_.views_reused);
  run->Count("jobs_reusing", reuse_.jobs_reusing);
  run->Count("views_reused_subsumed", reuse_.views_subsumed);
  run->Count("reuse_rejected_by_cost", reuse_.reuse_rejected);
  run->Count("containment_verified", reuse_.containment_verified);
  if (!log_->enabled()) return;

  reuse_.FillLayers(jobs_, run);
  const double jobs = static_cast<double>(std::max<uint64_t>(jobs_, 1));
  auto& l = run->layers;
  l["runtime.submit_ms"] = Median(log_->Durations("runtime.submit")) * 1e3;
  l["runtime.self_ms"] = Median(log_->SelfTimes("runtime.submit")) * 1e3;
  l["signature.compute_us"] =
      Median(log_->Durations("signature.compute")) * 1e6;
  l["signature.enumerate_us"] =
      Median(log_->Durations("signature.enumerate")) * 1e6;
  l["metadata.probe_us"] = Median(log_->Durations("metadata.probe")) * 1e6;
  l["storage.open_us"] = Median(log_->Durations("storage.open")) * 1e6;
  l["optimizer.compile_ms"] = Median(compile_cold_s_) * 1e3;
  l["exec.execute_ms"] = Median(execute_s_) * 1e3;
  l["exec.cpu_ms"] = Mean(exec_cpu_s_) * 1e3;
  for (size_t k = 0; k < op_cpu_s_.size(); ++k) {
    std::string kind = cloudviews::OpKindToString(
        static_cast<cloudviews::OpKind>(static_cast<int>(k)));
    std::transform(kind.begin(), kind.end(), kind.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    l["exec.op." + kind + ".cpu_ms"] = op_cpu_s_[k] / jobs * 1e3;
  }
  l["exec.rows_per_cpu_s"] =
      op_cpu_total_s_ > 0 ? op_rows_ / op_cpu_total_s_ : 0;
}

}  // namespace perfbench
