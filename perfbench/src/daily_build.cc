// daily_build: the paper's recurring daily cycle on one business unit
// (500 recurring templates over 120 input datasets), one submitter.
//
// Why this workload exists: it is write-heavy, with new inputs, outputs and
// online view builds every day, and every job compiles cold (the `@date`
// expression holes disable the plan cache's skeleton tier, and plans that
// materialize are never cached), so it is the workload for the optimizer,
// metadata and analyzer layers and for the plan-cache bypass.
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "types/value.h"
#include "workload.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using cloudviews::AnalysisResult;
using cloudviews::CloudViews;
using cloudviews::CloudViewsConfig;
using cloudviews::Hash128;
using cloudviews::JobDefinition;
using cloudviews::MonotonicNowSeconds;

/// Days of CloudViews-off history before the analyzer first runs; the
/// analyzer also re-mines this many most recent days after each day.
constexpr int kHistoryDays = 3;
/// Measured days per second of phase work (500 jobs a day), sized so a
/// phase takes about that long on the 4-core reference host.
constexpr double kDaysPerSecond = 1.0;
/// Share of each measured day's jobs whose outputs are checked against a
/// CloudViews-off run (a seeded sample).
constexpr double kCheckedShare = 0.25;

/// The seed picks the calendar window, and with it every input's data: the
/// generator seeds each input from its date. The template structure stays
/// the profile's own, so every seed runs the same mix of job shapes.
std::string DateOf(uint64_t seed, int day) {
  int64_t base = 0;
  cloudviews::ParseDate("2018-01-01", &base);
  return cloudviews::FormatDate(base + static_cast<int64_t>(seed % 4096) * 64 +
                                day);
}

uint64_t DaySeed(uint64_t seed, int day) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(day);
}

std::string OutputOf(int template_index, const std::string& date) {
  return cloudviews::StrFormat("out_t%d_%s", template_index, date.c_str());
}

cloudviews::ClusterProfile Profile(const RunOptions& opt) {
  cloudviews::ClusterProfile p = cloudviews::BusinessUnitProfile();
  p.num_templates = Scaled(p.num_templates, opt.scale, 40);
  p.num_input_datasets = Scaled(p.num_input_datasets, opt.scale, 12);
  return p;
}

struct Instance {
  std::unique_ptr<CloudViews> cv;
  std::unique_ptr<cloudviews::SyntheticWorkloadGenerator> gen;
  int day = 0;  // days simulated so far
  std::vector<AnalysisResult> analyses;
};

/// Runs the analyzer over the most recent kHistoryDays days.
AnalysisResult AnalyzeRecent(CloudViews* cv) {
  cloudviews::LogicalTime now = cv->clock()->Now();
  return cv->RunAnalyzerAndLoad(
      now - (kHistoryDays - 1) * cloudviews::kSecondsPerDay, now + 1);
}

bool Setup(const RunOptions& opt, Instance* inst, WorkloadRun* run) {
  CloudViewsConfig config;
  SelectEveryCandidate(&config.analyzer.selection);
  inst->cv = std::make_unique<CloudViews>(config);
  inst->gen =
      std::make_unique<cloudviews::SyntheticWorkloadGenerator>(Profile(opt));
  CloudViews* cv = inst->cv.get();
  for (int h = 0; h < kHistoryDays; ++h) {
    ++inst->day;
    cv->clock()->AdvanceSeconds(cloudviews::kSecondsPerDay);
    std::string date = DateOf(opt.seed, inst->day);
    inst->gen->WriteInputs(cv->storage(), date);
    std::vector<JobDefinition> jobs = inst->gen->Instance(date);
    for (int i : SeededPermutation(static_cast<int>(jobs.size()),
                                   DaySeed(opt.seed, inst->day))) {
      if (!cv->Submit(jobs[static_cast<size_t>(i)], false).ok()) {
        run->Check(false, "daily_build: history job failed");
        return false;
      }
    }
  }
  {
    ScopedSpan span(&run->spans, "analyzer.run", 0);
    inst->analyses.push_back(AnalyzeRecent(cv));
  }
  return true;
}

/// Generates `date`'s inputs into a throwaway store (benchmark work,
/// untimed) so that only the WriteStream calls into the service are timed.
std::vector<cloudviews::StreamData> GenerateInputs(
    const cloudviews::SyntheticWorkloadGenerator& gen,
    const std::string& date) {
  cloudviews::SimulatedClock clock(0);
  cloudviews::StorageManager staging(&clock);
  gen.WriteInputs(&staging, date);
  std::vector<cloudviews::StreamData> out;
  for (const std::string& name : staging.ListStreams()) {
    auto handle = staging.OpenStream(name);
    if (handle.ok()) out.push_back(**handle);
  }
  return out;
}

/// One checked output: measured day, template, measured fingerprint.
struct SampledOutput {
  int day = 0;
  int tmpl = 0;
  Hash128 fingerprint;
};

/// Fingerprints a seeded kCheckedShare of each measured day's outputs.
std::vector<SampledOutput> SampleOutputs(const RunOptions& opt,
                                         const Instance& inst,
                                         const std::vector<int>& days) {
  std::vector<SampledOutput> out;
  const auto templates = inst.gen->profile().num_templates;
  for (int day : days) {
    std::vector<int> order =
        SeededPermutation(templates, DaySeed(opt.seed ^ 0xc0ffee, day));
    order.resize(static_cast<size_t>(
        Scaled(kCheckedShare * static_cast<double>(templates), 1.0, 1)));
    for (int t : order) {
      out.push_back({day, t,
                     FingerprintOutput(inst.cv.get(),
                                       OutputOf(t, DateOf(opt.seed, day)))});
    }
  }
  return out;
}

/// Reruns the sampled jobs on a fresh CloudViews-off instance fed the same
/// inputs and compares outputs.
void CheckOutputs(const RunOptions& opt,
                  const cloudviews::SyntheticWorkloadGenerator& gen,
                  const std::vector<SampledOutput>& sample, WorkloadRun* run) {
  CloudViewsConfig config;
  config.enable_observability = false;
  CloudViews reference(config);
  cloudviews::JobServiceOptions plain;
  plain.enable_cloudviews = false;
  plain.enable_plan_cache = false;
  plain.record_in_repository = false;
  cloudviews::HashBuilder outputs;
  int day = -1;
  std::vector<JobDefinition> jobs;
  for (const SampledOutput& s : sample) {
    const std::string date = DateOf(opt.seed, s.day);
    if (s.day != day) {
      day = s.day;
      gen.WriteInputs(reference.storage(), date);
      jobs = gen.Instance(date);
    }
    auto r = reference.Submit(jobs[static_cast<size_t>(s.tmpl)], plain);
    outputs.Add(s.fingerprint);
    ++run->outputs_checked;
    if (!r.ok() || FingerprintOutput(&reference, OutputOf(s.tmpl, date)) !=
                       s.fingerprint) {
      ++run->output_mismatches;
    }
  }
  run->CountHash("outputs_hash", outputs.Finish());
}

}  // namespace

WorkloadRun DailyBuildPhase(const RunOptions& opt, bool traced) {
  WorkloadRun run;
  run.spans = SpanLog(traced);
  Instance inst;
  const double t0 = MonotonicNowSeconds();
  if (!Setup(opt, &inst, &run)) return run;
  run.setup_seconds.push_back(MonotonicNowSeconds() - t0);
  CloudViews* cv = inst.cv.get();
  SpanLog* log = &run.spans;

  const int days = Scaled(kDaysPerSecond * PhaseSeconds(opt), opt.scale, 2);
  ServiceSnapshot start = ServiceSnapshot::Take(cv);
  InProcessSubmitter submitter(cv, log);
  // Times one service call that is not a job as part of the day's segment.
  auto timed = [&](const char* span_name, auto&& fn) {
    double cpu0 = ProcessCpuSeconds();
    int span = log->Begin(span_name, 0);
    double t0 = MonotonicNowSeconds();
    fn();
    double t1 = MonotonicNowSeconds();
    log->End(span);
    submitter.AddTimed(t1 - t0, ProcessCpuSeconds() - cpu0);
  };
  std::vector<int> measured_days;
  uint64_t purged = 0;
  for (int d = 0; d < days; ++d) {
    ++inst.day;
    measured_days.push_back(inst.day);
    cv->clock()->AdvanceSeconds(cloudviews::kSecondsPerDay);
    std::string date = DateOf(opt.seed, inst.day);

    timed("storage.purge", [&] { purged += cv->PurgeExpired(); });
    for (cloudviews::StreamData& input : GenerateInputs(*inst.gen, date)) {
      input.created_at = cv->clock()->Now();
      timed("storage.write",
            [&] { (void)cv->storage()->WriteStream(std::move(input)); });
    }

    std::vector<JobDefinition> jobs = inst.gen->Instance(date);
    const ReuseTally before = submitter.reuse();
    for (int i : SeededPermutation(static_cast<int>(jobs.size()),
                                   DaySeed(opt.seed, inst.day))) {
      (void)submitter.Submit(jobs[static_cast<size_t>(i)]);
    }
    run.Check(
        submitter.reuse().views_materialized > before.views_materialized,
        "daily_build: a day built no view");
    run.Check(submitter.reuse().views_reused > before.views_reused,
              "daily_build: a day reused no view");

    timed("analyzer.run", [&] { inst.analyses.push_back(AnalyzeRecent(cv)); });
    submitter.CloseSegment();
  }
  run.peak_rss_mb = PeakRssMb();
  run.stored_mb =
      static_cast<double>(cv->storage()->TotalBytes()) / (1 << 20);

  ServiceSnapshot end = ServiceSnapshot::Take(cv);
  PlanCacheDelta tiers = Delta(start.cache, end.cache);
  const uint64_t jobs = submitter.jobs();
  uint64_t selected = 0;
  cloudviews::HashBuilder selected_hash;
  for (const AnalysisResult& a : inst.analyses) {
    selected += a.selected.size();
    selected_hash.Add(SelectedSetHash(a));
  }
  run.Count("views_selected", selected);
  run.CountHash("selected_hash", selected_hash.Finish());
  run.Count("subgraphs_mined", inst.analyses.back().subgraphs_mined);
  run.Count("measured_jobs", jobs);
  run.Count("streams_purged", purged);
  run.Count("plan_cache_full", tiers.full);
  run.Count("plan_cache_skeleton", tiers.skeleton);
  run.Count("plan_cache_miss", tiers.miss);
  run.Count("views_registered", cv->metadata()->NumRegisteredViews());
  submitter.Finish(&run);

  // Label check: every job compiles cold.
  run.Check(tiers.full + tiers.skeleton == 0,
            "daily_build: the plan cache served a job");

  if (traced) {
    ProbeWrites(cv, log);
    FillServiceLayers(cv, start, jobs, &run);
    run.layers["analyzer.subgraphs_mined"] =
        static_cast<double>(inst.analyses.back().subgraphs_mined);
    run.layers["analyzer.views_selected"] =
        static_cast<double>(inst.analyses.back().selected.size());
  }
  // Fingerprint the sample, release the measured instance, then verify.
  std::vector<SampledOutput> sample = SampleOutputs(opt, inst, measured_days);
  inst.cv.reset();
  CheckOutputs(opt, *inst.gen, sample, &run);
  return run;
}

}  // namespace perfbench
