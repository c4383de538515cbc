// What a workload run hands back to main(), and the in-process job
// submitter of the daily_build workload.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "core/cloudviews.h"
#include "harness.h"
#include "runtime/plan_cache.h"

namespace perfbench {

/// A fixed-work slice of the measured phase: a day, or a block of dates.
/// The phases of a run cut their work into the same segments, so segment i
/// of every phase does the same work.
struct Segment {
  /// Position within its phase.
  int position = 0;
  /// Wall seconds of the segment's timed calls.
  double seconds = 0;
  /// Service CPU seconds over the same calls (load generators excluded).
  double cpu_seconds = 0;
  uint64_t completed = 0;
  /// Per attempted job in completion order, seconds; a refused job is +inf
  /// (it missed every latency limit).
  std::vector<double> latencies;
};

/// A count the run prints; a deterministic one must repeat exactly for
/// the same seed (and across the phases of one run).
struct CountValue {
  std::string name;
  std::string value;
  bool deterministic = true;
};

/// One workload phase (set-up + measured phase + checks), or several
/// phases merged by RunPhases.
struct WorkloadRun {
  std::vector<double> setup_seconds;  // one per set-up
  uint64_t attempted = 0;
  /// Failed plus refused jobs.
  uint64_t failed = 0;
  std::vector<Segment> segments;
  double peak_rss_mb = 0;
  double stored_mb = 0;

  uint64_t outputs_checked = 0;
  uint64_t output_mismatches = 0;
  std::vector<std::string> check_failures;
  /// Printed in insertion order.
  std::vector<CountValue> counts;
  /// Per-layer metrics (traced run only), by name.
  std::map<std::string, double> layers;
  SpanLog spans{false};

  void Count(const std::string& name, uint64_t v, bool deterministic = true) {
    counts.push_back({name, std::to_string(v), deterministic});
  }
  void CountHash(const std::string& name, const cloudviews::Hash128& h) {
    counts.push_back({name, h.ToHex(), true});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// One phase of each workload.
WorkloadRun WireRecurringPhase(const RunOptions& opt, bool traced);
WorkloadRun DailyBuildPhase(const RunOptions& opt, bool traced);

/// Runs `phases` phases of `phase` and merges them: set-up times and
/// segments pool, peak RSS comes from the first phase, counts and per-layer
/// metrics from the last, and a deterministic count that differs between
/// phases fails the run.
using PhaseFn = WorkloadRun (*)(const RunOptions&, bool);
WorkloadRun RunPhases(PhaseFn phase, const RunOptions& opt, bool traced,
                      int phases);

// --- Shared helpers --------------------------------------------------------

/// Analyzer settings that make view selection independent of timing:
/// every candidate is selected (utility, which ranks by measured latency,
/// then only orders them) and no runtime or cost-fraction filter applies.
void SelectEveryCandidate(cloudviews::SelectionConfig* selection);

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<int> SeededPermutation(int n, uint64_t seed);

/// Output fingerprint of `stream`, or the zero hash when it is missing.
cloudviews::Hash128 FingerprintOutput(cloudviews::CloudViews* cv,
                                      const std::string& stream);

/// Hash of an analysis's selected normalized signatures (order-free).
cloudviews::Hash128 SelectedSetHash(const cloudviews::AnalysisResult& a);

/// Plan-cache tier counters over a phase.
struct PlanCacheDelta {
  uint64_t full = 0, skeleton = 0, miss = 0, invalidations = 0;
};
PlanCacheDelta Delta(const cloudviews::PlanCache::Stats& before,
                     const cloudviews::PlanCache::Stats& after);

/// Bytes held by materialized-view streams.
int64_t ViewBytes(cloudviews::CloudViews* cv);

/// Times WriteStream of job-sized probe streams at the end-state stream
/// count ("storage.write" spans), deleting each probe again.
void ProbeWrites(cloudviews::CloudViews* cv, SpanLog* log);

/// View-reuse counters summed over jobs.
struct ReuseTally {
  uint64_t views_materialized = 0;
  uint64_t views_reused = 0;
  uint64_t jobs_reusing = 0;
  uint64_t views_subsumed = 0;
  uint64_t reuse_rejected = 0;
  uint64_t containment_verified = 0;

  void Add(int materialized, int reused, int subsumed, int rejected,
           int verified);
  void Merge(const ReuseTally& other);
  /// The optimizer.* per-layer metrics over `jobs` jobs.
  void FillLayers(uint64_t jobs, WorkloadRun* run) const;
};

/// Plan-cache, catalog-counter and epoch state at one moment.
struct ServiceSnapshot {
  cloudviews::PlanCache::Stats cache;
  cloudviews::MetadataService::Counters metadata;
  uint64_t epoch = 0;
  static ServiceSnapshot Take(cloudviews::CloudViews* cv);
};

/// Fills the per-layer metrics every workload can read off the service
/// state at the end of the measured phase (plan cache, catalog, storage,
/// repository) and off the storage and analyzer spans.
void FillServiceLayers(cloudviews::CloudViews* cv, const ServiceSnapshot& start,
                       uint64_t jobs, WorkloadRun* run);

/// \brief Submits jobs in process through CloudViews::Submit, timing each
/// call as one job's latency and the process CPU it used. With a traced
/// span log it also probes, just before each submission, the layers the
/// submit path crosses internally (signatures, metadata, input streams),
/// and records the stages Submit reports back (compile, execute) as child
/// spans of the submit span.
class InProcessSubmitter {
 public:
  InProcessSubmitter(cloudviews::CloudViews* cv, SpanLog* log)
      : cv_(cv), log_(log) {}

  /// One measured submission; returns null and counts a failure when the
  /// job fails.
  const cloudviews::JobResult* Submit(const cloudviews::JobDefinition& def);

  /// Adds one timed call that is not a job (purge, input write, analyzer
  /// run) to the current segment.
  void AddTimed(double wall_seconds, double cpu_seconds) {
    segment_.seconds += wall_seconds;
    segment_.cpu_seconds += cpu_seconds;
  }

  /// Closes the current segment and starts the next.
  void CloseSegment();

  /// Moves the segments, counts and per-layer job metrics into `run`.
  void Finish(WorkloadRun* run);

  uint64_t jobs() const { return jobs_; }
  const ReuseTally& reuse() const { return reuse_; }

 private:
  void Probe(const cloudviews::JobDefinition& def, uint64_t trace_id);

  cloudviews::CloudViews* cv_;
  SpanLog* log_;
  cloudviews::JobResult last_;
  uint64_t next_trace_ = 1;

  Segment segment_;
  std::vector<Segment> segments_;
  uint64_t jobs_ = 0;
  uint64_t failed_ = 0;

  ReuseTally reuse_;
  // Traced run only.
  std::vector<double> compile_cold_s_;
  std::vector<double> execute_s_;
  std::vector<double> exec_cpu_s_;
  std::array<double, 14> op_cpu_s_{};
  double op_rows_ = 0;
  double op_cpu_total_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
