#ifndef CLOUDVIEWS_OPTIMIZER_JOB_COUNTERS_H_
#define CLOUDVIEWS_OPTIMIZER_JOB_COUNTERS_H_

#include <cstddef>
#include <iterator>
#include <type_traits>

/// \file
/// The per-job counter table: what reuse did for one job (Sec 6.4). Each
/// row is X(type, field, metric, help):
///
///   type    `int` for tallies, `bool` for flags
///   field   the JobCounters member, and the job-profile JSON key
///   metric  the Prometheus counter; it advances once per successful job
///           by the field's value in the JobResult that SubmitJob returns
///   help    the metric's help text
///
/// Every copy is generated from this table: the JobCounters block that
/// OptimizedPlan, JobResult and net::JobOutcome carry, JobService's
/// metric registration and increments, the profile
/// JSON keys, and the wire codec. Adding a counter is one row here plus
/// the code that sets it; docs/job_profile_schema.md must list the row
/// (a test enforces it).
#define CV_JOB_COUNTERS(X)                                                   \
  X(int, views_reused, "cv_rewrite_views_reused_total",                      \
    "Subgraphs replaced by materialized-view scans")                         \
  X(int, views_materialized, "cv_rewrite_views_materialized_total",          \
    "Online view materializations injected")                                 \
  X(int, reuse_rejected_by_cost, "cv_rewrite_reuse_rejected_by_cost_total",  \
    "Reuse opportunities rejected by the cost model (Sec 6.3)")              \
  X(int, materialize_lock_denied,                                            \
    "cv_rewrite_materialize_lock_denied_total",                              \
    "Materializations skipped because another job holds the build lock")     \
  X(int, materialize_skipped_by_cost,                                        \
    "cv_rewrite_materialize_skipped_by_cost_total",                          \
    "Materializations skipped by the write-cost gate")                       \
  X(int, candidates_filtered, "cv_containment_candidates_filtered_total",    \
    "Containment candidates that passed the tier-1 feature filter and "      \
    "entered structural verification")                                       \
  X(int, containment_verified, "cv_containment_verified_total",              \
    "Containment candidates proven (structure + a live instance whose "      \
    "predicate contains the query's)")                                       \
  X(int, containment_rejected, "cv_containment_rejected_total",              \
    "Tier-1 containment survivors rejected during verification (structure "  \
    "mismatch, no live instance, predicate, cost, or unsafe compensation)")  \
  X(int, views_reused_subsumed, "cv_rewrite_views_reused_subsumed_total",    \
    "Subgraphs served from a subsuming view through a compensation plan "    \
    "(subset of cv_rewrite_views_reused_total)")                             \
  X(int, compensation_nodes_added, "cv_containment_compensation_nodes_total", \
    "Filter/Aggregate/Project compensation operators added around "          \
    "subsumed view reads")                                                   \
  X(int, views_fallback, "cv_jobs_views_fallback_total",                     \
    "View reads abandoned because the view was unavailable; the job "        \
    "re-ran its original plan (do-no-harm fallback)")                        \
  X(bool, lookup_degraded, "cv_jobs_lookup_degraded_total",                  \
    "Jobs that ran without reuse information after persistent "              \
    "metadata-lookup failures")                                              \
  X(int, piggyback_waits, "cv_sharing_piggyback_waits_total",                \
    "Build-lock denials the job waited out hoping to reuse the in-flight "   \
    "builder's view (one per denied signature)")                             \
  X(int, piggyback_hits, "cv_sharing_piggyback_hits_total",                  \
    "Piggyback waits that ended with the view registered; the job "          \
    "re-optimized against it instead of running reuse-blind")                \
  X(int, piggyback_timeouts, "cv_sharing_piggyback_timeouts_total",          \
    "Piggyback waits that timed out; the job kept its reuse-blind plan")     \
  X(int, piggyback_abandoned, "cv_sharing_piggyback_abandoned_total",        \
    "Piggyback waits cut short because the builder abandoned its lock (or "  \
    "its lease lapsed); the job kept its reuse-blind plan")

namespace cloudviews {

/// \brief One job's counters, one member per CV_JOB_COUNTERS row. Carried
/// as a base by every struct that reports them, so the members keep their
/// names (`result.views_reused`) everywhere.
struct JobCounters {
#define CV_JOB_COUNTER_FIELD(type, field, metric, help) type field{};
  CV_JOB_COUNTERS(CV_JOB_COUNTER_FIELD)
#undef CV_JOB_COUNTER_FIELD

  /// Adds every tally of `other` into this block; flags are or-ed.
  void Add(const JobCounters& other);
};

/// Static description of one table row.
struct JobCounterInfo {
  const char* field;
  const char* metric;
  const char* help;
};

inline constexpr JobCounterInfo kJobCounterInfo[] = {
#define CV_JOB_COUNTER_INFO(type, field, metric, help) {#field, metric, help},
    CV_JOB_COUNTERS(CV_JOB_COUNTER_INFO)
#undef CV_JOB_COUNTER_INFO
};

inline constexpr size_t kNumJobCounters = std::size(kJobCounterInfo);

/// Calls `fn(index, value)` for every row in table order; `index` selects
/// the row's kJobCounterInfo entry and `value` is the member itself (`int&`
/// or `bool&`, const when `counters` is).
template <typename Counters, typename Fn>
void ForEachJobCounter(Counters& counters, Fn&& fn) {
  static_assert(std::is_base_of_v<JobCounters, std::remove_const_t<Counters>>);
  size_t index = 0;
#define CV_JOB_COUNTER_VISIT(type, field, metric, help) \
  fn(index++, counters.field);
  CV_JOB_COUNTERS(CV_JOB_COUNTER_VISIT)
#undef CV_JOB_COUNTER_VISIT
}

inline void JobCounters::Add(const JobCounters& other) {
  auto add = [](auto& into, auto from) {
    if constexpr (std::is_same_v<decltype(from), bool>) {
      into = into || from;
    } else {
      into += from;
    }
  };
#define CV_JOB_COUNTER_ADD(type, field, metric, help) \
  add(this->field, other.field);
  CV_JOB_COUNTERS(CV_JOB_COUNTER_ADD)
#undef CV_JOB_COUNTER_ADD
}

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_JOB_COUNTERS_H_
