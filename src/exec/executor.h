#ifndef CLOUDVIEWS_EXEC_EXECUTOR_H_
#define CLOUDVIEWS_EXEC_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "exec/exec_options.h"
#include "exec/morsel.h"
#include "exec/operator_stats.h"
#include "fault/backoff.h"
#include "plan/plan_node.h"
#include "storage/storage_manager.h"

namespace cloudviews {

namespace fault {
class FaultInjector;
}  // namespace fault

class ThreadPool;
namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// \brief Per-job execution environment.
struct ExecContext {
  StorageManager* storage = nullptr;
  uint64_t job_id = 0;

  /// Registry for the executor counters (morsels, rows, bytes); null
  /// gives the executor a registry of its own.
  obs::MetricsRegistry* metrics = nullptr;

  /// Wall-time source for latency attribution. Injectable so span/latency
  /// tests are deterministic.
  MonotonicClock* clock = MonotonicClock::Real();

  /// Shared worker pool (owned by the job service, not by the job); null
  /// runs the plan single-threaded on the submitting thread.
  ThreadPool* pool = nullptr;
  ExecOptions options;

  /// Invoked when a SpoolNode finishes writing its view — *before* the rest
  /// of the job completes. This is the early-materialization hook
  /// (Sec 6.4): the job manager publishes the view to the metadata service
  /// from here so concurrent jobs can already reuse it.
  std::function<void(const SpoolNode&, const StreamData&)>
      on_view_materialized;

  /// Invoked when a SpoolNode's view write failed and the partial output
  /// was discarded ("do no harm": the job continues on the spool's input).
  /// The job manager releases the build lock from here.
  std::function<void(const SpoolNode&, const Status&)> on_view_abandoned;

  /// Fault-injection seam for exec.morsel (and, via storage, the
  /// storage.* points). Null disables injection.
  fault::FaultInjector* fault = nullptr;
  /// Backoff schedule for transient view-read retries.
  fault::RetryPolicy retry;
  /// Sleeps between retries; null means the real sleeper. Tests inject a
  /// RecordingSleeper so retries are instantaneous and assertable.
  fault::Sleeper* sleeper = nullptr;
};

/// \brief Morsel-driven executor over the storage manager.
///
/// Each plan node is run by a PhysicalOperator (open / process-morsel /
/// close); operators still fully materialize their outputs — as ordered
/// morsel sets — which keeps per-operator latency/cardinality/size
/// attribution exact, precisely the statistics the CloudViews feedback
/// loop consumes. Independent plan subtrees and intra-operator morsel work
/// are scheduled onto the shared thread pool; per-operator cpu_seconds are
/// the sum of thread-CPU deltas across every worker that touched the
/// operator. Results are byte-identical for every worker count and morsel
/// size. Plans must be bound, have node ids assigned and be trees (the
/// optimizer clones every plan it serves); a plan in which a node is
/// reachable through two parents is rejected before anything runs.
class Executor {
 public:
  /// Registers the executor counters into `ctx.metrics`.
  explicit Executor(ExecContext ctx);

  /// Runs the plan; job outputs (Output nodes) and views (Spool nodes) are
  /// written to storage. Returns aggregate + per-operator statistics.
  Result<JobRunStats> Execute(const PlanNodePtr& root);

 private:
  struct ExecState;

  Result<MorselSet> ExecuteNode(PlanNode* node, ExecState* state);

  ExecContext ctx_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter* morsels_;
  obs::Counter* rows_;
  obs::Counter* bytes_;
};

/// Concatenates batches into one (helper shared with storage/view code).
Batch CombineBatches(const Schema& schema, const std::vector<Batch>& batches);

/// Sorts `data` rows by the given keys (ascending/descending per key).
/// Used by the Sort operator and by view physical design enforcement.
Batch SortBatch(const Batch& data, const std::vector<SortKey>& keys);

/// Splits rows by hash of the partitioning columns; returns one batch per
/// partition (empty partitions included).
Result<std::vector<Batch>> PartitionBatch(const Batch& data,
                                          const Partitioning& partitioning);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_EXECUTOR_H_
