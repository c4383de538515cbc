#include "exec/executor.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "exec/batch_ops.h"
#include "exec/physical_operator.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace cloudviews {

Batch CombineBatches(const Schema& schema,
                     const std::vector<Batch>& batches) {
  Batch out(schema);
  for (const auto& b : batches) {
    out.AppendRowsFrom(b, 0, b.num_rows());
  }
  return out;
}

Batch SortBatch(const Batch& data, const std::vector<SortKey>& keys) {
  ResolvedSortKeys resolved = ResolveSortKeys(data.schema(), keys);
  Batch out(data.schema());
  out.AppendSelected(data, StableSortOrder(data, resolved));
  return out;
}

Result<std::vector<Batch>> PartitionBatch(const Batch& data,
                                          const Partitioning& partitioning) {
  int count = partitioning.partition_count > 0 ? partitioning.partition_count
                                               : 1;
  std::vector<Batch> parts;
  parts.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) parts.emplace_back(data.schema());

  switch (partitioning.scheme) {
    case PartitionScheme::kAny:
    case PartitionScheme::kSingleton: {
      parts[0] = data;
      return parts;
    }
    case PartitionScheme::kRoundRobin: {
      std::vector<std::vector<uint32_t>> rows(static_cast<size_t>(count));
      for (size_t r = 0; r < data.num_rows(); ++r) {
        rows[r % static_cast<size_t>(count)].push_back(
            static_cast<uint32_t>(r));
      }
      for (size_t p = 0; p < rows.size(); ++p) {
        parts[p].AppendSelected(data, rows[p]);
      }
      return parts;
    }
    case PartitionScheme::kHash: {
      CV_ASSIGN_OR_RETURN(std::vector<int> cols,
                          ResolveColumns(data.schema(),
                                         partitioning.columns));
      std::vector<std::vector<uint32_t>> rows =
          HashPartitionRows(data, cols, static_cast<size_t>(count));
      for (size_t p = 0; p < rows.size(); ++p) {
        parts[p].AppendSelected(data, rows[p]);
      }
      return parts;
    }
    case PartitionScheme::kRange: {
      // Approximate range partitioning: sort on the partition columns and
      // cut into equal-sized runs (the last partition takes the rest).
      std::vector<SortKey> keys;
      for (const auto& c : partitioning.columns) keys.push_back({c, true});
      Batch sorted = SortBatch(data, keys);
      size_t per = (sorted.num_rows() + static_cast<size_t>(count) - 1) /
                   static_cast<size_t>(count);
      if (per == 0) per = 1;
      for (size_t p = 0; p < parts.size(); ++p) {
        size_t begin = std::min(p * per, sorted.num_rows());
        size_t end = p + 1 == parts.size()
                         ? sorted.num_rows()
                         : std::min(begin + per, sorted.num_rows());
        parts[p].AppendRowsFrom(sorted, begin, end);
      }
      return parts;
    }
  }
  return Status::Internal("unknown partition scheme");
}

/// Shared (per Execute call) driver state.
struct Executor::ExecState {
  Mutex mu;
  /// Aggregate stats for the whole Execute call; concurrently-finishing
  /// operators insert their per-operator rows under mu.
  JobRunStats* stats PT_GUARDED_BY(mu) = nullptr;
};

namespace {

/// False when some node under `node` is reachable through two parents;
/// stops at the first node it meets twice.
bool IsTree(const PlanNode* node, std::unordered_set<const PlanNode*>* seen) {
  if (!seen->insert(node).second) return false;
  for (const auto& child : node->children()) {
    if (!IsTree(child.get(), seen)) return false;
  }
  return true;
}

}  // namespace

Executor::Executor(ExecContext ctx) : ctx_(std::move(ctx)) {
  if (ctx_.options.morsel_rows < 1) {
    ctx_.options.morsel_rows = ExecOptions{}.morsel_rows;
  }
  obs::MetricsRegistry* metrics =
      obs::SharedOrOwned(ctx_.metrics, &own_metrics_);
  morsels_ = metrics->GetCounter("cv_exec_morsels_total", {},
                                 "Morsels processed by all operators");
  rows_ = metrics->GetCounter("cv_exec_rows_total", {},
                              "Rows produced by all operators");
  bytes_ = metrics->GetCounter("cv_exec_bytes_total", {},
                               "Bytes produced by all operators");
}

Result<JobRunStats> Executor::Execute(const PlanNodePtr& root) {
  if (!root->bound()) {
    return Status::InvalidArgument("plan must be bound before execution");
  }
  std::unordered_set<const PlanNode*> seen;
  if (!IsTree(root.get(), &seen)) {
    return Status::InvalidArgument(
        "plan must be a tree: a node is reachable through two parents");
  }
  JobRunStats stats;
  ExecState state;
  state.stats = &stats;

  double start = ctx_.clock->NowSeconds();
  CV_ASSIGN_OR_RETURN(MorselSet result, ExecuteNode(root.get(), &state));
  stats.latency_seconds = ctx_.clock->NowSeconds() - start;
  for (const auto& [id, op] : stats.operators) {
    stats.cpu_seconds += op.cpu_seconds;
  }
  stats.output_rows = static_cast<double>(MorselRowCount(result));
  stats.output_bytes = static_cast<double>(MorselByteSize(result));
  return stats;
}

Result<MorselSet> Executor::ExecuteNode(PlanNode* node, ExecState* state) {
  double subtree_start = ctx_.clock->NowSeconds();

  // Children are independent subtrees: they run concurrently on the pool
  // (inline without one, or for a single child). Error reporting is
  // deterministic: the lowest-index failing child wins regardless of
  // completion order.
  size_t num_children = node->children().size();
  std::vector<MorselSet> inputs(num_children);
  std::vector<Status> child_status(num_children, Status::OK());
  ParallelFor(ctx_.pool, num_children, [&](size_t i) {
    auto r = ExecuteNode(node->children()[i].get(), state);
    if (r.ok()) {
      inputs[i] = std::move(r).ValueOrDie();
    } else {
      child_status[i] = r.status();
    }
  });
  for (auto& s : child_status) CV_RETURN_NOT_OK(s);

  // The operator's own work: open, phased morsel processing, close;
  // cpu_seconds is the thread-CPU time spent in it. Run inline, it all
  // happens on this thread, so one clock pair covers it (each read is a
  // system call). With a pool, every callback is timed on whichever worker
  // ran it and the deltas are summed: help-while-wait can run another
  // operator's tasks on a thread waiting here, so an outer timer would
  // charge them to this operator.
  CpuAccumulator cpu;
  CpuAccumulator* per_callback = ctx_.pool != nullptr ? &cpu : nullptr;
  OperatorContext octx;
  octx.exec = &ctx_;
  octx.pool = ctx_.pool;
  octx.morsel_rows = static_cast<size_t>(ctx_.options.morsel_rows);

  double own_start = ctx_.clock->NowSeconds();
  CV_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalOperator> op,
                      MakePhysicalOperator(node));
  uint64_t total_morsels = 0;
  MorselSet out;
  {
    ScopedThreadCpuTimer inline_timer(per_callback == nullptr ? &cpu
                                                              : nullptr);
    {
      ScopedThreadCpuTimer timer(per_callback);
      CV_RETURN_NOT_OK(op->Open(octx, std::move(inputs)));
    }
    for (size_t phase = 0; phase < op->num_phases(); ++phase) {
      {
        ScopedThreadCpuTimer timer(per_callback);
        CV_RETURN_NOT_OK(op->PreparePhase(octx, phase));
      }
      size_t n = op->NumMorsels(phase);
      total_morsels += n;
      std::vector<Status> morsel_status(n, Status::OK());
      ParallelFor(ctx_.pool, n, [&](size_t m) {
        ScopedThreadCpuTimer timer(per_callback);
        if (ctx_.fault != nullptr) {
          Status injected = ctx_.fault->MaybeInject(
              fault::points::kExecMorsel,
              std::to_string(ctx_.job_id) + ":" +
                  std::to_string(node->id()) + ":" +
                  std::to_string(phase) + ":" + std::to_string(m));
          if (!injected.ok()) {
            morsel_status[m] = std::move(injected);
            return;
          }
        }
        morsel_status[m] = op->ProcessMorsel(octx, phase, m);
      });
      // Deterministic error selection: lowest morsel index wins.
      for (auto& s : morsel_status) CV_RETURN_NOT_OK(s);
    }
    ScopedThreadCpuTimer timer(per_callback);
    CV_ASSIGN_OR_RETURN(out, op->Close(octx));
  }

  double end = ctx_.clock->NowSeconds();
  OperatorRuntimeStats op_stats;
  op_stats.node_id = node->id();
  op_stats.kind = node->kind();
  op_stats.rows = static_cast<double>(MorselRowCount(out));
  op_stats.bytes = static_cast<double>(MorselByteSize(out));
  op_stats.exclusive_seconds = end - own_start;
  // Wall span of the whole subtree. With parallel children this is the
  // real elapsed time (not the sum of child times), so the invariant
  // job latency >= root inclusive >= any exclusive still holds.
  op_stats.inclusive_seconds = end - subtree_start;
  op_stats.cpu_seconds = cpu.seconds();
  morsels_->Increment(total_morsels);
  rows_->Increment(static_cast<uint64_t>(op_stats.rows));
  bytes_->Increment(static_cast<uint64_t>(op_stats.bytes));
  {
    MutexLock lock(state->mu);
    state->stats->operators[node->id()] = op_stats;
  }
  return out;
}

}  // namespace cloudviews
