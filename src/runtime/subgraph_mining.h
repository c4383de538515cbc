#ifndef CLOUDVIEWS_RUNTIME_SUBGRAPH_MINING_H_
#define CLOUDVIEWS_RUNTIME_SUBGRAPH_MINING_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "exec/operator_stats.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// \brief One executed job: its metadata, the compiled physical plan, and
/// the observed runtime statistics — what the analyzer mines (Fig 6,
/// left). The repository mines it once at ingest and keeps only facts of
/// it and the plans its buckets point into (SubgraphBuckets).
struct JobRecord {
  uint64_t job_id = 0;
  std::string vc;
  std::string user;
  /// Recurring template identity ("same script template, new data").
  std::string template_id;
  /// Cadence of the template (hourly/daily/weekly); drives lineage-based
  /// view expiry (Sec 5.4).
  LogicalTime recurrence_period = kSecondsPerDay;
  LogicalTime submit_time = 0;
  /// Executed physical plan with node ids assigned.
  PlanNodePtr plan;
  JobRunStats run_stats;
};

/// \brief One computation template (normalized signature) aggregated over
/// every occurrence in a mined window.
struct SubgraphAggregate {
  Hash128 normalized;
  /// The earliest occurrence in the window: a node of that job's executed
  /// plan, which this pointer keeps alive. `root_kind`, `subtree_size` and
  /// the output schema are read off it, and the analyzer clones the
  /// containment definition skeleton from it. Occurrences are not
  /// interchangeable: a ViewRead hashes like the computation it replaced,
  /// so instances of one signature differ in size and shape, and another
  /// choice changes which views containment verifies.
  std::shared_ptr<const PlanNode> first;
  OpKind root_kind = OpKind::kExtract;
  size_t subtree_size = 0;

  /// Total occurrences (the paper's "overlap frequency").
  int64_t frequency = 0;
  /// Distinct jobs / precise instances containing it.
  std::set<uint64_t> jobs;
  std::set<std::string> users;
  std::set<std::string> vcs;
  std::set<std::string> templates;
  /// Input stream templates consumed inside the subgraph.
  std::set<std::string> input_templates;

  // Observed runtime statistics, summed over occurrences.
  double sum_rows = 0;
  double sum_bytes = 0;
  double sum_latency = 0;
  /// Latency of the containing job, summed per occurrence (for the
  /// view-to-query cost ratio of Fig 5d).
  double sum_job_latency = 0;

  /// Physical designs seen at this subgraph's output, by fingerprint: how
  /// many occurrences delivered it, and one occurrence that did (Sec 5.3:
  /// pick the most popular set).
  std::map<Hash128, std::pair<int, std::shared_ptr<const PlanNode>>> designs;

  /// Longest recurrence period of any job consuming the subgraph's inputs;
  /// the lineage-based view lifetime (Sec 5.4).
  LogicalTime max_recurrence_period = 0;

  double AvgRows() const { return frequency ? sum_rows / frequency : 0; }
  double AvgBytes() const { return frequency ? sum_bytes / frequency : 0; }
  double AvgLatency() const {
    return frequency ? sum_latency / frequency : 0;
  }
  /// Subgraph-latency / containing-job-latency (Fig 5d).
  double ViewToQueryCostRatio() const {
    return sum_job_latency > 0 ? sum_latency / sum_job_latency : 0;
  }
  /// Total utility = frequency x average runtime (Sec 7.1); the first
  /// occurrence must still be computed, so savings scale with freq - 1.
  double TotalUtility() const {
    return static_cast<double>(frequency - 1) * AvgLatency();
  }
  /// The most popular physical design at this subgraph's output (ties: the
  /// smallest fingerprint); unspecified when no design was seen.
  PhysicalProperties PopularDesign() const;

  bool IsOverlapping() const { return frequency >= 2; }
  /// Overlap across distinct jobs (Fig 1's "overlapping jobs" notion).
  bool SharedAcrossJobs() const { return jobs.size() >= 2; }
};

/// One job of a mined window: the facts of its record the analyzer reads,
/// and its subgraphs.
struct MinedJob {
  uint64_t job_id = 0;
  std::string user;
  std::string vc;
  std::string template_id;
  /// The run's JobRunStats::latency_seconds.
  double latency_seconds = 0;
  /// False when the record had no plan, so nothing of it was mined.
  bool has_plan = false;
  /// Normalized signature of each subgraph occurrence, in plan pre-order;
  /// empty when the record has no plan.
  std::vector<Hash128> subgraphs;
};

/// \brief Every subgraph of every job submitted in a window, aggregated by
/// normalized signature: the analyzer's input, and the data behind the
/// overlap report and the figure benches.
struct MinedWindow {
  std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher> aggregates;
  /// The window's jobs by submit time, then ingest order; records without
  /// a plan included.
  std::vector<MinedJob> jobs;
};

/// One reuse-candidate subgraph of an executed plan.
struct SubgraphOccurrence {
  const PlanNode* node = nullptr;
  Hash128 normalized;
  uint32_t subtree_size = 0;
  /// Fingerprint of the physical design delivered at its output.
  Hash128 design;
  /// Hash of the set of input templates it reads.
  Hash128 inputs;
  /// The node's observed statistics; null when the run recorded none.
  const OperatorRuntimeStats* stats = nullptr;
  /// CPU seconds of the whole subtree (0 when `stats` is null).
  double cpu = 0;
};

/// Enumerates every reuse-candidate subgraph of `record`'s plan once, in
/// pre-order (the order of EnumerateSubgraphs), with what the feedback
/// index and the buckets keep of it. Pure computation over the immutable
/// record; empty without a plan.
std::vector<SubgraphOccurrence> MineOccurrences(const JobRecord& record);

/// \brief The mined subgraphs of the ingested jobs, in one bucket per
/// submit time.
///
/// A bucket keeps, per normalized signature, the sums, tallies and first
/// occurrence of its jobs, and per job the facts MinedJob carries and the
/// keys of its occurrences. It copies no plan node, schema or design: a
/// first occurrence, and each design or input-set variant's witness, is a
/// node of its job's plan and shares ownership of that plan, so a plan
/// lives exactly as long as a bucket points into it. Nothing else of a
/// record outlives Add. Not thread-safe; WorkloadRepository guards it.
class SubgraphBuckets {
 public:
  /// Folds `record`, mined by MineOccurrences, into its submit time's
  /// bucket, pinning its plan only where the bucket points into it.
  void Add(const JobRecord& record,
           const std::vector<SubgraphOccurrence>& mined);

  /// Merges the buckets of submit times in [from, to), in time order: the
  /// definition is the first bucket's first occurrence, and the sums are
  /// added bucket by bucket.
  MinedWindow Merge(LogicalTime from, LogicalTime to) const;

 private:
  /// One distinct design, or input-template set, of an entry, and an
  /// occurrence that shows it.
  struct Variant {
    Hash128 key;
    int count = 0;
    std::shared_ptr<const PlanNode> witness;
  };
  /// One normalized signature within a bucket.
  struct Entry {
    Hash128 normalized;
    /// The bucket's first occurrence.
    std::shared_ptr<const PlanNode> first;
    uint32_t subtree_size = 0;
    int64_t frequency = 0;
    double rows = 0, bytes = 0, latency = 0, job_latency = 0;
    LogicalTime max_recurrence_period = 0;
    /// By design fingerprint, counting occurrences.
    std::vector<Variant> designs;
    /// By input-template set.
    std::vector<Variant> inputs;
  };
  struct Job {
    /// The job's facts; Merge fills a copy's `subgraphs`.
    MinedJob facts;
    /// This job's occurrences: keys[begin, end).
    uint32_t begin = 0, end = 0;
  };
  struct Bucket {
    std::vector<Entry> entries;
    std::unordered_map<Hash128, uint32_t, Hash128Hasher> index;
    std::vector<Job> jobs;
    /// The entry of each occurrence, job by job in plan pre-order.
    std::vector<uint32_t> keys;
  };

  /// Counts `key` in `variants`; a new one pins `witness`, a node of
  /// `plan`.
  static void AddVariant(std::vector<Variant>* variants, const Hash128& key,
                         const PlanNodePtr& plan, const PlanNode* witness);

  std::map<LogicalTime, Bucket> buckets_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_SUBGRAPH_MINING_H_
