#ifndef CLOUDVIEWS_TESTS_TEST_UTIL_H_
#define CLOUDVIEWS_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "exec/operator_stats.h"
#include "plan/plan_builder.h"
#include "runtime/job_service.h"
#include "storage/storage_manager.h"

namespace cloudviews {
namespace testing_util {

inline Schema ClickSchema() {
  return Schema({{"user", DataType::kInt64},
                 {"page", DataType::kString},
                 {"latency", DataType::kInt64},
                 {"when", DataType::kDate}});
}

/// Writes a synthetic click stream; deterministic in (seed, rows).
inline void WriteClickStream(StorageManager* storage,
                             const std::string& name, size_t rows,
                             uint64_t seed, const std::string& date_iso,
                             const std::string& guid = "") {
  Rng rng(seed);
  Batch b(ClickSchema());
  int64_t day = 0;
  ParseDate(date_iso, &day);
  static const char* kPages[] = {"/home", "/search", "/cart", "/about",
                                 "/checkout"};
  for (size_t i = 0; i < rows; ++i) {
    Status st = b.AppendRow(
        {Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
         Value::String(kPages[rng.Uniform(5)]),
         Value::Int64(static_cast<int64_t>(rng.Uniform(500))),
         Value::Date(day)});
    (void)st;
  }
  Status st = storage->WriteStream(
      MakeStreamData(name, guid.empty() ? "guid-" + name : guid,
                     ClickSchema(), {b}, storage->clock()->Now()));
  (void)st;
}

/// The shared computation of the reuse tests: filter + aggregate over one
/// day of clicks. `date` parameterizes the recurring instance.
inline PlanNodePtr SharedAggPlan(const std::string& date,
                                 const std::string& guid_suffix = "") {
  return PlanBuilder::Extract("clicks_{date}", "clicks_" + date,
                              "guid-clicks_" + date + guid_suffix,
                              ClickSchema())
      .Filter(Gt(Col("latency"), Lit(int64_t{50})))
      .Aggregate({"page"}, {{AggFunc::kCount, nullptr, "n"},
                            {AggFunc::kSum, Col("latency"), "total_latency"}})
      .Build();
}

/// CPU seconds of the subtree rooted at `node`, walked one id at a time
/// (pre-order node ids must be assigned: a subtree of size s rooted at id i
/// holds exactly ids [i, i + s)). The reference for the repository's
/// prefix-sum attribution.
inline double SubtreeCpuSeconds(const PlanNode& node,
                                const PlanRuntimeStats& stats) {
  int first = node.id();
  int last = first + static_cast<int>(node.SubtreeSize());
  double cpu = 0;
  for (int id = first; id < last; ++id) {
    auto it = stats.find(id);
    if (it != stats.end()) cpu += it->second.cpu_seconds;
  }
  return cpu;
}

/// The record the job service ingested for a run of `def`, rebuilt from its
/// result: it shares the executed plan, so its nodes are the ones the
/// repository's buckets point into. `submit_time` is the service clock's
/// time when the job completed.
inline JobRecord RecordOf(const JobDefinition& def, const JobResult& result,
                          LogicalTime submit_time) {
  JobRecord record;
  record.job_id = result.job_id;
  record.vc = def.vc;
  record.user = def.user;
  record.template_id = def.template_id;
  record.recurrence_period = def.recurrence_period;
  record.submit_time = submit_time;
  record.plan = result.executed_plan;
  record.run_stats = result.run_stats;
  return record;
}

}  // namespace testing_util
}  // namespace cloudviews

#endif  // CLOUDVIEWS_TESTS_TEST_UTIL_H_
