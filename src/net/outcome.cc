#include "net/outcome.h"

#include "exec/batch_ops.h"
#include "plan/plan_node.h"
#include "types/batch.h"

namespace cloudviews {
namespace net {

Hash128 FingerprintStream(const StreamData& stream) {
  HashBuilder hb;
  hb.Add(std::string_view("stream-fingerprint-v1"));
  hb.Add(static_cast<uint64_t>(stream.schema.num_fields()));
  for (const Field& f : stream.schema.fields()) {
    hb.Add(std::string_view(f.name));
    hb.Add(static_cast<uint64_t>(f.type));
  }
  for (const Batch& batch : stream.batches) {
    size_t rows = batch.num_rows();
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        const Column& col = batch.column(c);
        if (col.IsNull(r)) {
          hb.Add(std::string_view("null"));
        } else {
          HashNonNullCell(col, r, &hb);
        }
      }
    }
  }
  return hb.Finish();
}

JobOutcome OutcomeFromJobResult(const JobResult& result,
                                const StorageManager* storage) {
  JobOutcome o;
  static_cast<JobCounters&>(o) = result;
  o.job_id = result.job_id;
  o.catalog_epoch = result.catalog_epoch;
  o.output_rows = result.run_stats.output_rows;
  o.output_bytes = result.run_stats.output_bytes;
  o.plan_cache_hit = result.plan_cache_hit;
  if (storage != nullptr && result.executed_plan != nullptr &&
      result.executed_plan->kind() == OpKind::kOutput) {
    const auto& out_node =
        static_cast<const OutputNode&>(*result.executed_plan);
    auto handle = storage->OpenStream(out_node.stream_name());
    if (handle.ok()) {
      o.output_fingerprint = FingerprintStream(**handle);
    }
    // A missing output stream leaves the zero fingerprint: the byte-identity
    // check then compares zero against zero only if both sides failed the
    // same way, so a one-sided read failure still shows up as a mismatch in
    // rows/bytes.
  }
  return o;
}

WireTimings TimingsFromJobResult(const JobResult& result) {
  WireTimings t;
  t.latency_seconds = result.run_stats.latency_seconds;
  t.cpu_seconds = result.run_stats.cpu_seconds;
  t.compile_seconds = result.compile_seconds;
  t.metadata_lookup_seconds = result.metadata_lookup_seconds;
  t.estimated_cost = result.estimated_cost;
  return t;
}

}  // namespace net
}  // namespace cloudviews
