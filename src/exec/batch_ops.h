#ifndef CLOUDVIEWS_EXEC_BATCH_OPS_H_
#define CLOUDVIEWS_EXEC_BATCH_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "plan/physical_properties.h"
#include "types/batch.h"

namespace cloudviews {

/// Maps column names to indices in `schema`; Internal error on a miss.
Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names);

/// Feeds the non-null cell `row` of `col` to `hb` exactly as
/// Value::HashInto feeds the boxed cell; how a null hashes is the caller's.
void HashNonNullCell(const Column& col, size_t row, HashBuilder* hb);

/// 128-bit key of the given columns of one row (used by hash join, hash
/// aggregate, and hash partitioning). Read from the typed column vectors,
/// it hashes exactly what Value::HashInto hashes for each cell, so hash
/// partition assignment is part of the stored-bytes contract.
Hash128 RowKey(const Batch& batch, size_t row, const std::vector<int>& cols);

/// Rows of `batch` per hash partition: element p lists, in row order, the
/// rows whose key on `cols` falls into partition p of `count`. The one
/// partition function of the Exchange operator and PartitionBatch.
std::vector<std::vector<uint32_t>> HashPartitionRows(
    const Batch& batch, const std::vector<int>& cols, size_t count);

/// Lexicographic comparison of row `ra` of `a` against row `rb` of `b` on
/// the given key columns, with the sign of Value::Compare: nulls first,
/// NaN equal to everything. Same-typed cells compare on the typed vectors;
/// a pair of different types (int64 against double or date) falls back to
/// Value::Compare's numeric widening.
int CompareRowsOnColumns(const Batch& a, size_t ra, const std::vector<int>& ca,
                         const Batch& b, size_t rb,
                         const std::vector<int>& cb);

/// Sort keys resolved against a schema; unknown keys are skipped (they are
/// validated at bind time), matching SortBatch.
struct ResolvedSortKeys {
  std::vector<int> cols;
  std::vector<bool> ascending;
  bool empty() const { return cols.empty(); }
};
ResolvedSortKeys ResolveSortKeys(const Schema& schema,
                                 const std::vector<SortKey>& keys);

/// Ordering of two rows under the resolved sort keys, with the sign of
/// Value::Compare per key (negated for descending keys).
int CompareRowsSorted(const Batch& a, size_t ra, const Batch& b, size_t rb,
                      const ResolvedSortKeys& keys);

/// Row permutation that stable-sorts `data` under the resolved keys.
std::vector<uint32_t> StableSortOrder(const Batch& data,
                                      const ResolvedSortKeys& keys);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_BATCH_OPS_H_
