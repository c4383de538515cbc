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

/// 128-bit key of the given columns of one row (used by hash join and hash
/// partitioning). Read from the typed column vectors, it hashes exactly
/// what Value::HashInto hashes for each cell, so hash partition assignment
/// is part of the stored-bytes contract.
Hash128 RowKey(const Batch& batch, size_t row, const std::vector<int>& cols);

/// 64-bit hash of every row's key on `cols`, computed a column at a time
/// from the typed vectors. Rows that SameGroupKey puts in one group hash
/// alike. The values decide only where GroupTable probes, never an output,
/// so they are free to change between builds.
std::vector<uint64_t> GroupKeyHashes(const Batch& batch,
                                     const std::vector<int>& cols);

/// Whether row `ra` of `a` and row `rb` of `b` (same schema) fall into one
/// group on `cols`. Cells match when both are null, or both are non-null and
/// equal; doubles are equal iff their bits are, after -0.0 is read as 0.0,
/// so a NaN groups only with a NaN of the same bits. This is the equality
/// that RowKey's hash stands for, without its collisions.
bool SameGroupKey(const Batch& a, size_t ra, const Batch& b, size_t rb,
                  const std::vector<int>& cols);

/// \brief A flat open-addressing hash table that numbers groups densely,
/// in first-insertion order.
///
/// It holds only 64-bit key hashes and group ids: the caller keeps each
/// group's key and decides equality, so one table serves keys that live
/// in any batch.
class GroupTable {
 public:
  struct Entry {
    uint32_t group;
    bool inserted;
  };

  /// The group with this hash whose key `same_key(group)` accepts, or a new
  /// group numbered size() if there is none.
  template <typename SameKey>
  Entry FindOrInsert(uint64_t hash, SameKey same_key) {
    if (2 * (static_cast<size_t>(size_) + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.group == kEmpty) {
        slot = {hash, size_};
        return {size_++, true};
      }
      if (slot.hash == hash && same_key(slot.group)) {
        return {slot.group, false};
      }
    }
  }

  uint32_t size() const { return size_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint64_t hash = 0;
    uint32_t group = kEmpty;
  };

  /// Doubles the slot array (16 slots at first) and re-places every group.
  void Grow();

  std::vector<Slot> slots_;  // a power of two, at most half full
  uint32_t size_ = 0;
};

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
