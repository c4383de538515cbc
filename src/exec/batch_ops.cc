#include "exec/batch_ops.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <string_view>

namespace cloudviews {

void HashNonNullCell(const Column& col, size_t row, HashBuilder* hb) {
  switch (col.type()) {
    case DataType::kBool:
      hb->Add(col.bool_data()[row] != 0);
      break;
    case DataType::kInt64:
    case DataType::kDate:
      hb->Add(col.int64_data()[row]);
      break;
    case DataType::kDouble:
      hb->Add(col.double_data()[row]);
      break;
    case DataType::kString:
      hb->Add(std::string_view(col.string_data()[row]));
      break;
  }
}

namespace {

/// Feeds cell `row` of `col` to `hb` exactly as Value::HashInto feeds the
/// boxed cell.
void HashCell(const Column& col, size_t row, HashBuilder* hb) {
  if (col.IsNull(row)) {
    hb->Add(uint64_t{0xdeadULL});
    return;
  }
  HashNonNullCell(col, row, hb);
}

/// A double as a group key: its bits, with -0.0 read as 0.0.
uint64_t DoubleKeyBits(double v) {
  return std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
}

/// Folds one key column into the running row hashes; `bits(r)` is the
/// non-null cell r as 64 bits.
template <typename Bits>
void MixKeyColumn(const Column& col, Bits bits, std::vector<uint64_t>* hashes) {
  constexpr uint64_t kNullBits = 0x6e756c6c6b6579ULL;
  uint64_t* h = hashes->data();
  const size_t rows = hashes->size();
  if (!col.HasNulls()) {
    for (size_t r = 0; r < rows; ++r) h[r] = Mix64(h[r] ^ bits(r));
    return;
  }
  for (size_t r = 0; r < rows; ++r) {
    h[r] = Mix64(h[r] ^ (col.IsNull(r) ? kNullBits : bits(r)));
  }
}

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Value::Compare of cell `ra` of `a` against cell `rb` of `b`, read from
/// the typed vectors when both columns have one type.
int CompareCells(const Column& a, size_t ra, const Column& b, size_t rb) {
  if (a.type() != b.type()) {
    // A pair of different types (int64 against double or date in a merge
    // join) keeps Value::Compare's numeric widening.
    // NOLINTNEXTLINE(boxed-cell): the mixed-type reference fallback.
    return a.GetValue(ra).Compare(b.GetValue(rb));
  }
  const bool a_null = a.IsNull(ra);
  const bool b_null = b.IsNull(rb);
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? -1 : 1);
  switch (a.type()) {
    case DataType::kBool:
      return ThreeWay(a.bool_data()[ra] != 0, b.bool_data()[rb] != 0);
    case DataType::kInt64:
    case DataType::kDate:
      return ThreeWay(a.int64_data()[ra], b.int64_data()[rb]);
    case DataType::kDouble:
      return ThreeWay(a.double_data()[ra], b.double_data()[rb]);
    case DataType::kString:
      return a.string_data()[ra].compare(b.string_data()[rb]);
  }
  return 0;
}

}  // namespace

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> idx;
  idx.reserve(names.size());
  for (const auto& n : names) {
    int i = schema.FieldIndex(n);
    if (i < 0) {
      return Status::Internal("executor: column '" + n + "' not found");
    }
    idx.push_back(i);
  }
  return idx;
}

Hash128 RowKey(const Batch& batch, size_t row, const std::vector<int>& cols) {
  HashBuilder hb;
  for (int c : cols) HashCell(batch.column(static_cast<size_t>(c)), row, &hb);
  return hb.Finish();
}

std::vector<uint64_t> GroupKeyHashes(const Batch& batch,
                                     const std::vector<int>& cols) {
  std::vector<uint64_t> hashes(batch.num_rows(), 0);
  for (int c : cols) {
    const Column& col = batch.column(static_cast<size_t>(c));
    switch (col.type()) {
      case DataType::kBool: {
        const uint8_t* v = col.bool_data().data();
        MixKeyColumn(col, [v](size_t r) { return uint64_t{v[r] != 0}; },
                     &hashes);
        break;
      }
      case DataType::kInt64:
      case DataType::kDate: {
        const int64_t* v = col.int64_data().data();
        MixKeyColumn(
            col, [v](size_t r) { return static_cast<uint64_t>(v[r]); },
            &hashes);
        break;
      }
      case DataType::kDouble: {
        const double* v = col.double_data().data();
        MixKeyColumn(col, [v](size_t r) { return DoubleKeyBits(v[r]); },
                     &hashes);
        break;
      }
      case DataType::kString: {
        const std::string* v = col.string_data().data();
        MixKeyColumn(
            col,
            [v](size_t r) {
              return static_cast<uint64_t>(
                  std::hash<std::string_view>()(v[r]));
            },
            &hashes);
        break;
      }
    }
  }
  return hashes;
}

bool SameGroupKey(const Batch& a, size_t ra, const Batch& b, size_t rb,
                  const std::vector<int>& cols) {
  for (int c : cols) {
    const Column& x = a.column(static_cast<size_t>(c));
    const Column& y = b.column(static_cast<size_t>(c));
    const bool x_null = x.IsNull(ra);
    if (x_null != y.IsNull(rb)) return false;
    if (x_null) continue;
    bool same = true;
    switch (x.type()) {
      case DataType::kBool:
        same = (x.bool_data()[ra] != 0) == (y.bool_data()[rb] != 0);
        break;
      case DataType::kInt64:
      case DataType::kDate:
        same = x.int64_data()[ra] == y.int64_data()[rb];
        break;
      case DataType::kDouble:
        same = DoubleKeyBits(x.double_data()[ra]) ==
               DoubleKeyBits(y.double_data()[rb]);
        break;
      case DataType::kString:
        same = x.string_data()[ra] == y.string_data()[rb];
        break;
    }
    if (!same) return false;
  }
  return true;
}

void GroupTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.group == kEmpty) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].group != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::vector<std::vector<uint32_t>> HashPartitionRows(
    const Batch& batch, const std::vector<int>& cols, size_t count) {
  std::vector<std::vector<uint32_t>> parts(count);
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    parts[RowKey(batch, r, cols).lo % static_cast<uint64_t>(count)]
        .push_back(static_cast<uint32_t>(r));
  }
  return parts;
}

int CompareRowsOnColumns(const Batch& a, size_t ra, const std::vector<int>& ca,
                         const Batch& b, size_t rb,
                         const std::vector<int>& cb) {
  for (size_t k = 0; k < ca.size(); ++k) {
    int cmp = CompareCells(a.column(static_cast<size_t>(ca[k])), ra,
                           b.column(static_cast<size_t>(cb[k])), rb);
    if (cmp != 0) return cmp;
  }
  return 0;
}

ResolvedSortKeys ResolveSortKeys(const Schema& schema,
                                 const std::vector<SortKey>& keys) {
  ResolvedSortKeys resolved;
  for (const auto& k : keys) {
    int i = schema.FieldIndex(k.column);
    if (i < 0) continue;  // unknown keys are skipped (validated at bind)
    resolved.cols.push_back(i);
    resolved.ascending.push_back(k.ascending);
  }
  return resolved;
}

int CompareRowsSorted(const Batch& a, size_t ra, const Batch& b, size_t rb,
                      const ResolvedSortKeys& keys) {
  for (size_t k = 0; k < keys.cols.size(); ++k) {
    const size_t c = static_cast<size_t>(keys.cols[k]);
    int cmp = CompareCells(a.column(c), ra, b.column(c), rb);
    if (cmp != 0) return keys.ascending[k] ? cmp : -cmp;
  }
  return 0;
}

std::vector<uint32_t> StableSortOrder(const Batch& data,
                                      const ResolvedSortKeys& keys) {
  std::vector<uint32_t> order(data.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareRowsSorted(data, a, data, b, keys) < 0;
  });
  return order;
}

}  // namespace cloudviews
