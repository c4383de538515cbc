#ifndef CLOUDVIEWS_TYPES_BATCH_H_
#define CLOUDVIEWS_TYPES_BATCH_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace cloudviews {

/// One row of a sequence of batches (e.g. a morsel set): which batch, and
/// the row within it.
struct RowRef {
  uint32_t batch = 0;
  uint32_t row = 0;
};

/// \brief A single column of values (struct-of-arrays storage).
///
/// Bool and date payloads share storage with uint8/int64 respectively; the
/// type tag disambiguates. Nulls are tracked in an optional validity vector
/// (empty means all-valid), matching the common columnar-engine layout.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const;

  void Reserve(size_t n);
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();
  /// Appends any value; the value type must match (nulls always allowed).
  void AppendValue(const Value& v);
  /// Appends row i of other (same type) to this column.
  void AppendFrom(const Column& other, size_t i);
  /// Appends rows [begin, end) of other (same type) in bulk — the fast path
  /// morsel splitting and merging rely on.
  void AppendRangeFrom(const Column& other, size_t begin, size_t end);
  /// Selection-vector gather: appends rows `rows` of other (same type), in
  /// order. Equivalent to AppendFrom per row, validity included: the
  /// column gains a validity vector iff it copies a null.
  void AppendSelected(const Column& other, std::span<const uint32_t> rows);
  /// Gathers across columns: appends row `ref.row` of `*srcs[ref.batch]`
  /// (each of this column's type) for every ref, in order; same validity
  /// rule as AppendSelected.
  void AppendGathered(std::span<const Column* const> srcs,
                      std::span<const RowRef> refs);

  bool IsNull(size_t i) const {
    return !validity_.empty() && validity_[i] == 0;
  }
  bool HasNulls() const;

  /// Materializes element i as a Value (slow path; operators use the typed
  /// vectors below on hot paths).
  Value GetValue(size_t i) const;

  // Typed accessors; valid only when type() matches.
  const std::vector<uint8_t>& bool_data() const {
    return std::get<std::vector<uint8_t>>(data_);
  }
  const std::vector<int64_t>& int64_data() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  const std::vector<double>& double_data() const {
    return std::get<std::vector<double>>(data_);
  }
  const std::vector<std::string>& string_data() const {
    return std::get<std::vector<std::string>>(data_);
  }

  /// Actual byte footprint of the payload (strings measured exactly).
  int64_t ByteSize() const;

 private:
  void MarkValid();

  DataType type_;
  std::variant<std::vector<uint8_t>, std::vector<int64_t>,
               std::vector<double>, std::vector<std::string>>
      data_;
  std::vector<uint8_t> validity_;  // empty => all valid
};

/// \brief A horizontal chunk of rows sharing a Schema.
class Batch {
 public:
  Batch() = default;
  explicit Batch(const Schema& schema);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const;
  bool empty() const { return num_rows() == 0; }

  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends a full row of values; count/types must match the schema.
  Status AppendRow(const std::vector<Value>& row);

  /// Appends row i of `other` (same schema) to this batch.
  void AppendRowFrom(const Batch& other, size_t i);

  /// Appends rows [begin, end) of `other` (same schema) in bulk.
  void AppendRowsFrom(const Batch& other, size_t begin, size_t end);

  /// Appends rows `rows` of `other` (same schema), in order.
  void AppendSelected(const Batch& other, std::span<const uint32_t> rows);

  /// Appends row `ref.row` of `batches[ref.batch]` (each with this schema)
  /// for every ref, in order.
  void AppendGathered(const std::vector<Batch>& batches,
                      std::span<const RowRef> refs);

  /// Materializes row i (debug / test convenience).
  std::vector<Value> GetRow(size_t i) const;

  int64_t ByteSize() const;

  /// Multi-line "col=val, ..." rendering of up to limit rows.
  std::string ToString(size_t limit = 10) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_TYPES_BATCH_H_
