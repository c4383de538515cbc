#include "types/batch.h"

#include <cassert>

#include "common/string_util.h"

namespace cloudviews {

namespace {

/// Extends `validity` (empty means all valid), which covers `old_size`
/// rows, by `n` gathered rows whose flags `valid_at(k)` gives. As with
/// per-row AppendFrom, the vector is created only when a null is copied.
/// `nullable` is false when no source has a validity vector.
template <typename ValidAt>
void ExtendValidity(std::vector<uint8_t>* validity, size_t old_size,
                    size_t n, bool nullable, ValidAt valid_at) {
  if (validity->empty()) {
    size_t first_null = 0;
    while (nullable && first_null < n && valid_at(first_null)) ++first_null;
    if (!nullable || first_null == n) return;
    validity->assign(old_size + first_null, 1);
    for (size_t k = first_null; k < n; ++k) {
      validity->push_back(valid_at(k) ? 1 : 0);
    }
    return;
  }
  if (!nullable) {
    validity->insert(validity->end(), n, 1);
    return;
  }
  for (size_t k = 0; k < n; ++k) validity->push_back(valid_at(k) ? 1 : 0);
}

}  // namespace

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kBool:
      data_ = std::vector<uint8_t>();
      break;
    case DataType::kInt64:
    case DataType::kDate:
      data_ = std::vector<int64_t>();
      break;
    case DataType::kDouble:
      data_ = std::vector<double>();
      break;
    case DataType::kString:
      data_ = std::vector<std::string>();
      break;
  }
}

size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

void Column::Reserve(size_t n) {
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

void Column::MarkValid() {
  if (!validity_.empty()) validity_.push_back(1);
}

void Column::AppendBool(bool v) {
  std::get<std::vector<uint8_t>>(data_).push_back(v ? 1 : 0);
  MarkValid();
}

void Column::AppendInt64(int64_t v) {
  std::get<std::vector<int64_t>>(data_).push_back(v);
  MarkValid();
}

void Column::AppendDouble(double v) {
  std::get<std::vector<double>>(data_).push_back(v);
  MarkValid();
}

void Column::AppendString(std::string v) {
  std::get<std::vector<std::string>>(data_).push_back(std::move(v));
  MarkValid();
}

void Column::AppendNull() {
  if (validity_.empty()) validity_.assign(size(), 1);
  std::visit([](auto& v) { v.emplace_back(); }, data_);
  validity_.push_back(0);
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  assert(v.type() == type_ ||
         // int64 and date share representation
         ((v.type() == DataType::kInt64 || v.type() == DataType::kDate) &&
          (type_ == DataType::kInt64 || type_ == DataType::kDate)));
  switch (type_) {
    case DataType::kBool:
      AppendBool(v.bool_value());
      break;
    case DataType::kInt64:
    case DataType::kDate:
      AppendInt64(v.type() == DataType::kDate ? v.date_value()
                                              : v.int64_value());
      break;
    case DataType::kDouble:
      AppendDouble(v.double_value());
      break;
    case DataType::kString:
      AppendString(v.string_value());
      break;
  }
}

void Column::AppendFrom(const Column& other, size_t i) {
  assert(other.type_ == type_);
  if (other.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
      AppendBool(other.bool_data()[i] != 0);
      break;
    case DataType::kInt64:
    case DataType::kDate:
      AppendInt64(other.int64_data()[i]);
      break;
    case DataType::kDouble:
      AppendDouble(other.double_data()[i]);
      break;
    case DataType::kString:
      AppendString(other.string_data()[i]);
      break;
  }
}

void Column::AppendRangeFrom(const Column& other, size_t begin, size_t end) {
  assert(other.type_ == type_);
  assert(begin <= end && end <= other.size());
  if (begin >= end) return;
  size_t old_size = size();
  std::visit(
      [&](auto& dst) {
        using Vec = std::remove_reference_t<decltype(dst)>;
        const Vec& src = std::get<Vec>(other.data_);
        dst.insert(dst.end(),
                   src.begin() + static_cast<ptrdiff_t>(begin),
                   src.begin() + static_cast<ptrdiff_t>(end));
      },
      data_);
  bool range_has_nulls = false;
  if (!other.validity_.empty()) {
    for (size_t i = begin; i < end; ++i) {
      if (other.validity_[i] == 0) {
        range_has_nulls = true;
        break;
      }
    }
  }
  if (range_has_nulls) {
    if (validity_.empty()) validity_.assign(old_size, 1);
    validity_.insert(validity_.end(),
                     other.validity_.begin() + static_cast<ptrdiff_t>(begin),
                     other.validity_.begin() + static_cast<ptrdiff_t>(end));
  } else if (!validity_.empty()) {
    validity_.insert(validity_.end(), end - begin, 1);
  }
}

void Column::AppendSelected(const Column& other,
                            std::span<const uint32_t> rows) {
  assert(other.type_ == type_);
  const size_t old_size = size();
  std::visit(
      [&](auto& dst) {
        using Vec = std::remove_reference_t<decltype(dst)>;
        const Vec& src = std::get<Vec>(other.data_);
        dst.resize(old_size + rows.size());
        for (size_t k = 0; k < rows.size(); ++k) {
          dst[old_size + k] = src[rows[k]];
        }
      },
      data_);
  ExtendValidity(&validity_, old_size, rows.size(), !other.validity_.empty(),
                 [&](size_t k) { return other.validity_[rows[k]] != 0; });
}

void Column::AppendGathered(std::span<const Column* const> srcs,
                            std::span<const RowRef> refs) {
  const size_t old_size = size();
  bool nullable = false;
  for (const Column* c : srcs) {
    assert(c->type_ == type_);
    nullable = nullable || !c->validity_.empty();
  }
  std::visit(
      [&](auto& dst) {
        using Vec = std::remove_reference_t<decltype(dst)>;
        std::vector<const Vec*> src(srcs.size());
        for (size_t i = 0; i < srcs.size(); ++i) {
          src[i] = &std::get<Vec>(srcs[i]->data_);
        }
        dst.resize(old_size + refs.size());
        for (size_t k = 0; k < refs.size(); ++k) {
          dst[old_size + k] = (*src[refs[k].batch])[refs[k].row];
        }
      },
      data_);
  ExtendValidity(&validity_, old_size, refs.size(), nullable, [&](size_t k) {
    return !srcs[refs[k].batch]->IsNull(refs[k].row);
  });
}

bool Column::HasNulls() const {
  for (uint8_t v : validity_) {
    if (v == 0) return true;
  }
  return false;
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bool_data()[i] != 0);
    case DataType::kInt64:
      return Value::Int64(int64_data()[i]);
    case DataType::kDate:
      return Value::Date(int64_data()[i]);
    case DataType::kDouble:
      return Value::Double(double_data()[i]);
    case DataType::kString:
      return Value::String(string_data()[i]);
  }
  return Value();
}

int64_t Column::ByteSize() const {
  int64_t bytes = static_cast<int64_t>(validity_.size());
  switch (type_) {
    case DataType::kBool:
      bytes += static_cast<int64_t>(bool_data().size());
      break;
    case DataType::kInt64:
    case DataType::kDate:
      bytes += static_cast<int64_t>(int64_data().size()) * 8;
      break;
    case DataType::kDouble:
      bytes += static_cast<int64_t>(double_data().size()) * 8;
      break;
    case DataType::kString:
      for (const auto& s : string_data()) {
        bytes += static_cast<int64_t>(s.size()) + 8;
      }
      break;
  }
  return bytes;
}

Batch::Batch(const Schema& schema) : schema_(schema) {
  columns_.reserve(schema.num_fields());
  for (const auto& f : schema.fields()) {
    columns_.emplace_back(f.type);
  }
}

size_t Batch::num_rows() const {
  return columns_.empty() ? 0 : columns_[0].size();
}

Status Batch::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, schema has %zu", row.size(),
                  columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
  return Status::OK();
}

void Batch::AppendRowFrom(const Batch& other, size_t i) {
  assert(other.num_columns() == num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.columns_[c], i);
  }
}

void Batch::AppendRowsFrom(const Batch& other, size_t begin, size_t end) {
  assert(other.num_columns() == num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRangeFrom(other.columns_[c], begin, end);
  }
}

void Batch::AppendSelected(const Batch& other,
                           std::span<const uint32_t> rows) {
  assert(other.num_columns() == num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendSelected(other.columns_[c], rows);
  }
}

void Batch::AppendGathered(const std::vector<Batch>& batches,
                           std::span<const RowRef> refs) {
  std::vector<const Column*> srcs(batches.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    for (size_t b = 0; b < batches.size(); ++b) {
      assert(batches[b].num_columns() == num_columns());
      srcs[b] = &batches[b].columns_[c];
    }
    columns_[c].AppendGathered(srcs, refs);
  }
}

std::vector<Value> Batch::GetRow(size_t i) const {
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const auto& c : columns_) row.push_back(c.GetValue(i));
  return row;
}

int64_t Batch::ByteSize() const {
  int64_t bytes = 0;
  for (const auto& c : columns_) bytes += c.ByteSize();
  return bytes;
}

std::string Batch::ToString(size_t limit) const {
  std::string out = StrFormat("Batch[%zu rows](%s)\n", num_rows(),
                              schema_.ToString().c_str());
  size_t n = std::min(limit, num_rows());
  for (size_t i = 0; i < n; ++i) {
    out += "  ";
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += ", ";
      out += columns_[c].GetValue(i).ToString();
    }
    out += "\n";
  }
  if (n < num_rows()) out += StrFormat("  ... %zu more rows\n", num_rows() - n);
  return out;
}

}  // namespace cloudviews
