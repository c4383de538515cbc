#include "expr/aggregate.h"

namespace cloudviews {

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

bool AggFuncFromString(const std::string& name, AggFunc* out) {
  if (name == "COUNT" || name == "count") {
    *out = AggFunc::kCount;
  } else if (name == "SUM" || name == "sum") {
    *out = AggFunc::kSum;
  } else if (name == "MIN" || name == "min") {
    *out = AggFunc::kMin;
  } else if (name == "MAX" || name == "max") {
    *out = AggFunc::kMax;
  } else if (name == "AVG" || name == "avg") {
    *out = AggFunc::kAvg;
  } else {
    return false;
  }
  return true;
}

Result<DataType> AggregateSpec::Bind(const Schema& input) const {
  if (!arg) {
    if (func != AggFunc::kCount) {
      return Status::TypeError("only COUNT may omit its argument");
    }
    return DataType::kInt64;
  }
  CV_RETURN_NOT_OK(arg->Bind(input));
  DataType at = arg->output_type();
  switch (func) {
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kSum:
      if (at == DataType::kString || at == DataType::kBool) {
        return Status::TypeError("SUM requires a numeric argument");
      }
      return at == DataType::kDouble ? DataType::kDouble : DataType::kInt64;
    case AggFunc::kAvg:
      if (at == DataType::kString || at == DataType::kBool) {
        return Status::TypeError("AVG requires a numeric argument");
      }
      return DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return at;
  }
  return Status::Internal("unknown aggregate function");
}

void AggregateSpec::HashInto(HashBuilder* hb, SignatureMode mode) const {
  hb->Add(static_cast<int>(func));
  hb->Add(std::string_view(output_name));
  if (arg) {
    hb->Add(true);
    arg->HashInto(hb, mode);
  } else {
    hb->Add(false);
  }
}

std::string AggregateSpec::ToString() const {
  std::string inner = arg ? arg->ToString() : "*";
  return std::string(AggFuncToString(func)) + "(" + inner + ") AS " +
         output_name;
}

AggregateSpec AggregateSpec::Clone() const {
  return AggregateSpec{func, arg ? arg->Clone() : nullptr, output_name};
}

void AggState::Update(const Value& v) {
  if (v.is_null()) return;
  ++count_;
  switch (func_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.type() == DataType::kInt64) {
        // Wraps in two's complement; signed overflow is undefined.
        isum_ = static_cast<int64_t>(static_cast<uint64_t>(isum_) +
                                     static_cast<uint64_t>(v.int64_value()));
        sum_ += static_cast<double>(v.int64_value());
      } else {
        sum_ += v.AsDouble();
      }
      break;
    case AggFunc::kMin:
      if (!any_ || v.Compare(min_) < 0) min_ = v;
      break;
    case AggFunc::kMax:
      if (!any_ || v.Compare(max_) > 0) max_ = v;
      break;
  }
  any_ = true;
}

Value AggState::Finish(DataType output_type) const {
  switch (func_) {
    case AggFunc::kCount:
      return Value::Int64(count_);
    case AggFunc::kSum:
      if (!any_) return Value::Null(output_type);
      return output_type == DataType::kInt64 ? Value::Int64(isum_)
                                             : Value::Double(sum_);
    case AggFunc::kAvg:
      if (count_ == 0) return Value::Null(DataType::kDouble);
      return Value::Double(sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return any_ ? min_ : Value::Null(output_type);
    case AggFunc::kMax:
      return any_ ? max_ : Value::Null(output_type);
  }
  return Value::Null(output_type);
}

}  // namespace cloudviews
