#include "expr/aggregate.h"

#include <cmath>
#include <functional>
#include <utility>

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
      if (at == DataType::kString || at == DataType::kBool ||
          at == DataType::kDate) {
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

namespace {

/// Calls fold(r) for every non-null row r of `arg`, in row order.
template <typename Fold>
void ForEachNonNull(const Column& arg, Fold fold) {
  const size_t rows = arg.size();
  if (!arg.HasNulls()) {
    for (size_t r = 0; r < rows; ++r) fold(r);
    return;
  }
  for (size_t r = 0; r < rows; ++r) {
    if (!arg.IsNull(r)) fold(r);
  }
}

/// MIN (`beats` is <) or MAX (`beats` is >): the first value of a group
/// stays until a later one beats it.
template <typename T, typename Get, typename Beats>
void FoldExtreme(const Column& arg, std::span<const uint32_t> group_of,
                 Get get, Beats beats, std::vector<int64_t>* counts,
                 std::vector<T>* best) {
  ForEachNonNull(arg, [&](size_t r) {
    const uint32_t g = group_of[r];
    if ((*counts)[g]++ == 0 || beats(get(r), (*best)[g])) (*best)[g] = get(r);
  });
}

template <typename T, typename Get>
void FoldMinMax(AggFunc func, const Column& arg,
                std::span<const uint32_t> group_of, Get get,
                std::vector<int64_t>* counts, std::vector<T>* best) {
  if (func == AggFunc::kMin) {
    FoldExtreme(arg, group_of, get, std::less<>(), counts, best);
  } else {
    FoldExtreme(arg, group_of, get, std::greater<>(), counts, best);
  }
}

}  // namespace

AggState::AggState(AggFunc func, DataType arg_type, size_t groups)
    : func_(func), arg_type_(arg_type), counts_(groups, 0) {
  switch (func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (func == AggFunc::kSum && arg_type != DataType::kDouble) {
        ints_.assign(groups, 0);
      } else {
        doubles_.assign(groups, 0.0);
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (arg_type == DataType::kDouble) {
        doubles_.assign(groups, 0.0);
      } else if (arg_type == DataType::kString) {
        strings_.assign(groups, std::string());
      } else {
        ints_.assign(groups, 0);
      }
      break;
  }
}

void AggState::Update(const Column& arg, std::span<const uint32_t> group_of) {
  switch (func_) {
    case AggFunc::kCount:
      ForEachNonNull(arg, [&](size_t r) { ++counts_[group_of[r]]; });
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (arg.type() == DataType::kDouble) {
        const double* v = arg.double_data().data();
        ForEachNonNull(arg, [&](size_t r) {
          const uint32_t g = group_of[r];
          ++counts_[g];
          // A NaN cell becomes the sum, bits included, as it did when the
          // boxed fold added `cell + sum` on x86 (where two NaNs meet, the
          // first operand's wins); the compiler may order the operands of a
          // plain `+` either way.
          doubles_[g] = std::isnan(v[r]) ? v[r] : doubles_[g] + v[r];
        });
      } else if (func_ == AggFunc::kSum) {
        const int64_t* v = arg.int64_data().data();
        ForEachNonNull(arg, [&](size_t r) {
          const uint32_t g = group_of[r];
          ++counts_[g];
          // Wraps in two's complement; signed overflow is undefined.
          ints_[g] = static_cast<int64_t>(static_cast<uint64_t>(ints_[g]) +
                                          static_cast<uint64_t>(v[r]));
        });
      } else {
        const int64_t* v = arg.int64_data().data();
        ForEachNonNull(arg, [&](size_t r) {
          ++counts_[group_of[r]];
          doubles_[group_of[r]] += static_cast<double>(v[r]);
        });
      }
      return;
    case AggFunc::kMin:
    case AggFunc::kMax:
      switch (arg.type()) {
        case DataType::kBool: {
          const uint8_t* v = arg.bool_data().data();
          FoldMinMax(
              func_, arg, group_of,
              [v](size_t r) { return int64_t{v[r] != 0}; }, &counts_, &ints_);
          break;
        }
        case DataType::kInt64:
        case DataType::kDate: {
          const int64_t* v = arg.int64_data().data();
          FoldMinMax(
              func_, arg, group_of, [v](size_t r) { return v[r]; }, &counts_,
              &ints_);
          break;
        }
        case DataType::kDouble: {
          const double* v = arg.double_data().data();
          FoldMinMax(
              func_, arg, group_of, [v](size_t r) { return v[r]; }, &counts_,
              &doubles_);
          break;
        }
        case DataType::kString: {
          const std::string* v = arg.string_data().data();
          FoldMinMax(
              func_, arg, group_of,
              [v](size_t r) -> const std::string& { return v[r]; }, &counts_,
              &strings_);
          break;
        }
      }
      return;
  }
}

void AggState::UpdateCountStar(std::span<const uint32_t> group_of) {
  for (uint32_t g : group_of) ++counts_[g];
}

void AggState::Finish(Column* out) {
  out->Reserve(out->size() + counts_.size());
  for (size_t g = 0; g < counts_.size(); ++g) {
    if (func_ == AggFunc::kCount) {
      out->AppendInt64(counts_[g]);
      continue;
    }
    if (counts_[g] == 0) {
      out->AppendNull();
      continue;
    }
    switch (func_) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
        if (arg_type_ == DataType::kDouble) {
          out->AppendDouble(doubles_[g]);
        } else {
          out->AppendInt64(ints_[g]);
        }
        break;
      case AggFunc::kAvg:
        out->AppendDouble(doubles_[g] / static_cast<double>(counts_[g]));
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        switch (arg_type_) {
          case DataType::kBool:
            out->AppendBool(ints_[g] != 0);
            break;
          case DataType::kInt64:
          case DataType::kDate:
            out->AppendInt64(ints_[g]);
            break;
          case DataType::kDouble:
            out->AppendDouble(doubles_[g]);
            break;
          case DataType::kString:
            out->AppendString(std::move(strings_[g]));
            break;
        }
        break;
    }
  }
}

}  // namespace cloudviews
