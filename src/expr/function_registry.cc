#include "expr/function_registry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace cloudviews {

namespace {

Result<DataType> ExpectArity(const std::vector<DataType>& args, size_t n,
                             DataType out) {
  if (args.size() != n) {
    return Status::TypeError(
        StrFormat("expected %zu arguments, got %zu", n, args.size()));
  }
  return out;
}

void CivilFromValue(const Value& v, int* y, int* m, int* d) {
  // Re-derive civil date from days-since-epoch via FormatDate parsing to
  // keep a single conversion implementation.
  int64_t days = v.date_value();
  std::string s = FormatDate(days);
  std::sscanf(s.c_str(), "%d-%d-%d", y, m, d);
}

}  // namespace

FunctionRegistry* FunctionRegistry::Global() {
  static FunctionRegistry* registry = new FunctionRegistry();  // NOLINT(naked-new): intentionally leaked singleton, immortal by design
  return registry;
}

void FunctionRegistry::Register(const std::string& name,
                                FunctionEntry entry) {
  entries_[name] = std::move(entry);
}

bool FunctionRegistry::Contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

Result<const FunctionEntry*> FunctionRegistry::Lookup(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no builtin function named '" + name + "'");
  }
  return &it->second;
}

std::vector<std::string> FunctionRegistry::FunctionNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [k, v] : entries_) names.push_back(k);
  std::sort(names.begin(), names.end());
  return names;
}

FunctionRegistry::FunctionRegistry() {
  // --- Date extraction -----------------------------------------------------
  auto date_part = [](int which) {
    return [which](const std::vector<Value>& args) -> Value {
      if (args[0].is_null()) return Value::Null(DataType::kInt64);
      int y, m, d;
      CivilFromValue(args[0], &y, &m, &d);
      int parts[3] = {y, m, d};
      return Value::Int64(parts[which]);
    };
  };
  auto infer_date_to_int = [](const std::vector<DataType>& args) {
    return ExpectArity(args, 1, DataType::kInt64);
  };
  Register("year", {date_part(0), infer_date_to_int});
  Register("month", {date_part(1), infer_date_to_int});
  Register("day", {date_part(2), infer_date_to_int});

  // --- String functions ----------------------------------------------------
  Register("lower",
           {[](const std::vector<Value>& args) -> Value {
              if (args[0].is_null()) return Value::Null(DataType::kString);
              return Value::String(ToLower(args[0].string_value()));
            },
            [](const std::vector<DataType>& args) {
              return ExpectArity(args, 1, DataType::kString);
            }});
  Register("upper",
           {[](const std::vector<Value>& args) -> Value {
              if (args[0].is_null()) return Value::Null(DataType::kString);
              std::string s = args[0].string_value();
              for (char& c : s) c = static_cast<char>(std::toupper(
                                    static_cast<unsigned char>(c)));
              return Value::String(std::move(s));
            },
            [](const std::vector<DataType>& args) {
              return ExpectArity(args, 1, DataType::kString);
            }});
  Register("strlen",
           {[](const std::vector<Value>& args) -> Value {
              if (args[0].is_null()) return Value::Null(DataType::kInt64);
              return Value::Int64(
                  static_cast<int64_t>(args[0].string_value().size()));
            },
            [](const std::vector<DataType>& args) {
              return ExpectArity(args, 1, DataType::kInt64);
            }});
  Register("substr",
           {[](const std::vector<Value>& args) -> Value {
              if (args[0].is_null()) return Value::Null(DataType::kString);
              const std::string& s = args[0].string_value();
              int64_t start = args[1].int64_value();
              int64_t len = args[2].int64_value();
              if (start < 0) start = 0;
              if (start >= static_cast<int64_t>(s.size())) {
                return Value::String("");
              }
              len = std::min<int64_t>(
                  len, static_cast<int64_t>(s.size()) - start);
              return Value::String(
                  s.substr(static_cast<size_t>(start),
                           static_cast<size_t>(std::max<int64_t>(len, 0))));
            },
            [](const std::vector<DataType>& args) {
              return ExpectArity(args, 3, DataType::kString);
            }});
  Register("concat",
           {[](const std::vector<Value>& args) -> Value {
              std::string out;
              for (const auto& a : args) {
                if (a.is_null()) return Value::Null(DataType::kString);
                out += a.string_value();
              }
              return Value::String(std::move(out));
            },
            [](const std::vector<DataType>& args) -> Result<DataType> {
              if (args.size() < 2) {
                return Status::TypeError("concat expects >= 2 arguments");
              }
              return DataType::kString;
            }});

  // --- Numeric functions ---------------------------------------------------
  Register("abs",
           {[](const std::vector<Value>& args) -> Value {
              if (args[0].is_null()) return Value::Null(args[0].type());
              if (args[0].type() == DataType::kInt64) {
                // Negated in two's complement: abs(INT64_MIN) wraps to
                // itself instead of overflowing.
                int64_t v = args[0].int64_value();
                uint64_t u = static_cast<uint64_t>(v);
                return Value::Int64(static_cast<int64_t>(v < 0 ? 0 - u : u));
              }
              return Value::Double(std::fabs(args[0].AsDouble()));
            },
            [](const std::vector<DataType>& args) -> Result<DataType> {
              if (args.size() != 1) {
                return Status::TypeError("abs expects 1 argument");
              }
              return args[0];
            }});
  Register("round",
           {[](const std::vector<Value>& args) -> Value {
              if (args[0].is_null()) return Value::Null(DataType::kDouble);
              return Value::Double(std::round(args[0].AsDouble()));
            },
            [](const std::vector<DataType>& args) {
              return ExpectArity(args, 1, DataType::kDouble);
            }});
  Register("hash64",
           {[](const std::vector<Value>& args) -> Value {
              HashBuilder hb;
              for (const auto& a : args) a.HashInto(&hb);
              return Value::Int64(
                  static_cast<int64_t>(hb.Finish().lo & 0x7fffffffffffffffULL));
            },
            [](const std::vector<DataType>& args) -> Result<DataType> {
              if (args.empty()) {
                return Status::TypeError("hash64 expects >= 1 argument");
              }
              return DataType::kInt64;
            }});

  // --- Conditional ----------------------------------------------------------
  Register("if",
           {[](const std::vector<Value>& args) -> Value {
              if (args[0].is_null() || !args[0].bool_value()) return args[2];
              return args[1];
            },
            [](const std::vector<DataType>& args) -> Result<DataType> {
              if (args.size() != 3) {
                return Status::TypeError("if expects 3 arguments");
              }
              if (args[0] != DataType::kBool) {
                return Status::TypeError("if condition must be bool");
              }
              if (args[1] != args[2]) {
                return Status::TypeError("if branches must share a type");
              }
              return args[1];
            }});
}

UdfRegistry* UdfRegistry::Global() {
  static UdfRegistry* registry = new UdfRegistry();  // NOLINT(naked-new): intentionally leaked singleton, immortal by design
  return registry;
}

void UdfRegistry::Register(const std::string& name, UdfEntry entry) {
  entries_[name] = std::move(entry);
}

bool UdfRegistry::Contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

Result<const UdfRegistry::UdfEntry*> UdfRegistry::Lookup(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no UDF named '" + name + "'");
  }
  return &it->second;
}

}  // namespace cloudviews
