#include "expr/expr.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"
#include "expr/function_registry.h"

namespace cloudviews {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithmeticOpToString(ArithmeticOp op) {
  switch (op) {
    case ArithmeticOp::kAdd:
      return "+";
    case ArithmeticOp::kSub:
      return "-";
    case ArithmeticOp::kMul:
      return "*";
    case ArithmeticOp::kDiv:
      return "/";
    case ArithmeticOp::kMod:
      return "%";
  }
  return "?";
}

const char* LogicalOpToString(LogicalOp op) {
  switch (op) {
    case LogicalOp::kAnd:
      return "AND";
    case LogicalOp::kOr:
      return "OR";
    case LogicalOp::kNot:
      return "NOT";
  }
  return "?";
}

Status Expr::Bind(const Schema& input) {
  for (auto& c : children_) {
    CV_RETURN_NOT_OK(c->Bind(input));
  }
  bound_ = true;
  return Status::OK();
}

Status Expr::Evaluate(const Batch& input, Column* out) const {
  *out = Column(output_type_);
  out->Reserve(input.num_rows());
  for (size_t i = 0; i < input.num_rows(); ++i) {
    out->AppendValue(EvaluateRow(input, i));
  }
  return Status::OK();
}

void Expr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  hb->Add(static_cast<int>(kind_));
  hb->Add(static_cast<uint64_t>(children_.size()));
  for (const auto& c : children_) c->HashInto(hb, mode);
}

// --- ColumnRefExpr ----------------------------------------------------------

Status ColumnRefExpr::Bind(const Schema& input) {
  index_ = input.FieldIndex(name_);
  if (index_ < 0) {
    return Status::InvalidArgument("unknown column '" + name_ + "' in [" +
                                   input.ToString() + "]");
  }
  output_type_ = input.field(static_cast<size_t>(index_)).type;
  bound_ = true;
  return Status::OK();
}

Value ColumnRefExpr::EvaluateRow(const Batch& input, size_t row) const {
  assert(index_ >= 0);
  return input.column(static_cast<size_t>(index_)).GetValue(row);
}

Status ColumnRefExpr::Evaluate(const Batch& input, Column* out) const {
  assert(index_ >= 0);
  // Fast path: copy the referenced column wholesale.
  const Column& src = input.column(static_cast<size_t>(index_));
  *out = Column(src.type());
  out->AppendRangeFrom(src, 0, src.size());
  return Status::OK();
}

void ColumnRefExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(std::string_view(name_));
}

ExprPtr ColumnRefExpr::Clone() const {
  return std::make_shared<ColumnRefExpr>(name_);
}

// --- LiteralExpr ------------------------------------------------------------

Status LiteralExpr::Bind(const Schema&) {
  output_type_ = value_.type();
  bound_ = true;
  return Status::OK();
}

Value LiteralExpr::EvaluateRow(const Batch&, size_t) const { return value_; }

void LiteralExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(static_cast<int>(value_.type()));
  // Date literals usually come from recurring-instance predicates; they are
  // abstracted away in normalized mode like explicit parameters (Sec 3).
  if (mode == SignatureMode::kNormalized &&
      value_.type() == DataType::kDate) {
    hb->Add(std::string_view("<date>"));
    return;
  }
  value_.HashInto(hb);
}

ExprPtr LiteralExpr::Clone() const {
  return std::make_shared<LiteralExpr>(value_);
}

// --- ParameterExpr ----------------------------------------------------------

Status ParameterExpr::Bind(const Schema&) {
  output_type_ = value_.type();
  bound_ = true;
  return Status::OK();
}

Value ParameterExpr::EvaluateRow(const Batch&, size_t) const { return value_; }

void ParameterExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(std::string_view(name_));
  if (mode == SignatureMode::kPrecise) {
    value_.HashInto(hb);
  }
}

ExprPtr ParameterExpr::Clone() const {
  return std::make_shared<ParameterExpr>(name_, value_);
}

// --- ComparisonExpr ---------------------------------------------------------

Status ComparisonExpr::Bind(const Schema& input) {
  CV_RETURN_NOT_OK(Expr::Bind(input));
  DataType lt = children_[0]->output_type();
  DataType rt = children_[1]->output_type();
  bool l_str = lt == DataType::kString;
  bool r_str = rt == DataType::kString;
  if (l_str != r_str) {
    return Status::TypeError("cannot compare " +
                             std::string(DataTypeToString(lt)) + " with " +
                             DataTypeToString(rt));
  }
  output_type_ = DataType::kBool;
  return Status::OK();
}

Value ComparisonExpr::EvaluateRow(const Batch& input, size_t row) const {
  Value l = children_[0]->EvaluateRow(input, row);
  Value r = children_[1]->EvaluateRow(input, row);
  if (l.is_null() || r.is_null()) return Value::Null(DataType::kBool);
  int c = l.Compare(r);
  switch (op_) {
    case CompareOp::kEq:
      return Value::Bool(c == 0);
    case CompareOp::kNe:
      return Value::Bool(c != 0);
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Value::Null(DataType::kBool);
}

void ComparisonExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(static_cast<int>(op_));
}

std::string ComparisonExpr::ToString() const {
  return "(" + children_[0]->ToString() + " " + CompareOpToString(op_) + " " +
         children_[1]->ToString() + ")";
}

ExprPtr ComparisonExpr::Clone() const {
  return std::make_shared<ComparisonExpr>(op_, children_[0]->Clone(),
                                          children_[1]->Clone());
}

// --- ArithmeticExpr ---------------------------------------------------------

Status ArithmeticExpr::Bind(const Schema& input) {
  CV_RETURN_NOT_OK(Expr::Bind(input));
  DataType lt = children_[0]->output_type();
  DataType rt = children_[1]->output_type();
  if (lt == DataType::kString || rt == DataType::kString ||
      lt == DataType::kBool || rt == DataType::kBool) {
    return Status::TypeError("arithmetic requires numeric operands");
  }
  if (op_ == ArithmeticOp::kDiv) {
    output_type_ = DataType::kDouble;
  } else if (lt == DataType::kDouble || rt == DataType::kDouble) {
    output_type_ = DataType::kDouble;
  } else {
    output_type_ = DataType::kInt64;
  }
  return Status::OK();
}

Value ArithmeticExpr::EvaluateRow(const Batch& input, size_t row) const {
  Value l = children_[0]->EvaluateRow(input, row);
  Value r = children_[1]->EvaluateRow(input, row);
  if (l.is_null() || r.is_null()) return Value::Null(output_type_);
  if (output_type_ == DataType::kInt64) {
    // Two's complement wrap-around, as the hardware gives it: signed
    // overflow is undefined behaviour, and INT64_MIN % -1 traps on x86.
    int64_t a = l.int64_value();
    int64_t b = r.int64_value();
    uint64_t ua = static_cast<uint64_t>(a);
    uint64_t ub = static_cast<uint64_t>(b);
    switch (op_) {
      case ArithmeticOp::kAdd:
        return Value::Int64(static_cast<int64_t>(ua + ub));
      case ArithmeticOp::kSub:
        return Value::Int64(static_cast<int64_t>(ua - ub));
      case ArithmeticOp::kMul:
        return Value::Int64(static_cast<int64_t>(ua * ub));
      case ArithmeticOp::kMod:
        if (b == 0) return Value::Null(DataType::kInt64);
        return Value::Int64(b == -1 ? 0 : a % b);
      case ArithmeticOp::kDiv:
        break;  // handled below as double
    }
  }
  double a = l.AsDouble();
  double b = r.AsDouble();
  switch (op_) {
    case ArithmeticOp::kAdd:
      return Value::Double(a + b);
    case ArithmeticOp::kSub:
      return Value::Double(a - b);
    case ArithmeticOp::kMul:
      return Value::Double(a * b);
    case ArithmeticOp::kDiv:
      return b == 0 ? Value::Null(DataType::kDouble) : Value::Double(a / b);
    case ArithmeticOp::kMod:
      return b == 0 ? Value::Null(DataType::kDouble)
                    : Value::Double(std::fmod(a, b));
  }
  return Value::Null(output_type_);
}

void ArithmeticExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(static_cast<int>(op_));
}

std::string ArithmeticExpr::ToString() const {
  return "(" + children_[0]->ToString() + " " + ArithmeticOpToString(op_) +
         " " + children_[1]->ToString() + ")";
}

ExprPtr ArithmeticExpr::Clone() const {
  return std::make_shared<ArithmeticExpr>(op_, children_[0]->Clone(),
                                          children_[1]->Clone());
}

// --- LogicalExpr ------------------------------------------------------------

Status LogicalExpr::Bind(const Schema& input) {
  CV_RETURN_NOT_OK(Expr::Bind(input));
  size_t expected = op_ == LogicalOp::kNot ? 1 : 2;
  if (children_.size() != expected) {
    return Status::InvalidArgument(
        StrFormat("%s expects %zu operands", LogicalOpToString(op_),
                  expected));
  }
  for (const auto& c : children_) {
    if (c->output_type() != DataType::kBool) {
      return Status::TypeError("logical operands must be bool");
    }
  }
  output_type_ = DataType::kBool;
  return Status::OK();
}

Value LogicalExpr::EvaluateRow(const Batch& input, size_t row) const {
  if (op_ == LogicalOp::kNot) {
    Value v = children_[0]->EvaluateRow(input, row);
    if (v.is_null()) return v;
    return Value::Bool(!v.bool_value());
  }
  Value l = children_[0]->EvaluateRow(input, row);
  if (op_ == LogicalOp::kAnd) {
    if (!l.is_null() && !l.bool_value()) return Value::Bool(false);
    Value r = children_[1]->EvaluateRow(input, row);
    if (!r.is_null() && !r.bool_value()) return Value::Bool(false);
    if (l.is_null() || r.is_null()) return Value::Null(DataType::kBool);
    return Value::Bool(true);
  }
  // OR
  if (!l.is_null() && l.bool_value()) return Value::Bool(true);
  Value r = children_[1]->EvaluateRow(input, row);
  if (!r.is_null() && r.bool_value()) return Value::Bool(true);
  if (l.is_null() || r.is_null()) return Value::Null(DataType::kBool);
  return Value::Bool(false);
}

void LogicalExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(static_cast<int>(op_));
}

std::string LogicalExpr::ToString() const {
  if (op_ == LogicalOp::kNot) return "NOT " + children_[0]->ToString();
  return "(" + children_[0]->ToString() + " " + LogicalOpToString(op_) + " " +
         children_[1]->ToString() + ")";
}

ExprPtr LogicalExpr::Clone() const {
  std::vector<ExprPtr> kids;
  for (const auto& c : children_) kids.push_back(c->Clone());
  return std::make_shared<LogicalExpr>(op_, std::move(kids));
}

// --- FunctionCallExpr -------------------------------------------------------

Status FunctionCallExpr::Bind(const Schema& input) {
  CV_RETURN_NOT_OK(Expr::Bind(input));
  CV_ASSIGN_OR_RETURN(const FunctionEntry* entry,
                      FunctionRegistry::Global()->Lookup(name_));
  std::vector<DataType> arg_types;
  for (const auto& c : children_) arg_types.push_back(c->output_type());
  CV_ASSIGN_OR_RETURN(output_type_, entry->infer(arg_types));
  return Status::OK();
}

Value FunctionCallExpr::EvaluateRow(const Batch& input, size_t row) const {
  auto entry = FunctionRegistry::Global()->Lookup(name_);
  assert(entry.ok());
  std::vector<Value> args;
  args.reserve(children_.size());
  for (const auto& c : children_) args.push_back(c->EvaluateRow(input, row));
  return (*entry)->fn(args);
}

void FunctionCallExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(std::string_view(name_));
}

std::string FunctionCallExpr::ToString() const {
  std::vector<std::string> args;
  for (const auto& c : children_) args.push_back(c->ToString());
  return name_ + "(" + Join(args, ", ") + ")";
}

ExprPtr FunctionCallExpr::Clone() const {
  std::vector<ExprPtr> kids;
  for (const auto& c : children_) kids.push_back(c->Clone());
  return std::make_shared<FunctionCallExpr>(name_, std::move(kids));
}

// --- UdfCallExpr ------------------------------------------------------------

Status UdfCallExpr::Bind(const Schema& input) {
  CV_RETURN_NOT_OK(Expr::Bind(input));
  CV_ASSIGN_OR_RETURN(const UdfRegistry::UdfEntry* entry,
                      UdfRegistry::Global()->Lookup(udf_name_));
  output_type_ = entry->output_type;
  return Status::OK();
}

Value UdfCallExpr::EvaluateRow(const Batch& input, size_t row) const {
  auto entry = UdfRegistry::Global()->Lookup(udf_name_);
  assert(entry.ok());
  std::vector<Value> args;
  args.reserve(children_.size());
  for (const auto& c : children_) args.push_back(c->EvaluateRow(input, row));
  return (*entry)->fn(args);
}

void UdfCallExpr::HashInto(HashBuilder* hb, SignatureMode mode) const {
  Expr::HashInto(hb, mode);
  hb->Add(std::string_view(udf_name_));
  hb->Add(std::string_view(library_));
  if (mode == SignatureMode::kPrecise) {
    // Library version participates only in the precise signature: a
    // republished library invalidates reuse but not the template identity.
    hb->Add(std::string_view(library_version_));
  }
}

std::string UdfCallExpr::ToString() const {
  std::vector<std::string> args;
  for (const auto& c : children_) args.push_back(c->ToString());
  return udf_name_ + "[" + library_ + "@" + library_version_ + "](" +
         Join(args, ", ") + ")";
}

ExprPtr UdfCallExpr::Clone() const {
  std::vector<ExprPtr> kids;
  for (const auto& c : children_) kids.push_back(c->Clone());
  return std::make_shared<UdfCallExpr>(udf_name_, library_, library_version_,
                                       std::move(kids));
}

// --- Construction helpers ---------------------------------------------------

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}
ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr Lit(double v) { return Lit(Value::Double(v)); }
ExprPtr Lit(const char* s) { return Lit(Value::String(s)); }
ExprPtr Lit(bool v) { return Lit(Value::Bool(v)); }
ExprPtr DateLit(const std::string& iso) {
  return Lit(Value::DateFromString(iso));
}
ExprPtr Param(std::string name, Value v) {
  return std::make_shared<ParameterExpr>(std::move(name), std::move(v));
}
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return std::make_shared<ComparisonExpr>(CompareOp::kEq, std::move(a),
                                          std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return std::make_shared<ComparisonExpr>(CompareOp::kNe, std::move(a),
                                          std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return std::make_shared<ComparisonExpr>(CompareOp::kLt, std::move(a),
                                          std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return std::make_shared<ComparisonExpr>(CompareOp::kLe, std::move(a),
                                          std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return std::make_shared<ComparisonExpr>(CompareOp::kGt, std::move(a),
                                          std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return std::make_shared<ComparisonExpr>(CompareOp::kGe, std::move(a),
                                          std::move(b));
}
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithmeticExpr>(ArithmeticOp::kAdd, std::move(a),
                                          std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithmeticExpr>(ArithmeticOp::kSub, std::move(a),
                                          std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithmeticExpr>(ArithmeticOp::kMul, std::move(a),
                                          std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithmeticExpr>(ArithmeticOp::kDiv, std::move(a),
                                          std::move(b));
}
ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithmeticExpr>(ArithmeticOp::kMod, std::move(a),
                                          std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> kids{std::move(a), std::move(b)};
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(kids));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> kids{std::move(a), std::move(b)};
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(kids));
}
ExprPtr Not(ExprPtr a) {
  std::vector<ExprPtr> kids{std::move(a)};
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(kids));
}
ExprPtr Func(std::string name, std::vector<ExprPtr> args) {
  return std::make_shared<FunctionCallExpr>(std::move(name), std::move(args));
}
ExprPtr Udf(std::string name, std::string library, std::string version,
            std::vector<ExprPtr> args) {
  return std::make_shared<UdfCallExpr>(std::move(name), std::move(library),
                                       std::move(version), std::move(args));
}


// --- Analysis / rewrite utilities ---------------------------------------------

void CollectColumnRefs(const Expr& expr, std::set<std::string>* out) {
  if (expr.kind() == ExprKind::kColumnRef) {
    out->insert(static_cast<const ColumnRefExpr&>(expr).name());
  }
  for (const auto& c : expr.children()) {
    CollectColumnRefs(*c, out);
  }
}

ExprPtr SubstituteColumnRefs(
    const Expr& expr,
    const std::function<ExprPtr(const std::string&)>& replace) {
  if (expr.kind() == ExprKind::kColumnRef) {
    return replace(static_cast<const ColumnRefExpr&>(expr).name());
  }
  // Substitute children, then rebuild the node around them.
  std::vector<ExprPtr> kids;
  kids.reserve(expr.children().size());
  for (const auto& c : expr.children()) {
    ExprPtr sub = SubstituteColumnRefs(*c, replace);
    if (sub == nullptr) return nullptr;
    kids.push_back(std::move(sub));
  }
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      return nullptr;  // unreachable
    case ExprKind::kLiteral:
      return std::make_shared<LiteralExpr>(
          static_cast<const LiteralExpr&>(expr).value());
    case ExprKind::kParameter: {
      const auto& p = static_cast<const ParameterExpr&>(expr);
      return std::make_shared<ParameterExpr>(p.name(), p.value());
    }
    case ExprKind::kComparison:
      return std::make_shared<ComparisonExpr>(
          static_cast<const ComparisonExpr&>(expr).op(), std::move(kids[0]),
          std::move(kids[1]));
    case ExprKind::kArithmetic:
      return std::make_shared<ArithmeticExpr>(
          static_cast<const ArithmeticExpr&>(expr).op(), std::move(kids[0]),
          std::move(kids[1]));
    case ExprKind::kLogical:
      return std::make_shared<LogicalExpr>(
          static_cast<const LogicalExpr&>(expr).op(), std::move(kids));
    case ExprKind::kFunctionCall:
      return std::make_shared<FunctionCallExpr>(
          static_cast<const FunctionCallExpr&>(expr).name(), std::move(kids));
    case ExprKind::kUdfCall: {
      const auto& u = static_cast<const UdfCallExpr&>(expr);
      return std::make_shared<UdfCallExpr>(u.udf_name(), u.library(),
                                           u.library_version(),
                                           std::move(kids));
    }
  }
  return nullptr;
}

}  // namespace cloudviews
