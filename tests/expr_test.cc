#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "expr/aggregate.h"
#include "expr/expr.h"
#include "expr/function_registry.h"

namespace cloudviews {
namespace {

Schema TestSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kDouble},
                 {"s", DataType::kString},
                 {"d", DataType::kDate},
                 {"f", DataType::kBool}});
}

Batch TestBatch() {
  Batch b(TestSchema());
  EXPECT_TRUE(b.AppendRow({Value::Int64(1), Value::Double(1.5),
                           Value::String("foo"),
                           Value::DateFromString("2018-01-01"),
                           Value::Bool(true)})
                  .ok());
  EXPECT_TRUE(b.AppendRow({Value::Int64(2), Value::Double(2.5),
                           Value::String("bar"),
                           Value::DateFromString("2018-06-15"),
                           Value::Bool(false)})
                  .ok());
  EXPECT_TRUE(b.AppendRow({Value::Int64(3), Value::Null(DataType::kDouble),
                           Value::String(""),
                           Value::DateFromString("2019-02-28"),
                           Value::Bool(true)})
                  .ok());
  return b;
}

Value EvalOne(ExprPtr e, size_t row = 0) {
  Batch b = TestBatch();
  EXPECT_TRUE(e->Bind(b.schema()).ok());
  return e->EvaluateRow(b, row);
}

// --- Binding -------------------------------------------------------------------

TEST(ExprBindTest, ColumnRefResolvesIndexAndType) {
  auto c = Col("b");
  ASSERT_TRUE(c->Bind(TestSchema()).ok());
  EXPECT_EQ(c->output_type(), DataType::kDouble);
}

TEST(ExprBindTest, UnknownColumnFails) {
  auto c = Col("missing");
  EXPECT_TRUE(c->Bind(TestSchema()).IsInvalidArgument());
}

TEST(ExprBindTest, ComparisonStringVsNumberFails) {
  auto e = Eq(Col("s"), Col("a"));
  EXPECT_TRUE(e->Bind(TestSchema()).IsTypeError());
}

TEST(ExprBindTest, ArithmeticOnStringFails) {
  auto e = Add(Col("s"), Lit(int64_t{1}));
  EXPECT_TRUE(e->Bind(TestSchema()).IsTypeError());
}

TEST(ExprBindTest, DivisionAlwaysDouble) {
  auto e = Div(Col("a"), Lit(int64_t{2}));
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->output_type(), DataType::kDouble);
}

TEST(ExprBindTest, IntArithmeticStaysInt) {
  auto e = Add(Col("a"), Lit(int64_t{2}));
  ASSERT_TRUE(e->Bind(TestSchema()).ok());
  EXPECT_EQ(e->output_type(), DataType::kInt64);
}

TEST(ExprBindTest, LogicalRequiresBool) {
  auto e = And(Col("f"), Col("f"));
  EXPECT_TRUE(e->Bind(TestSchema()).ok());
  auto bad = And(Col("f"), Col("a"));
  EXPECT_TRUE(bad->Bind(TestSchema()).IsTypeError());
}

// --- Evaluation ------------------------------------------------------------------

TEST(ExprEvalTest, ColumnAndLiteral) {
  EXPECT_EQ(EvalOne(Col("a"), 1).int64_value(), 2);
  EXPECT_EQ(EvalOne(Lit(int64_t{42})).int64_value(), 42);
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(EvalOne(Gt(Col("a"), Lit(int64_t{0}))).bool_value());
  EXPECT_FALSE(EvalOne(Lt(Col("a"), Lit(int64_t{1}))).bool_value());
  EXPECT_TRUE(EvalOne(Ge(Col("b"), Lit(1.5))).bool_value());
  EXPECT_TRUE(EvalOne(Ne(Col("s"), Lit("xyz"))).bool_value());
}

TEST(ExprEvalTest, NullComparisonYieldsNull) {
  // Row 2 has b = NULL.
  EXPECT_TRUE(EvalOne(Gt(Col("b"), Lit(0.0)), 2).is_null());
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalOne(Add(Col("a"), Lit(int64_t{10}))).int64_value(), 11);
  EXPECT_EQ(EvalOne(Mul(Col("a"), Col("a")), 1).int64_value(), 4);
  EXPECT_DOUBLE_EQ(EvalOne(Div(Col("a"), Lit(int64_t{2})), 1).double_value(),
                   1.0);
  EXPECT_EQ(EvalOne(Mod(Lit(int64_t{7}), Lit(int64_t{3}))).int64_value(), 1);
}

TEST(ExprEvalTest, Int64OverflowWrapsAndModuloMinusOneIsZero) {
  // Signed overflow is undefined behaviour and INT64_MIN % -1 traps on
  // x86; a script can build either from plain literals.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(EvalOne(Mod(Lit(kMin), Lit(int64_t{-1}))).int64_value(), 0);
  EXPECT_EQ(EvalOne(Mod(Lit(int64_t{7}), Lit(int64_t{-1}))).int64_value(), 0);
  EXPECT_EQ(EvalOne(Add(Lit(kMax), Lit(int64_t{1}))).int64_value(), kMin);
  EXPECT_EQ(EvalOne(Sub(Lit(kMin), Lit(int64_t{1}))).int64_value(), kMax);
  EXPECT_EQ(EvalOne(Mul(Lit(kMin), Lit(int64_t{-1}))).int64_value(), kMin);
  EXPECT_EQ(EvalOne(Func("abs", {Lit(kMin)})).int64_value(), kMin);
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(EvalOne(Div(Col("a"), Lit(int64_t{0}))).is_null());
  EXPECT_TRUE(EvalOne(Mod(Col("a"), Lit(int64_t{0}))).is_null());
}

TEST(ExprEvalTest, LogicalShortCircuitWithNulls) {
  // false AND NULL = false; true OR NULL = true (SQL three-valued logic).
  auto null_bool = Gt(Col("b"), Lit(0.0));  // null on row 2
  EXPECT_FALSE(EvalOne(And(Lit(false), null_bool), 2).is_null());
  EXPECT_FALSE(EvalOne(And(Lit(false), null_bool), 2).bool_value());
  EXPECT_TRUE(EvalOne(Or(Lit(true), null_bool), 2).bool_value());
  EXPECT_TRUE(EvalOne(And(Lit(true), null_bool), 2).is_null());
}

TEST(ExprEvalTest, NotOperator) {
  EXPECT_FALSE(EvalOne(Not(Col("f"))).bool_value());
}

TEST(ExprEvalTest, DateFunctions) {
  EXPECT_EQ(EvalOne(Func("year", {Col("d")}), 1).int64_value(), 2018);
  EXPECT_EQ(EvalOne(Func("month", {Col("d")}), 1).int64_value(), 6);
  EXPECT_EQ(EvalOne(Func("day", {Col("d")}), 1).int64_value(), 15);
}

TEST(ExprEvalTest, StringFunctions) {
  EXPECT_EQ(EvalOne(Func("upper", {Col("s")})).string_value(), "FOO");
  EXPECT_EQ(EvalOne(Func("strlen", {Col("s")})).int64_value(), 3);
  EXPECT_EQ(EvalOne(Func("substr", {Col("s"), Lit(int64_t{1}),
                                    Lit(int64_t{2})}))
                .string_value(),
            "oo");
  EXPECT_EQ(
      EvalOne(Func("concat", {Col("s"), Lit("!" )})).string_value(),
      "foo!");
}

TEST(ExprEvalTest, SubstrOutOfRange) {
  EXPECT_EQ(EvalOne(Func("substr", {Col("s"), Lit(int64_t{10}),
                                    Lit(int64_t{5})}))
                .string_value(),
            "");
}

TEST(ExprEvalTest, IfFunction) {
  auto e = Func("if", {Gt(Col("a"), Lit(int64_t{1})), Lit("big"),
                       Lit("small")});
  EXPECT_EQ(EvalOne(e, 0).string_value(), "small");
  EXPECT_EQ(EvalOne(e, 1).string_value(), "big");
}

TEST(ExprEvalTest, UnknownFunctionFailsBind) {
  auto e = Func("nope", {Col("a")});
  EXPECT_TRUE(e->Bind(TestSchema()).IsNotFound());
}

TEST(ExprEvalTest, VectorizedEvaluateMatchesRowwise) {
  Batch b = TestBatch();
  auto e = Add(Col("a"), Lit(int64_t{100}));
  ASSERT_TRUE(e->Bind(b.schema()).ok());
  Column out(DataType::kInt64);
  ASSERT_TRUE(e->Evaluate(b, &out).ok());
  ASSERT_EQ(out.size(), b.num_rows());
  for (size_t i = 0; i < b.num_rows(); ++i) {
    EXPECT_EQ(out.GetValue(i).int64_value(),
              e->EvaluateRow(b, i).int64_value());
  }
}

// --- UDFs ----------------------------------------------------------------------

TEST(UdfTest, RegisteredUdfEvaluates) {
  UdfRegistry::Global()->Register(
      "double_it", {[](const std::vector<Value>& args) {
                      return Value::Int64(args[0].int64_value() * 2);
                    },
                    DataType::kInt64, "mathlib", "1.0"});
  auto e = Udf("double_it", "mathlib", "1.0", {Col("a")});
  EXPECT_EQ(EvalOne(e, 1).int64_value(), 4);
}

TEST(UdfTest, UnregisteredUdfFailsBind) {
  auto e = Udf("ghost", "lib", "1.0", {Col("a")});
  EXPECT_TRUE(e->Bind(TestSchema()).IsNotFound());
}

// --- Signature hashing ------------------------------------------------------------

TEST(ExprHashTest, EqualExpressionsHashEqual) {
  auto a = Gt(Col("a"), Lit(int64_t{5}));
  auto b = Gt(Col("a"), Lit(int64_t{5}));
  HashBuilder ha, hb;
  a->HashInto(&ha, SignatureMode::kPrecise);
  b->HashInto(&hb, SignatureMode::kPrecise);
  EXPECT_EQ(ha.Finish(), hb.Finish());
}

TEST(ExprHashTest, DifferentLiteralsDifferPrecisely) {
  auto a = Gt(Col("a"), Lit(int64_t{5}));
  auto b = Gt(Col("a"), Lit(int64_t{6}));
  HashBuilder ha, hb;
  a->HashInto(&ha, SignatureMode::kPrecise);
  b->HashInto(&hb, SignatureMode::kPrecise);
  EXPECT_NE(ha.Finish(), hb.Finish());
}

TEST(ExprHashTest, ParameterValueIgnoredInNormalizedMode) {
  auto a = Ge(Col("d"), Param("date", Value::DateFromString("2018-01-01")));
  auto b = Ge(Col("d"), Param("date", Value::DateFromString("2018-01-02")));
  HashBuilder na, nb;
  a->HashInto(&na, SignatureMode::kNormalized);
  b->HashInto(&nb, SignatureMode::kNormalized);
  EXPECT_EQ(na.Finish(), nb.Finish());

  HashBuilder pa, pb;
  a->HashInto(&pa, SignatureMode::kPrecise);
  b->HashInto(&pb, SignatureMode::kPrecise);
  EXPECT_NE(pa.Finish(), pb.Finish());
}

TEST(ExprHashTest, DateLiteralsNormalizeAway) {
  auto a = Ge(Col("d"), DateLit("2018-01-01"));
  auto b = Ge(Col("d"), DateLit("2018-05-05"));
  HashBuilder na, nb;
  a->HashInto(&na, SignatureMode::kNormalized);
  b->HashInto(&nb, SignatureMode::kNormalized);
  EXPECT_EQ(na.Finish(), nb.Finish());
}

TEST(ExprHashTest, UdfVersionOnlyInPreciseMode) {
  auto a = Udf("f", "lib", "1.0", {Col("a")});
  auto b = Udf("f", "lib", "2.0", {Col("a")});
  HashBuilder na, nb, pa, pb;
  a->HashInto(&na, SignatureMode::kNormalized);
  b->HashInto(&nb, SignatureMode::kNormalized);
  EXPECT_EQ(na.Finish(), nb.Finish());
  a->HashInto(&pa, SignatureMode::kPrecise);
  b->HashInto(&pb, SignatureMode::kPrecise);
  EXPECT_NE(pa.Finish(), pb.Finish());
}

// --- Clone -----------------------------------------------------------------------

TEST(ExprCloneTest, DeepCopyIndependentBinding) {
  auto e = And(Gt(Col("a"), Lit(int64_t{1})), Not(Col("f")));
  auto c = e->Clone();
  ASSERT_TRUE(c->Bind(TestSchema()).ok());
  EXPECT_FALSE(e->bound());
  EXPECT_TRUE(c->bound());
  EXPECT_EQ(e->ToString(), c->ToString());
}

// --- Aggregates --------------------------------------------------------------------

TEST(AggregateTest, BindInfersTypes) {
  Schema s = TestSchema();
  AggregateSpec count_star{AggFunc::kCount, nullptr, "n"};
  EXPECT_EQ(*count_star.Bind(s), DataType::kInt64);
  AggregateSpec sum_int{AggFunc::kSum, Col("a"), "sa"};
  EXPECT_EQ(*sum_int.Bind(s), DataType::kInt64);
  AggregateSpec sum_dbl{AggFunc::kSum, Col("b"), "sb"};
  EXPECT_EQ(*sum_dbl.Bind(s), DataType::kDouble);
  AggregateSpec avg{AggFunc::kAvg, Col("a"), "av"};
  EXPECT_EQ(*avg.Bind(s), DataType::kDouble);
  AggregateSpec min_str{AggFunc::kMin, Col("s"), "m"};
  EXPECT_EQ(*min_str.Bind(s), DataType::kString);
}

TEST(AggregateTest, SumOfStringFails) {
  AggregateSpec bad{AggFunc::kSum, Col("s"), "x"};
  EXPECT_TRUE(bad.Bind(TestSchema()).status().IsTypeError());
}

TEST(AggregateTest, NonCountWithoutArgFails) {
  AggregateSpec bad{AggFunc::kMax, nullptr, "x"};
  EXPECT_TRUE(bad.Bind(TestSchema()).status().IsTypeError());
}

// One group's state: every row of `arg` folds into group 0, and Finish
// yields that group's one cell.
void FoldIntoOneGroup(AggState* state, const Column& arg) {
  std::vector<uint32_t> group_of(arg.size(), 0);
  state->Update(arg, group_of);
}

Value FinishOne(AggState* state, DataType output_type) {
  Column out(output_type);
  state->Finish(&out);
  EXPECT_EQ(out.size(), 1u);
  return out.GetValue(0);
}

TEST(AggStateTest, CountSkipsNulls) {
  AggState st(AggFunc::kCount, DataType::kInt64, 1);
  Column arg(DataType::kInt64);
  arg.AppendInt64(1);
  arg.AppendNull();
  arg.AppendInt64(2);
  FoldIntoOneGroup(&st, arg);
  EXPECT_EQ(FinishOne(&st, DataType::kInt64).int64_value(), 2);
}

TEST(AggStateTest, SumMinMaxAvg) {
  AggState sum(AggFunc::kSum, DataType::kInt64, 1),
      mn(AggFunc::kMin, DataType::kInt64, 1),
      mx(AggFunc::kMax, DataType::kInt64, 1),
      avg(AggFunc::kAvg, DataType::kInt64, 1);
  Column x(DataType::kInt64);
  for (int64_t v : {3, 1, 2}) x.AppendInt64(v);
  FoldIntoOneGroup(&sum, x);
  FoldIntoOneGroup(&mn, x);
  FoldIntoOneGroup(&mx, x);
  FoldIntoOneGroup(&avg, x);
  EXPECT_EQ(FinishOne(&sum, DataType::kInt64).int64_value(), 6);
  EXPECT_EQ(FinishOne(&mn, DataType::kInt64).int64_value(), 1);
  EXPECT_EQ(FinishOne(&mx, DataType::kInt64).int64_value(), 3);
  EXPECT_DOUBLE_EQ(FinishOne(&avg, DataType::kDouble).double_value(), 2.0);
}

TEST(AggStateTest, Int64SumWrapsInsteadOfOverflowing) {
  AggState sum(AggFunc::kSum, DataType::kInt64, 1);
  Column x(DataType::kInt64);
  x.AppendInt64(std::numeric_limits<int64_t>::max());
  x.AppendInt64(1);
  FoldIntoOneGroup(&sum, x);
  EXPECT_EQ(FinishOne(&sum, DataType::kInt64).int64_value(),
            std::numeric_limits<int64_t>::min());
}

TEST(AggStateTest, EmptyInputYieldsNullOrZero) {
  AggState count(AggFunc::kCount, DataType::kInt64, 1);
  AggState sum(AggFunc::kSum, DataType::kInt64, 1);
  AggState mn(AggFunc::kMin, DataType::kInt64, 1);
  AggState avg(AggFunc::kAvg, DataType::kInt64, 1);
  EXPECT_EQ(FinishOne(&count, DataType::kInt64).int64_value(), 0);
  EXPECT_TRUE(FinishOne(&sum, DataType::kInt64).is_null());
  EXPECT_TRUE(FinishOne(&mn, DataType::kInt64).is_null());
  EXPECT_TRUE(FinishOne(&avg, DataType::kDouble).is_null());
}

TEST(AggregateTest, SumOfDateFails) {
  AggregateSpec bad{AggFunc::kSum, Col("d"), "x"};
  EXPECT_TRUE(bad.Bind(TestSchema()).status().IsTypeError());
  // AVG of a date stays legal: the average of the day numbers.
  AggregateSpec avg{AggFunc::kAvg, Col("d"), "av"};
  ASSERT_EQ(*avg.Bind(TestSchema()), DataType::kDouble);
  AggState st(AggFunc::kAvg, DataType::kDate, 1);
  Column days(DataType::kDate);
  days.AppendInt64(17000);
  days.AppendInt64(5);
  FoldIntoOneGroup(&st, days);
  EXPECT_DOUBLE_EQ(FinishOne(&st, DataType::kDouble).double_value(), 8502.5);
}

TEST(AggregateTest, SpecHashNormalizesArg) {
  AggregateSpec a{AggFunc::kSum,
                  Add(Col("a"), Param("p", Value::Int64(1))), "s"};
  AggregateSpec b{AggFunc::kSum,
                  Add(Col("a"), Param("p", Value::Int64(2))), "s"};
  HashBuilder na, nb;
  a.HashInto(&na, SignatureMode::kNormalized);
  b.HashInto(&nb, SignatureMode::kNormalized);
  EXPECT_EQ(na.Finish(), nb.Finish());
}

}  // namespace
}  // namespace cloudviews
