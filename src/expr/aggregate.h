#ifndef CLOUDVIEWS_EXPR_AGGREGATE_H_
#define CLOUDVIEWS_EXPR_AGGREGATE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "types/batch.h"

namespace cloudviews {

enum class AggFunc : int {
  kCount = 0,  // count(*) when arg is null, else count of non-null arg
  kSum = 1,
  kMin = 2,
  kMax = 3,
  kAvg = 4,
};

const char* AggFuncToString(AggFunc f);
bool AggFuncFromString(const std::string& name, AggFunc* out);

/// \brief One aggregate in a GROUP BY operator's output.
struct AggregateSpec {
  AggFunc func;
  ExprPtr arg;  // nullptr for count(*)
  std::string output_name;

  /// Binds the argument and returns the aggregate's output type.
  Result<DataType> Bind(const Schema& input) const;

  void HashInto(HashBuilder* hb, SignatureMode mode) const;
  std::string ToString() const;
  AggregateSpec Clone() const;
};

/// \brief The state of one aggregate over every group of an operator, stored
/// by column and indexed by group id.
///
/// Per group it keeps the number of cells folded (rows, for COUNT(*)) and,
/// by function and argument type, one typed slot: a wrapping int64 sum (SUM
/// of int64), a double sum (SUM of double; AVG, which widens int64 and date
/// cells), or the MIN/MAX so far. A MIN/MAX slot is replaced only by a value
/// that compares strictly lower (higher) the way Value::Compare does, so of
/// equal values the first stays, and a NaN neither replaces nor is replaced.
class AggState {
 public:
  /// `arg_type` is the argument's type, as Bind accepted it (ignored for
  /// COUNT(*)); all `groups` groups start empty.
  AggState(AggFunc func, DataType arg_type, size_t groups);

  /// Folds the non-null cells of `arg`, in row order, into their groups:
  /// row r into group `group_of[r]`.
  void Update(const Column& arg, std::span<const uint32_t> group_of);
  /// COUNT(*): counts every row into its group.
  void UpdateCountStar(std::span<const uint32_t> group_of);

  /// Appends every group's result, in group id order, to `out`, a column of
  /// the aggregate's output type. An empty group gives 0 for COUNT and null
  /// for the others. Moves the string slots out.
  void Finish(Column* out);

 private:
  AggFunc func_;
  DataType arg_type_;
  std::vector<int64_t> counts_;
  std::vector<int64_t> ints_;  // SUM of int64; MIN/MAX of bool, int64, date
  std::vector<double> doubles_;  // SUM of double, AVG; MIN/MAX of double
  std::vector<std::string> strings_;  // MIN/MAX of string
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXPR_AGGREGATE_H_
