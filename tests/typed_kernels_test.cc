// Every typed executor kernel against the boxed path it replaced: RowKey
// against Value::HashInto, the row comparators against Value::Compare, the
// selection-vector gathers against per-row AppendRowFrom, the one-pass
// string hash against values recorded from the two-pass version, and the
// aggregate's group table and typed states against the per-group fold of
// boxed values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "plan/plan_builder.h"

namespace cloudviews {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// One column per type, plus a second int64 and double column so that
// mixed-type pairs can be compared.
Schema KernelSchema() {
  return Schema({{"b", DataType::kBool},
                 {"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"t", DataType::kDate},
                 {"i2", DataType::kInt64},
                 {"d2", DataType::kDouble}});
}

// A random cell: ~20% nulls (none if `nulls` is false), and small domains
// so that equal keys, shared string prefixes and the edge values all recur.
Value RandomCell(Rng& rng, DataType type, bool nulls = true) {
  if (nulls && rng.Uniform(5) == 0) return Value::Null(type);
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng.Uniform(2) == 1);
    case DataType::kInt64: {
      static const int64_t kInts[] = {kMin, kMin + 1, -7, -1, 0,
                                      1,    2,        7,  kMax - 1, kMax};
      return Value::Int64(kInts[rng.Uniform(10)]);
    }
    case DataType::kDate: {
      static const int64_t kDays[] = {kMin, -719468, -1, 0,
                                      17532, 17533, 2932896, kMax};
      return Value::Date(kDays[rng.Uniform(8)]);
    }
    case DataType::kDouble: {
      static const double kDoubles[] = {
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::infinity(),
          -1.5,
          -0.0,
          0.0,
          1.0,
          1.5,
          9.2233720368547758e18,
          std::numeric_limits<double>::infinity()};
      return Value::Double(kDoubles[rng.Uniform(9)]);
    }
    case DataType::kString: {
      static const char* kStrings[] = {"",        "a",     "ab",
                                       "abc",     "abd",   "key_1",
                                       "key_10",  "key_2", "\xff",
                                       "a long string past the inline size"};
      return Value::String(kStrings[rng.Uniform(10)]);
    }
  }
  return Value();
}

Batch RandomBatch(Rng& rng, size_t rows, bool nulls = true) {
  Schema schema = KernelSchema();
  Batch batch(schema);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (const Field& f : schema.fields()) {
      row.push_back(RandomCell(rng, f.type, nulls));
    }
    EXPECT_TRUE(batch.AppendRow(row).ok());
  }
  return batch;
}

int Sign(int v) { return (v > 0) - (v < 0); }

// Exact equality: every cell (doubles bit for bit), every null flag, and
// ByteSize(), which counts the validity vector.
void ExpectSameColumn(const Column& got, const Column& want) {
  ASSERT_EQ(got.type(), want.type());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
  EXPECT_EQ(got.HasNulls(), want.HasNulls());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got.IsNull(r), want.IsNull(r)) << "row " << r;
  }
  switch (got.type()) {
    case DataType::kBool:
      EXPECT_EQ(got.bool_data(), want.bool_data());
      break;
    case DataType::kInt64:
    case DataType::kDate:
      EXPECT_EQ(got.int64_data(), want.int64_data());
      break;
    case DataType::kDouble:
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.double_data()[r]),
                  std::bit_cast<uint64_t>(want.double_data()[r]))
            << "row " << r;
      }
      break;
    case DataType::kString:
      EXPECT_EQ(got.string_data(), want.string_data());
      break;
  }
}

void ExpectSameBatch(const Batch& got, const Batch& want) {
  ASSERT_EQ(got.num_columns(), want.num_columns());
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
  for (size_t c = 0; c < got.num_columns(); ++c) {
    SCOPED_TRACE("column " + got.schema().field(c).name);
    ExpectSameColumn(got.column(c), want.column(c));
  }
}

std::vector<std::vector<int>> KeySets() {
  std::vector<std::vector<int>> sets;
  for (int c = 0; c < 7; ++c) sets.push_back({c});
  sets.push_back({0, 1, 2, 3, 4, 5, 6});
  sets.push_back({3, 1});
  sets.push_back({2, 0, 4});
  sets.push_back({3, 3});
  return sets;
}

TEST(TypedKernelsTest, RowKeyHashesWhatValueHashIntoHashes) {
  Rng rng(1);
  for (int round = 0; round < 20; ++round) {
    Batch batch = RandomBatch(rng, 200);
    for (const auto& cols : KeySets()) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        HashBuilder boxed;
        for (int c : cols) {
          batch.column(static_cast<size_t>(c)).GetValue(r).HashInto(&boxed);
        }
        ASSERT_EQ(RowKey(batch, r, cols), boxed.Finish())
            << "round " << round << " row " << r;
      }
    }
  }
}

TEST(TypedKernelsTest, HashPartitionRowsFollowTheBoxedKey) {
  Rng rng(2);
  Batch batch = RandomBatch(rng, 500);
  for (size_t count : {1u, 3u, 16u}) {
    for (const auto& cols : KeySets()) {
      std::vector<std::vector<uint32_t>> want(count);
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        HashBuilder boxed;
        for (int c : cols) {
          batch.column(static_cast<size_t>(c)).GetValue(r).HashInto(&boxed);
        }
        want[boxed.Finish().lo % count].push_back(static_cast<uint32_t>(r));
      }
      EXPECT_EQ(HashPartitionRows(batch, cols, count), want);
    }
  }
}

TEST(TypedKernelsTest, ComparatorsHaveTheSignOfValueCompare) {
  Rng rng(3);
  // Same-typed column pairs, then int64 against double and against date
  // (the mixed-type fallback a merge join can reach).
  std::vector<std::pair<std::vector<int>, std::vector<int>>> pairs;
  for (const auto& cols : KeySets()) pairs.push_back({cols, cols});
  pairs.push_back({{1}, {2}});
  pairs.push_back({{2}, {1}});
  pairs.push_back({{1}, {4}});
  pairs.push_back({{4}, {5}});
  pairs.push_back({{1, 3}, {6, 3}});
  for (int round = 0; round < 10; ++round) {
    Batch a = RandomBatch(rng, 60);
    Batch b = RandomBatch(rng, 60);
    for (const auto& [ca, cb] : pairs) {
      for (size_t ra = 0; ra < a.num_rows(); ++ra) {
        for (size_t rb = 0; rb < b.num_rows(); ++rb) {
          int want = 0;
          for (size_t k = 0; k < ca.size() && want == 0; ++k) {
            want = a.column(static_cast<size_t>(ca[k]))
                       .GetValue(ra)
                       .Compare(b.column(static_cast<size_t>(cb[k]))
                                    .GetValue(rb));
          }
          ASSERT_EQ(Sign(CompareRowsOnColumns(a, ra, ca, b, rb, cb)),
                    Sign(want))
              << "round " << round << " rows " << ra << "/" << rb;
        }
      }
    }
    // Sort keys in every direction mix, over every column.
    std::vector<SortKey> keys;
    for (const Field& f : a.schema().fields()) {
      keys.push_back({f.name, rng.Uniform(2) == 0});
    }
    ResolvedSortKeys resolved = ResolveSortKeys(a.schema(), keys);
    for (size_t ra = 0; ra < a.num_rows(); ++ra) {
      for (size_t rb = 0; rb < b.num_rows(); ++rb) {
        int want = 0;
        for (size_t k = 0; k < resolved.cols.size() && want == 0; ++k) {
          size_t c = static_cast<size_t>(resolved.cols[k]);
          want = Sign(a.column(c).GetValue(ra).Compare(
              b.column(c).GetValue(rb)));
          if (!resolved.ascending[k]) want = -want;
        }
        ASSERT_EQ(Sign(CompareRowsSorted(a, ra, b, rb, resolved)), want);
      }
    }
  }
}

// A selection vector with repeats, out-of-order rows, and (sometimes) no
// rows at all.
std::vector<uint32_t> RandomSelection(Rng& rng, size_t rows) {
  std::vector<uint32_t> sel;
  size_t n = rng.Uniform(4) == 0 ? 0 : rng.Uniform(2 * rows);
  for (size_t k = 0; k < n; ++k) {
    sel.push_back(static_cast<uint32_t>(rng.Uniform(rows)));
  }
  return sel;
}

TEST(TypedKernelsTest, GathersEqualThePerRowAppendLoop) {
  Rng rng(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<Batch> srcs;
    for (size_t m = 0, n = 1 + rng.Uniform(4); m < n; ++m) {
      srcs.push_back(RandomBatch(rng, 1 + rng.Uniform(40)));
    }
    // The destination starts empty or holds rows of its own (with or
    // without a validity vector).
    Batch prefix(KernelSchema());
    if (rng.Uniform(2) == 0) {
      Batch seed = RandomBatch(rng, 1 + rng.Uniform(5));
      prefix.AppendRowsFrom(seed, 0, seed.num_rows());
    }

    const Batch& src = srcs[0];
    std::vector<uint32_t> sel = RandomSelection(rng, src.num_rows());
    Batch want = prefix;
    for (uint32_t r : sel) want.AppendRowFrom(src, r);
    Batch got = prefix;
    got.AppendSelected(src, sel);
    ExpectSameBatch(got, want);

    std::vector<RowRef> refs;
    for (size_t k = 0, n = rng.Uniform(60); k < n; ++k) {
      uint32_t m = static_cast<uint32_t>(rng.Uniform(srcs.size()));
      refs.push_back(
          {m, static_cast<uint32_t>(rng.Uniform(srcs[m].num_rows()))});
    }
    Batch want_refs = prefix;
    for (const RowRef& ref : refs) {
      want_refs.AppendRowFrom(srcs[ref.batch], ref.row);
    }
    Batch got_refs = prefix;
    got_refs.AppendGathered(srcs, refs);
    ExpectSameBatch(got_refs, want_refs);

    // A column reference evaluates to a bulk copy of its column.
    for (const Field& f : src.schema().fields()) {
      auto expr = Col(f.name);
      ASSERT_TRUE(expr->Bind(src.schema()).ok());
      Column got_col(f.type);
      ASSERT_TRUE(expr->Evaluate(src, &got_col).ok());
      const Column& in = src.column(
          static_cast<size_t>(src.schema().FieldIndex(f.name)));
      Column want_col(f.type);
      for (size_t r = 0; r < in.size(); ++r) want_col.AppendFrom(in, r);
      ExpectSameColumn(got_col, want_col);
    }
  }
}

TEST(TypedKernelsTest, NullGatheredIntoAnEmptyColumnStaysNull) {
  Column src(DataType::kString);
  src.AppendString("x");
  src.AppendNull();
  src.AppendString("y");

  std::vector<uint32_t> just_null = {1};
  Column got(DataType::kString);
  got.AppendSelected(src, just_null);
  Column want(DataType::kString);
  want.AppendFrom(src, 1);
  ExpectSameColumn(got, want);
  EXPECT_TRUE(got.IsNull(0));

  // Valid rows only: no validity vector, exactly as AppendFrom.
  std::vector<uint32_t> valid = {2, 0};
  Column got_valid(DataType::kString);
  got_valid.AppendSelected(src, valid);
  EXPECT_FALSE(got_valid.HasNulls());
  EXPECT_EQ(got_valid.ByteSize(), 2 * 8 + 2);

  // Across sources: a null from the second source into an empty column.
  Column other(DataType::kString);
  other.AppendNull();
  std::vector<const Column*> srcs = {&src, &other};
  std::vector<RowRef> refs = {{0, 0}, {1, 0}};
  Column got_refs(DataType::kString);
  got_refs.AppendGathered(srcs, refs);
  EXPECT_FALSE(got_refs.IsNull(0));
  EXPECT_TRUE(got_refs.IsNull(1));
}

TEST(TypedKernelsTest, OnePassStringHashKeepsItsValues) {
  // Recorded from the two-pass HashBuilder::Add(std::string_view): the
  // hash of each string alone, and after a seed, a scalar and twice the
  // string. Hash partitioning, and so every stored partitioned view, rests
  // on these values.
  struct Golden {
    std::string s;
    uint64_t hi, lo, seeded_hi, seeded_lo;
  };
  const Golden kGolden[] = {
      {"", 0x22e7370f38a7a1abULL, 0x744a70d008197cbaULL,
       0x72c65f6c763dfbb8ULL, 0xe21bd630b19aa8aeULL},
      {"a", 0x0c6fe069886bb1d1ULL, 0xce766a21c0af5820ULL,
       0xfd6ca9cd825c5d7eULL, 0xe6b03e57d5b09493ULL},
      {"ab", 0x7f4daee2761c7440ULL, 0x357b6c2939ebf14aULL,
       0x809e344dabd01fcfULL, 0x92795d2703f34fc8ULL},
      {"abc", 0x6b5e7370e1e33820ULL, 0x7559d74f27836ff5ULL,
       0x23b300836ced658fULL, 0x8271a25cda175ecfULL},
      {"hello world", 0xd628c194471a0d4dULL, 0x8c4d894cb828ee43ULL,
       0x25277aafe2e16328ULL, 0xefe0a000599a568aULL},
      {std::string("\0x\0", 3), 0x4e729c3ba1edb0a7ULL, 0xb7baa9e729911ea9ULL,
       0x5547a5999cf83f62ULL, 0x43e095aed9ca95e9ULL},
      {"\xff\xfe\x80", 0xf959f8f830cc8900ULL, 0x610a7f9a561d9962ULL,
       0x4e56720c6ffcddf4ULL, 0x74a9f8d6ea5372b5ULL},
      {"0123456789abcdef0123456789abcdef0123456789", 0xd1ac86c28549a666ULL,
       0x32f91f2e1e3cbd63ULL, 0x771bda4e5732f0e7ULL, 0xbf0cec4c994fa1fdULL},
      {"store_sales", 0x09501ee3ae6d2ce1ULL, 0xb43aef7f8c198811ULL,
       0xa68863d0b5b4130fULL, 0xb2362394509f045cULL},
      {"2024-01-01", 0x71253cf5bc891b30ULL, 0xc71b229a51c8b8edULL,
       0x90c4b92c48f6cf1aULL, 0x76fe57e8c5d80043ULL},
  };
  for (const Golden& g : kGolden) {
    HashBuilder plain;
    plain.Add(std::string_view(g.s));
    Hash128 h = plain.Finish();
    EXPECT_EQ(h.hi, g.hi) << g.s;
    EXPECT_EQ(h.lo, g.lo) << g.s;
    HashBuilder seeded(42);
    seeded.Add(uint64_t{7}).Add(std::string_view(g.s)).Add(
        std::string_view(g.s));
    Hash128 hs = seeded.Finish();
    EXPECT_EQ(hs.hi, g.seeded_hi) << g.s;
    EXPECT_EQ(hs.lo, g.seeded_lo) << g.s;
  }
}

TEST(TypedKernelsTest, SameGroupKeyIsTheRowKeyEquality) {
  Rng rng(5);
  for (int round = 0; round < 5; ++round) {
    Batch a = RandomBatch(rng, 80);
    Batch b = RandomBatch(rng, 80);
    for (const auto& cols : KeySets()) {
      std::vector<uint64_t> hashes_a = GroupKeyHashes(a, cols);
      std::vector<uint64_t> hashes_b = GroupKeyHashes(b, cols);
      for (size_t ra = 0; ra < a.num_rows(); ++ra) {
        for (size_t rb = 0; rb < b.num_rows(); ++rb) {
          bool same = SameGroupKey(a, ra, b, rb, cols);
          ASSERT_EQ(same, RowKey(a, ra, cols) == RowKey(b, rb, cols))
              << "round " << round << " rows " << ra << "/" << rb;
          if (same) {
            ASSERT_EQ(hashes_a[ra], hashes_b[rb]);
          }
        }
      }
    }
  }
}

// NULL, 0xdead, NULL, 0xdead. RowKey feeds a null to the hash as the int64
// 0xdead, so an int64 key of 57005 has a null's RowKey.
Batch NullsAndTheNullHashMarker() {
  Batch batch(Schema({{"k", DataType::kInt64}}));
  for (int r = 0; r < 4; ++r) {
    if (r % 2 == 0) {
      batch.column(0).AppendNull();
    } else {
      batch.column(0).AppendInt64(0xdead);
    }
  }
  return batch;
}

// The per-group fold of boxed values that the aggregate operator ran before
// its typed states, kept as the reference: one state per group and
// aggregate, updated a Value at a time.
class BoxedAggState {
 public:
  explicit BoxedAggState(AggFunc func) : func_(func) {}

  void Update(const Value& v) {
    if (v.is_null()) return;
    ++count_;
    switch (func_) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == DataType::kInt64) {
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
  void UpdateCountStar() { ++count_; }

  Value Finish(DataType output_type) const {
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

 private:
  AggFunc func_;
  int64_t count_ = 0;
  bool any_ = false;
  double sum_ = 0;
  int64_t isum_ = 0;
  Value min_, max_;
};

Hash128 BoxedKey(const Batch& batch, size_t row, const std::vector<int>& cols) {
  HashBuilder hb;
  for (int c : cols) {
    batch.column(static_cast<size_t>(c)).GetValue(row).HashInto(&hb);
  }
  return hb.Finish();
}

// The aggregate's output computed from boxed cells. Hash mode groups rows
// by their boxed key hash, in first-occurrence order; stream mode starts a
// group wherever a row's key differs from the row before it under
// Value::Compare; no key columns make the one global group.
Batch BoxedAggregate(const Batch& input, const std::vector<int>& key_cols,
                     const std::vector<AggregateSpec>& aggs, bool stream,
                     const Schema& out_schema) {
  struct Group {
    size_t first;
    std::vector<BoxedAggState> states;
  };
  auto fresh = [&]() {
    std::vector<BoxedAggState> states;
    for (const auto& spec : aggs) states.emplace_back(spec.func);
    return states;
  };
  std::vector<Group> groups;
  if (key_cols.empty()) groups.push_back({0, fresh()});
  std::unordered_map<Hash128, size_t, Hash128Hasher> index;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    size_t g = 0;
    if (!key_cols.empty() && stream) {
      bool starts = r == 0;
      for (int c : key_cols) {
        const Column& col = input.column(static_cast<size_t>(c));
        starts = starts || col.GetValue(r - 1).Compare(col.GetValue(r)) != 0;
      }
      if (starts) groups.push_back({r, fresh()});
      g = groups.size() - 1;
    } else if (!key_cols.empty()) {
      auto [it, inserted] =
          index.emplace(BoxedKey(input, r, key_cols), groups.size());
      if (inserted) groups.push_back({r, fresh()});
      g = it->second;
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].arg) {
        int c = input.schema().FieldIndex(aggs[a].arg->ToString());
        groups[g].states[a].Update(
            input.column(static_cast<size_t>(c)).GetValue(r));
      } else {
        groups[g].states[a].UpdateCountStar();
      }
    }
  }
  Batch out(out_schema);
  for (const Group& group : groups) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      out.column(k).AppendValue(
          input.column(static_cast<size_t>(key_cols[k])).GetValue(group.first));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const size_t c = key_cols.size() + a;
      out.column(c).AppendValue(
          group.states[a].Finish(out_schema.field(c).type));
    }
  }
  return out;
}

// Runs Aggregate(keys, aggs) with `algorithm` over `input` stored as one
// stream, and returns the output the executor wrote.
Batch RunAggregate(const Batch& input, const std::vector<std::string>& keys,
                   const std::vector<AggregateSpec>& aggs,
                   AggAlgorithm algorithm, int morsel_rows, ThreadPool* pool,
                   int workers) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  EXPECT_TRUE(storage
                  .WriteStream(MakeStreamData("in", "g-in", input.schema(),
                                              {input}, clock.Now()))
                  .ok());
  std::vector<AggregateSpec> specs;
  for (const auto& spec : aggs) specs.push_back(spec.Clone());
  auto agg = std::make_shared<AggregateNode>(
      PlanBuilder::Extract("in", "in", "g-in", input.schema()).Build(), keys,
      std::move(specs));
  agg->set_algorithm(algorithm);
  auto plan = PlanBuilder::From(agg).Output("out").Build();
  EXPECT_TRUE(plan->Bind().ok());
  AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage;
  ctx.pool = pool;
  ctx.options.worker_threads = workers;
  ctx.options.morsel_rows = morsel_rows;
  Executor exec(std::move(ctx));
  auto run = exec.Execute(plan);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  auto handle = storage.OpenStream("out");
  EXPECT_TRUE(handle.ok());
  return CombineBatches((*handle)->schema, (*handle)->batches);
}

TEST(TypedKernelsTest, AggregateMatchesTheBoxedFold) {
  const Schema schema = KernelSchema();
  // Every Bind-legal pair of function and argument type, plus COUNT(*).
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggFunc::kCount, nullptr, "count_star"});
  for (AggFunc func : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kAvg}) {
    for (const char* name : {"b", "i", "d", "s", "t"}) {
      AggregateSpec spec{func, Col(name),
                         std::string(AggFuncToString(func)) + "_" + name};
      if (spec.Bind(schema).ok()) aggs.push_back(std::move(spec));
    }
  }
  // COUNT and MIN and MAX take all five types, SUM two, AVG three.
  ASSERT_EQ(aggs.size(), 1u + 5 + 2 + 5 + 5 + 3);

  const std::vector<std::vector<std::string>> key_sets = {
      {}, {"b"}, {"i"}, {"d"}, {"s"}, {"t"}, {"s", "i"}, {"d", "b", "t"}};
  ThreadPool pool(3);
  Rng rng(6);
  for (bool nulls : {true, false}) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{300}}) {
      const Batch data = RandomBatch(rng, rows, nulls);
      for (const auto& keys : key_sets) {
        std::vector<int> key_cols;
        for (const auto& k : keys) key_cols.push_back(schema.FieldIndex(k));
        for (bool stream : {false, true}) {
          if (keys.empty() && stream) continue;  // global: one mode
          // A stream aggregate reads its input clustered on the key: order
          // the rows by their boxed key hash.
          Batch input = data;
          if (stream) {
            std::vector<uint32_t> order(rows);
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(order.begin(), order.end(),
                             [&](uint32_t x, uint32_t y) {
                               return BoxedKey(data, x, key_cols) <
                                      BoxedKey(data, y, key_cols);
                             });
            input = Batch(schema);
            input.AppendSelected(data, order);
          }
          // The output schema is the bound plan's; any run gives it.
          Batch first = RunAggregate(
              input, keys, aggs,
              stream ? AggAlgorithm::kStream : AggAlgorithm::kHash, 4096,
              nullptr, 1);
          const Batch want =
              BoxedAggregate(input, key_cols, aggs, stream, first.schema());
          for (int morsel_rows : {1, 7, 4096}) {
            for (int workers : {1, 4}) {
              SCOPED_TRACE(::testing::Message()
                           << "nulls " << nulls << " rows " << rows
                           << " keys " << keys.size() << " stream " << stream
                           << " morsel " << morsel_rows << " workers "
                           << workers);
              Batch got = RunAggregate(
                  input, keys, aggs,
                  stream ? AggAlgorithm::kStream : AggAlgorithm::kHash,
                  morsel_rows, workers > 1 ? &pool : nullptr, workers);
              ASSERT_EQ(got.num_rows(), want.num_rows());
              ExpectSameBatch(got, want);
            }
          }
        }
      }
    }
  }
}

TEST(TypedKernelsTest, NullKeyGroupsApartFromTheNullHashMarker) {
  // The group table compares the cells, not the RowKey.
  const Batch batch = NullsAndTheNullHashMarker();
  const std::vector<int> cols = {0};
  EXPECT_EQ(RowKey(batch, 0, cols), RowKey(batch, 1, cols));
  EXPECT_FALSE(SameGroupKey(batch, 0, batch, 1, cols));
  EXPECT_TRUE(SameGroupKey(batch, 0, batch, 2, cols));
  EXPECT_TRUE(SameGroupKey(batch, 1, batch, 3, cols));

  Batch out = RunAggregate(batch, {"k"},
                           {{AggFunc::kCount, nullptr, "n"}},
                           AggAlgorithm::kHash, 4096, nullptr, 1);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_TRUE(out.column(0).IsNull(0));
  EXPECT_EQ(out.column(0).int64_data()[1], 0xdead);
  EXPECT_EQ(out.column(1).int64_data(), (std::vector<int64_t>{2, 2}));
}

}  // namespace
}  // namespace cloudviews
