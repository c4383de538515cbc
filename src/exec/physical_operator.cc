#include "exec/physical_operator.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/guid.h"
#include "exec/batch_ops.h"
#include "exec/processor_registry.h"
#include "fault/backoff.h"
#include "fault/fault_injector.h"
#include "expr/aggregate.h"

namespace cloudviews {

namespace {

/// `morsels` without its empty batches, in order.
MorselSet DropEmpty(MorselSet morsels) {
  std::erase_if(morsels, [](const Batch& b) { return b.num_rows() == 0; });
  return morsels;
}

/// Group-start flags of one morsel of an input sorted on `cols`: flags[r]
/// is 1 iff row r differs from row r - 1. Row 0 is left to
/// StitchGroupStarts, which compares it with the previous morsel.
std::vector<uint8_t> GroupStartFlags(const Batch& in,
                                     const std::vector<int>& cols) {
  std::vector<uint8_t> flags(in.num_rows());
  for (size_t r = 1; r < in.num_rows(); ++r) {
    flags[r] = CompareRowsOnColumns(in, r - 1, cols, in, r, cols) != 0;
  }
  return flags;
}

/// Sets the row-0 flag of every non-empty morsel: the first row of the
/// input starts a group, and a later morsel's first row starts one iff it
/// differs from the last row of the non-empty morsel before it.
void StitchGroupStarts(const MorselSet& in, const std::vector<int>& cols,
                       std::vector<std::vector<uint8_t>>* flags) {
  const Batch* prev = nullptr;
  for (size_t m = 0; m < in.size(); ++m) {
    if (in[m].num_rows() == 0) continue;
    (*flags)[m][0] =
        prev == nullptr || CompareRowsOnColumns(*prev, prev->num_rows() - 1,
                                                cols, in[m], 0, cols) != 0;
    prev = &in[m];
  }
}

// ---------------------------------------------------------------------------
// Extract / ViewRead: storage scans re-chunked into morsels. Slices are
// planned sequentially in Open; materializing each slice is the parallel
// morsel work. Only opening the stream differs between the two, plus the
// merge a sorted multi-partition view needs.
// ---------------------------------------------------------------------------

class ScanOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    if (node_->kind() == OpKind::kExtract) {
      auto* extract = static_cast<ExtractNode*>(node_);
      CV_ASSIGN_OR_RETURN(
          stream_, ctx.exec->storage->OpenStream(extract->stream_name()));
      if (!(stream_->schema == extract->output_schema())) {
        return Status::TypeError("stream '" + extract->stream_name() +
                                 "' schema does not match EXTRACT "
                                 "declaration");
      }
    } else {
      CV_RETURN_NOT_OK(OpenView(ctx));
    }
    if (!need_sort_) {
      slices_ = PlanMorselSlices(stream_->batches, ctx.morsel_rows);
      out_.resize(slices_.size());
    }
    return Status::OK();
  }

  size_t NumMorsels(size_t) const override { return slices_.size(); }

  Status ProcessMorsel(OperatorContext&, size_t, size_t m) override {
    const MorselSlice& s = slices_[m];
    out_[m] = MaterializeSlice(stream_->batches[s.batch], s.begin, s.end);
    return Status::OK();
  }

  Result<MorselSet> Close(OperatorContext& ctx) override {
    if (!need_sort_) return std::move(out_);
    Batch combined = CombineBatches(stream_->schema, stream_->batches);
    return ChunkBatch(SortBatch(combined, stream_->props.sort_order.keys),
                      ctx.morsel_rows);
  }

 private:
  Status OpenView(OperatorContext& ctx) {
    auto* view = static_cast<ViewReadNode*>(node_);
    // A view read is an optimization, never a correctness dependency:
    // retry transient failures, then surface kViewUnavailable so the job
    // manager falls back to the original (non-rewritten) plan instead of
    // failing the job (the ReStore principle; see DESIGN.md).
    Status open = fault::RetryWithBackoff(
        ctx.exec->retry,
        [&]() -> Status {
          auto r = ctx.exec->storage->OpenStream(view->view_path());
          if (!r.ok()) return r.status();
          stream_ = std::move(r).ValueOrDie();
          return Status::OK();
        },
        ctx.exec->sleeper);
    if (!open.ok()) {
      return Status::ViewUnavailable("view '" + view->view_path() +
                                     "' could not be read: " +
                                     open.ToString());
    }
    // The view's partitions are each sorted per its design; the node
    // advertises that order, so restore it globally across partitions
    // (the k-way merge a distributed reader performs).
    need_sort_ = stream_->props.sort_order.IsSorted() &&
                 stream_->batches.size() > 1;
    return Status::OK();
  }

  StreamHandle stream_;
  bool need_sort_ = false;
  std::vector<MorselSlice> slices_;
  MorselSet out_;
};

// ---------------------------------------------------------------------------
// Filter / Project: embarrassingly parallel per morsel; outputs keep the
// input morsel order, so concatenation equals the single-threaded result.
// ---------------------------------------------------------------------------

/// One output morsel per input morsel; subclasses fill out_[m].
class PerMorselOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    out_.resize(inputs_[0].size());
    return Status::OK();
  }

  size_t NumMorsels(size_t) const override { return inputs_[0].size(); }

  Result<MorselSet> Close(OperatorContext&) override {
    return DropEmpty(std::move(out_));
  }

 protected:
  MorselSet out_;
};

class FilterOperator : public PerMorselOperator {
 public:
  using PerMorselOperator::PerMorselOperator;

  Status ProcessMorsel(OperatorContext&, size_t, size_t m) override {
    auto* filter = static_cast<FilterNode*>(node_);
    const Batch& in = inputs_[0][m];
    Column pred(DataType::kBool);
    CV_RETURN_NOT_OK(filter->predicate()->Evaluate(in, &pred));
    std::vector<uint32_t> selected;
    selected.reserve(in.num_rows());
    for (size_t r = 0; r < in.num_rows(); ++r) {
      if (!pred.IsNull(r) && pred.bool_data()[r] != 0) {
        selected.push_back(static_cast<uint32_t>(r));
      }
    }
    Batch out(in.schema());
    out.AppendSelected(in, selected);
    out_[m] = std::move(out);
    return Status::OK();
  }
};

class ProjectOperator : public PerMorselOperator {
 public:
  using PerMorselOperator::PerMorselOperator;

  Status ProcessMorsel(OperatorContext&, size_t, size_t m) override {
    auto* project = static_cast<ProjectNode*>(node_);
    const Batch& in = inputs_[0][m];
    Batch out(node_->output_schema());
    for (size_t e = 0; e < project->exprs().size(); ++e) {
      Column col(node_->output_schema().field(e).type);
      CV_RETURN_NOT_OK(project->exprs()[e].expr->Evaluate(in, &col));
      out.column(e) = std::move(col);
    }
    out_[m] = std::move(out);
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Join. Hash join: phase 0 hashes build-side keys per morsel (parallel),
// the build table is then filled in right-row order (sequential, so match
// lists keep the single-threaded order), phase 1 probes left morsels in
// parallel. Merge join stays sequential in Close. Both collect the matched
// row pairs first and then gather each output column in one pass.
// ---------------------------------------------------------------------------

class JoinOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    auto* join = static_cast<JoinNode*>(node_);
    CV_ASSIGN_OR_RETURN(lcols_,
                        ResolveColumns(InputSchema(0), join->LeftKeys()));
    CV_ASSIGN_OR_RETURN(rcols_,
                        ResolveColumns(InputSchema(1), join->RightKeys()));
    merge_ = join->algorithm() == JoinAlgorithm::kMerge;
    if (merge_) {
      if (join->join_type() != JoinType::kInner) {
        return Status::Unimplemented("merge join supports INNER only");
      }
    } else {
      right_keys_.resize(inputs_[1].size());
      probe_out_.resize(inputs_[0].size());
    }
    return Status::OK();
  }

  size_t num_phases() const override { return merge_ ? 1 : 2; }

  size_t NumMorsels(size_t phase) const override {
    if (merge_) return 0;
    return phase == 0 ? inputs_[1].size() : inputs_[0].size();
  }

  Status PreparePhase(OperatorContext&, size_t phase) override {
    if (merge_ || phase != 1) return Status::OK();
    size_t total = 0;
    for (const auto& keys : right_keys_) total += keys.size();
    table_.reserve(total);
    for (size_t m = 0; m < right_keys_.size(); ++m) {
      for (size_t r = 0; r < right_keys_[m].size(); ++r) {
        table_[right_keys_[m][r]].push_back(
            {static_cast<uint32_t>(m), static_cast<uint32_t>(r)});
      }
    }
    // Gather sources per right column: every right morsel, then a one-row
    // all-null batch that unmatched left-outer rows point at.
    const Schema& right_schema = InputSchema(1);
    null_right_ = Batch(right_schema);
    for (size_t i = 0; i < right_schema.num_fields(); ++i) {
      null_right_.column(i).AppendNull();
    }
    right_srcs_.assign(right_schema.num_fields(), {});
    for (size_t i = 0; i < right_srcs_.size(); ++i) {
      for (const Batch& b : inputs_[1]) right_srcs_[i].push_back(&b.column(i));
      right_srcs_[i].push_back(&null_right_.column(i));
    }
    return Status::OK();
  }

  Status ProcessMorsel(OperatorContext&, size_t phase, size_t m) override {
    if (phase == 0) {
      const Batch& right = inputs_[1][m];
      std::vector<Hash128> keys;
      keys.reserve(right.num_rows());
      for (size_t r = 0; r < right.num_rows(); ++r) {
        keys.push_back(RowKey(right, r, rcols_));
      }
      right_keys_[m] = std::move(keys);
      return Status::OK();
    }
    auto* join = static_cast<JoinNode*>(node_);
    const Batch& left = inputs_[0][m];
    const RowRef null_ref{static_cast<uint32_t>(inputs_[1].size()), 0};
    std::vector<uint32_t> lrows;
    std::vector<RowRef> rrows;
    for (size_t l = 0; l < left.num_rows(); ++l) {
      auto it = table_.find(RowKey(left, l, lcols_));
      if (it != table_.end()) {
        for (const RowRef& ref : it->second) {
          lrows.push_back(static_cast<uint32_t>(l));
          rrows.push_back(ref);
        }
      } else if (join->join_type() == JoinType::kLeftOuter) {
        lrows.push_back(static_cast<uint32_t>(l));
        rrows.push_back(null_ref);
      }
    }
    Batch out(node_->output_schema());
    for (size_t i = 0; i < left.num_columns(); ++i) {
      out.column(i).AppendSelected(left.column(i), lrows);
    }
    for (size_t i = 0; i < right_srcs_.size(); ++i) {
      out.column(left.num_columns() + i).AppendGathered(right_srcs_[i], rrows);
    }
    probe_out_[m] = std::move(out);
    return Status::OK();
  }

  Result<MorselSet> Close(OperatorContext& ctx) override {
    if (!merge_) return DropEmpty(std::move(probe_out_));
    // Merge join over inputs sorted on the keys (enforced by the
    // optimizer); kept sequential.
    Batch left = CombineBatches(InputSchema(0), inputs_[0]);
    Batch right = CombineBatches(InputSchema(1), inputs_[1]);
    std::vector<uint32_t> lrows;
    std::vector<uint32_t> rrows;
    auto key_cmp = [&](size_t lr, size_t rr) {
      return CompareRowsOnColumns(left, lr, lcols_, right, rr, rcols_);
    };
    size_t li = 0, ri = 0;
    while (li < left.num_rows() && ri < right.num_rows()) {
      int cmp = key_cmp(li, ri);
      if (cmp < 0) {
        ++li;
      } else if (cmp > 0) {
        ++ri;
      } else {
        // Duplicate groups on both sides.
        size_t lend = li + 1;
        while (lend < left.num_rows() && key_cmp(lend, ri) == 0) ++lend;
        size_t rend = ri + 1;
        while (rend < right.num_rows() && key_cmp(li, rend) == 0) ++rend;
        for (size_t a = li; a < lend; ++a) {
          for (size_t b = ri; b < rend; ++b) {
            lrows.push_back(static_cast<uint32_t>(a));
            rrows.push_back(static_cast<uint32_t>(b));
          }
        }
        li = lend;
        ri = rend;
      }
    }
    Batch out(node_->output_schema());
    for (size_t i = 0; i < left.num_columns(); ++i) {
      out.column(i).AppendSelected(left.column(i), lrows);
    }
    for (size_t i = 0; i < right.num_columns(); ++i) {
      out.column(left.num_columns() + i)
          .AppendSelected(right.column(i), rrows);
    }
    return ChunkBatch(std::move(out), ctx.morsel_rows);
  }

 private:
  std::vector<int> lcols_;
  std::vector<int> rcols_;
  bool merge_ = false;
  std::vector<std::vector<Hash128>> right_keys_;
  std::unordered_map<Hash128, std::vector<RowRef>, Hash128Hasher> table_;
  Batch null_right_;
  std::vector<std::vector<const Column*>> right_srcs_;
  MorselSet probe_out_;
};

// ---------------------------------------------------------------------------
// Aggregate. The parallel phase only *precomputes*: argument columns, key
// hashes, per-morsel group discovery, sort-boundary flags. Close numbers the
// groups in global first-occurrence order, then folds the typed states one
// aggregate at a time in exact global row order, so every sum (including
// floating point) is bit-identical to the single-threaded engine.
// ---------------------------------------------------------------------------

class AggregateOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    agg_ = static_cast<AggregateNode*>(node_);
    if (agg_->group_keys().empty()) {
      mode_ = Mode::kGlobal;
    } else {
      CV_ASSIGN_OR_RETURN(gcols_,
                          ResolveColumns(InputSchema(0), agg_->group_keys()));
      mode_ = agg_->algorithm() == AggAlgorithm::kStream ? Mode::kStream
                                                         : Mode::kHash;
    }
    pre_.resize(inputs_[0].size());
    group_starts_.resize(inputs_[0].size());
    return Status::OK();
  }

  size_t NumMorsels(size_t) const override { return inputs_[0].size(); }

  Status ProcessMorsel(OperatorContext&, size_t, size_t m) override {
    const Batch& in = inputs_[0][m];
    MorselPre& pre = pre_[m];
    // Pre-evaluate aggregate arguments over this morsel.
    for (const auto& spec : agg_->aggregates()) {
      if (spec.arg) {
        Column col(spec.arg->output_type());
        CV_RETURN_NOT_OK(spec.arg->Evaluate(in, &col));
        pre.arg_cols.push_back(std::move(col));
      } else {
        pre.arg_cols.emplace_back(DataType::kInt64);  // placeholder
      }
    }
    switch (mode_) {
      case Mode::kGlobal:
        pre.group_of.assign(in.num_rows(), 0);
        break;
      case Mode::kHash: {
        // Number this morsel's groups in first-occurrence order.
        pre.key_hashes = GroupKeyHashes(in, gcols_);
        pre.group_of.resize(in.num_rows());
        GroupTable table;
        for (size_t r = 0; r < in.num_rows(); ++r) {
          auto [group, inserted] =
              table.FindOrInsert(pre.key_hashes[r], [&](uint32_t g) {
                return SameGroupKey(in, pre.local_firsts[g], in, r, gcols_);
              });
          if (inserted) pre.local_firsts.push_back(static_cast<uint32_t>(r));
          pre.group_of[r] = group;
        }
        break;
      }
      case Mode::kStream:
        group_starts_[m] = GroupStartFlags(in, gcols_);
        break;
    }
    return Status::OK();
  }

  Result<MorselSet> Close(OperatorContext&) override {
    const MorselSet& in = inputs_[0];
    // Each group's first row, in global first-occurrence order; afterwards
    // every morsel's group_of holds global group ids.
    std::vector<RowRef> firsts;
    switch (mode_) {
      case Mode::kGlobal:
        break;
      case Mode::kHash: {
        GroupTable table;
        for (size_t m = 0; m < in.size(); ++m) {
          MorselPre& pre = pre_[m];
          // New keys keep their local first-occurrence order, which is the
          // global one.
          std::vector<uint32_t> local_to_global(pre.local_firsts.size());
          for (size_t j = 0; j < pre.local_firsts.size(); ++j) {
            const uint32_t row = pre.local_firsts[j];
            auto [group, inserted] =
                table.FindOrInsert(pre.key_hashes[row], [&](uint32_t g) {
                  return SameGroupKey(in[firsts[g].batch], firsts[g].row,
                                      in[m], row, gcols_);
                });
            if (inserted) firsts.push_back({static_cast<uint32_t>(m), row});
            local_to_global[j] = group;
          }
          for (uint32_t& g : pre.group_of) g = local_to_global[g];
        }
        break;
      }
      case Mode::kStream: {
        StitchGroupStarts(in, gcols_, &group_starts_);
        for (size_t m = 0; m < in.size(); ++m) {
          pre_[m].group_of.resize(in[m].num_rows());
          for (size_t r = 0; r < in[m].num_rows(); ++r) {
            if (group_starts_[m][r] != 0) {
              firsts.push_back(
                  {static_cast<uint32_t>(m), static_cast<uint32_t>(r)});
            }
            pre_[m].group_of[r] = static_cast<uint32_t>(firsts.size() - 1);
          }
        }
        break;
      }
    }

    Batch out(node_->output_schema());
    // Empty input with group keys yields no rows; without keys it yields
    // the single global group.
    const size_t groups = mode_ == Mode::kGlobal ? 1 : firsts.size();
    std::vector<const Column*> srcs(in.size());
    for (size_t k = 0; k < gcols_.size(); ++k) {
      for (size_t m = 0; m < in.size(); ++m) {
        srcs[m] = &in[m].column(static_cast<size_t>(gcols_[k]));
      }
      out.column(k).AppendGathered(srcs, firsts);
    }
    for (size_t a = 0; a < agg_->aggregates().size(); ++a) {
      const AggregateSpec& spec = agg_->aggregates()[a];
      AggState state(spec.func,
                     spec.arg ? spec.arg->output_type() : DataType::kInt64,
                     groups);
      for (size_t m = 0; m < in.size(); ++m) {
        if (spec.arg) {
          state.Update(pre_[m].arg_cols[a], pre_[m].group_of);
        } else {
          state.UpdateCountStar(pre_[m].group_of);
        }
      }
      state.Finish(&out.column(gcols_.size() + a));
    }
    MorselSet result;
    if (out.num_rows() > 0) result.push_back(std::move(out));
    return result;
  }

 private:
  enum class Mode { kGlobal, kHash, kStream };
  struct MorselPre {
    std::vector<Column> arg_cols;
    /// The group of each row: local ids after ProcessMorsel in hash mode,
    /// global ids once Close has numbered the groups.
    std::vector<uint32_t> group_of;
    /// Hash mode: every row's key hash, and each local group's first row.
    std::vector<uint64_t> key_hashes;
    std::vector<uint32_t> local_firsts;
  };

  AggregateNode* agg_ = nullptr;
  Mode mode_ = Mode::kGlobal;
  std::vector<int> gcols_;
  std::vector<MorselPre> pre_;
  /// Stream mode: GroupStartFlags per morsel, stitched in Close.
  std::vector<std::vector<uint8_t>> group_starts_;
};

// ---------------------------------------------------------------------------
// Sort. Phase 0 stable-sorts every morsel in parallel; the sorted runs are
// then merged sequentially with ties broken by morsel index — exactly the
// permutation std::stable_sort produces on the concatenated input — and
// phase 1 gathers the output chunks in parallel.
// ---------------------------------------------------------------------------

class SortOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    auto* sort = static_cast<SortNode*>(node_);
    keys_ = ResolveSortKeys(InputSchema(0), sort->keys());
    orders_.resize(inputs_[0].size());
    return Status::OK();
  }

  size_t num_phases() const override { return 2; }

  size_t NumMorsels(size_t phase) const override {
    return phase == 0 ? inputs_[0].size() : chunks_;
  }

  Status PreparePhase(OperatorContext& ctx, size_t phase) override {
    if (phase != 1) return Status::OK();
    const MorselSet& in = inputs_[0];
    size_t total = MorselRowCount(in);
    global_.reserve(total);
    if (in.size() == 1) {
      for (uint32_t r : orders_[0]) global_.push_back({0, r});
    } else if (in.size() > 1) {
      // K-way merge of the sorted runs; on equal keys the lower morsel
      // index wins, preserving stability.
      struct Cursor {
        size_t morsel;
        size_t pos;
      };
      auto after = [&](const Cursor& a, const Cursor& b) {
        int cmp = CompareRowsSorted(in[a.morsel], orders_[a.morsel][a.pos],
                                    in[b.morsel], orders_[b.morsel][b.pos],
                                    keys_);
        if (cmp != 0) return cmp > 0;
        return a.morsel > b.morsel;
      };
      std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(
          after);
      for (size_t m = 0; m < in.size(); ++m) {
        if (!orders_[m].empty()) heap.push({m, 0});
      }
      while (!heap.empty()) {
        Cursor c = heap.top();
        heap.pop();
        global_.push_back(
            {static_cast<uint32_t>(c.morsel), orders_[c.morsel][c.pos]});
        if (++c.pos < orders_[c.morsel].size()) heap.push(c);
      }
    }
    chunks_ = (total + ctx.morsel_rows - 1) / ctx.morsel_rows;
    out_.resize(chunks_);
    return Status::OK();
  }

  Status ProcessMorsel(OperatorContext& ctx, size_t phase,
                       size_t m) override {
    if (phase == 0) {
      orders_[m] = StableSortOrder(inputs_[0][m], keys_);
      return Status::OK();
    }
    Batch out(InputSchema(0));
    size_t begin = m * ctx.morsel_rows;
    size_t end = std::min(begin + ctx.morsel_rows, global_.size());
    out.AppendGathered(inputs_[0],
                       std::span<const RowRef>(global_).subspan(
                           begin, end - begin));
    out_[m] = std::move(out);
    return Status::OK();
  }

  Result<MorselSet> Close(OperatorContext&) override {
    return std::move(out_);
  }

 private:
  ResolvedSortKeys keys_;
  std::vector<std::vector<uint32_t>> orders_;
  std::vector<RowRef> global_;
  size_t chunks_ = 0;
  MorselSet out_;
};

// ---------------------------------------------------------------------------
// Exchange. Hash partitioning splits each morsel's rows by partition in
// parallel; the output row sequence is then partition, input morsel, row —
// exactly PartitionBatch + CombineBatches — and the gather phase copies it
// out in morsel_rows-sized chunks in parallel. Round-robin builds the same
// sequence directly. Downstream operators merge in global row order, so
// cutting the sequence into chunks instead of one morsel per partition
// changes no result.
// ---------------------------------------------------------------------------

class ExchangeOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    auto* exchange = static_cast<ExchangeNode*>(node_);
    const Partitioning& p = exchange->partitioning();
    scheme_ = p.scheme;
    count_ = p.partition_count > 0 ? static_cast<size_t>(p.partition_count)
                                   : 1;
    if (scheme_ == PartitionScheme::kHash) {
      CV_ASSIGN_OR_RETURN(cols_, ResolveColumns(InputSchema(0), p.columns));
      rows_.resize(inputs_[0].size());
    }
    return Status::OK();
  }

  size_t num_phases() const override {
    switch (scheme_) {
      case PartitionScheme::kHash:
        return 2;
      case PartitionScheme::kRoundRobin:
        return 1;
      default:
        return 0;
    }
  }

  Status PreparePhase(OperatorContext& ctx, size_t phase) override {
    if (phase + 1 != num_phases()) return Status::OK();
    const MorselSet& in = inputs_[0];
    order_.reserve(MorselRowCount(in));
    if (scheme_ == PartitionScheme::kHash) {
      for (size_t p = 0; p < count_; ++p) {
        for (size_t mi = 0; mi < in.size(); ++mi) {
          for (uint32_t r : rows_[mi][p]) {
            order_.push_back({static_cast<uint32_t>(mi), r});
          }
        }
      }
    } else {
      // Global row g goes to partition g % count_.
      std::vector<size_t> offsets(in.size());
      for (size_t mi = 0, off = 0; mi < in.size(); ++mi) {
        offsets[mi] = off;
        off += in[mi].num_rows();
      }
      for (size_t p = 0; p < count_; ++p) {
        for (size_t mi = 0; mi < in.size(); ++mi) {
          for (size_t r = (p + count_ - offsets[mi] % count_) % count_;
               r < in[mi].num_rows(); r += count_) {
            order_.push_back(
                {static_cast<uint32_t>(mi), static_cast<uint32_t>(r)});
          }
        }
      }
    }
    chunks_ = (order_.size() + ctx.morsel_rows - 1) / ctx.morsel_rows;
    out_.resize(chunks_);
    return Status::OK();
  }

  size_t NumMorsels(size_t phase) const override {
    if (phase + 1 == num_phases()) return chunks_;
    return inputs_[0].size();  // hash phase 0: one task per input morsel
  }

  Status ProcessMorsel(OperatorContext& ctx, size_t phase,
                       size_t m) override {
    if (phase + 1 != num_phases()) {
      rows_[m] = HashPartitionRows(inputs_[0][m], cols_, count_);
      return Status::OK();
    }
    Batch out(InputSchema(0));
    size_t begin = m * ctx.morsel_rows;
    size_t end = std::min(begin + ctx.morsel_rows, order_.size());
    out.AppendGathered(inputs_[0], std::span<const RowRef>(order_).subspan(
                                       begin, end - begin));
    out_[m] = std::move(out);
    return Status::OK();
  }

  Result<MorselSet> Close(OperatorContext& ctx) override {
    switch (scheme_) {
      case PartitionScheme::kAny:
      case PartitionScheme::kSingleton:
        return std::move(inputs_[0]);
      case PartitionScheme::kRange: {
        // Approximate range partitioning cuts the sorted input into equal
        // runs; concatenated back, that is exactly the sorted input.
        auto* exchange = static_cast<ExchangeNode*>(node_);
        std::vector<SortKey> keys;
        for (const auto& c : exchange->partitioning().columns) {
          keys.push_back({c, true});
        }
        Batch combined = CombineBatches(InputSchema(0), inputs_[0]);
        return ChunkBatch(SortBatch(combined, keys), ctx.morsel_rows);
      }
      default:
        return std::move(out_);
    }
  }

 private:
  PartitionScheme scheme_ = PartitionScheme::kAny;
  size_t count_ = 1;
  std::vector<int> cols_;
  /// Hash scheme: rows_[morsel][partition] lists that morsel's rows of the
  /// partition.
  std::vector<std::vector<std::vector<uint32_t>>> rows_;
  /// The output row sequence: partition, then input morsel, then row.
  std::vector<RowRef> order_;
  size_t chunks_ = 0;
  MorselSet out_;
};

// ---------------------------------------------------------------------------
// UnionAll / Top: pure morsel plumbing.
// ---------------------------------------------------------------------------

class UnionAllOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Result<MorselSet> Close(OperatorContext&) override {
    MorselSet all;
    for (auto& child : inputs_) {
      all.insert(all.end(), std::make_move_iterator(child.begin()),
                 std::make_move_iterator(child.end()));
    }
    return DropEmpty(std::move(all));
  }
};

class TopOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Result<MorselSet> Close(OperatorContext&) override {
    auto* top = static_cast<TopNode*>(node_);
    size_t remaining = std::min<size_t>(static_cast<size_t>(top->limit()),
                                        MorselRowCount(inputs_[0]));
    MorselSet result;
    for (auto& m : inputs_[0]) {
      if (remaining == 0) break;
      if (m.num_rows() <= remaining) {
        remaining -= m.num_rows();
        result.push_back(std::move(m));
      } else {
        result.push_back(MaterializeSlice(m, 0, remaining));
        remaining = 0;
      }
    }
    return result;
  }
};

// ---------------------------------------------------------------------------
// Process: the UDO consumes the whole input at once (it may be stateful
// across rows), so the call itself stays sequential; only re-chunking the
// output is morselized.
// ---------------------------------------------------------------------------

class ProcessOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    auto* process = static_cast<ProcessNode*>(node_);
    CV_ASSIGN_OR_RETURN(fn_,
                        ProcessorRegistry::Global()->Lookup(
                            process->processor()));
    return Status::OK();
  }

  Result<MorselSet> Close(OperatorContext& ctx) override {
    auto* process = static_cast<ProcessNode*>(node_);
    Batch in = CombineBatches(InputSchema(0), inputs_[0]);
    Batch result;
    CV_RETURN_NOT_OK((*fn_)(in, &result));
    if (!(result.schema() == node_->output_schema())) {
      return Status::TypeError("processor '" + process->processor() +
                               "' produced schema [" +
                               result.schema().ToString() + "], declared [" +
                               node_->output_schema().ToString() + "]");
    }
    return ChunkBatch(std::move(result), ctx.morsel_rows);
  }

 private:
  const ProcessorFn* fn_ = nullptr;
};

// ---------------------------------------------------------------------------
// Reduce: group boundaries on the (sorted) input are detected per morsel in
// parallel; groups are then packed into morsel-sized ranges and the
// group-wise UDO runs range-parallel, with outputs concatenated in group
// order. Registered reducers must be pure functions of their input group.
// ---------------------------------------------------------------------------

class ReduceOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) override {
    CV_RETURN_NOT_OK(PhysicalOperator::Open(ctx, std::move(inputs)));
    auto* reduce = static_cast<ReduceNode*>(node_);
    CV_ASSIGN_OR_RETURN(kcols_, ResolveColumns(InputSchema(0),
                                               reduce->keys()));
    CV_ASSIGN_OR_RETURN(
        fn_, ProcessorRegistry::Global()->Lookup(reduce->processor()));
    boundary_.resize(inputs_[0].size());
    return Status::OK();
  }

  size_t num_phases() const override { return 2; }

  size_t NumMorsels(size_t phase) const override {
    return phase == 0 ? inputs_[0].size() : tasks_.size();
  }

  Status PreparePhase(OperatorContext& ctx, size_t phase) override {
    if (phase != 1) return Status::OK();
    const MorselSet& in = inputs_[0];
    // Stitch per-morsel boundary flags into global group ranges.
    StitchGroupStarts(in, kcols_, &boundary_);
    offsets_.resize(in.size());
    size_t off = 0;
    for (size_t m = 0; m < in.size(); ++m) {
      offsets_[m] = off;
      for (size_t r = 0; r < in[m].num_rows(); ++r) {
        if (boundary_[m][r] != 0) {
          if (!groups_.empty()) groups_.back().second = off + r;
          groups_.push_back({off + r, 0});
        }
      }
      off += in[m].num_rows();
    }
    if (!groups_.empty()) groups_.back().second = off;
    // Pack consecutive groups into roughly morsel-sized UDO tasks.
    size_t begin = 0;
    while (begin < groups_.size()) {
      size_t end = begin;
      size_t rows = 0;
      while (end < groups_.size() && rows < ctx.morsel_rows) {
        rows += groups_[end].second - groups_[end].first;
        ++end;
      }
      tasks_.push_back({begin, end});
      begin = end;
    }
    out_.resize(tasks_.size());
    return Status::OK();
  }

  Status ProcessMorsel(OperatorContext&, size_t phase, size_t t) override {
    if (phase == 0) {
      boundary_[t] = GroupStartFlags(inputs_[0][t], kcols_);
      return Status::OK();
    }
    auto* reduce = static_cast<ReduceNode*>(node_);
    Batch out(node_->output_schema());
    for (size_t g = tasks_[t].first; g < tasks_[t].second; ++g) {
      Batch group = GatherGlobalRows(groups_[g].first, groups_[g].second);
      Batch result;
      CV_RETURN_NOT_OK((*fn_)(group, &result));
      if (!(result.schema() == node_->output_schema())) {
        return Status::TypeError("reducer '" + reduce->processor() +
                                 "' produced schema [" +
                                 result.schema().ToString() +
                                 "], declared [" +
                                 node_->output_schema().ToString() + "]");
      }
      out.AppendRowsFrom(result, 0, result.num_rows());
    }
    out_[t] = std::move(out);
    return Status::OK();
  }

  Result<MorselSet> Close(OperatorContext&) override {
    return DropEmpty(std::move(out_));
  }

 private:
  /// Materializes global rows [begin, end) — contiguous across morsels.
  Batch GatherGlobalRows(size_t begin, size_t end) const {
    const MorselSet& in = inputs_[0];
    Batch out(InputSchema(0));
    for (size_t m = 0; m < in.size() && begin < end; ++m) {
      size_t m_end = offsets_[m] + in[m].num_rows();
      if (begin >= m_end) continue;
      size_t local_begin = begin - offsets_[m];
      size_t local_end = std::min(end, m_end) - offsets_[m];
      out.AppendRowsFrom(in[m], local_begin, local_end);
      begin = offsets_[m] + local_end;
    }
    return out;
  }

  std::vector<int> kcols_;
  const ProcessorFn* fn_ = nullptr;
  std::vector<std::vector<uint8_t>> boundary_;
  std::vector<size_t> offsets_;
  std::vector<std::pair<size_t, size_t>> groups_;  // global [begin, end)
  std::vector<std::pair<size_t, size_t>> tasks_;   // group index ranges
  MorselSet out_;
};

// ---------------------------------------------------------------------------
// Spool / Output: storage writers, sequential by nature; the job's data
// passes through as the unchanged input morsels.
// ---------------------------------------------------------------------------

class SpoolOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Result<MorselSet> Close(OperatorContext& ctx) override {
    auto* spool = static_cast<SpoolNode*>(node_);
    Batch in = CombineBatches(InputSchema(0), inputs_[0]);
    // Enforce the mined physical design on the stored copy.
    Batch designed = in;
    if (spool->design().sort_order.IsSorted()) {
      designed = SortBatch(designed, spool->design().sort_order.keys);
    }
    std::vector<Batch> stored;
    if (spool->design().partitioning.IsSpecified()) {
      CV_ASSIGN_OR_RETURN(
          stored, PartitionBatch(designed, spool->design().partitioning));
      // Partitioning loses the global sort; re-sort each partition.
      if (spool->design().sort_order.IsSorted()) {
        for (auto& p : stored) {
          p = SortBatch(p, spool->design().sort_order.keys);
        }
      }
    } else {
      stored.push_back(std::move(designed));
    }
    // The spool's lineage lifetime (Sec 5.4) is the one source of expiry;
    // a spool without one writes a view that never expires.
    LogicalTime now = ctx.exec->storage->clock()->Now();
    LogicalTime expiry =
        spool->lifetime_seconds() > 0 ? now + spool->lifetime_seconds() : 0;
    StreamData view = MakeStreamData(spool->view_path(), GenerateGuid(),
                                     in.schema(), std::move(stored), now,
                                     expiry, spool->design());
    Status write = ctx.exec->storage->WriteStream(view);
    if (!write.ok()) {
      // "Do no harm": materialization is an optimization, so a failed (or
      // torn) view write must not fail the job. Discard any partial, hand
      // the build lock back through on_view_abandoned, and pass the
      // spool's input through unchanged.
      // Intentional drop: a cleanly failed write stored nothing, so there
      // may be no stream to delete.
      (void)ctx.exec->storage->DeleteStream(spool->view_path());
      if (ctx.exec->on_view_abandoned) {
        ctx.exec->on_view_abandoned(*spool, write);
      }
      return std::move(inputs_[0]);
    }
    if (ctx.exec->fault != nullptr) {
      Status crash = ctx.exec->fault->MaybeInject(
          fault::points::kBuilderCrash, spool->view_path());
      if (!crash.ok()) {
        // Simulated builder death between write and registration: the
        // build lock stays held and the unregistered file stays in the
        // store. Recovery is the lease machinery's job (lease expiry,
        // takeover orphan cleanup, stale-registration fencing) — no
        // in-process cleanup may run, the "process" is gone.
        return crash;
      }
    }
    // Early materialization: publish before the job finishes (Sec 6.4).
    if (ctx.exec->on_view_materialized) {
      ctx.exec->on_view_materialized(*spool, view);
    }
    return std::move(inputs_[0]);
  }
};

class OutputOperator : public PhysicalOperator {
 public:
  using PhysicalOperator::PhysicalOperator;

  Result<MorselSet> Close(OperatorContext& ctx) override {
    auto* output = static_cast<OutputNode*>(node_);
    Batch in = CombineBatches(InputSchema(0), inputs_[0]);
    // Record the physical layout the enforced design produced, so that
    // downstream consumer jobs (and the analyzer) see it.
    StreamData data = MakeStreamData(
        output->stream_name(), GenerateGuid(), in.schema(), {in},
        ctx.exec->storage->clock()->Now(), /*expires_at=*/0,
        node_->children()[0]->Delivered());
    CV_RETURN_NOT_OK(ctx.exec->storage->WriteStream(std::move(data)));
    return std::move(inputs_[0]);
  }
};

}  // namespace

Result<std::unique_ptr<PhysicalOperator>> MakePhysicalOperator(
    PlanNode* node) {
  switch (node->kind()) {
    case OpKind::kExtract:
    case OpKind::kViewRead:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<ScanOperator>(node));
    case OpKind::kFilter:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<FilterOperator>(node));
    case OpKind::kProject:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<ProjectOperator>(node));
    case OpKind::kJoin:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<JoinOperator>(node));
    case OpKind::kAggregate:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<AggregateOperator>(node));
    case OpKind::kSort:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<SortOperator>(node));
    case OpKind::kExchange:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<ExchangeOperator>(node));
    case OpKind::kUnionAll:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<UnionAllOperator>(node));
    case OpKind::kProcess:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<ProcessOperator>(node));
    case OpKind::kTop:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<TopOperator>(node));
    case OpKind::kSpool:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<SpoolOperator>(node));
    case OpKind::kReduce:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<ReduceOperator>(node));
    case OpKind::kOutput:
      return std::unique_ptr<PhysicalOperator>(std::make_unique<OutputOperator>(node));
  }
  return Status::Internal("unknown operator kind");
}

}  // namespace cloudviews
