#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "signature/signature.h"

namespace cloudviews {

namespace {

// Weights of the abstract cost model. Shuffles and sorts dominate,
// mirroring SCOPE where repartitioning and sorting "are often the slowest
// steps in the job execution" (Sec 5.3).
constexpr double kScanWeight = 1.0;        // per input row scanned
constexpr double kFilterWeight = 0.2;      // per input row
constexpr double kProjectWeight = 0.3;     // per input row
constexpr double kHashJoinWeight = 1.5;    // per input row (both sides)
constexpr double kMergeJoinWeight = 0.8;   // per input row (both sides)
constexpr double kHashAggWeight = 1.5;     // per input row
constexpr double kStreamAggWeight = 0.6;   // per input row
constexpr double kSortWeight = 0.4;        // per row * log2(rows)
constexpr double kShuffleWeight = 4.0;     // per row through an exchange
constexpr double kProcessWeight = 2.0;     // per input row (opaque user code)
constexpr double kViewReadWeight = 0.6;    // per view row scanned
constexpr double kSpoolWeight = 1.2;       // per row written to the view
constexpr double kOutputWeight = 0.8;      // per row written
constexpr double kTopWeight = 0.05;        // per output row
constexpr double kBytesWeight = 2e-5;      // per byte moved at scans/shuffles

}  // namespace

double CostModel::PredicateSelectivity(const Expr& predicate) {
  switch (predicate.kind()) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(predicate);
      switch (cmp.op()) {
        case CompareOp::kEq:
          return 0.1;
        case CompareOp::kNe:
          return 0.9;
        default:
          return 0.33;  // range predicates
      }
    }
    case ExprKind::kLogical: {
      const auto& lg = static_cast<const LogicalExpr&>(predicate);
      if (lg.op() == LogicalOp::kNot) {
        return 1.0 - PredicateSelectivity(*lg.children()[0]);
      }
      double a = PredicateSelectivity(*lg.children()[0]);
      double b = PredicateSelectivity(*lg.children()[1]);
      if (lg.op() == LogicalOp::kAnd) return a * b;
      return std::min(1.0, a + b - a * b);
    }
    case ExprKind::kUdfCall:
      return 0.5;  // opaque user code
    default:
      return 0.5;
  }
}

double CostModel::ViewReadCost(double rows, double bytes) const {
  return rows * kViewReadWeight + bytes * kBytesWeight;
}

double CostModel::ViewWriteCost(double rows, double bytes) const {
  return rows * kSpoolWeight + bytes * kBytesWeight;
}

double CostModel::LocalCost(const PlanNode& node, double input_rows,
                            double input_bytes) const {
  const double out_rows = node.estimates().rows;
  const double out_bytes = node.estimates().bytes;
  switch (node.kind()) {
    case OpKind::kExtract:
      return out_rows * kScanWeight + out_bytes * kBytesWeight;
    case OpKind::kViewRead:
      return ViewReadCost(out_rows, out_bytes);
    case OpKind::kFilter:
      return input_rows * kFilterWeight;
    case OpKind::kProject:
      return input_rows * kProjectWeight;
    case OpKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(node);
      double w = join.algorithm() == JoinAlgorithm::kMerge ? kMergeJoinWeight
                                                           : kHashJoinWeight;
      return input_rows * w + out_rows * 0.1;
    }
    case OpKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      double w = agg.algorithm() == AggAlgorithm::kStream ? kStreamAggWeight
                                                          : kHashAggWeight;
      return input_rows * w;
    }
    case OpKind::kSort:
      return input_rows * kSortWeight * std::log2(std::max(2.0, input_rows));
    case OpKind::kExchange:
      return input_rows * kShuffleWeight + input_bytes * kBytesWeight;
    case OpKind::kUnionAll:
      return input_rows * 0.05;
    case OpKind::kProcess:
      return input_rows * kProcessWeight;
    case OpKind::kReduce:
      // Group-wise user code: per-row processing plus group bookkeeping.
      return input_rows * kProcessWeight * 1.2;
    case OpKind::kTop:
      return out_rows * kTopWeight;
    case OpKind::kSpool: {
      // Writing the view plus enforcing its physical design.
      const auto& spool = static_cast<const SpoolNode&>(node);
      double cost = ViewWriteCost(input_rows, input_bytes);
      if (spool.design().partitioning.IsSpecified()) {
        cost += input_rows * kShuffleWeight * 0.5;
      }
      if (spool.design().sort_order.IsSorted()) {
        cost += input_rows * kSortWeight *
                std::log2(std::max(2.0, input_rows)) * 0.5;
      }
      return cost;
    }
    case OpKind::kOutput:
      return input_rows * kOutputWeight + input_bytes * kBytesWeight;
  }
  return 0;
}

namespace {

/// Effective parallelism of an operator: bounded by the partition count of
/// its delivered distribution (singleton stages run at dop 1).
int EffectiveDop(const PlanNode& node) {
  Partitioning p = node.Delivered().partitioning;
  if (p.scheme == PartitionScheme::kSingleton) return 1;
  if (p.partition_count > 0) {
    return std::min(CostModel::kDefaultDop, p.partition_count);
  }
  return CostModel::kDefaultDop;
}

void AnnotateInternal(PlanNode* node, const CostModel& model,
                      const StatsProviderInterface* feedback,
                      const StorageManager* storage) {
  double input_rows = 0;
  double input_bytes = 0;
  double children_cost = 0;
  for (auto& c : node->mutable_children()) {
    AnnotateInternal(c.get(), model, feedback, storage);
    input_rows += c->estimates().rows;
    input_bytes += c->estimates().bytes;
    children_cost += c->estimates().cost;
  }

  NodeEstimates& est = node->estimates();
  est.from_feedback = false;
  double row_width =
      static_cast<double>(node->output_schema().EstimatedRowWidth());

  switch (node->kind()) {
    case OpKind::kExtract: {
      auto* extract = static_cast<ExtractNode*>(node);
      est.rows = 1000;  // default guess for unknown inputs
      est.bytes = est.rows * row_width;
      if (storage != nullptr) {
        auto stream = storage->OpenStream(extract->stream_name());
        if (stream.ok()) {
          est.rows = static_cast<double>((*stream)->total_rows);
          est.bytes = static_cast<double>((*stream)->total_bytes);
        }
      }
      break;
    }
    case OpKind::kViewRead: {
      auto* view = static_cast<ViewReadNode*>(node);
      est.rows = view->actual_rows();
      est.bytes = view->actual_bytes();
      est.from_feedback = true;  // actuals from the materialized instance
      break;
    }
    case OpKind::kFilter: {
      auto* filter = static_cast<FilterNode*>(node);
      est.rows = input_rows *
                 CostModel::PredicateSelectivity(*filter->predicate());
      est.bytes = est.rows * row_width;
      break;
    }
    case OpKind::kProject:
      est.rows = input_rows;
      est.bytes = est.rows * row_width;
      break;
    case OpKind::kJoin: {
      double l = node->children()[0]->estimates().rows;
      double r = node->children()[1]->estimates().rows;
      est.rows = std::max(1.0, l * r / std::max({l, r, 1.0})) * 1.2;
      auto* join = static_cast<JoinNode*>(node);
      if (join->join_type() == JoinType::kLeftOuter) {
        est.rows = std::max(est.rows, l);
      }
      est.bytes = est.rows * row_width;
      break;
    }
    case OpKind::kAggregate: {
      auto* agg = static_cast<AggregateNode*>(node);
      if (agg->group_keys().empty()) {
        est.rows = 1;
      } else {
        est.rows = std::max(1.0, std::pow(input_rows, 0.8));
      }
      est.bytes = est.rows * row_width;
      break;
    }
    case OpKind::kTop: {
      auto* top = static_cast<TopNode*>(node);
      est.rows = std::min(input_rows, static_cast<double>(top->limit()));
      est.bytes = est.rows * row_width;
      break;
    }
    case OpKind::kUnionAll:
      est.rows = input_rows;
      est.bytes = input_bytes;
      break;
    case OpKind::kProcess:
      est.rows = input_rows;  // opaque: assume 1:1 until feedback corrects
      est.bytes = est.rows * row_width;
      break;
    case OpKind::kReduce:
      // Opaque group-wise code: assume roughly one output run per group.
      est.rows = std::max(1.0, std::pow(input_rows, 0.8));
      est.bytes = est.rows * row_width;
      break;
    case OpKind::kSort:
    case OpKind::kExchange:
    case OpKind::kSpool:
    case OpKind::kOutput:
      est.rows = input_rows;
      est.bytes = input_bytes;
      break;
  }

  // The feedback loop: replace estimates with observed statistics for this
  // computation template when prior runs exist (Sec 5.1).
  if (feedback != nullptr && IsReusableRoot(*node)) {
    Hash128 normalized = node->SubtreeHash(SignatureMode::kNormalized);
    if (auto observed = feedback->Lookup(normalized)) {
      est.rows = observed->rows;
      est.bytes = observed->bytes;
      est.from_feedback = true;
    }
  }

  int dop = EffectiveDop(*node);
  est.cost = children_cost +
             model.LocalCost(*node, input_rows, input_bytes) /
                 static_cast<double>(dop);
}

}  // namespace

void CostModel::Annotate(PlanNode* root,
                         const StatsProviderInterface* feedback,
                         const StorageManager* storage) const {
  AnnotateInternal(root, *this, feedback, storage);
}

}  // namespace cloudviews
