#include "optimizer/physical_planner.h"

namespace cloudviews {

namespace {

/// Partition count used for inserted hash exchanges.
constexpr int kDefaultPartitionCount = 16;

}  // namespace

PlanNodePtr PhysicalPlanner::ChooseAlgorithms(PlanNodePtr node) const {
  for (auto& c : node->mutable_children()) c = ChooseAlgorithms(c);

  if (node->kind() == OpKind::kJoin) {
    auto* join = static_cast<JoinNode*>(node.get());
    if (join->algorithm() == JoinAlgorithm::kUnspecified) {
      // Merge join only pays off when both inputs already arrive sorted on
      // the keys (and it cannot produce LEFT OUTER in this engine).
      SortOrder left_needed, right_needed;
      for (const auto& k : join->LeftKeys()) {
        left_needed.keys.push_back({k, true});
      }
      for (const auto& k : join->RightKeys()) {
        right_needed.keys.push_back({k, true});
      }
      bool sorted_inputs =
          join->children()[0]->bound() && join->children()[1]->bound() &&
          join->children()[0]->Delivered().sort_order.Satisfies(
              left_needed) &&
          join->children()[1]->Delivered().sort_order.Satisfies(
              right_needed);
      if (sorted_inputs && join->join_type() == JoinType::kInner) {
        join->set_algorithm(JoinAlgorithm::kMerge);
      } else {
        join->set_algorithm(JoinAlgorithm::kHash);
      }
    }
  }

  if (node->kind() == OpKind::kAggregate) {
    auto* agg = static_cast<AggregateNode*>(node.get());
    if (agg->algorithm() == AggAlgorithm::kUnspecified) {
      SortOrder needed;
      for (const auto& k : agg->group_keys()) needed.keys.push_back({k, true});
      bool sorted = !agg->group_keys().empty() && agg->child()->bound() &&
                    agg->child()->Delivered().sort_order.Satisfies(needed);
      agg->set_algorithm(sorted ? AggAlgorithm::kStream : AggAlgorithm::kHash);
    }
  }

  return node;
}

PlanNodePtr PhysicalPlanner::InsertEnforcers(PlanNodePtr node) const {
  for (auto& c : node->mutable_children()) c = InsertEnforcers(c);

  for (size_t i = 0; i < node->children().size(); ++i) {
    PhysicalProperties required = node->RequiredFromChild(i);
    if (!required.IsSpecified()) continue;
    PlanNodePtr child = node->children()[i];
    if (!child->bound()) continue;  // freshly inserted; delivered unknown yet
    PhysicalProperties delivered = child->Delivered();

    if (!delivered.partitioning.Satisfies(required.partitioning)) {
      Partitioning target = required.partitioning;
      if (target.partition_count == 0 &&
          target.scheme != PartitionScheme::kSingleton) {
        target.partition_count = kDefaultPartitionCount;
      }
      child = std::make_shared<ExchangeNode>(child, target);
      // A fresh shuffle destroys any sort order the child delivered.
      delivered = PhysicalProperties{};
      delivered.partitioning = target;
      // Bind the new node so a subsequent Sort insertion can inspect it.
      Status st = child->Bind();
      if (!st.ok()) return node;  // leave untouched; caller's Bind will fail
    }
    if (!delivered.sort_order.Satisfies(required.sort_order) &&
        required.sort_order.IsSorted()) {
      child = std::make_shared<SortNode>(child, required.sort_order.keys);
      Status st = child->Bind();
      if (!st.ok()) return node;
    }
    node->mutable_children()[i] = child;
  }
  return node;
}

Result<PlanNodePtr> PhysicalPlanner::Plan(PlanNodePtr root) const {
  if (!root->bound()) {
    return Status::InvalidArgument("physical planner needs a bound plan");
  }
  root = ChooseAlgorithms(std::move(root));
  root = InsertEnforcers(std::move(root));
  CV_RETURN_NOT_OK(root->Bind());
  return root;
}

Result<PlanNodePtr> PhysicalPlanner::RepairProperties(PlanNodePtr root) const {
  root = InsertEnforcers(std::move(root));
  CV_RETURN_NOT_OK(root->Bind());
  return root;
}

}  // namespace cloudviews
