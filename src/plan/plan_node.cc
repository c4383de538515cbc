#include "plan/plan_node.h"

#include <cassert>
#include <unordered_set>

#include "common/string_util.h"

namespace cloudviews {

const char* OpKindToString(OpKind k) {
  switch (k) {
    case OpKind::kExtract:
      return "Extract";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kProject:
      return "Project";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kAggregate:
      return "Aggregate";
    case OpKind::kSort:
      return "Sort";
    case OpKind::kExchange:
      return "Exchange";
    case OpKind::kUnionAll:
      return "UnionAll";
    case OpKind::kProcess:
      return "Process";
    case OpKind::kTop:
      return "Top";
    case OpKind::kSpool:
      return "Spool";
    case OpKind::kViewRead:
      return "ViewRead";
    case OpKind::kOutput:
      return "Output";
    case OpKind::kReduce:
      return "Reduce";
  }
  return "?";
}

namespace {

/// Drops property columns that no longer exist in the schema; a destroyed
/// partitioning/sort cannot be claimed downstream.
PhysicalProperties RestrictToSchema(PhysicalProperties props,
                                    const Schema& schema) {
  for (const auto& c : props.partitioning.columns) {
    if (!schema.HasField(c)) {
      props.partitioning = Partitioning{};
      break;
    }
  }
  SortOrder kept;
  for (const auto& k : props.sort_order.keys) {
    if (!schema.HasField(k.column)) break;  // prefix property
    kept.keys.push_back(k);
  }
  props.sort_order = kept;
  return props;
}

}  // namespace

Status PlanNode::Bind() {
  for (auto& c : children_) {
    CV_RETURN_NOT_OK(c->Bind());
  }
  CV_RETURN_NOT_OK(DeriveSchema());
  bound_ = true;
  return Status::OK();
}

Hash128 PlanNode::SubtreeHash(SignatureMode mode) const {
  HashBuilder hb;
  hb.Add(static_cast<int>(kind_));
  hb.Add(static_cast<uint64_t>(children_.size()));
  for (const auto& c : children_) hb.Add(c->SubtreeHash(mode));
  HashLocal(&hb, mode);
  return hb.Finish();
}

PhysicalProperties PlanNode::Delivered() const {
  if (children_.empty()) return PhysicalProperties{};
  return RestrictToSchema(children_[0]->Delivered(), output_schema_);
}

PhysicalProperties PlanNode::RequiredFromChild(size_t) const {
  return PhysicalProperties{};
}

std::string PlanNode::Label() const { return OpKindToString(kind_); }

void PlanNode::TreeStringInternal(std::string* out, int depth) const {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(Label());
  if (est_.rows > 0) {
    out->append(StrFormat("  [rows=%.0f cost=%.1f%s]", est_.rows, est_.cost,
                          est_.from_feedback ? " fb" : ""));
  }
  out->append("\n");
  for (const auto& c : children_) c->TreeStringInternal(out, depth + 1);
}

std::string PlanNode::TreeString() const {
  std::string out;
  TreeStringInternal(&out, 0);
  return out;
}

size_t PlanNode::SubtreeSize() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->SubtreeSize();
  return n;
}

namespace {
int AssignIdsInternal(PlanNode* node, int next) {
  node->set_id(next++);
  for (auto& c : node->mutable_children()) {
    next = AssignIdsInternal(c.get(), next);
  }
  return next;
}
}  // namespace

int AssignNodeIds(PlanNode* root) { return AssignIdsInternal(root, 0); }

void CollectNodes(PlanNode* root, std::vector<PlanNode*>* out) {
  out->push_back(root);
  for (auto& c : root->mutable_children()) CollectNodes(c.get(), out);
}

void CollectNodes(const PlanNodePtr& root, std::vector<PlanNode*>* out) {
  CollectNodes(root.get(), out);
}

// --- ExtractNode ------------------------------------------------------------

Status ExtractNode::DeriveSchema() {
  if (declared_schema_.num_fields() == 0) {
    return Status::InvalidArgument("EXTRACT with empty schema for stream '" +
                                   stream_name_ + "'");
  }
  output_schema_ = declared_schema_;
  return Status::OK();
}

void ExtractNode::HashLocal(HashBuilder* hb, SignatureMode mode) const {
  hb->Add(std::string_view(template_name_));
  declared_schema_.HashInto(hb);
  if (mode == SignatureMode::kPrecise) {
    // Concrete stream + data GUID: new data in the next recurring instance
    // (or a GDPR-driven rewrite of existing data) changes the precise
    // signature and invalidates stale views (Sec 8).
    hb->Add(std::string_view(stream_name_));
    hb->Add(std::string_view(guid_));
  }
}

std::string ExtractNode::Label() const {
  return StrFormat("Extract %s", stream_name_.c_str());
}

PlanNodePtr ExtractNode::Clone() const {
  return std::make_shared<ExtractNode>(template_name_, stream_name_, guid_,
                                       declared_schema_);
}

// --- ViewReadNode -----------------------------------------------------------

Status ViewReadNode::DeriveSchema() {
  output_schema_ = declared_schema_;
  return Status::OK();
}

Hash128 ViewReadNode::SubtreeHash(SignatureMode mode) const {
  // Hash as the computation this scan replaced so that signatures of
  // enclosing subgraphs are invariant under rewriting.
  return mode == SignatureMode::kPrecise ? precise_signature_
                                         : normalized_signature_;
}

void ViewReadNode::HashLocal(HashBuilder* hb, SignatureMode) const {
  hb->Add(std::string_view(view_path_));
  hb->Add(precise_signature_);
}

std::string ViewReadNode::Label() const {
  return StrFormat("ViewRead %s", view_path_.c_str());
}

PlanNodePtr ViewReadNode::Clone() const {
  auto copy = std::make_shared<ViewReadNode>(
      view_path_, normalized_signature_, precise_signature_, declared_schema_,
      props_, actual_rows_, actual_bytes_);
  copy->compensation_nodes_ = compensation_nodes_;
  return copy;
}

// --- FilterNode -------------------------------------------------------------

Status FilterNode::DeriveSchema() {
  CV_RETURN_NOT_OK(predicate_->Bind(child()->output_schema()));
  if (predicate_->output_type() != DataType::kBool) {
    return Status::TypeError("filter predicate must be bool, got " +
                             std::string(DataTypeToString(
                                 predicate_->output_type())));
  }
  output_schema_ = child()->output_schema();
  return Status::OK();
}

void FilterNode::HashLocal(HashBuilder* hb, SignatureMode mode) const {
  predicate_->HashInto(hb, mode);
}

std::string FilterNode::Label() const {
  return "Filter " + predicate_->ToString();
}

PlanNodePtr FilterNode::Clone() const {
  return std::make_shared<FilterNode>(child()->Clone(), predicate_->Clone());
}

// --- ProjectNode ------------------------------------------------------------

Status ProjectNode::DeriveSchema() {
  Schema out;
  std::unordered_set<std::string> seen;
  for (auto& ne : exprs_) {
    CV_RETURN_NOT_OK(ne.expr->Bind(child()->output_schema()));
    if (!seen.insert(ne.name).second) {
      return Status::InvalidArgument("duplicate projected column '" +
                                     ne.name + "'");
    }
    out.AddField(ne.name, ne.expr->output_type());
  }
  output_schema_ = std::move(out);
  return Status::OK();
}

void ProjectNode::HashLocal(HashBuilder* hb, SignatureMode mode) const {
  hb->Add(static_cast<uint64_t>(exprs_.size()));
  for (const auto& ne : exprs_) {
    ne.expr->HashInto(hb, mode);
    hb->Add(std::string_view(ne.name));
  }
}

std::string ProjectNode::Label() const {
  std::vector<std::string> parts;
  for (const auto& ne : exprs_) {
    parts.push_back(ne.expr->ToString() + " AS " + ne.name);
  }
  return "Project " + Join(parts, ", ");
}

PlanNodePtr ProjectNode::Clone() const {
  std::vector<NamedExpr> exprs;
  for (const auto& ne : exprs_) exprs.push_back({ne.expr->Clone(), ne.name});
  return std::make_shared<ProjectNode>(child()->Clone(), std::move(exprs));
}

// --- JoinNode ---------------------------------------------------------------

std::vector<std::string> JoinNode::LeftKeys() const {
  std::vector<std::string> ks;
  for (const auto& [l, r] : keys_) ks.push_back(l);
  return ks;
}

std::vector<std::string> JoinNode::RightKeys() const {
  std::vector<std::string> ks;
  for (const auto& [l, r] : keys_) ks.push_back(r);
  return ks;
}

Status JoinNode::DeriveSchema() {
  const Schema& ls = children_[0]->output_schema();
  const Schema& rs = children_[1]->output_schema();
  if (keys_.empty()) {
    return Status::InvalidArgument("join requires at least one key pair");
  }
  for (const auto& [l, r] : keys_) {
    if (!ls.HasField(l)) {
      return Status::InvalidArgument("left join key '" + l + "' not found");
    }
    if (!rs.HasField(r)) {
      return Status::InvalidArgument("right join key '" + r + "' not found");
    }
  }
  Schema out;
  std::unordered_set<std::string> seen;
  for (const auto& f : ls.fields()) {
    seen.insert(f.name);
    out.AddField(f.name, f.type);
  }
  for (const auto& f : rs.fields()) {
    if (!seen.insert(f.name).second) {
      return Status::InvalidArgument(
          "ambiguous column '" + f.name +
          "' in join output; rename before joining");
    }
    out.AddField(f.name, f.type);
  }
  output_schema_ = std::move(out);
  return Status::OK();
}

void JoinNode::HashLocal(HashBuilder* hb, SignatureMode) const {
  hb->Add(static_cast<int>(type_));
  hb->Add(static_cast<int>(algorithm_));
  hb->Add(static_cast<uint64_t>(keys_.size()));
  for (const auto& [l, r] : keys_) {
    hb->Add(std::string_view(l));
    hb->Add(std::string_view(r));
  }
}

PhysicalProperties JoinNode::Delivered() const {
  PhysicalProperties props;
  props.partitioning = Partitioning::Hash(LeftKeys(), 0);
  if (algorithm_ == JoinAlgorithm::kMerge) {
    for (const auto& k : LeftKeys()) {
      props.sort_order.keys.push_back({k, true});
    }
  }
  return props;
}

PhysicalProperties JoinNode::RequiredFromChild(size_t i) const {
  PhysicalProperties req;
  auto keys = i == 0 ? LeftKeys() : RightKeys();
  req.partitioning = Partitioning::Hash(keys, 0);
  if (algorithm_ == JoinAlgorithm::kMerge) {
    for (const auto& k : keys) req.sort_order.keys.push_back({k, true});
  }
  return req;
}

std::string JoinNode::Label() const {
  std::vector<std::string> parts;
  for (const auto& [l, r] : keys_) parts.push_back(l + "=" + r);
  const char* alg = algorithm_ == JoinAlgorithm::kHash
                        ? "HashJoin"
                        : (algorithm_ == JoinAlgorithm::kMerge ? "MergeJoin"
                                                               : "Join");
  return StrFormat("%s%s (%s)", alg,
                   type_ == JoinType::kLeftOuter ? " LEFT" : "",
                   Join(parts, ", ").c_str());
}

PlanNodePtr JoinNode::Clone() const {
  auto n = std::make_shared<JoinNode>(children_[0]->Clone(),
                                      children_[1]->Clone(), type_, keys_);
  n->algorithm_ = algorithm_;
  return n;
}

// --- AggregateNode ----------------------------------------------------------

Status AggregateNode::DeriveSchema() {
  const Schema& in = child()->output_schema();
  Schema out;
  for (const auto& k : group_keys_) {
    int idx = in.FieldIndex(k);
    if (idx < 0) {
      return Status::InvalidArgument("group key '" + k + "' not found");
    }
    out.AddField(k, in.field(static_cast<size_t>(idx)).type);
  }
  for (const auto& agg : aggregates_) {
    CV_ASSIGN_OR_RETURN(DataType t, agg.Bind(in));
    out.AddField(agg.output_name, t);
  }
  output_schema_ = std::move(out);
  return Status::OK();
}

void AggregateNode::HashLocal(HashBuilder* hb, SignatureMode mode) const {
  hb->Add(static_cast<int>(algorithm_));
  hb->Add(static_cast<uint64_t>(group_keys_.size()));
  for (const auto& k : group_keys_) hb->Add(std::string_view(k));
  hb->Add(static_cast<uint64_t>(aggregates_.size()));
  for (const auto& a : aggregates_) a.HashInto(hb, mode);
}

PhysicalProperties AggregateNode::Delivered() const {
  PhysicalProperties props;
  if (!group_keys_.empty()) {
    props.partitioning = Partitioning::Hash(group_keys_, 0);
    if (algorithm_ == AggAlgorithm::kStream) {
      for (const auto& k : group_keys_) {
        props.sort_order.keys.push_back({k, true});
      }
    }
  } else {
    props.partitioning = Partitioning::Singleton();
  }
  return props;
}

PhysicalProperties AggregateNode::RequiredFromChild(size_t) const {
  PhysicalProperties req;
  if (group_keys_.empty()) {
    req.partitioning = Partitioning::Singleton();
    return req;
  }
  req.partitioning = Partitioning::Hash(group_keys_, 0);
  if (algorithm_ == AggAlgorithm::kStream) {
    for (const auto& k : group_keys_) {
      req.sort_order.keys.push_back({k, true});
    }
  }
  return req;
}

std::string AggregateNode::Label() const {
  std::vector<std::string> parts;
  for (const auto& a : aggregates_) parts.push_back(a.ToString());
  const char* alg = algorithm_ == AggAlgorithm::kHash
                        ? "HashGbAgg"
                        : (algorithm_ == AggAlgorithm::kStream ? "StreamGbAgg"
                                                               : "GbAgg");
  return StrFormat("%s [%s] %s", alg, Join(group_keys_, ",").c_str(),
                   Join(parts, ", ").c_str());
}

PlanNodePtr AggregateNode::Clone() const {
  std::vector<AggregateSpec> aggs;
  for (const auto& a : aggregates_) aggs.push_back(a.Clone());
  auto n = std::make_shared<AggregateNode>(child()->Clone(), group_keys_,
                                           std::move(aggs));
  n->algorithm_ = algorithm_;
  return n;
}

// --- SortNode ---------------------------------------------------------------

Status SortNode::DeriveSchema() {
  const Schema& in = child()->output_schema();
  for (const auto& k : keys_) {
    if (!in.HasField(k.column)) {
      return Status::InvalidArgument("sort key '" + k.column + "' not found");
    }
  }
  output_schema_ = in;
  return Status::OK();
}

void SortNode::HashLocal(HashBuilder* hb, SignatureMode) const {
  SortOrder so{keys_};
  so.HashInto(hb);
}

PhysicalProperties SortNode::Delivered() const {
  PhysicalProperties props = PlanNode::Delivered();
  props.sort_order = SortOrder{keys_};
  return props;
}

std::string SortNode::Label() const {
  return "Sort " + SortOrder{keys_}.ToString();
}

PlanNodePtr SortNode::Clone() const {
  return std::make_shared<SortNode>(child()->Clone(), keys_);
}

// --- ExchangeNode -----------------------------------------------------------

Status ExchangeNode::DeriveSchema() {
  const Schema& in = child()->output_schema();
  for (const auto& c : partitioning_.columns) {
    if (!in.HasField(c)) {
      return Status::InvalidArgument("partition column '" + c +
                                     "' not found");
    }
  }
  output_schema_ = in;
  return Status::OK();
}

void ExchangeNode::HashLocal(HashBuilder* hb, SignatureMode) const {
  partitioning_.HashInto(hb);
}

PhysicalProperties ExchangeNode::Delivered() const {
  PhysicalProperties props;
  props.partitioning = partitioning_;
  // A shuffle destroys intra-partition order.
  return props;
}

std::string ExchangeNode::Label() const {
  return "Exchange " + partitioning_.ToString();
}

PlanNodePtr ExchangeNode::Clone() const {
  return std::make_shared<ExchangeNode>(child()->Clone(), partitioning_);
}

// --- UnionAllNode -----------------------------------------------------------

Status UnionAllNode::DeriveSchema() {
  if (children_.empty()) {
    return Status::InvalidArgument("UnionAll requires at least one input");
  }
  const Schema& first = children_[0]->output_schema();
  for (size_t i = 1; i < children_.size(); ++i) {
    if (!(children_[i]->output_schema() == first)) {
      return Status::TypeError(
          "UnionAll inputs must share a schema: [" + first.ToString() +
          "] vs [" + children_[i]->output_schema().ToString() + "]");
    }
  }
  output_schema_ = first;
  return Status::OK();
}

void UnionAllNode::HashLocal(HashBuilder*, SignatureMode) const {}

PlanNodePtr UnionAllNode::Clone() const {
  std::vector<PlanNodePtr> kids;
  for (const auto& c : children_) kids.push_back(c->Clone());
  return std::make_shared<UnionAllNode>(std::move(kids));
}

// --- ProcessNode ------------------------------------------------------------

Status ProcessNode::DeriveSchema() {
  // An empty PRODUCE clause means the processor preserves its input schema.
  output_schema_ = declared_schema_.num_fields() > 0
                       ? declared_schema_
                       : child()->output_schema();
  return Status::OK();
}

void ProcessNode::HashLocal(HashBuilder* hb, SignatureMode mode) const {
  hb->Add(std::string_view(processor_));
  hb->Add(std::string_view(library_));
  if (mode == SignatureMode::kPrecise) {
    hb->Add(std::string_view(version_));
  }
  declared_schema_.HashInto(hb);
}

std::string ProcessNode::Label() const {
  return StrFormat("Process %s[%s@%s]", processor_.c_str(), library_.c_str(),
                   version_.c_str());
}

PlanNodePtr ProcessNode::Clone() const {
  return std::make_shared<ProcessNode>(child()->Clone(), processor_,
                                       library_, version_, declared_schema_);
}

// --- TopNode ----------------------------------------------------------------

Status TopNode::DeriveSchema() {
  if (limit_ < 0) return Status::InvalidArgument("negative TOP limit");
  output_schema_ = child()->output_schema();
  return Status::OK();
}

void TopNode::HashLocal(HashBuilder* hb, SignatureMode) const {
  hb->Add(limit_);
}

std::string TopNode::Label() const {
  return StrFormat("Top %lld", static_cast<long long>(limit_));
}

PlanNodePtr TopNode::Clone() const {
  return std::make_shared<TopNode>(child()->Clone(), limit_);
}

// --- SpoolNode --------------------------------------------------------------

Status SpoolNode::DeriveSchema() {
  output_schema_ = child()->output_schema();
  return Status::OK();
}

Hash128 SpoolNode::SubtreeHash(SignatureMode mode) const {
  // A spool is computation-transparent: its subtree computes exactly what
  // the child computes.
  return child()->SubtreeHash(mode);
}

void SpoolNode::HashLocal(HashBuilder*, SignatureMode) const {}

std::string SpoolNode::Label() const {
  return StrFormat("Spool -> %s %s", view_path_.c_str(),
                   design_.ToString().c_str());
}

PlanNodePtr SpoolNode::Clone() const {
  auto n = std::make_shared<SpoolNode>(child()->Clone(), view_path_,
                                       normalized_signature_,
                                       precise_signature_, design_);
  n->set_lifetime_seconds(lifetime_seconds_);
  return n;
}

// --- ReduceNode ---------------------------------------------------------------

Status ReduceNode::DeriveSchema() {
  const Schema& in = child()->output_schema();
  if (keys_.empty()) {
    return Status::InvalidArgument("REDUCE requires at least one key");
  }
  for (const auto& k : keys_) {
    if (!in.HasField(k)) {
      return Status::InvalidArgument("reduce key '" + k + "' not found");
    }
  }
  output_schema_ =
      declared_schema_.num_fields() > 0 ? declared_schema_ : in;
  return Status::OK();
}

void ReduceNode::HashLocal(HashBuilder* hb, SignatureMode mode) const {
  hb->Add(static_cast<uint64_t>(keys_.size()));
  for (const auto& k : keys_) hb->Add(std::string_view(k));
  hb->Add(std::string_view(processor_));
  hb->Add(std::string_view(library_));
  if (mode == SignatureMode::kPrecise) {
    hb->Add(std::string_view(version_));
  }
  declared_schema_.HashInto(hb);
}

PhysicalProperties ReduceNode::Delivered() const {
  PhysicalProperties props;
  props.partitioning = Partitioning::Hash(keys_, 0);
  return props;
}

PhysicalProperties ReduceNode::RequiredFromChild(size_t) const {
  // Groups must be co-located and contiguous.
  PhysicalProperties req;
  req.partitioning = Partitioning::Hash(keys_, 0);
  for (const auto& k : keys_) req.sort_order.keys.push_back({k, true});
  return req;
}

std::string ReduceNode::Label() const {
  return StrFormat("Reduce [%s] %s[%s@%s]", Join(keys_, ",").c_str(),
                   processor_.c_str(), library_.c_str(), version_.c_str());
}

PlanNodePtr ReduceNode::Clone() const {
  return std::make_shared<ReduceNode>(child()->Clone(), keys_, processor_,
                                      library_, version_, declared_schema_);
}

// --- OutputNode -------------------------------------------------------------

Status OutputNode::DeriveSchema() {
  const Schema& in = child()->output_schema();
  for (const auto& c : declared_design_.partitioning.columns) {
    if (!in.HasField(c)) {
      return Status::InvalidArgument("CLUSTERED BY column '" + c +
                                     "' not found");
    }
  }
  for (const auto& k : declared_design_.sort_order.keys) {
    if (!in.HasField(k.column)) {
      return Status::InvalidArgument("SORTED BY column '" + k.column +
                                     "' not found");
    }
  }
  output_schema_ = in;
  return Status::OK();
}

void OutputNode::HashLocal(HashBuilder* hb, SignatureMode mode) const {
  if (mode == SignatureMode::kPrecise) {
    hb->Add(std::string_view(stream_name_));
  }
  declared_design_.HashInto(hb);
}

PhysicalProperties OutputNode::RequiredFromChild(size_t) const {
  return declared_design_;
}

std::string OutputNode::Label() const {
  std::string out = StrFormat("Output %s", stream_name_.c_str());
  if (declared_design_.IsSpecified()) {
    out += " " + declared_design_.ToString();
  }
  return out;
}

PlanNodePtr OutputNode::Clone() const {
  auto n = std::make_shared<OutputNode>(child()->Clone(), stream_name_);
  n->set_declared_design(declared_design_);
  return n;
}

}  // namespace cloudviews
