#ifndef CLOUDVIEWS_PLAN_PLAN_NODE_H_
#define CLOUDVIEWS_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/status.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "plan/physical_properties.h"
#include "types/schema.h"

namespace cloudviews {

/// Operator kinds. The optimizer inserts kExchange / kSort enforcers and
/// kViewRead / kSpool reuse operators; everything else comes from the
/// script frontend. Names follow the paper's operator breakdown (Fig 4).
enum class OpKind : int {
  kExtract = 0,    // scan of a (possibly recurring) input stream
  kFilter = 1,
  kProject = 2,    // ComputeScalar / RestrRemap
  kJoin = 3,
  kAggregate = 4,  // group-by aggregate
  kSort = 5,
  kExchange = 6,   // shuffle / repartition
  kUnionAll = 7,
  kProcess = 8,    // row-wise user-defined operator
  kTop = 9,
  kSpool = 10,     // side-materialization of a view (CloudViews runtime)
  kViewRead = 11,  // scan of a materialized view (CloudViews runtime)
  kOutput = 12,    // job output to a stream path
  kReduce = 13,    // group-wise user-defined operator (SCOPE REDUCE)
};

const char* OpKindToString(OpKind k);

enum class JoinType : int { kInner = 0, kLeftOuter = 1 };
enum class JoinAlgorithm : int { kUnspecified = 0, kHash = 1, kMerge = 2 };
enum class AggAlgorithm : int { kUnspecified = 0, kHash = 1, kStream = 2 };

struct NamedExpr {
  ExprPtr expr;
  std::string name;
};

/// Cardinality / size / cost annotations attached by the optimizer. When a
/// subgraph matches the workload repository, these come from actual prior
/// runs (the feedback loop, Sec 5.1) instead of estimates.
struct NodeEstimates {
  double rows = 0;
  double bytes = 0;
  /// Cumulative cost of the subtree rooted here (abstract cost units).
  double cost = 0;
  /// True when rows/bytes were taken from observed runtime statistics.
  bool from_feedback = false;
};

class PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// \brief A node of the query plan tree.
///
/// The same tree serves as the logical plan (as produced by the frontend)
/// and the physical plan (after the optimizer sets algorithms and inserts
/// enforcers). Signatures (Sec 3) hash the physical tree, mirroring
/// SCOPE's plan fingerprints.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  OpKind kind() const { return kind_; }
  const std::vector<PlanNodePtr>& children() const { return children_; }
  std::vector<PlanNodePtr>& mutable_children() { return children_; }
  const PlanNodePtr& child(size_t i = 0) const { return children_[i]; }

  bool bound() const { return bound_; }
  const Schema& output_schema() const { return output_schema_; }

  /// Stable id within one plan, assigned by AssignNodeIds. Used to join
  /// compile-time nodes with runtime statistics (the feedback loop).
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  NodeEstimates& estimates() { return est_; }
  const NodeEstimates& estimates() const { return est_; }

  /// Resolves schemas bottom-up; must be called before execution or
  /// signature computation.
  Status Bind();

  /// Signature hash of the entire subtree rooted here (see SignatureMode).
  /// Children contribute their finished subtree hashes, so reuse operators
  /// can be signature-transparent: a Spool hashes as its child and a
  /// ViewRead hashes as the computation it replaced — signatures are
  /// invariant under CloudViews rewriting.
  virtual Hash128 SubtreeHash(SignatureMode mode) const;

  /// Physical properties delivered by this operator's output, derived from
  /// the operator and its children.
  virtual PhysicalProperties Delivered() const;

  /// Physical properties this operator requires from child i (enforcers are
  /// inserted by the optimizer where children do not deliver them).
  virtual PhysicalProperties RequiredFromChild(size_t i) const;

  /// One-line description, e.g. "Filter (a > 10)".
  virtual std::string Label() const;

  /// Deep copy of the subtree (estimates and ids are reset).
  virtual PlanNodePtr Clone() const = 0;

  /// Multi-line tree rendering of the subtree.
  std::string TreeString() const;

  /// Number of nodes in this subtree.
  size_t SubtreeSize() const;

 protected:
  PlanNode(OpKind kind, std::vector<PlanNodePtr> children)
      : kind_(kind), children_(std::move(children)) {}

  /// Computes output_schema_; children are already bound.
  virtual Status DeriveSchema() = 0;

  /// Hashes node-local content (kind and children are handled by the base).
  virtual void HashLocal(HashBuilder* hb, SignatureMode mode) const = 0;

  void TreeStringInternal(std::string* out, int depth) const;

  OpKind kind_;
  std::vector<PlanNodePtr> children_;
  // sig-skip(hash): derived by DeriveSchema() from the children during
  // Bind; never part of the computation's identity
  Schema output_schema_;
  // sig-skip(hash): binding progress flag, derived, never identity
  bool bound_ = false;
  // sig-skip(hash): pre-order id assigned after planning, presentation only
  int id_ = -1;
  // sig-skip(hash): cardinality/cost annotations derived from the plan
  NodeEstimates est_;
};

/// Assigns pre-order ids to every node; returns the node count.
int AssignNodeIds(PlanNode* root);

/// Collects raw pointers to all nodes in pre-order.
void CollectNodes(const PlanNodePtr& root, std::vector<PlanNode*>* out);
void CollectNodes(PlanNode* root, std::vector<PlanNode*>* out);

// ---------------------------------------------------------------------------
// Leaf scans
// ---------------------------------------------------------------------------

/// \brief Scan of an input stream.
///
/// Recurring jobs read a stream whose *template* name is stable (e.g.
/// "clicks_{date}") while the concrete name and data GUID change per
/// instance; the precise signature covers the concrete name + GUID, the
/// normalized signature only the template (Sec 3).
class ExtractNode : public PlanNode {
 public:
  ExtractNode(std::string template_name, std::string stream_name,
              std::string guid, Schema schema)
      : PlanNode(OpKind::kExtract, {}),
        template_name_(std::move(template_name)),
        stream_name_(std::move(stream_name)),
        guid_(std::move(guid)),
        declared_schema_(std::move(schema)) {}

  const std::string& template_name() const { return template_name_; }
  const std::string& stream_name() const { return stream_name_; }
  const std::string& guid() const { return guid_; }

  /// Rebinds the per-instance `{param}` holes (concrete stream name +
  /// data GUID) onto a cached plan skeleton for a new occurrence of the
  /// same template. The template name and schema — the normalized-signature
  /// identity — are intentionally not settable.
  void RebindInstance(std::string stream_name, std::string guid) {
    stream_name_ = std::move(stream_name);
    guid_ = std::move(guid);
  }

  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  // sig-skip(rebind): the template identity must survive rebinding; only
  // the per-instance stream name and GUID are settable (see RebindInstance)
  std::string template_name_;
  std::string stream_name_;
  std::string guid_;
  // sig-skip(rebind): schema is template identity, fixed across instances
  Schema declared_schema_;
};

/// \brief Scan of a previously materialized view (inserted during query
/// rewriting, Sec 6.3). Carries the actual statistics observed when the
/// view was built, which the optimizer propagates up the tree.
class ViewReadNode : public PlanNode {
 public:
  ViewReadNode(std::string view_path, Hash128 normalized_signature,
               Hash128 precise_signature, Schema schema,
               PhysicalProperties props, double actual_rows,
               double actual_bytes)
      : PlanNode(OpKind::kViewRead, {}),
        view_path_(std::move(view_path)),
        normalized_signature_(normalized_signature),
        precise_signature_(precise_signature),
        declared_schema_(std::move(schema)),
        props_(std::move(props)),
        actual_rows_(actual_rows),
        actual_bytes_(actual_bytes) {}

  const std::string& view_path() const { return view_path_; }
  const Hash128& normalized_signature() const {
    return normalized_signature_;
  }
  const Hash128& precise_signature() const { return precise_signature_; }
  const PhysicalProperties& props() const { return props_; }
  double actual_rows() const { return actual_rows_; }
  double actual_bytes() const { return actual_bytes_; }
  /// Compensation operators the containment matcher placed above this read
  /// (residual filter, re-aggregation, final project); 0 for an exact read.
  int compensation_nodes() const { return compensation_nodes_; }
  void set_compensation_nodes(int n) { compensation_nodes_ = n; }

  PhysicalProperties Delivered() const override { return props_; }
  std::string Label() const override;
  PlanNodePtr Clone() const override;
  Hash128 SubtreeHash(SignatureMode mode) const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  std::string view_path_;
  Hash128 normalized_signature_;
  Hash128 precise_signature_;
  Schema declared_schema_;
  PhysicalProperties props_;
  double actual_rows_;
  double actual_bytes_;
  // sig-skip(hash): how the read was matched, not what it computes; the
  // compensation operators above it hash on their own
  int compensation_nodes_ = 0;
};

// ---------------------------------------------------------------------------
// Relational operators
// ---------------------------------------------------------------------------

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr input, ExprPtr predicate)
      : PlanNode(OpKind::kFilter, {std::move(input)}),
        predicate_(std::move(predicate)) {}

  const ExprPtr& predicate() const { return predicate_; }

  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  ExprPtr predicate_;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanNodePtr input, std::vector<NamedExpr> exprs)
      : PlanNode(OpKind::kProject, {std::move(input)}),
        exprs_(std::move(exprs)) {}

  const std::vector<NamedExpr>& exprs() const { return exprs_; }

  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  std::vector<NamedExpr> exprs_;
};

class JoinNode : public PlanNode {
 public:
  JoinNode(PlanNodePtr left, PlanNodePtr right, JoinType type,
           std::vector<std::pair<std::string, std::string>> keys)
      : PlanNode(OpKind::kJoin, {std::move(left), std::move(right)}),
        type_(type),
        keys_(std::move(keys)) {}

  JoinType join_type() const { return type_; }
  JoinAlgorithm algorithm() const { return algorithm_; }
  void set_algorithm(JoinAlgorithm a) { algorithm_ = a; }
  const std::vector<std::pair<std::string, std::string>>& keys() const {
    return keys_;
  }
  std::vector<std::string> LeftKeys() const;
  std::vector<std::string> RightKeys() const;

  PhysicalProperties Delivered() const override;
  PhysicalProperties RequiredFromChild(size_t i) const override;
  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  JoinType type_;
  JoinAlgorithm algorithm_ = JoinAlgorithm::kUnspecified;
  std::vector<std::pair<std::string, std::string>> keys_;
};

class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanNodePtr input, std::vector<std::string> group_keys,
                std::vector<AggregateSpec> aggregates)
      : PlanNode(OpKind::kAggregate, {std::move(input)}),
        group_keys_(std::move(group_keys)),
        aggregates_(std::move(aggregates)) {}

  const std::vector<std::string>& group_keys() const { return group_keys_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }
  AggAlgorithm algorithm() const { return algorithm_; }
  void set_algorithm(AggAlgorithm a) { algorithm_ = a; }

  PhysicalProperties Delivered() const override;
  PhysicalProperties RequiredFromChild(size_t i) const override;
  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  std::vector<std::string> group_keys_;
  std::vector<AggregateSpec> aggregates_;
  AggAlgorithm algorithm_ = AggAlgorithm::kUnspecified;
};

class SortNode : public PlanNode {
 public:
  SortNode(PlanNodePtr input, std::vector<SortKey> keys)
      : PlanNode(OpKind::kSort, {std::move(input)}), keys_(std::move(keys)) {}

  const std::vector<SortKey>& keys() const { return keys_; }

  PhysicalProperties Delivered() const override;
  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  std::vector<SortKey> keys_;
};

/// Repartitioning (shuffle). In the simulated single-process engine the
/// exchange physically splits rows into partition runs; its cost model
/// charge mirrors SCOPE where shuffles are among the most expensive steps
/// (Sec 2.3).
class ExchangeNode : public PlanNode {
 public:
  ExchangeNode(PlanNodePtr input, Partitioning partitioning)
      : PlanNode(OpKind::kExchange, {std::move(input)}),
        partitioning_(std::move(partitioning)) {}

  const Partitioning& partitioning() const { return partitioning_; }

  PhysicalProperties Delivered() const override;
  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  Partitioning partitioning_;
};

class UnionAllNode : public PlanNode {
 public:
  explicit UnionAllNode(std::vector<PlanNodePtr> inputs)
      : PlanNode(OpKind::kUnionAll, std::move(inputs)) {}

  std::string Label() const override { return "UnionAll"; }
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;
};

/// \brief Row-wise user-defined operator (SCOPE PROCESS).
///
/// The implementation is looked up in the ProcessorRegistry at execution
/// time; the plan only carries its identity and declared output schema.
/// Library + version feed the precise signature like UDFs do.
class ProcessNode : public PlanNode {
 public:
  ProcessNode(PlanNodePtr input, std::string processor, std::string library,
              std::string version, Schema output_schema)
      : PlanNode(OpKind::kProcess, {std::move(input)}),
        processor_(std::move(processor)),
        library_(std::move(library)),
        version_(std::move(version)),
        declared_schema_(std::move(output_schema)) {}

  const std::string& processor() const { return processor_; }
  const std::string& library() const { return library_; }
  const std::string& version() const { return version_; }

  /// Rebinds the per-instance UDO version hole (precise-signature-only
  /// field) onto a cached plan skeleton.
  void set_version(std::string version) { version_ = std::move(version); }

  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  std::string processor_;
  std::string library_;
  std::string version_;
  Schema declared_schema_;
};

class TopNode : public PlanNode {
 public:
  TopNode(PlanNodePtr input, int64_t limit)
      : PlanNode(OpKind::kTop, {std::move(input)}), limit_(limit) {}

  int64_t limit() const { return limit_; }

  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  int64_t limit_;
};

/// \brief Side-materialization of the child's output as a view (online
/// materialization, Sec 6.2). Rows pass through unchanged; a copy goes to
/// `view_path` with the analyzer-mined physical design.
class SpoolNode : public PlanNode {
 public:
  SpoolNode(PlanNodePtr input, std::string view_path,
            Hash128 normalized_signature, Hash128 precise_signature,
            PhysicalProperties design)
      : PlanNode(OpKind::kSpool, {std::move(input)}),
        view_path_(std::move(view_path)),
        normalized_signature_(normalized_signature),
        precise_signature_(precise_signature),
        design_(std::move(design)) {}

  const std::string& view_path() const { return view_path_; }
  const Hash128& normalized_signature() const {
    return normalized_signature_;
  }
  const Hash128& precise_signature() const { return precise_signature_; }
  const PhysicalProperties& design() const { return design_; }

  /// How long the materialized view stays useful (0 = use the executor
  /// default); mined from input lineage by the analyzer (Sec 5.4).
  LogicalTime lifetime_seconds() const { return lifetime_seconds_; }
  void set_lifetime_seconds(LogicalTime s) { lifetime_seconds_ = s; }

  std::string Label() const override;
  PlanNodePtr Clone() const override;
  Hash128 SubtreeHash(SignatureMode mode) const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  // sig-skip(hash): a spool is computation-transparent — SubtreeHash
  // forwards to the child; the storage path is materialization metadata
  std::string view_path_;
  // sig-skip(hash): derived from the child subtree's own signature
  Hash128 normalized_signature_;
  // sig-skip(hash): derived from the child subtree's own signature
  Hash128 precise_signature_;
  // sig-skip(hash): physical design choice, not logical identity
  PhysicalProperties design_;
  // sig-skip(hash): retention policy metadata, not logical identity
  LogicalTime lifetime_seconds_ = 0;
};

/// \brief Group-wise user-defined operator (SCOPE REDUCE): rows are
/// grouped on the reduce keys and the registered processor runs once per
/// group. Requires its input partitioned and sorted on the keys.
class ReduceNode : public PlanNode {
 public:
  ReduceNode(PlanNodePtr input, std::vector<std::string> keys,
             std::string processor, std::string library, std::string version,
             Schema output_schema)
      : PlanNode(OpKind::kReduce, {std::move(input)}),
        keys_(std::move(keys)),
        processor_(std::move(processor)),
        library_(std::move(library)),
        version_(std::move(version)),
        declared_schema_(std::move(output_schema)) {}

  const std::vector<std::string>& keys() const { return keys_; }
  const std::string& processor() const { return processor_; }
  const std::string& library() const { return library_; }
  const std::string& version() const { return version_; }

  /// Rebinds the per-instance UDO version hole (precise-signature-only
  /// field) onto a cached plan skeleton.
  void set_version(std::string version) { version_ = std::move(version); }

  PhysicalProperties Delivered() const override;
  PhysicalProperties RequiredFromChild(size_t i) const override;
  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  std::vector<std::string> keys_;
  std::string processor_;
  std::string library_;
  std::string version_;
  Schema declared_schema_;
};

/// \brief Job output to a named stream, with an optional declared physical
/// design (SCOPE's CLUSTERED BY / SORTED BY output hints). The optimizer
/// enforces the design with exchange/sort operators; downstream consumer
/// jobs then read data laid out the way they need it (Sec 8, "Improving
/// data sharing across VCs").
class OutputNode : public PlanNode {
 public:
  OutputNode(PlanNodePtr input, std::string stream_name)
      : PlanNode(OpKind::kOutput, {std::move(input)}),
        stream_name_(std::move(stream_name)) {}

  const std::string& stream_name() const { return stream_name_; }

  /// Rebinds the per-instance output stream name (precise-signature-only
  /// field) onto a cached plan skeleton.
  void set_stream_name(std::string stream_name) {
    stream_name_ = std::move(stream_name);
  }

  const PhysicalProperties& declared_design() const {
    return declared_design_;
  }
  void set_declared_design(PhysicalProperties design) {
    declared_design_ = std::move(design);
  }

  PhysicalProperties RequiredFromChild(size_t i) const override;
  std::string Label() const override;
  PlanNodePtr Clone() const override;

 protected:
  Status DeriveSchema() override;
  void HashLocal(HashBuilder* hb, SignatureMode mode) const override;

 private:
  std::string stream_name_;
  PhysicalProperties declared_design_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PLAN_PLAN_NODE_H_
