#ifndef CLOUDVIEWS_EXEC_PHYSICAL_OPERATOR_H_
#define CLOUDVIEWS_EXEC_PHYSICAL_OPERATOR_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/morsel.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// \brief Per-operator slice of the execution environment handed to every
/// PhysicalOperator callback.
struct OperatorContext {
  ExecContext* exec = nullptr;
  /// Null means single-threaded: morsels run inline in index order.
  ThreadPool* pool = nullptr;
  size_t morsel_rows = 4096;
};

/// \brief One physical operator of the morsel-driven engine: one subclass
/// per OpKind.
///
/// Lifecycle driven by the executor:
///
///   Open(inputs)                      — bind to materialized child outputs
///   for phase in [0, num_phases):
///     PreparePhase(phase)             — sequential phase setup
///     ProcessMorsel(phase, m) ∀ m     — parallel across morsels of a phase
///   Close()                           — deterministic merge, emit output
///
/// ProcessMorsel calls of one phase run concurrently (distinct m) and must
/// only touch morsel-m state; everything else runs on a single thread.
/// Determinism contract: parallel phases only *precompute* (evaluate
/// expressions, hash keys, sort runs, compare rows); any order-sensitive
/// accumulation (aggregate state updates, hash-table build, output
/// concatenation) happens in global row order in a sequential step, so
/// results are byte-identical to the single-threaded engine for every
/// worker count and morsel size.
class PhysicalOperator {
 public:
  explicit PhysicalOperator(PlanNode* node) : node_(node) {}
  virtual ~PhysicalOperator() = default;

  PlanNode* node() const { return node_; }

  /// Takes ownership of the children's outputs, one MorselSet per child.
  virtual Status Open(OperatorContext& ctx, std::vector<MorselSet> inputs) {
    (void)ctx;
    inputs_ = std::move(inputs);
    return Status::OK();
  }

  virtual size_t num_phases() const { return 1; }

  /// Sequential setup before a phase's morsels run (e.g. hash-table build
  /// between the key-hashing and probe phases of a join).
  virtual Status PreparePhase(OperatorContext& ctx, size_t phase) {
    (void)ctx;
    (void)phase;
    return Status::OK();
  }

  virtual size_t NumMorsels(size_t phase) const {
    (void)phase;
    return 0;
  }

  virtual Status ProcessMorsel(OperatorContext& ctx, size_t phase,
                               size_t morsel) {
    (void)ctx;
    (void)phase;
    (void)morsel;
    return Status::OK();
  }

  /// Deterministic merge/finalize; returns the operator's output morsels.
  virtual Result<MorselSet> Close(OperatorContext& ctx) = 0;

 protected:
  /// Schema of child i's output; falls back to the plan-declared schema
  /// when the child produced no morsels (empty input).
  const Schema& InputSchema(size_t i) const {
    return inputs_[i].empty() ? node_->child(i)->output_schema()
                              : inputs_[i][0].schema();
  }

  PlanNode* node_;
  std::vector<MorselSet> inputs_;
};

/// Builds the physical operator for a plan node.
Result<std::unique_ptr<PhysicalOperator>> MakePhysicalOperator(PlanNode* node);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_PHYSICAL_OPERATOR_H_
