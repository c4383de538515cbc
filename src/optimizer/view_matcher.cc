#include "optimizer/view_matcher.h"

#include <algorithm>
#include <set>

#include "signature/signature.h"

namespace cloudviews {

namespace {

Hash128 ColRefHash(const std::string& name) {
  ColumnRefExpr ref(name);
  HashBuilder hb;
  ref.HashInto(&hb, SignatureMode::kPrecise);
  return hb.Finish();
}

/// Left-fold of conjuncts with AND; null for an empty list.
ExprPtr AndFold(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const auto& c : conjuncts) {
    acc = acc ? And(acc, c) : c;
  }
  return acc;
}

}  // namespace

bool OrderImmaterialAbove(const std::vector<const PlanNode*>& ancestors,
                          const std::vector<std::string>& cols) {
  // Walk from the matched node's parent upward (ancestors is root-first).
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    const PlanNode* a = *it;
    switch (a->kind()) {
      case OpKind::kFilter:
      case OpKind::kExchange:
        // Row-wise / value-based redistribution: drops or regroups rows by
        // value, never observes order in its output values.
        continue;
      case OpKind::kProject: {
        // Must pass every group column through untouched (same name), so
        // the eventual Sort's keys still refer to them.
        const auto& exprs = static_cast<const ProjectNode*>(a)->exprs();
        for (const auto& col : cols) {
          bool passed = false;
          for (const auto& ne : exprs) {
            if (ne.name == col && ne.expr->kind() == ExprKind::kColumnRef &&
                static_cast<const ColumnRefExpr&>(*ne.expr).name() == col) {
              passed = true;
              break;
            }
          }
          if (!passed) return false;
        }
        continue;
      }
      case OpKind::kSort: {
        // Rows below are unique on `cols`; a sort whose key set covers
        // `cols` therefore has no ties and imposes a total order — any
        // reordering below it cannot change bytes.
        const auto& keys = static_cast<const SortNode*>(a)->keys();
        for (const auto& col : cols) {
          bool covered = false;
          for (const auto& k : keys) {
            if (k.column == col) {
              covered = true;
              break;
            }
          }
          if (!covered) return false;
        }
        return true;
      }
      default:
        // Anything else (Output, Join, Aggregate, Top, UnionAll, ...) can
        // observe row order; reordering groups below it is unsafe.
        return false;
    }
  }
  return false;  // reached the root without a covering Sort
}

/// Per-candidate structural analysis of the view's definition skeleton.
struct CandidateMatcher::ViewSide {
  CapDecomposition cap;
  /// Canonical provenance (precise hash of the expr over core columns)
  /// of each view column at the *input level* (pre-aggregate): which view
  /// column carries which core-level value.
  std::unordered_map<Hash128, std::string, Hash128Hasher> input_by_hash;
  std::set<std::string> group_keys;
  const Schema* view_schema = nullptr;
};

CandidateMatcher::CandidateMatcher(const AnnotationIndex& annotations,
                                   ViewCatalogInterface* catalog,
                                   const CostModel* cost_model,
                                   JobCounters* counters,
                                   obs::Span* parent_span)
    : catalog_(catalog),
      cost_model_(cost_model),
      counters_(counters),
      parent_span_(parent_span) {
  // order-insensitive: this pass only buckets candidates by table-set
  // key; each bucket is sorted just below, before any iteration.
  for (const auto& [sig, ann] : annotations) {
    if (!ann.features || !ann.definition || !ann.definition->bound()) {
      continue;
    }
    buckets_[ann.features->table_set_key].push_back(&ann);
  }
  // The index is hash-ordered; candidate iteration must be deterministic
  // so recurring instances compile to identical plans.
  for (auto& [key, bucket] : buckets_) {
    std::sort(bucket.begin(), bucket.end(),
              [](const ViewAnnotation* a, const ViewAnnotation* b) {
                return a->normalized_signature < b->normalized_signature;
              });
  }
}

void CandidateMatcher::FinishSpan() {
  if (!span_opened_) return;
  verify_span_.SetAttribute("candidates_filtered",
                            int64_t{counters_->candidates_filtered});
  verify_span_.SetAttribute("containment_verified",
                            int64_t{counters_->containment_verified});
  verify_span_.SetAttribute("containment_rejected",
                            int64_t{counters_->containment_rejected});
  verify_span_.SetAttribute("views_reused_subsumed",
                            int64_t{counters_->views_reused_subsumed});
  verify_span_.SetAttribute("compensation_nodes_added",
                            int64_t{counters_->compensation_nodes_added});
  verify_span_.End();
}

PlanNodePtr CandidateMatcher::TryContainment(
    const PlanNodePtr& node, const Hash128& node_normalized,
    const std::vector<const PlanNode*>& ancestors) {
  CapDecomposition qcap = DecomposeCap(*node);
  // With no cap the subtree equals its core and only the exact tier can
  // match; with no aggregate-compensation possibility a view with a
  // coarser shape cannot serve it either.
  if (!qcap.HasCap()) return nullptr;

  ViewFeatures qf = ComputeViewFeatures(*node);
  auto bucket_it = buckets_.find(qf.table_set_key);
  if (bucket_it == buckets_.end()) return nullptr;

  for (const ViewAnnotation* ann : bucket_it->second) {
    // Tier 1: cheap feature filter.
    if (ann->normalized_signature == node_normalized) continue;  // tier 0
    const ViewFeatures& vf = *ann->features;
    if (vf.core_normalized != qf.core_normalized) continue;
    if (vf.has_aggregate && qcap.aggregate == nullptr) continue;
    // Filters live below projections on both sides, so interval columns
    // are core-level names on both sides and directly comparable. The
    // bounds are instance-dependent, but the constrained-column set is
    // not: containment is impossible unless the query constrains every
    // column the view constrains.
    bool feasible = true;
    for (const auto& iv : vf.predicate.intervals) {
      if (qf.predicate.FindInterval(iv.column) == nullptr) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    if (vf.predicate.opaque.size() > qf.predicate.conjuncts.size()) continue;

    ++counters_->candidates_filtered;
    if (!span_opened_) {
      span_opened_ = true;
      if (parent_span_ != nullptr) {
        verify_span_ = parent_span_->StartChild("containment_verify");
      }
    }
    PlanNodePtr result =
        TryCandidate(node, *ann, ancestors, qcap, qf);
    if (result != nullptr) return result;
    ++counters_->containment_rejected;
  }
  return nullptr;
}

PlanNodePtr CandidateMatcher::TryCandidate(
    const PlanNodePtr& node, const ViewAnnotation& ann,
    const std::vector<const PlanNode*>& ancestors,
    const CapDecomposition& qcap, const ViewFeatures& qf) {
  // ---- Tier 2: structural verification against the definition skeleton.
  ViewSide vs;
  vs.cap = DecomposeCap(*ann.definition);
  if (vs.cap.core->SubtreeHash(SignatureMode::kNormalized) !=
      qf.core_normalized) {
    return nullptr;
  }
  vs.view_schema = &ann.definition->output_schema();
  if (vs.cap.aggregate != nullptr) {
    vs.group_keys.insert(vs.cap.aggregate->group_keys().begin(),
                         vs.cap.aggregate->group_keys().end());
  }
  if (vs.cap.project != nullptr) {
    for (const auto& ne : vs.cap.project->exprs()) {
      if (VariesByInstance(*ne.expr)) continue;
      vs.input_by_hash.emplace(ExprPreciseHash(*ne.expr), ne.name);
    }
  } else {
    for (const auto& field : vs.cap.core->output_schema().fields()) {
      vs.input_by_hash.emplace(ColRefHash(field.name), field.name);
    }
  }

  // Query-side canonicalization: rewrite exprs above the query's Project
  // into exprs over core columns, so both sides speak the same names.
  std::unordered_map<std::string, ExprPtr> qprov;
  if (qcap.project != nullptr) {
    for (const auto& ne : qcap.project->exprs()) {
      qprov.emplace(ne.name, ne.expr);
    }
  }
  auto canonical = [&](const ExprPtr& e) -> ExprPtr {
    if (qcap.project == nullptr) return e->Clone();
    return SubstituteColumnRefs(*e, [&](const std::string& c) -> ExprPtr {
      auto it = qprov.find(c);
      return it == qprov.end() ? nullptr : it->second->Clone();
    });
  };
  // Rewrites a canonical (core-level) expr into one over the view's
  // output columns; null when the view does not carry the value. For
  // aggregated views only group-key columns survive as output rows'
  // per-group-constant values.
  auto remap = [&](const ExprPtr& canon) -> ExprPtr {
    if (canon == nullptr) return nullptr;
    if (!VariesByInstance(*canon)) {
      auto it = vs.input_by_hash.find(ExprPreciseHash(*canon));
      if (it != vs.input_by_hash.end() &&
          (vs.cap.aggregate == nullptr || vs.group_keys.count(it->second))) {
        return Col(it->second);
      }
    }
    return SubstituteColumnRefs(*canon, [&](const std::string& c) -> ExprPtr {
      auto it = vs.input_by_hash.find(ColRefHash(c));
      if (it == vs.input_by_hash.end()) return nullptr;
      if (vs.cap.aggregate != nullptr && !vs.group_keys.count(it->second)) {
        return nullptr;
      }
      return Col(it->second);
    });
  };

  const Schema& target = node->output_schema();
  std::vector<std::string> comp_group_keys;
  std::vector<AggregateSpec> comp_specs;
  std::vector<NamedExpr> final_exprs;
  int temp_counter = 0;
  auto temp_name = [&]() { return "__cv_c" + std::to_string(temp_counter++); };

  if (qcap.aggregate != nullptr) {
    // Re-aggregation emits groups in a different order than the original
    // plan's exchange-fed aggregate; only safe when an ancestor Sort makes
    // group order immaterial.
    const auto& gq = qcap.aggregate->group_keys();
    if (!OrderImmaterialAbove(ancestors, gq)) return nullptr;

    for (const auto& qk : gq) {
      ExprPtr rk = remap(canonical(Col(qk)));
      if (rk == nullptr || rk->kind() != ExprKind::kColumnRef) return nullptr;
      std::string vk = static_cast<const ColumnRefExpr&>(*rk).name();
      if (std::find(comp_group_keys.begin(), comp_group_keys.end(), vk) ==
          comp_group_keys.end()) {
        comp_group_keys.push_back(vk);
      }
      final_exprs.push_back(NamedExpr{Col(vk), qk});
    }

    if (vs.cap.aggregate == nullptr) {
      // View holds raw (filtered/projected) rows: fully re-run each
      // aggregate over them. Row feed is byte-identical to the original
      // aggregate's logical input, so any aggregate function is safe.
      for (const auto& spec : qcap.aggregate->aggregates()) {
        ExprPtr arg;
        if (spec.arg != nullptr) {
          arg = remap(canonical(spec.arg));
          if (arg == nullptr) return nullptr;
        }
        std::string tmp = temp_name();
        comp_specs.push_back(AggregateSpec{spec.func, arg, tmp});
        final_exprs.push_back(NamedExpr{Col(tmp), spec.output_name});
      }
    } else {
      // View is pre-aggregated at a finer group-by: decompose each query
      // aggregate from the view's partial aggregates. Only decomposable
      // combinations are accepted; SUM/AVG require int64 arguments
      // because float addition is not associative (byte-identity).
      struct VSpec {
        const AggregateSpec* spec;
        bool stable = false;
        Hash128 canon;
        DataType out_type;
      };
      std::unordered_map<std::string, ExprPtr> vprov;
      if (vs.cap.project != nullptr) {
        for (const auto& ne : vs.cap.project->exprs()) {
          vprov.emplace(ne.name, ne.expr);
        }
      }
      const Schema& agg_schema = vs.cap.aggregate->output_schema();
      std::vector<VSpec> vspecs;
      for (const auto& spec : vs.cap.aggregate->aggregates()) {
        VSpec v;
        v.spec = &spec;
        int idx = agg_schema.FieldIndex(spec.output_name);
        if (idx < 0) return nullptr;
        v.out_type = agg_schema.field(static_cast<size_t>(idx)).type;
        if (spec.arg != nullptr) {
          ExprPtr canon = spec.arg;
          if (vs.cap.project != nullptr) {
            canon = SubstituteColumnRefs(
                *spec.arg, [&](const std::string& c) -> ExprPtr {
                  auto it = vprov.find(c);
                  return it == vprov.end() ? nullptr : it->second->Clone();
                });
          }
          if (canon != nullptr && !VariesByInstance(*canon)) {
            v.stable = true;
            v.canon = ExprPreciseHash(*canon);
          }
        }
        vspecs.push_back(std::move(v));
      }
      auto find_vspec = [&](AggFunc func, bool has_arg,
                            const Hash128& canon) -> const VSpec* {
        for (const auto& v : vspecs) {
          if (v.spec->func != func) continue;
          if (has_arg != (v.spec->arg != nullptr)) continue;
          if (has_arg && (!v.stable || v.canon != canon)) continue;
          return &v;
        }
        return nullptr;
      };

      for (const auto& spec : qcap.aggregate->aggregates()) {
        Hash128 qcanon;
        if (spec.arg != nullptr) {
          ExprPtr canon = canonical(spec.arg);
          if (canon == nullptr || VariesByInstance(*canon)) return nullptr;
          qcanon = ExprPreciseHash(*canon);
        }
        switch (spec.func) {
          case AggFunc::kCount: {
            const VSpec* v =
                find_vspec(AggFunc::kCount, spec.arg != nullptr, qcanon);
            if (v == nullptr) return nullptr;
            std::string tmp = temp_name();
            // Partial counts roll up as an int64 sum.
            comp_specs.push_back(AggregateSpec{
                AggFunc::kSum, Col(v->spec->output_name), tmp});
            final_exprs.push_back(NamedExpr{Col(tmp), spec.output_name});
            break;
          }
          case AggFunc::kSum: {
            const VSpec* v = find_vspec(AggFunc::kSum, true, qcanon);
            if (v == nullptr || v->out_type != DataType::kInt64) {
              return nullptr;  // float sums are order-sensitive
            }
            std::string tmp = temp_name();
            comp_specs.push_back(AggregateSpec{
                AggFunc::kSum, Col(v->spec->output_name), tmp});
            final_exprs.push_back(NamedExpr{Col(tmp), spec.output_name});
            break;
          }
          case AggFunc::kMin:
          case AggFunc::kMax: {
            const VSpec* v = find_vspec(spec.func, true, qcanon);
            if (v == nullptr) return nullptr;
            std::string tmp = temp_name();
            comp_specs.push_back(AggregateSpec{
                spec.func, Col(v->spec->output_name), tmp});
            final_exprs.push_back(NamedExpr{Col(tmp), spec.output_name});
            break;
          }
          case AggFunc::kAvg: {
            // AVG(x) = SUM(sum_x) / SUM(count_x), exactly reproducing the
            // engine's sum/count division (int64 sums are exact; the
            // division and its NULL-on-empty semantics match AggState).
            if (spec.arg == nullptr ||
                spec.arg->output_type() != DataType::kInt64) {
              return nullptr;
            }
            const VSpec* sum_v = find_vspec(AggFunc::kSum, true, qcanon);
            const VSpec* cnt_v = find_vspec(AggFunc::kCount, true, qcanon);
            if (sum_v == nullptr || cnt_v == nullptr ||
                sum_v->out_type != DataType::kInt64) {
              return nullptr;
            }
            std::string tmp_sum = temp_name();
            std::string tmp_cnt = temp_name();
            comp_specs.push_back(AggregateSpec{
                AggFunc::kSum, Col(sum_v->spec->output_name), tmp_sum});
            comp_specs.push_back(AggregateSpec{
                AggFunc::kSum, Col(cnt_v->spec->output_name), tmp_cnt});
            final_exprs.push_back(NamedExpr{
                Div(Col(tmp_sum), Col(tmp_cnt)), spec.output_name});
            break;
          }
        }
      }
    }
  } else {
    // No query aggregate: the view must hold raw rows too.
    if (vs.cap.aggregate != nullptr) return nullptr;
    for (const auto& field : target.fields()) {
      ExprPtr canon;
      if (qcap.project != nullptr) {
        auto it = qprov.find(field.name);
        if (it == qprov.end()) return nullptr;
        canon = it->second->Clone();
      } else {
        canon = Col(field.name);
      }
      ExprPtr e = remap(canon);
      if (e == nullptr) return nullptr;
      final_exprs.push_back(NamedExpr{e, field.name});
    }
  }

  // ---- Tier 2.5: a live instance over the same core (the catalog lists
  // only those) whose concrete predicate contains the query's.
  std::vector<ExprPtr> qconjuncts;
  FlattenConjuncts(qcap.filter != nullptr ? qcap.filter->predicate()
                                          : nullptr,
                   &qconjuncts);
  std::vector<Hash128> qhashes;
  for (const auto& c : qconjuncts) qhashes.push_back(ExprPreciseHash(*c));

  bool verified_counted = false;
  for (const auto& info : catalog_->FindSubsumableInstances(
           ann.normalized_signature, qf.core_precise)) {
    const auto& rf = info.reuse_features;
    if (!rf) continue;
    if (!rf->predicate.Contains(qf.predicate)) continue;
    if (!verified_counted) {
      verified_counted = true;
      ++counters_->containment_verified;
    }

    // Residual filter: the query conjuncts the view did not already
    // apply. Conjuncts the view applied verbatim (precise-hash match) are
    // idempotent and skipped; containment guarantees the remainder,
    // re-applied over the view's rows, reproduces the query's row set
    // exactly (same values, same relative order).
    std::vector<ExprPtr> residual;
    bool remappable = true;
    for (size_t i = 0; i < qconjuncts.size(); ++i) {
      if (std::binary_search(rf->predicate.conjuncts.begin(),
                             rf->predicate.conjuncts.end(), qhashes[i])) {
        continue;  // already enforced by the view
      }
      ExprPtr e = remap(qconjuncts[i]->Clone());
      if (e == nullptr) {
        remappable = false;  // references a column the view lost
        break;
      }
      residual.push_back(std::move(e));
    }
    if (!remappable) continue;

    // Same cost gate as the exact tier: reading the view (at the same
    // DOP) must beat recomputing the subtree.
    double read_cost = cost_model_->ViewReadCost(info.rows, info.bytes) /
                       CostModel::kDefaultDop;
    if (read_cost >= node->estimates().cost) {
      ++counters_->reuse_rejected_by_cost;
      continue;
    }

    // ---- Tier 3: assemble the compensation plan.
    const int comp_nodes =
        1 + (residual.empty() ? 0 : 1) + (qcap.aggregate != nullptr ? 1 : 0);
    // compensation: scan the subsumed view instance in place of the
    // replaced subtree; it carries the view's own signatures so cached
    // plans revalidate it against the catalog like any exact view read.
    auto read = std::make_shared<ViewReadNode>(
        info.path, ann.normalized_signature, info.precise_signature,
        *vs.view_schema, info.design, info.rows, info.bytes);
    read->set_compensation_nodes(comp_nodes);
    PlanNodePtr comp = read;
    if (!residual.empty()) {
      // compensation: residual filter re-applies the query conjuncts the
      // weaker view predicate did not enforce.
      comp = std::make_shared<FilterNode>(comp, AndFold(residual));
    }
    if (qcap.aggregate != nullptr) {
      // compensation: re-aggregate over the coarser query group-by; kHash
      // is forced because RepairProperties does not re-run algorithm
      // selection and the byte-identity argument assumes hash grouping.
      auto agg = std::make_shared<AggregateNode>(comp, comp_group_keys,
                                                 comp_specs);
      agg->set_algorithm(AggAlgorithm::kHash);
      comp = agg;
    }
    // compensation: final projection narrows / renames the view's
    // superset output back to the replaced subtree's exact schema.
    comp = std::make_shared<ProjectNode>(comp, final_exprs);

    Status st = comp->Bind();
    if (!st.ok() || !(comp->output_schema() == target)) {
      // Conservative: a compensation that cannot reproduce the exact
      // schema is discarded rather than risked.
      continue;
    }
    ++counters_->views_reused_subsumed;
    counters_->compensation_nodes_added += comp_nodes;
    return comp;
  }
  return nullptr;
}

}  // namespace cloudviews
