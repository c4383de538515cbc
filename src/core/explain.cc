#include "core/explain.h"

#include <type_traits>

#include "common/string_util.h"
#include "obs/export.h"
#include "obs/json.h"
#include "storage/storage_manager.h"

namespace cloudviews {

namespace {

void AppendAnalyzedNode(const PlanNode* node, const PlanRuntimeStats& stats,
                        int depth, std::string* out) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  auto it = stats.find(node->id());
  if (it != stats.end()) {
    const OperatorRuntimeStats& s = it->second;
    *out += StrFormat(
        "%s%s  (actual: %.0f rows / %s; excl %.3fms, incl %.3fms, cpu "
        "%.3fms)\n",
        indent.c_str(), node->Label().c_str(), s.rows,
        HumanBytes(s.bytes).c_str(), s.exclusive_seconds * 1000,
        s.inclusive_seconds * 1000, s.cpu_seconds * 1000);
  } else {
    *out += StrFormat("%s%s  (not executed)\n", indent.c_str(),
                      node->Label().c_str());
  }
  for (const auto& child : node->children()) {
    AppendAnalyzedNode(child.get(), stats, depth + 1, out);
  }
}

void AppendSpanLines(const obs::SpanRecord& span, int depth,
                     std::string* out) {
  *out += StrFormat("%s%s %.3fms", std::string(depth * 2, ' ').c_str(),
                    span.name.c_str(),
                    (span.end_seconds - span.start_seconds) * 1000);
  for (const auto& [key, value] : span.attributes) {
    *out += StrFormat(" %s=%s", key.c_str(), value.c_str());
  }
  *out += "\n";
  for (const auto& child : span.children) {
    AppendSpanLines(*child, depth + 1, out);
  }
}

void PlanNodeToJson(const PlanNode* node, const PlanRuntimeStats& stats,
                    obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("node_id").Int(node->id());
  w->Key("label").String(node->Label());
  w->Key("kind").String(OpKindToString(node->kind()));
  auto it = stats.find(node->id());
  if (it != stats.end()) {
    const OperatorRuntimeStats& s = it->second;
    w->Key("rows").Double(s.rows);
    w->Key("bytes").Double(s.bytes);
    w->Key("exclusive_seconds").Double(s.exclusive_seconds);
    w->Key("inclusive_seconds").Double(s.inclusive_seconds);
    w->Key("cpu_seconds").Double(s.cpu_seconds);
  }
  if (!node->children().empty()) {
    w->Key("children").BeginArray();
    for (const auto& child : node->children()) {
      PlanNodeToJson(child.get(), stats, w);
    }
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

std::string ExplainJob(const JobResult& result) {
  std::string out;
  out += StrFormat("job %llu\n",
                   static_cast<unsigned long long>(result.job_id));
  out += StrFormat(
      "  compile %.3fms (metadata lookup %.1fms), estimated cost %.1f\n",
      result.compile_seconds * 1000, result.metadata_lookup_seconds * 1000,
      result.estimated_cost);
  out += StrFormat(
      "  run: latency %.3fms, cpu %.3fms, output %.0f rows / %s\n",
      result.run_stats.latency_seconds * 1000,
      result.run_stats.cpu_seconds * 1000, result.run_stats.output_rows,
      HumanBytes(result.run_stats.output_bytes).c_str());
  // Every per-job counter, in CV_JOB_COUNTERS order; flags print as 0/1.
  out += "  counters:";
  ForEachJobCounter(result, [&out](size_t i, auto value) {
    out += StrFormat(" %s=%d", kJobCounterInfo[i].field,
                     static_cast<int>(value));
  });
  out += "\n";
  if (result.plan_cache_hit) {
    out += StrFormat(
        "  plan cache: hit (recurring-job fast path, catalog epoch %llu)\n",
        static_cast<unsigned long long>(result.catalog_epoch));
  }
  if (result.shared_execution) {
    out += StrFormat(
        "  work sharing: adopted in-flight execution of leader job %llu\n",
        static_cast<unsigned long long>(result.share_leader_job_id));
  } else if (result.share_followers > 0) {
    out += StrFormat(
        "  work sharing: led a shared execution adopted by %d follower(s)\n",
        result.share_followers);
  }

  if (result.executed_plan == nullptr) return out;
  std::vector<PlanNode*> nodes;
  CollectNodes(result.executed_plan, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kViewRead) {
      auto* view = static_cast<ViewReadNode*>(n);
      Hash128 norm, precise;
      uint64_t producer = 0;
      std::string provenance = "unknown producer";
      if (ParseViewPath(view->view_path(), &norm, &precise, &producer)) {
        provenance = StrFormat(
            "produced by job %llu",
            static_cast<unsigned long long>(producer));
      }
      out += StrFormat("  reused view %s\n    %s; %.0f rows / %s; design "
                       "%s\n",
                       view->view_path().c_str(), provenance.c_str(),
                       view->actual_rows(),
                       HumanBytes(view->actual_bytes()).c_str(),
                       view->props().ToString().c_str());
    }
    if (n->kind() == OpKind::kSpool) {
      auto* spool = static_cast<SpoolNode*>(n);
      out += StrFormat(
          "  materialized view %s\n    design %s; lifetime %llds\n",
          spool->view_path().c_str(), spool->design().ToString().c_str(),
          static_cast<long long>(spool->lifetime_seconds()));
    }
  }
  out += "  executed plan:\n";
  for (const auto& line : Split(result.executed_plan->TreeString(), '\n')) {
    if (!line.empty()) out += "    " + line + "\n";
  }
  return out;
}

std::string ExplainAnalyze(const JobResult& result) {
  std::string out;
  out += StrFormat(
      "EXPLAIN ANALYZE job %llu: latency %.3fms, cpu %.3fms, output %.0f "
      "rows / %s\n",
      static_cast<unsigned long long>(result.job_id),
      result.run_stats.latency_seconds * 1000,
      result.run_stats.cpu_seconds * 1000, result.run_stats.output_rows,
      HumanBytes(result.run_stats.output_bytes).c_str());
  if (result.trace != nullptr) {
    out += "  lifecycle:\n";
    std::string spans;
    AppendSpanLines(*result.trace, 2, &spans);
    out += spans;
  }
  if (result.executed_plan != nullptr) {
    out += "  plan:\n";
    AppendAnalyzedNode(result.executed_plan.get(),
                       result.run_stats.operators, 2, &out);
  }
  return out;
}

std::string JobProfileJson(const JobResult& result) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("job_id").Uint(result.job_id);
  w.Key("compile_seconds").Double(result.compile_seconds);
  w.Key("metadata_lookup_seconds").Double(result.metadata_lookup_seconds);
  w.Key("estimated_cost").Double(result.estimated_cost);
  ForEachJobCounter(result, [&w](size_t i, auto value) {
    w.Key(kJobCounterInfo[i].field);
    if constexpr (std::is_same_v<decltype(value), bool>) {
      w.Bool(value);
    } else {
      w.Int(value);
    }
  });
  w.Key("plan_cache_hit").Bool(result.plan_cache_hit);
  w.Key("catalog_epoch").Uint(result.catalog_epoch);
  w.Key("shared_execution").Bool(result.shared_execution);
  w.Key("share_leader_job_id").Uint(result.share_leader_job_id);
  w.Key("share_followers").Int(result.share_followers);
  w.Key("run").BeginObject();
  w.Key("latency_seconds").Double(result.run_stats.latency_seconds);
  w.Key("cpu_seconds").Double(result.run_stats.cpu_seconds);
  w.Key("output_rows").Double(result.run_stats.output_rows);
  w.Key("output_bytes").Double(result.run_stats.output_bytes);
  w.EndObject();
  w.Key("trace");
  if (result.trace != nullptr) {
    obs::SpanToJson(*result.trace, &w);
  } else {
    w.Null();
  }
  w.Key("plan");
  if (result.executed_plan != nullptr) {
    PlanNodeToJson(result.executed_plan.get(), result.run_stats.operators,
                   &w);
  } else {
    w.Null();
  }
  w.EndObject();
  return w.Take();
}

std::string ExplainViewSelection(const AnalysisResult& analysis,
                                 size_t limit) {
  std::string out;
  out += StrFormat(
      "analysis over %zu job(s): %zu subgraph template(s) mined, %zu "
      "selected (%.1fms)\n",
      analysis.jobs_analyzed, analysis.subgraphs_mined,
      analysis.selected.size(), analysis.analysis_seconds * 1000);
  size_t n = std::min(limit, analysis.selected.size());
  for (size_t i = 0; i < n; ++i) {
    const SubgraphAggregate& agg = analysis.selected[i];
    out += StrFormat(
        "  #%zu %s (%s-rooted, %zu ops)\n", i + 1,
        agg.normalized.ToHex().substr(0, 16).c_str(),
        OpKindToString(agg.root_kind), agg.subtree_size);
    out += StrFormat(
        "     selected because: %lld occurrence(s) across %zu job(s) / %zu "
        "user(s), avg runtime %.3fms -> utility %.4fs\n",
        static_cast<long long>(agg.frequency), agg.jobs.size(),
        agg.users.size(), agg.AvgLatency() * 1000, agg.TotalUtility());
    out += StrFormat(
        "     costs: %s storage per instance; view/query cost ratio %.3f\n",
        HumanBytes(agg.AvgBytes()).c_str(), agg.ViewToQueryCostRatio());
    int popular = 0, total_designs = 0;
    for (const auto& [fp, entry] : agg.designs) {
      total_designs += entry.first;
      popular = std::max(popular, entry.first);
    }
    out += StrFormat(
        "     design: %s (seen in %d of %d occurrences); lifetime %llds "
        "from input lineage over {%s}\n",
        agg.PopularDesign().ToString().c_str(), popular, total_designs,
        static_cast<long long>(agg.max_recurrence_period),
        Join(std::vector<std::string>(agg.input_templates.begin(),
                                      agg.input_templates.end()),
             ", ")
            .c_str());
  }
  return out;
}

}  // namespace cloudviews
