#include "analyzer/analyzer.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/clock.h"

namespace cloudviews {

std::vector<uint64_t> ComputeSubmissionOrder(
    const std::vector<const SubgraphAggregate*>& selected,
    const std::vector<MinedJob>& jobs) {
  std::unordered_map<uint64_t, const MinedJob*> by_id;
  // Selected views containing a job.
  std::unordered_map<uint64_t, int> overlap_count;
  for (const MinedJob& j : jobs) by_id[j.job_id] = &j;
  for (const SubgraphAggregate* agg : selected) {
    for (uint64_t job : agg->jobs) ++overlap_count[job];
  }

  // Per selected view (group of jobs sharing the overlap), pick the
  // shortest job — least overlapping on ties — as its builder.
  std::unordered_map<uint64_t, const MinedJob*> builders;
  for (const SubgraphAggregate* agg : selected) {
    const MinedJob* best = nullptr;
    for (uint64_t job_id : agg->jobs) {
      auto it = by_id.find(job_id);
      if (it == by_id.end()) continue;
      const MinedJob* j = it->second;
      if (best == nullptr) {
        best = j;
        continue;
      }
      double jl = j->latency_seconds;
      double bl = best->latency_seconds;
      if (jl < bl ||
          (jl == bl && overlap_count[j->job_id] < overlap_count[best->job_id])) {
        best = j;
      }
    }
    if (best != nullptr) builders[best->job_id] = best;
  }

  // Builders first, ordered by runtime (ties: fewer overlaps), then all
  // remaining jobs in their original order.
  std::vector<const MinedJob*> builder_list;
  // order-insensitive: builder_list is sorted by a total order below.
  for (const auto& [id, j] : builders) builder_list.push_back(j);
  std::sort(builder_list.begin(), builder_list.end(),
            [&](const MinedJob* a, const MinedJob* b) {
              double al = a->latency_seconds;
              double bl = b->latency_seconds;
              if (al != bl) return al < bl;
              if (overlap_count[a->job_id] != overlap_count[b->job_id]) {
                return overlap_count[a->job_id] < overlap_count[b->job_id];
              }
              return a->job_id < b->job_id;
            });

  std::vector<uint64_t> order;
  std::unordered_set<uint64_t> placed;
  for (const MinedJob* j : builder_list) {
    order.push_back(j->job_id);
    placed.insert(j->job_id);
  }
  for (const MinedJob& j : jobs) {
    uint64_t id = j.job_id;
    if (placed.insert(id).second) order.push_back(id);
  }
  return order;
}

namespace {

/// Bound clones of the selected aggregates' first occurrences, by position
/// in `selected`; null where binding fails. A first occurrence inside
/// another one's subtree shares that clone: binding runs bottom-up, so each
/// subtree of a bound clone is exactly what binding its own clone gives.
std::vector<PlanNodePtr> CloneDefinitions(
    const std::vector<const SubgraphAggregate*>& selected) {
  std::vector<PlanNodePtr> out(selected.size());
  // Bound clones of first occurrences, keyed by the original node; each
  // points into (and keeps alive) the clone of its outermost ancestor.
  std::unordered_map<const PlanNode*, PlanNodePtr> clones;
  for (const SubgraphAggregate* agg : selected) {
    if (agg->first != nullptr) clones.emplace(agg->first.get(), nullptr);
  }
  // Ancestors first: a subtree is smaller than any tree containing it.
  std::vector<size_t> order(selected.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return selected[a]->subtree_size > selected[b]->subtree_size;
  });
  for (size_t i : order) {
    const PlanNode* first = selected[i]->first.get();
    if (first == nullptr) continue;
    PlanNodePtr& clone = clones.at(first);
    if (clone == nullptr) {
      PlanNodePtr root = first->Clone();
      if (!root->Bind().ok()) continue;
      // Record the clone of every first occurrence inside this one.
      std::vector<std::pair<const PlanNode*, PlanNode*>> stack = {
          {first, root.get()}};
      while (!stack.empty()) {
        auto [original, copy] = stack.back();
        stack.pop_back();
        auto it = clones.find(original);
        if (it != clones.end() && it->second == nullptr) {
          it->second = PlanNodePtr(root, copy);
        }
        for (size_t c = 0; c < original->children().size(); ++c) {
          stack.push_back({original->children()[c].get(),
                           copy->children()[c].get()});
        }
      }
    }
    out[i] = clone;
  }
  return out;
}

}  // namespace

AnalysisResult CloudViewsAnalyzer::Analyze(MinedWindow window,
                                           obs::Span* trace) const {
  // Benches and admin_report analyze with no instance clock;
  // CloudViews::RunAnalyzerAndLoad retimes the run with its own.
  // NOLINTNEXTLINE(real-clock): standalone timing, see above.
  double start = MonotonicNowSeconds();
  obs::Span untraced;
  obs::Span& parent = trace != nullptr ? *trace : untraced;
  AnalysisResult result;
  result.jobs_analyzed = window.jobs.size();
  result.subgraphs_mined = window.aggregates.size();

  std::vector<const SubgraphAggregate*> selected;
  {
    obs::Span span = parent.StartChild("analyzer.select");
    selected = ViewSelector(config_.selection).Select(window.aggregates);
  }

  {
    obs::Span span = parent.StartChild("analyzer.order");
    result.submission_order = ComputeSubmissionOrder(selected, window.jobs);
  }

  {
    obs::Span span = parent.StartChild("analyzer.annotate");
    std::vector<PlanNodePtr> definitions = CloneDefinitions(selected);
    result.annotations.reserve(selected.size());
    result.selected.reserve(selected.size());
    for (size_t i = 0; i < selected.size(); ++i) {
      const SubgraphAggregate* pick = selected[i];
      // The window is consumed: each selected aggregate moves into the
      // result once its annotation is built.
      SubgraphAggregate& agg = window.aggregates.at(pick->normalized);
      AnnotatedComputation comp;
      comp.annotation.normalized_signature = agg.normalized;
      comp.annotation.design = agg.PopularDesign();
      comp.annotation.expected_rows = agg.AvgRows();
      comp.annotation.expected_bytes = agg.AvgBytes();
      comp.annotation.avg_runtime_seconds = agg.AvgLatency();
      comp.annotation.frequency = agg.frequency;
      comp.annotation.lifetime_seconds = agg.max_recurrence_period;
      comp.annotation.offline = config_.offline_mode;
      // The definition skeleton the containment matcher verifies
      // candidates against: a bound clone of the earliest occurrence in the
      // window. Unbindable, it disables containment for the template, never
      // the exact tier.
      if (definitions[i] != nullptr) {
        comp.annotation.features = std::make_shared<ViewFeatures>(
            ComputeViewFeatures(*definitions[i]));
        comp.annotation.definition = std::move(definitions[i]);
      }
      for (const auto& t : agg.templates) {
        comp.tags.push_back("template:" + t);
      }
      result.annotations.push_back(std::move(comp));
      result.selected.push_back(std::move(agg));
    }
  }

  // NOLINTNEXTLINE(real-clock): standalone timing, see `start`.
  result.analysis_seconds = MonotonicNowSeconds() - start;
  return result;
}

}  // namespace cloudviews
