#ifndef CLOUDVIEWS_ANALYZER_ANALYZER_H_
#define CLOUDVIEWS_ANALYZER_ANALYZER_H_

#include <vector>

#include "analyzer/overlap_analyzer.h"
#include "analyzer/view_selection.h"
#include "metadata/metadata_service.h"
#include "obs/trace.h"

namespace cloudviews {

struct AnalyzerConfig {
  SelectionConfig selection;
  /// Mark every selected computation for offline (pre-job) materialization
  /// instead of inline online materialization (Sec 6.2, offline mode).
  bool offline_mode = false;
};

/// Output of one analyzer run (Fig 6 left: "query annotations").
struct AnalysisResult {
  /// Annotations to load into the metadata service.
  std::vector<AnnotatedComputation> annotations;
  /// Selected aggregates, descending utility (for reporting / drill-down).
  std::vector<SubgraphAggregate> selected;
  /// Job ids ordered so that view-building jobs run first (Sec 6.5).
  std::vector<uint64_t> submission_order;
  /// Wall seconds of the analysis; RunAnalyzerAndLoad includes the window
  /// merge.
  double analysis_seconds = 0;
  size_t jobs_analyzed = 0;
  size_t subgraphs_mined = 0;
};

/// \brief The offline CLOUDVIEWS analyzer (Sec 5): over a window the
/// workload repository mined (WorkloadRepository::Mine), selects views,
/// picks physical designs and expiries, and emits annotations plus
/// job-ordering hints.
class CloudViewsAnalyzer {
 public:
  explicit CloudViewsAnalyzer(AnalyzerConfig config = {})
      : config_(config) {}

  /// Consumes the window: the selected aggregates move into the result.
  /// Records its stages (analyzer.select, analyzer.order,
  /// analyzer.annotate) as children of `trace` when it is given and active.
  /// The overlap report of Figs 1-5 is not part of a run: callers that
  /// want it build it from the window (BuildOverlapReport).
  AnalysisResult Analyze(MinedWindow window,
                         obs::Span* trace = nullptr) const;

 private:
  AnalyzerConfig config_;
};

/// \brief Job-coordination hint (Sec 6.5): orders jobs so that, per
/// selected view, the cheapest containing job runs first and materializes
/// it for all the others.
std::vector<uint64_t> ComputeSubmissionOrder(
    const std::vector<const SubgraphAggregate*>& selected,
    const std::vector<MinedJob>& jobs);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_ANALYZER_ANALYZER_H_
