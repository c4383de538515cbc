#ifndef CLOUDVIEWS_EXEC_EXEC_OPTIONS_H_
#define CLOUDVIEWS_EXEC_EXEC_OPTIONS_H_

namespace cloudviews {

/// \brief Knobs of the morsel-driven execution engine.
///
/// Results are bit-identical for every setting of both knobs: parallel
/// operators precompute (evaluate, hash, compare) per morsel on the pool
/// and then merge or accumulate in a deterministic global row order, so a
/// multi-worker run reproduces the single-threaded engine byte for byte.
struct ExecOptions {
  /// Worker threads executing one job's plan; above 1 the job service
  /// builds its shared pool from it (the executor itself follows
  /// ExecContext::pool). 1 = run everything inline on the submitting
  /// thread (the legacy operator-at-a-time schedule).
  int worker_threads = 1;

  /// Maximum rows per morsel, the scheduling granule for intra-operator
  /// parallelism. Values < 1 fall back to the default.
  int morsel_rows = 4096;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_EXEC_OPTIONS_H_
