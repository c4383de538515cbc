#ifndef CLOUDVIEWS_NET_OUTCOME_H_
#define CLOUDVIEWS_NET_OUTCOME_H_

#include "net/wire.h"
#include "runtime/job_service.h"
#include "storage/storage_manager.h"

namespace cloudviews {
namespace net {

/// \brief Projects a JobResult onto the wire's deterministic/timing split.
///
/// `OutcomeFromJobResult` fills the deterministic slice only — counters,
/// catalog epoch, and a content fingerprint of the job's output stream
/// (HashBuilder over the schema and every row value in storage order).
/// The fingerprint is what lets the e2e test assert that a wire submission
/// produced byte-for-byte the same rows as an in-process SubmitJob, without
/// shipping result data over the wire.
JobOutcome OutcomeFromJobResult(const JobResult& result,
                                const StorageManager* storage);

/// Fills the nondeterministic wall-clock slice (queue_seconds is the
/// server's to stamp; left 0 here).
WireTimings TimingsFromJobResult(const JobResult& result);

/// Stable content hash of one stream: schema fields, then every cell of
/// every row, batch by batch. A cell feeds the hash what Value::HashInto
/// feeds for it, read from the typed column vectors; a null feeds "null",
/// so nulls hash distinctly from zero values.
Hash128 FingerprintStream(const StreamData& stream);

}  // namespace net
}  // namespace cloudviews

#endif  // CLOUDVIEWS_NET_OUTCOME_H_
