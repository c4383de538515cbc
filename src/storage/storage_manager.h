#ifndef CLOUDVIEWS_STORAGE_STORAGE_MANAGER_H_
#define CLOUDVIEWS_STORAGE_STORAGE_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/result.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "plan/physical_properties.h"
#include "types/batch.h"

namespace cloudviews {

/// \brief An immutable stored stream (job input, job output, or
/// materialized view).
///
/// The GUID identifies the data version: recurring instances write new
/// GUIDs under new names, and any in-place rewrite (e.g. a GDPR scrub)
/// installs a fresh GUID, which changes downstream precise signatures.
struct StreamData {
  std::string name;
  std::string guid;
  Schema schema;
  std::vector<Batch> batches;
  /// How the stream is physically laid out (views record their mined
  /// design here; plain outputs usually leave it unspecified).
  PhysicalProperties props;
  LogicalTime created_at = 0;
  /// 0 means never expires; the storage manager purges past this time.
  LogicalTime expires_at = 0;
  int64_t total_rows = 0;
  int64_t total_bytes = 0;
  /// False for a torn write: the writer failed partway, so some batches
  /// are missing. OpenStream refuses incomplete streams — a torn partial
  /// must never be read (or registered) as if it were the full view.
  bool complete = true;
};

using StreamHandle = std::shared_ptr<const StreamData>;

/// Builds the physical path of a materialized view. The path encodes the
/// precise signature and producing job id, exactly as the paper stores
/// them "into the physical path of the materialized files" (Sec 5, 6.2).
std::string EncodeViewPath(const Hash128& normalized,
                           const Hash128& precise, uint64_t producer_job_id);

/// Recovers signature components from a view path; returns false when the
/// path is not a view path.
[[nodiscard]] bool ParseViewPath(const std::string& path, Hash128* normalized,
                   Hash128* precise, uint64_t* producer_job_id);

/// \brief Thread-safe in-memory store of all streams in the simulated
/// cluster; stands in for the SCOPE distributed store.
class StorageManager {
 public:
  /// Registers the level gauges (streams and bytes, total and the
  /// materialized-view slice), the written-bytes counter and the
  /// `cv_storage_lock_wait_seconds` histogram, timed on `wall_clock`, into
  /// `metrics` (or, when it is null, a registry the manager owns). Reads
  /// and writes go through `fault` (storage.read / storage.write /
  /// storage.view_* points, keyed by stream name); null disables
  /// injection.
  explicit StorageManager(SimulatedClock* clock,
                          obs::MetricsRegistry* metrics = nullptr,
                          MonotonicClock* wall_clock = MonotonicClock::Real(),
                          fault::FaultInjector* fault = nullptr);

  /// Writes (or replaces) a stream. Expiry of 0 = never.
  Status WriteStream(StreamData data) EXCLUDES(mu_);

  Result<StreamHandle> OpenStream(const std::string& name) const
      EXCLUDES(mu_);
  [[nodiscard]] bool StreamExists(const std::string& name) const
      EXCLUDES(mu_);
  Status DeleteStream(const std::string& name) EXCLUDES(mu_);

  /// Deletes streams whose expiry passed; returns the number purged
  /// (Sec 5.4: "our Storage Manager takes care of purging the file once
  /// it expires").
  size_t PurgeExpired() EXCLUDES(mu_);

  std::vector<std::string> ListStreams(const std::string& prefix = "") const
      EXCLUDES(mu_);

  /// Read the level gauges; O(1).
  int64_t TotalBytes() const;
  size_t NumStreams() const;

  SimulatedClock* clock() const { return clock_; }

 private:
  /// Installs `data` under its name, replacing any stream of that name,
  /// and moves the level gauges by the difference.
  void Put(StreamHandle data) REQUIRES(mu_);
  /// Moves the level gauges by one stream entering (`sign` = 1) or leaving
  /// (`sign` = -1) the store. Every change to streams_ calls it under mu_,
  /// so whenever mu_ is free the gauges equal sums over streams_.
  void CountStream(const StreamData& data, int sign) REQUIRES(mu_);

  struct Instruments {
    obs::Counter* bytes_written = nullptr;
    obs::Gauge* streams = nullptr;
    obs::Gauge* total_bytes = nullptr;
    obs::Gauge* view_bytes = nullptr;
    obs::Gauge* view_count = nullptr;
    obs::Histogram* lock_wait = nullptr;
  };

  SimulatedClock* clock_;
  MonotonicClock* wall_clock_;
  fault::FaultInjector* fault_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Instruments obs_;
  mutable Mutex mu_;
  std::map<std::string, StreamHandle> streams_ GUARDED_BY(mu_);
};

/// Convenience: assembles a StreamData from batches, computing row/byte
/// totals.
StreamData MakeStreamData(std::string name, std::string guid, Schema schema,
                          std::vector<Batch> batches, LogicalTime now,
                          LogicalTime expires_at = 0,
                          PhysicalProperties props = {});

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_STORAGE_MANAGER_H_
