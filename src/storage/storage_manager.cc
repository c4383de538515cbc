#include "storage/storage_manager.h"

#include "common/string_util.h"
#include "obs/timed_lock.h"

namespace cloudviews {

std::string EncodeViewPath(const Hash128& normalized, const Hash128& precise,
                           uint64_t producer_job_id) {
  return StrFormat("/views/%s/%s_%llu.ss", normalized.ToHex().c_str(),
                   precise.ToHex().c_str(),
                   static_cast<unsigned long long>(producer_job_id));
}

bool ParseViewPath(const std::string& path, Hash128* normalized,
                   Hash128* precise, uint64_t* producer_job_id) {
  if (!StartsWith(path, "/views/")) return false;
  auto parts = Split(path.substr(7), '/');
  if (parts.size() != 2) return false;
  if (!Hash128::FromHex(parts[0], normalized)) return false;
  auto file = parts[1];
  auto us = file.find('_');
  auto dot = file.rfind(".ss");
  if (us == std::string::npos || dot == std::string::npos || dot < us) {
    return false;
  }
  if (!Hash128::FromHex(std::string_view(file).substr(0, us), precise)) {
    return false;
  }
  char* end = nullptr;
  std::string id_str = file.substr(us + 1, dot - us - 1);
  *producer_job_id = std::strtoull(id_str.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !id_str.empty();
}

StorageManager::StorageManager(SimulatedClock* clock,
                               obs::MetricsRegistry* metrics,
                               MonotonicClock* wall_clock,
                               fault::FaultInjector* fault)
    : clock_(clock), wall_clock_(wall_clock), fault_(fault) {
  metrics = obs::SharedOrOwned(metrics, &own_metrics_);
  obs_.bytes_written = metrics->GetCounter(
      "cv_storage_bytes_written_total", {}, "Bytes written to the store");
  obs_.streams =
      metrics->GetGauge("cv_storage_streams", {}, "Stored streams");
  obs_.total_bytes = metrics->GetGauge("cv_storage_total_bytes", {},
                                       "Bytes across all stored streams");
  obs_.view_bytes =
      metrics->GetGauge("cv_storage_view_bytes", {},
                        "Bytes held by materialized views (the storage "
                        "cost side of the reuse trade-off)");
  obs_.view_count = metrics->GetGauge("cv_storage_views", {},
                                      "Stored materialized-view streams");
  obs_.lock_wait = metrics->GetHistogram(
      "cv_storage_lock_wait_seconds", {}, {},
      "Wall time waiting for the storage manager's stream-map mutex");
}

void StorageManager::CountStream(const StreamData& data, int sign) {
  const double bytes = sign * static_cast<double>(data.total_bytes);
  obs_.streams->Add(sign);
  obs_.total_bytes->Add(bytes);
  Hash128 normalized, precise;
  uint64_t producer = 0;
  if (ParseViewPath(data.name, &normalized, &precise, &producer)) {
    obs_.view_count->Add(sign);
    obs_.view_bytes->Add(bytes);
  }
}

void StorageManager::Put(StreamHandle data) {
  StreamHandle& slot = streams_[data->name];
  if (slot != nullptr) CountStream(*slot, -1);
  CountStream(*data, 1);
  slot = std::move(data);
}

Status StorageManager::WriteStream(StreamData data) {
  if (data.name.empty()) {
    return Status::InvalidArgument("stream name must not be empty");
  }
  if (fault_ != nullptr) {
    const bool is_view = StartsWith(data.name, "/views/");
    CV_RETURN_NOT_OK(fault_->MaybeInject(
        is_view ? fault::points::kStorageViewWrite
                : fault::points::kStorageWrite,
        data.name));
    if (is_view) {
      Status torn =
          fault_->MaybeInject(fault::points::kStorageViewWriteTorn, data.name);
      if (!torn.ok()) {
        // Model a writer dying mid-write: a truncated, incomplete-flagged
        // partial is left in the store and the write still reports failure.
        data.batches.resize(data.batches.size() / 2);
        data.total_rows = 0;
        data.total_bytes = 0;
        for (const auto& b : data.batches) {
          data.total_rows += static_cast<int64_t>(b.num_rows());
          data.total_bytes += b.ByteSize();
        }
        data.complete = false;
        auto partial = std::make_shared<StreamData>(std::move(data));
        obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
        Put(std::move(partial));
        return torn;
      }
    }
  }
  auto handle = std::make_shared<StreamData>(std::move(data));
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  obs_.bytes_written->Increment(static_cast<uint64_t>(handle->total_bytes));
  Put(std::move(handle));
  return Status::OK();
}

Result<StreamHandle> StorageManager::OpenStream(
    const std::string& name) const {
  if (fault_ != nullptr) {
    CV_RETURN_NOT_OK(fault_->MaybeInject(
        StartsWith(name, "/views/") ? fault::points::kStorageViewRead
                                    : fault::points::kStorageRead,
        name));
  }
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("stream '" + name + "' does not exist");
  }
  if (!it->second->complete) {
    return Status::IOError("stream '" + name +
                           "' is incomplete (torn write); refusing to read");
  }
  return it->second;
}

bool StorageManager::StreamExists(const std::string& name) const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  return streams_.count(name) > 0;
}

Status StorageManager::DeleteStream(const std::string& name) {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("stream '" + name + "' does not exist");
  }
  CountStream(*it->second, -1);
  streams_.erase(it);
  return Status::OK();
}

size_t StorageManager::PurgeExpired() {
  LogicalTime now = clock_->Now();
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  size_t purged = 0;
  for (auto it = streams_.begin(); it != streams_.end();) {
    if (it->second->expires_at != 0 && it->second->expires_at <= now) {
      CountStream(*it->second, -1);
      it = streams_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  return purged;
}

std::vector<std::string> StorageManager::ListStreams(
    const std::string& prefix) const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  std::vector<std::string> out;
  for (const auto& [name, data] : streams_) {
    if (StartsWith(name, prefix)) out.push_back(name);
  }
  return out;
}

int64_t StorageManager::TotalBytes() const {
  return static_cast<int64_t>(obs_.total_bytes->value());
}

size_t StorageManager::NumStreams() const {
  return static_cast<size_t>(obs_.streams->value());
}

StreamData MakeStreamData(std::string name, std::string guid, Schema schema,
                          std::vector<Batch> batches, LogicalTime now,
                          LogicalTime expires_at, PhysicalProperties props) {
  StreamData data;
  data.name = std::move(name);
  data.guid = std::move(guid);
  data.schema = std::move(schema);
  data.created_at = now;
  data.expires_at = expires_at;
  data.props = std::move(props);
  for (const auto& b : batches) {
    data.total_rows += static_cast<int64_t>(b.num_rows());
    data.total_bytes += b.ByteSize();
  }
  data.batches = std::move(batches);
  return data;
}

}  // namespace cloudviews
