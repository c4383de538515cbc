#include "fault/fault_injector.h"

#include <fstream>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/json.h"

namespace cloudviews {
namespace fault {

namespace {

constexpr char kFaultPrefix[] = "injected fault at ";
constexpr char kCrashPrefix[] = "injected crash at ";

bool HasPrefix(const std::string& s, const char* prefix) {
  return StartsWith(s, prefix);
}

}  // namespace

void FaultInjector::Arm(const std::string& point, FaultSpec spec) {
  MutexLock lock(mu_);
  PointState& state = points_[point];
  state.spec = std::move(spec);
  state.armed = true;
  // A fresh spec starts a fresh schedule: counters and key ordinals
  // restart (the retained event log is unaffected).
  state.hit_count = 0;
  state.fire_count = 0;
  state.key_hits.clear();
  if (metrics_ != nullptr && state.fires_counter == nullptr) {
    state.fires_counter = metrics_->GetCounter(
        "cv_fault_injections_total", {{"point", point}},
        "Injected faults fired, by injection point.");
  }
}

void FaultInjector::Disarm(const std::string& point) {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  if (it != points_.end()) it->second.armed = false;
}

void FaultInjector::Reset() {
  MutexLock lock(mu_);
  points_.clear();
  events_.clear();
  total_fires_ = 0;
  dropped_events_ = 0;
}

Status FaultInjector::MaybeInject(const std::string& point,
                                  const std::string& key) {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end() || !it->second.armed) return Status::OK();
  PointState& state = it->second;
  ++state.hit_count;
  const uint64_t key_hit = ++state.key_hits[key];

  bool fire = false;
  if (state.spec.trigger_every > 0) {
    fire = state.hit_count % state.spec.trigger_every == 0;
  } else if (state.spec.probability > 0) {
    // Deterministic Bernoulli draw: a pure function of (seed, point, key,
    // per-key ordinal), so each key replays the same fail/succeed sequence
    // on every run and a retry (next ordinal) gets an independent draw.
    const Hash128 h =
        HashBuilder(seed_).Add(point).Add(key).Add(key_hit).Finish();
    const double u =
        static_cast<double>(h.lo >> 11) * 0x1.0p-53;  // uniform [0,1)
    fire = u < state.spec.probability;
  }
  if (fire && state.fire_count >= state.spec.max_fires) fire = false;
  if (!fire) return Status::OK();

  ++state.fire_count;
  ++total_fires_;
  // NOLINTNEXTLINE(nullable-instrument): per-point counters are opt-in.
  if (state.fires_counter != nullptr) state.fires_counter->Increment();
  if (events_.size() < kMaxEvents) {
    events_.push_back(Event{total_fires_, point, key, state.hit_count,
                            state.spec.code, state.spec.crash});
  } else {
    ++dropped_events_;
  }

  std::string msg = (state.spec.crash ? kCrashPrefix : kFaultPrefix) + point;
  if (!key.empty()) msg += " [" + key + "]";
  msg += " (hit " + std::to_string(state.hit_count) + ")";
  if (!state.spec.message.empty()) msg += ": " + state.spec.message;
  return Status(state.spec.code, std::move(msg));
}

uint64_t FaultInjector::hits(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hit_count;
}

uint64_t FaultInjector::fires(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fire_count;
}

uint64_t FaultInjector::total_fires() const {
  MutexLock lock(mu_);
  return total_fires_;
}

std::vector<FaultInjector::Event> FaultInjector::events() const {
  MutexLock lock(mu_);
  return events_;
}

uint64_t FaultInjector::dropped_events() const {
  MutexLock lock(mu_);
  return dropped_events_;
}

std::string FaultInjector::EventsJson() const {
  MutexLock lock(mu_);
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("seed").Uint(seed_);
  w.Key("total_fires").Uint(total_fires_);
  w.Key("dropped_events").Uint(dropped_events_);
  w.Key("points").BeginArray();
  for (const auto& [point, state] : points_) {
    w.BeginObject();
    w.Key("point").String(point);
    w.Key("armed").Bool(state.armed);
    w.Key("hits").Uint(state.hit_count);
    w.Key("fires").Uint(state.fire_count);
    w.Key("probability").Double(state.spec.probability);
    w.Key("trigger_every").Uint(state.spec.trigger_every);
    w.Key("crash").Bool(state.spec.crash);
    w.EndObject();
  }
  w.EndArray();
  w.Key("events").BeginArray();
  for (const Event& e : events_) {
    w.BeginObject();
    w.Key("sequence").Uint(e.sequence);
    w.Key("point").String(e.point);
    w.Key("key").String(e.key);
    w.Key("point_hit").Uint(e.point_hit);
    w.Key("code").String(StatusCodeToString(e.code));
    w.Key("crash").Bool(e.crash);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

Status FaultInjector::WriteEventsJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << EventsJson() << "\n";
  out.flush();
  if (!out) return Status::IOError("short write to '" + path + "'");
  return Status::OK();
}

void FaultInjector::SetMetrics(obs::MetricsRegistry* metrics) {
  MutexLock lock(mu_);
  metrics_ = metrics;
  for (auto& [point, state] : points_) {
    state.fires_counter =
        metrics == nullptr
            ? nullptr
            : metrics->GetCounter("cv_fault_injections_total",
                                  {{"point", point}},
                                  "Injected faults fired, by injection point.");
  }
}

bool IsInjectedFault(const Status& status) {
  return !status.ok() && (HasPrefix(status.message(), kFaultPrefix) ||
                          HasPrefix(status.message(), kCrashPrefix));
}

bool IsInjectedCrash(const Status& status) {
  return !status.ok() && HasPrefix(status.message(), kCrashPrefix);
}

}  // namespace fault
}  // namespace cloudviews
