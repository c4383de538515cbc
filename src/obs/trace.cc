#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace cloudviews {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Stamps `end` on every span in the subtree that is still open.
void CloseOpenSpans(SpanRecord* record, double end) {
  if (record->end_seconds == 0) record->end_seconds = end;
  for (auto& child : record->children) CloseOpenSpans(child.get(), end);
}

}  // namespace

const SpanRecord* SpanRecord::Find(const std::string& span_name) const {
  if (name == span_name) return this;
  for (const auto& child : children) {
    if (const SpanRecord* found = child->Find(span_name)) return found;
  }
  return nullptr;
}

/// Root-shared mutable state of one in-flight trace. The root SpanRecord is
/// owned here until the root span ends, then moves to the tracer; `mu`
/// serializes every mutation of the tree (attributes, children, end
/// stamps) across the threads holding span handles into it.
struct Span::TraceState {
  Tracer* tracer = nullptr;
  MonotonicClock* clock = nullptr;
  Mutex mu;
  std::shared_ptr<SpanRecord> root GUARDED_BY(mu);
  bool delivered GUARDED_BY(mu) = false;
  /// A span of the trace carries an `error` or `degraded` attribute.
  bool notable GUARDED_BY(mu) = false;
};

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    trace_ = std::move(other.trace_);
    record_ = other.record_;
    is_root_ = other.is_root_;
    other.record_ = nullptr;
    other.is_root_ = false;
  }
  return *this;
}

Span Span::StartChild(std::string name) {
  if (!active()) return Span();
  double now = trace_->clock->NowSeconds();
  MutexLock lock(trace_->mu);
  if (trace_->delivered) return Span();  // root already ended
  auto child = std::make_unique<SpanRecord>();
  child->name = std::move(name);
  child->start_seconds = now;
  SpanRecord* raw = child.get();
  record_->children.push_back(std::move(child));
  return Span(trace_, raw, /*is_root=*/false);
}

void Span::SetAttribute(const std::string& key, const std::string& value) {
  if (!active()) return;
  MutexLock lock(trace_->mu);
  if (trace_->delivered) return;
  if (key == "error" || key == "degraded") trace_->notable = true;
  for (auto& attr : record_->attributes) {
    if (attr.first == key) {
      attr.second = value;
      return;
    }
  }
  record_->attributes.emplace_back(key, value);
}

void Span::SetAttribute(const std::string& key, const char* value) {
  SetAttribute(key, std::string(value));
}

void Span::SetAttribute(const std::string& key, int64_t value) {
  SetAttribute(key, std::to_string(value));
}

void Span::SetAttribute(const std::string& key, uint64_t value) {
  SetAttribute(key, std::to_string(value));
}

void Span::SetAttribute(const std::string& key, double value) {
  SetAttribute(key, FormatDouble(value));
}

void Span::SetAttribute(const std::string& key, bool value) {
  SetAttribute(key, std::string(value ? "true" : "false"));
}

void Span::End() { (void)Finish(); }

std::shared_ptr<const SpanRecord> Span::Finish() {
  if (!active()) return nullptr;
  double now = trace_->clock->NowSeconds();
  std::shared_ptr<const SpanRecord> finished;
  bool notable = false;
  {
    MutexLock lock(trace_->mu);
    if (!trace_->delivered) {
      if (record_->end_seconds == 0) record_->end_seconds = now;
      if (is_root_) {
        CloseOpenSpans(trace_->root.get(), now);
        trace_->delivered = true;
        finished = trace_->root;
        notable = trace_->notable;
      }
    }
  }
  if (finished != nullptr && trace_->tracer != nullptr) {
    trace_->tracer->Deliver(finished, notable);
  }
  record_ = nullptr;
  trace_.reset();
  return finished;
}

Span Tracer::StartTrace(std::string name) {
  auto state = std::make_shared<Span::TraceState>();
  state->tracer = this;
  state->clock = clock_;
  // Allocated apart from its control block: a weak reference that outlives
  // the trace (the server's ticket table keeps one per ticket) then pins
  // the control block only, not the record.
  std::shared_ptr<SpanRecord> root(std::make_unique<SpanRecord>());
  root->name = std::move(name);
  root->start_seconds = clock_->NowSeconds();
  SpanRecord* raw = root.get();
  {
    MutexLock lock(state->mu);
    state->root = std::move(root);
  }
  return Span(std::move(state), raw, /*is_root=*/true);
}

void Tracer::ObserveStages(const SpanRecord& span) {
  Histogram*& stage = stages_[span.name];
  if (stage == nullptr) {
    stage = metrics_->GetHistogram("cv_job_stage_seconds",
                                   {{"stage", span.name}}, {},
                                   "Per-stage wall time of the job pipeline");
  }
  stage->Observe(span.end_seconds - span.start_seconds);
  for (const auto& child : span.children) ObserveStages(*child);
}

bool Tracer::KeepsOver(const Retained& a, const Retained& b) {
  if (a.notable != b.notable) return a.notable;
  if (!a.notable && a.seconds != b.seconds) return a.seconds > b.seconds;
  return a.seq > b.seq;
}

void Tracer::Deliver(std::shared_ptr<const SpanRecord> root, bool notable) {
  // Declared before the lock, so a released tree is freed after `mu_` is.
  std::shared_ptr<const SpanRecord> released;
  MutexLock lock(mu_);
  ObserveStages(*root);
  const double seconds = root->end_seconds - root->start_seconds;
  latest_.push_back({std::move(root), delivered_++, seconds, notable});
  if (latest_.size() > latest_capacity_) {
    released = KeepNotable(std::move(latest_.front()));
    latest_.pop_front();
  }
}

std::shared_ptr<const SpanRecord> Tracer::KeepNotable(Retained leaving) {
  // A heap under KeepsOver has the trace retention ranks lowest at its
  // front; a full half swaps it out only for a trace ranked above it.
  if (notable_.size() < notable_capacity_) {
    notable_.push_back(std::move(leaving));
    std::push_heap(notable_.begin(), notable_.end(), KeepsOver);
    return nullptr;
  }
  ++dropped_;
  if (notable_.empty() || !KeepsOver(leaving, notable_.front())) {
    return std::move(leaving.trace);
  }
  std::pop_heap(notable_.begin(), notable_.end(), KeepsOver);
  std::shared_ptr<const SpanRecord> displaced =
      std::move(notable_.back().trace);
  notable_.back() = std::move(leaving);
  std::push_heap(notable_.begin(), notable_.end(), KeepsOver);
  return displaced;
}

std::vector<std::shared_ptr<const SpanRecord>> Tracer::FinishedTraces()
    const {
  MutexLock lock(mu_);
  // Every notable trace left the latest half, so it is older than all of
  // the latest ones.
  std::vector<const Retained*> notable;
  notable.reserve(notable_.size());
  for (const Retained& r : notable_) notable.push_back(&r);
  std::sort(notable.begin(), notable.end(),
            [](const Retained* a, const Retained* b) {
              return a->seq < b->seq;
            });
  std::vector<std::shared_ptr<const SpanRecord>> out;
  out.reserve(notable.size() + latest_.size());
  for (const Retained* r : notable) out.push_back(r->trace);
  for (const Retained& r : latest_) out.push_back(r.trace);
  return out;
}

std::shared_ptr<const SpanRecord> Tracer::LatestTrace() const {
  MutexLock lock(mu_);
  return latest_.empty() ? nullptr : latest_.back().trace;
}

uint64_t Tracer::dropped_traces() const {
  MutexLock lock(mu_);
  return dropped_;
}

}  // namespace obs
}  // namespace cloudviews
