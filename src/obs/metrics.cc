#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace cloudviews {
namespace obs {

namespace {

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

void SortLabels(Labels* labels) {
  std::sort(labels->begin(), labels->end());
}

}  // namespace

MetricsRegistry* SharedOrOwned(MetricsRegistry* shared,
                               std::unique_ptr<MetricsRegistry>* owned) {
  if (shared != nullptr) return shared;
  *owned = std::make_unique<MetricsRegistry>();
  return owned->get();
}

Histogram::Histogram(HistogramOptions opts) {
  if (opts.num_buckets < 1) opts.num_buckets = 1;
  if (opts.growth <= 1.0) opts.growth = 2.0;
  if (opts.first_bound <= 0) opts.first_bound = 1e-6;
  bounds_.reserve(static_cast<size_t>(opts.num_buckets));
  double bound = opts.first_bound;
  for (int i = 0; i < opts.num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= opts.growth;
  }
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // Exact upper-bound semantics (value <= bound): a binary search over at
  // most ~30 bounds, then two relaxed atomic adds.
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const {
  return sum_.load(std::memory_order_relaxed);
}

std::string RenderLabels(const Labels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    for (char c : labels[i].second) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  return out;
}

MetricsRegistry::Shard& MetricsRegistry::ShardFor(const std::string& name) {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

MetricsRegistry::Instrument* MetricsRegistry::Register(
    const std::string& name, Labels* labels, MetricType type,
    const std::string& help, const HistogramOptions* opts) {
  SortLabels(labels);
  std::string key = RenderLabels(*labels);
  Shard& shard = ShardFor(name);
  MutexLock lock(shard.mu);
  auto& family = shard.metrics[name];
  auto it = family.find(key);
  if (it != family.end()) {
    if (it->second.type != type) {
      std::fprintf(stderr,
                   "MetricsRegistry: '%s' re-registered with a different "
                   "instrument type\n",
                   name.c_str());
      std::abort();
    }
    return &it->second;
  }
  Instrument inst;
  inst.type = type;
  inst.help = help;
  inst.labels = *labels;
  switch (type) {
    case MetricType::kCounter:
      inst.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      inst.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      inst.histogram =
          std::make_unique<Histogram>(opts ? *opts : HistogramOptions{});
      break;
  }
  return &family.emplace(std::move(key), std::move(inst)).first->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, Labels labels,
                                     const std::string& help) {
  return Register(name, &labels, MetricType::kCounter, help, nullptr)
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, Labels labels,
                                 const std::string& help) {
  return Register(name, &labels, MetricType::kGauge, help, nullptr)
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         Labels labels, HistogramOptions opts,
                                         const std::string& help) {
  return Register(name, &labels, MetricType::kHistogram, help, &opts)
      ->histogram.get();
}

std::vector<FamilySnapshot> MetricsRegistry::Snapshot() const {
  // Merge the per-shard maps into one name-sorted list. Values are read
  // with relaxed atomics: the snapshot is a consistent-enough point-in-time
  // view, not a linearizable one.
  std::map<std::string, FamilySnapshot> merged;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [name, family] : shard.metrics) {
      FamilySnapshot& fam = merged[name];
      fam.name = name;
      for (const auto& [key, inst] : family) {
        fam.type = inst.type;
        if (fam.help.empty()) fam.help = inst.help;
        (void)key;  // the map key is the canonical label rendering
        SeriesSnapshot series;
        series.labels = inst.labels;
        switch (inst.type) {
          case MetricType::kCounter:
            series.value = static_cast<double>(inst.counter->value());
            break;
          case MetricType::kGauge:
            series.value = inst.gauge->value();
            break;
          case MetricType::kHistogram:
            series.bounds = inst.histogram->bounds();
            series.bucket_counts = inst.histogram->BucketCounts();
            series.count = inst.histogram->count();
            series.sum = inst.histogram->sum();
            break;
        }
        fam.series.push_back(std::move(series));
      }
    }
  }
  std::vector<FamilySnapshot> out;
  out.reserve(merged.size());
  for (auto& [name, fam] : merged) {
    std::sort(fam.series.begin(), fam.series.end(),
              [](const SeriesSnapshot& a, const SeriesSnapshot& b) {
                return a.labels < b.labels;
              });
    out.push_back(std::move(fam));
  }
  return out;
}

}  // namespace obs
}  // namespace cloudviews
