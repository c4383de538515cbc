#include "runtime/subgraph_mining.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "signature/signature.h"

namespace cloudviews {

namespace {

/// Input templates by value, sorted and de-duplicated.
using TemplateSet = std::vector<const std::string*>;

/// Collects the input stream templates underneath a node.
void CollectInputTemplates(const PlanNode& node, std::set<std::string>* out) {
  if (node.kind() == OpKind::kExtract) {
    out->insert(static_cast<const ExtractNode&>(node).template_name());
  }
  for (const auto& c : node.children()) {
    CollectInputTemplates(*c, out);
  }
}

/// Appends `node`'s reuse-candidate subgraphs to `out` in pre-order, sets
/// `inputs` to the templates its subtree reads, and returns the subtree's
/// size. A ViewRead reads no template: it stands for a computation whose
/// inputs it does not show, as in CollectInputTemplates.
size_t MineSubtree(const PlanNode& node, std::vector<SubgraphOccurrence>* out,
                   TemplateSet* inputs) {
  const size_t slot = out->size();
  const bool reusable = IsReusableRoot(node);
  if (reusable) out->emplace_back();
  inputs->clear();
  if (node.kind() == OpKind::kExtract) {
    inputs->push_back(&static_cast<const ExtractNode&>(node).template_name());
  }
  size_t size = 1;
  TemplateSet child;
  for (const auto& c : node.children()) {
    size += MineSubtree(*c, out, &child);
    if (inputs->empty()) {
      inputs->swap(child);
      continue;
    }
    auto less = [](const std::string* a, const std::string* b) {
      return *a < *b;
    };
    auto equal = [](const std::string* a, const std::string* b) {
      return *a == *b;
    };
    TemplateSet merged;
    merged.reserve(inputs->size() + child.size());
    std::merge(inputs->begin(), inputs->end(), child.begin(), child.end(),
               std::back_inserter(merged), less);
    merged.erase(std::unique(merged.begin(), merged.end(), equal),
                 merged.end());
    inputs->swap(merged);
  }
  if (reusable) {
    SubgraphOccurrence& o = (*out)[slot];
    o.node = &node;
    o.normalized = node.SubtreeHash(SignatureMode::kNormalized);
    o.subtree_size = static_cast<uint32_t>(size);
    o.design = node.Delivered().Fingerprint();
    HashBuilder hb;
    for (const std::string* t : *inputs) hb.Add(std::string_view(*t));
    o.inputs = hb.Finish();
  }
  return size;
}

}  // namespace

PhysicalProperties SubgraphAggregate::PopularDesign() const {
  int best_count = -1;
  const PlanNode* best = nullptr;
  for (const auto& [fp, entry] : designs) {
    if (entry.first > best_count) {
      best_count = entry.first;
      best = entry.second.get();
    }
  }
  return best != nullptr ? best->Delivered() : PhysicalProperties{};
}

std::vector<SubgraphOccurrence> MineOccurrences(const JobRecord& record) {
  std::vector<SubgraphOccurrence> out;
  if (record.plan == nullptr) return out;
  TemplateSet inputs;
  MineSubtree(*record.plan, &out, &inputs);

  // Inclusive CPU for all subtrees in one pass: pre-order ids make each
  // subtree the id range [i, i + size), so a prefix sum over per-id CPU
  // answers every range in O(1) (a per-subtree re-walk is O(n²) in plan
  // size).
  const PlanRuntimeStats& stats = record.run_stats.operators;
  int bound = 0;
  for (const SubgraphOccurrence& o : out) {
    bound = std::max(bound,
                     o.node->id() + static_cast<int>(o.subtree_size));
  }
  std::vector<double> prefix(static_cast<size_t>(bound) + 1, 0.0);
  for (const auto& [id, op] : stats) {
    if (id >= 0 && id < bound) {
      prefix[static_cast<size_t>(id) + 1] = op.cpu_seconds;
    }
  }
  for (size_t i = 1; i < prefix.size(); ++i) prefix[i] += prefix[i - 1];
  for (SubgraphOccurrence& o : out) {
    auto it = stats.find(o.node->id());
    if (it == stats.end()) continue;
    int first = std::clamp(o.node->id(), 0, bound);
    int last = std::clamp(o.node->id() + static_cast<int>(o.subtree_size),
                          0, bound);
    o.stats = &it->second;
    o.cpu = prefix[static_cast<size_t>(last)] -
            prefix[static_cast<size_t>(first)];
  }
  return out;
}

void SubgraphBuckets::AddVariant(std::vector<Variant>* variants,
                                 const Hash128& key, const PlanNodePtr& plan,
                                 const PlanNode* witness) {
  for (Variant& v : *variants) {
    if (v.key == key) {
      ++v.count;
      return;
    }
  }
  variants->push_back({key, 1, {plan, witness}});
}

void SubgraphBuckets::Add(const JobRecord& record,
                          const std::vector<SubgraphOccurrence>& mined) {
  Bucket& bucket = buckets_[record.submit_time];
  const double job_latency = record.run_stats.latency_seconds;
  const LogicalTime period = record.recurrence_period;
  const auto begin = static_cast<uint32_t>(bucket.keys.size());
  Job& job = bucket.jobs.emplace_back();
  job.facts.job_id = record.job_id;
  job.facts.user = record.user;
  job.facts.vc = record.vc;
  job.facts.template_id = record.template_id;
  job.facts.latency_seconds = job_latency;
  job.facts.has_plan = record.plan != nullptr;
  job.begin = begin;
  job.end = begin + static_cast<uint32_t>(mined.size());
  for (const SubgraphOccurrence& o : mined) {
    auto [it, added] = bucket.index.try_emplace(
        o.normalized, static_cast<uint32_t>(bucket.entries.size()));
    if (added) {
      Entry& entry = bucket.entries.emplace_back();
      entry.normalized = o.normalized;
      entry.first = {record.plan, o.node};
      entry.subtree_size = o.subtree_size;
    }
    Entry& e = bucket.entries[it->second];
    ++e.frequency;
    e.max_recurrence_period = std::max(e.max_recurrence_period, period);
    if (o.stats != nullptr) {
      e.rows += o.stats->rows;
      e.bytes += o.stats->bytes;
      e.latency += o.stats->inclusive_seconds;
      e.job_latency += job_latency;
    }
    AddVariant(&e.designs, o.design, record.plan, o.node);
    AddVariant(&e.inputs, o.inputs, record.plan, o.node);
    bucket.keys.push_back(it->second);
  }
}

MinedWindow SubgraphBuckets::Merge(LogicalTime from, LogicalTime to) const {
  MinedWindow window;
  // The aggregate of each entry of the bucket being merged.
  std::vector<SubgraphAggregate*> slots;
  // (signature, input-template set) pairs already collected: a template
  // recurs in every bucket, its inputs rarely change.
  std::unordered_set<Hash128, Hash128Hasher> inputs_seen;
  for (auto it = buckets_.lower_bound(from);
       it != buckets_.end() && it->first < to; ++it) {
    const Bucket& bucket = it->second;
    slots.clear();
    for (const Entry& e : bucket.entries) {
      SubgraphAggregate& agg = window.aggregates[e.normalized];
      if (agg.frequency == 0) {
        agg.normalized = e.normalized;
        agg.first = e.first;
        agg.root_kind = e.first->kind();
        agg.subtree_size = e.subtree_size;
      }
      agg.frequency += e.frequency;
      agg.sum_rows += e.rows;
      agg.sum_bytes += e.bytes;
      agg.sum_latency += e.latency;
      agg.sum_job_latency += e.job_latency;
      agg.max_recurrence_period =
          std::max(agg.max_recurrence_period, e.max_recurrence_period);
      for (const Variant& d : e.designs) {
        auto& design = agg.designs[d.key];
        if (design.second == nullptr) design.second = d.witness;
        design.first += d.count;
      }
      for (const Variant& in : e.inputs) {
        Hash128 seen = HashBuilder().Add(e.normalized).Add(in.key).Finish();
        if (inputs_seen.insert(seen).second) {
          CollectInputTemplates(*in.witness, &agg.input_templates);
        }
      }
      slots.push_back(&agg);
    }
    for (const Job& job : bucket.jobs) {
      MinedJob& mined = window.jobs.emplace_back(job.facts);
      mined.subgraphs.reserve(job.end - job.begin);
      for (uint32_t k = job.begin; k < job.end; ++k) {
        SubgraphAggregate& agg = *slots[bucket.keys[k]];
        mined.subgraphs.push_back(agg.normalized);
        agg.jobs.insert(mined.job_id);
        agg.users.insert(mined.user);
        agg.vcs.insert(mined.vc);
        agg.templates.insert(mined.template_id);
      }
    }
  }
  return window;
}

}  // namespace cloudviews
