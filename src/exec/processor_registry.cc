#include "exec/processor_registry.h"

#include "common/string_util.h"

namespace cloudviews {

ProcessorRegistry* ProcessorRegistry::Global() {
  static ProcessorRegistry* registry = new ProcessorRegistry();  // NOLINT(naked-new): leaked singleton
  return registry;
}

void ProcessorRegistry::Register(const std::string& name, ProcessorFn fn) {
  entries_[name] = std::move(fn);
}

bool ProcessorRegistry::Contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

Result<const ProcessorFn*> ProcessorRegistry::Lookup(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no processor named '" + name + "'");
  }
  return &it->second;
}

ProcessorRegistry::ProcessorRegistry() {
  // "identity": pass rows through unchanged. The declared output schema
  // must match the input schema. Stands in for cheap cleansing UDOs.
  Register("identity", [](const Batch& input, Batch* output) -> Status {
    *output = input;
    return Status::OK();
  });

  // "first_of_group": a reducer that keeps only the first row of each
  // group it is handed (dedup-by-key when used under REDUCE).
  Register("first_of_group", [](const Batch& input, Batch* output) -> Status {
    *output = Batch(input.schema());
    // NOLINTNEXTLINE(boxed-cell): a UDO stand-in, one row per group.
    if (input.num_rows() > 0) output->AppendRowFrom(input, 0);
    return Status::OK();
  });

  // "cleanse": drops rows whose first string column is empty; other rows
  // pass through. A typical data-preparation UDO.
  Register("cleanse", [](const Batch& input, Batch* output) -> Status {
    int str_col = -1;
    for (size_t i = 0; i < input.schema().num_fields(); ++i) {
      if (input.schema().field(i).type == DataType::kString) {
        str_col = static_cast<int>(i);
        break;
      }
    }
    *output = Batch(input.schema());
    for (size_t r = 0; r < input.num_rows(); ++r) {
      if (str_col >= 0) {
        const Column& c = input.column(static_cast<size_t>(str_col));
        if (!c.IsNull(r) && c.string_data()[r].empty()) continue;
      }
      // NOLINTNEXTLINE(boxed-cell): a row-at-a-time UDO stand-in.
      output->AppendRowFrom(input, r);
    }
    return Status::OK();
  });
}

}  // namespace cloudviews
