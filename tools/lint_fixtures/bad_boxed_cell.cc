// Seeded boxed-cell violations: executor or front-door code boxing a cell
// into a Value or copying rows one at a time. The reasoned NOLINT, the free
// function named GetValue and the bulk copies at the bottom stay clean.
#include <vector>

void Hash(const Batch& batch, size_t row, HashBuilder* hb) {
  batch.column(0).GetValue(row).HashInto(hb);  // violation
}

void Filter(const Batch& in, Batch* out, const Column* col) {
  for (size_t r = 0; r < in.num_rows(); ++r) {
    out->AppendRowFrom(in, r);  // violation
  }
  Value v = col->GetValue(0);  // violation
  // NOLINTNEXTLINE(boxed-cell): the mixed-type reference fallback.
  Value w = col->GetValue(1);
  Value x = GetValue(2);          // free function: fine
  out->AppendRowsFrom(in, 0, 2);  // bulk copy: fine
  std::vector<uint32_t> rows = {0, 1};
  out->AppendSelected(in, rows);  // gather: fine
}
