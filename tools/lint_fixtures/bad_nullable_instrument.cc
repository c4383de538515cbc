// Seeded nullable-instrument violations: counters, gauges and histograms
// are registered at construction and never null, so a null check guarding
// their update is dead code that hides a missing registration. Other calls
// and other checks at the bottom stay clean.
struct Instruments {
  Counter* hits = nullptr;
  Gauge* depth = nullptr;
  Histogram* wait = nullptr;
};

void Record(Instruments obs_, Counter* rejected_counter_, State* state) {
  if (obs_.hits != nullptr) obs_.hits->Increment();  // violation
  if (obs_.depth != nullptr) {                        // violation
    obs_.depth->Set(2);
  }
  if (state->depth != nullptr) state->depth->Add(-1);  // violation
  if (obs_.wait != nullptr) obs_.wait->Observe(0.5);   // violation
  if (rejected_counter_ != nullptr) Log(rejected_counter_);  // other call
  if (obs_.hits != nullptr) obs_.depth->Set(1);  // another instrument
}
