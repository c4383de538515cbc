// Fixture: seeded real-clock violations. MonotonicNowSeconds() reads the
// real clock, so the fake MonotonicClock a test hands the component cannot
// govern these timers. The injected clock and the reasoned NOLINT stay
// clean.
#include "common/clock.h"

double TimeIt(cloudviews::MonotonicClock* wall_clock) {
  double start = MonotonicNowSeconds();  // violation
  double injected = wall_clock->NowSeconds();
  // NOLINTNEXTLINE(real-clock): standalone timing with no instance clock.
  double standalone = MonotonicNowSeconds();
  return cloudviews::MonotonicNowSeconds() - start +  // violation
         injected + standalone;
}
