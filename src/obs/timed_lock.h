#ifndef CLOUDVIEWS_OBS_TIMED_LOCK_H_
#define CLOUDVIEWS_OBS_TIMED_LOCK_H_

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace obs {

/// \brief MutexLock that feeds the acquisition wait into a histogram.
///
/// Drop-in replacement for MutexLock on every lock that can contend: the
/// wait is two clock reads and one observe.
class SCOPED_CAPABILITY TimedMutexLock {
 public:
  TimedMutexLock(Mutex& mu, Histogram* wait_hist, MonotonicClock* clock)
      ACQUIRE(mu)
      : mu_(mu) {
    double start = clock->NowSeconds();
    mu_.Lock();
    wait_hist->Observe(clock->NowSeconds() - start);
  }
  ~TimedMutexLock() RELEASE() { mu_.Unlock(); }

  TimedMutexLock(const TimedMutexLock&) = delete;
  TimedMutexLock& operator=(const TimedMutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace obs
}  // namespace cloudviews

#endif  // CLOUDVIEWS_OBS_TIMED_LOCK_H_
