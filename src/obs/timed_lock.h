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

  /// Same, feeding the wait into two histograms — a specific one (e.g. one
  /// metadata shard stripe) and an aggregate one.
  TimedMutexLock(Mutex& mu, Histogram* wait_hist, Histogram* aggregate_hist,
                 MonotonicClock* clock) ACQUIRE(mu)
      : mu_(mu) {
    double start = clock->NowSeconds();
    mu_.Lock();
    double waited = clock->NowSeconds() - start;
    wait_hist->Observe(waited);
    aggregate_hist->Observe(waited);
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
