#ifndef CLOUDVIEWS_COMMON_MUTEX_H_
#define CLOUDVIEWS_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace cloudviews {

/// \brief std::mutex wrapper carrying the clang capability attributes.
///
/// libstdc++'s std::mutex is not annotated, so clang's thread-safety
/// analysis cannot see it; this wrapper is what makes GUARDED_BY /
/// REQUIRES enforceable across the tree. Use MutexLock for scoped
/// acquisition; raw std::mutex is banned outside this header by
/// tools/repo_lint.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII scoped lock over a Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable paired with Mutex.
///
/// Wait takes the mutex the caller already holds (REQUIRES teaches the
/// analysis); re-check the predicate in a while loop around Wait so
/// guarded reads stay inside the caller's locked scope:
/// \code
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
/// \endcode
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified (or spuriously), and
  /// reacquires `mu` before returning.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the mutex
  }

  /// Like Wait but also returns after `timeout`; callers re-check their
  /// predicate either way.
  template <typename Rep, typename Period>
  void WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait_for(lock, timeout);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_COMMON_MUTEX_H_
