#ifndef CLOUDVIEWS_COMMON_STATUS_H_
#define CLOUDVIEWS_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace cloudviews {

/// \brief Error categories used across the library.
///
/// The library does not throw exceptions across module boundaries; every
/// fallible operation returns a Status (or a Result<T>, see result.h).
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kUnimplemented = 5,
  kInternal = 6,
  kAborted = 7,
  kExpired = 8,
  kParseError = 9,
  kTypeError = 10,
  kIOError = 11,
  /// A materialized view could not be read; the job must transparently
  /// fall back to its original (non-rewritten) plan rather than fail.
  kViewUnavailable = 12,
};
/// The last code; the wire codec refuses a larger one.
constexpr StatusCode LastEnumerator(StatusCode) {
  return StatusCode::kViewUnavailable;
}

/// \brief Returns a human-readable name for a status code ("OK",
/// "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus an optional message.
///
/// An OK status carries no allocation; error statuses carry a heap-allocated
/// message. Modeled on the Arrow/RocksDB Status idiom. The class is
/// [[nodiscard]]: a call site that drops a returned Status on the floor is a
/// compile error (silence genuinely-intentional drops with `(void)` plus a
/// comment saying why the error does not matter).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg) {
    if (code != StatusCode::kOk) {
      state_ = std::make_unique<State>(State{code, std::move(msg)});
    }
  }

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Expired(std::string msg) {
    return Status(StatusCode::kExpired, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ViewUnavailable(std::string msg) {
    return Status(StatusCode::kViewUnavailable, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return state_ == nullptr; }
  [[nodiscard]] StatusCode code() const {
    return state_ ? state_->code : StatusCode::kOk;
  }
  [[nodiscard]] const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->msg : kEmpty;
  }

  [[nodiscard]] bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  [[nodiscard]] bool IsNotFound() const {
    return code() == StatusCode::kNotFound;
  }
  [[nodiscard]] bool IsAborted() const {
    return code() == StatusCode::kAborted;
  }
  [[nodiscard]] bool IsExpired() const {
    return code() == StatusCode::kExpired;
  }
  [[nodiscard]] bool IsParseError() const {
    return code() == StatusCode::kParseError;
  }
  [[nodiscard]] bool IsTypeError() const {
    return code() == StatusCode::kTypeError;
  }
  [[nodiscard]] bool IsIOError() const {
    return code() == StatusCode::kIOError;
  }
  [[nodiscard]] bool IsViewUnavailable() const {
    return code() == StatusCode::kViewUnavailable;
  }

  /// Returns "OK" or "<code name>: <message>".
  [[nodiscard]] std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };

  void CopyFrom(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
  }

  std::unique_ptr<State> state_;
};

namespace internal {
/// Prints `what` plus the status and calls std::abort. Used by Result's
/// error-access paths; kept out of line so the hot path stays small.
[[noreturn]] void AbortWithStatus(const char* what, const Status& status);
}  // namespace internal

/// Propagates a non-OK Status to the caller.
#define CV_RETURN_NOT_OK(expr)                  \
  do {                                          \
    ::cloudviews::Status _st = (expr);          \
    if (!_st.ok()) return _st;                  \
  } while (0)

}  // namespace cloudviews

#endif  // CLOUDVIEWS_COMMON_STATUS_H_
