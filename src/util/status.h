#ifndef BESYNC_UTIL_STATUS_H_
#define BESYNC_UTIL_STATUS_H_

#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

namespace besync {

/// Error categories used across the library. Modeled after the Arrow/RocksDB
/// status idiom: fallible public APIs return a Status (or a Result<T>) rather
/// than throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIOError = 8,
};

/// Returns a short human-readable name, e.g. "Invalid argument".
const char* StatusCodeToString(StatusCode code);

/// A success-or-error outcome. An OK Status carries no allocation; error
/// statuses carry a code and a message.
///
/// Typical use:
///
///   Status DoThing() {
///     if (bad) return Status::InvalidArgument("bad thing: ", detail);
///     return Status::OK();
///   }
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_unique<Rep>(Rep{code, std::move(message)});
    }
  }

  Status(const Status& other) { CopyFrom(other); }
  Status& operator=(const Status& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }

  template <typename... Args>
  static Status InvalidArgument(Args&&... args) {
    return Make(StatusCode::kInvalidArgument, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status OutOfRange(Args&&... args) {
    return Make(StatusCode::kOutOfRange, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status NotFound(Args&&... args) {
    return Make(StatusCode::kNotFound, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status AlreadyExists(Args&&... args) {
    return Make(StatusCode::kAlreadyExists, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status FailedPrecondition(Args&&... args) {
    return Make(StatusCode::kFailedPrecondition, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Unimplemented(Args&&... args) {
    return Make(StatusCode::kUnimplemented, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Internal(Args&&... args) {
    return Make(StatusCode::kInternal, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status IOError(Args&&... args) {
    return Make(StatusCode::kIOError, std::forward<Args>(args)...);
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsUnimplemented() const { return code() == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };

  template <typename... Args>
  static Status Make(StatusCode code, Args&&... args) {
    std::string message;
    (AppendToMessage(&message, std::forward<Args>(args)), ...);
    return Status(code, std::move(message));
  }

  static void AppendToMessage(std::string* message, const std::string& part) {
    message->append(part);
  }
  static void AppendToMessage(std::string* message, const char* part) {
    message->append(part);
  }
  /// Floating-point parts print in their shortest round-trip form
  /// (std::to_chars: the fewest digits that read back as the same double,
  /// fixed or scientific, whichever is shorter), so 1.2e301 and 1e-300
  /// stay readable where std::to_string's %f gives 302 digits and
  /// "0.000000"; integers print as std::to_string does.
  template <typename T>
  static void AppendToMessage(std::string* message, const T& part) {
    if constexpr (std::is_floating_point_v<T>) {
      AppendDouble(message, static_cast<double>(part));
    } else {
      message->append(std::to_string(part));
    }
  }
  static void AppendDouble(std::string* message, double value);

  void CopyFrom(const Status& other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
  }

  std::unique_ptr<Rep> rep_;  // null == OK
};

inline std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

/// Propagates errors to the caller: `BESYNC_RETURN_IF_ERROR(DoThing());`
#define BESYNC_RETURN_IF_ERROR(expr)                      \
  do {                                                    \
    ::besync::Status _besync_status = (expr);             \
    if (!_besync_status.ok()) return _besync_status;      \
  } while (false)

}  // namespace besync

#endif  // BESYNC_UTIL_STATUS_H_
