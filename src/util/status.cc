#include "util/status.h"

#include <charconv>

namespace besync {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kIOError:
      return "I/O error";
  }
  return "Unknown";
}

void Status::AppendDouble(std::string* message, double value) {
  char buffer[32];
  const std::to_chars_result result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  message->append(buffer, result.ptr);
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeToString(code());
  result += ": ";
  result += message();
  return result;
}

}  // namespace besync
