#ifndef BESYNC_UTIL_JSON_H_
#define BESYNC_UTIL_JSON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace besync {

/// Shortest decimal representation that round-trips to the exact double —
/// a pure function of the value, so serialized grids and exports are
/// byte-stable. Non-finite values become null (JSON has no NaN/Inf).
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

/// `text` as a quoted JSON string literal, control characters escaped.
inline std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof(escape), "\\u%04x", c);
          out += escape;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace besync

#endif  // BESYNC_UTIL_JSON_H_
