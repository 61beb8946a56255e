#ifndef BESYNC_UTIL_FLAGS_H_
#define BESYNC_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace besync {

/// Minimal command-line flag parser for the experiment binaries:
/// `--name=value`, `--name value`, and boolean `--name`. Unknown flags are an
/// error so typos in sweep scripts fail loudly.
class Flags {
 public:
  /// Parses argv; returns an error on malformed or unknown flags.
  /// `known` lists the accepted flag names (without dashes).
  static Status Parse(int argc, char** argv, const std::vector<std::string>& known,
                      Flags* out);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, const std::string& fallback) const;

  /// Typed getters return `fallback` for an absent flag. A present value
  /// must parse completely — no empty value, leading blanks, trailing junk
  /// or out-of-range number; GetBool takes only true/false/1/0/yes/no —
  /// else the getter prints a usage error and exits with code 2.
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace besync

#endif  // BESYNC_UTIL_FLAGS_H_
