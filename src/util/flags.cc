#include "util/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace besync {

Status Flags::Parse(int argc, char** argv, const std::vector<std::string>& known,
                    Flags* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got '", arg, "'");
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--name value` form when the next token is not itself a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown flag --", name);
    }
    out->values_[name] = value;
  }
  return Status::OK();
}

bool Flags::Has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::GetString(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// Bad flag values are usage errors, reported the way unknown flags are:
/// a message on stderr and exit code 2, never a silent prefix parse.
[[noreturn]] void BadValue(const std::string& name, const std::string& value,
                           const char* expected) {
  std::fprintf(stderr, "--%s: expected %s, got '%s'\n", name.c_str(), expected,
               value.c_str());
  std::exit(2);
}

/// strtoll/strtod accept leading blanks; a flag value may not have them.
bool StartsBlank(const std::string& value) {
  return std::isspace(static_cast<unsigned char>(value[0])) != 0;
}

}  // namespace

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value.empty() || StartsBlank(value)) BadValue(name, value, "an integer");
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (*end != '\0') BadValue(name, value, "an integer");
  if (errno == ERANGE) BadValue(name, value, "an integer in range");
  return static_cast<int64_t>(parsed);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value.empty() || StartsBlank(value)) BadValue(name, value, "a number");
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (*end != '\0') BadValue(name, value, "a number");
  // ERANGE also flags underflow to a denormal or zero, which is harmless.
  if (errno == ERANGE && std::fabs(parsed) == HUGE_VAL) {
    BadValue(name, value, "a number in range");
  }
  return parsed;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  BadValue(name, value, "true/false/1/0/yes/no");
}

}  // namespace besync
