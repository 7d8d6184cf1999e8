#ifndef HOSR_UTIL_FLAGS_H_
#define HOSR_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace hosr::util {

// Minimal command-line parsing for benches and examples.
// Accepted forms: --name=value, --name value, and bare --name (value "true").
// Positional arguments are collected separately.
class Flags {
 public:
  Flags() = default;

  // Parses argv[1..argc). Unknown flags are accepted (callers query by name).
  static Flags Parse(int argc, char** argv);

  bool Has(std::string_view name) const;

  // Typed getters returning `default_value` when absent. Malformed values
  // log a warning and return the default.
  std::string GetString(std::string_view name,
                        std::string default_value) const;
  int64_t GetInt(std::string_view name, int64_t default_value) const;
  double GetDouble(std::string_view name, double default_value) const;
  bool GetBool(std::string_view name, bool default_value) const;

  // A count that must fit uint32_t: `default_value` when absent, and an
  // InvalidArgument naming the flag when the value is malformed, negative
  // or too large (never silently wrapped or defaulted).
  StatusOr<uint32_t> GetUint32(std::string_view name,
                               uint32_t default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace hosr::util

#endif  // HOSR_UTIL_FLAGS_H_
