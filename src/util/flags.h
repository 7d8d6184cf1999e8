#ifndef HOSR_UTIL_FLAGS_H_
#define HOSR_UTIL_FLAGS_H_

#include <limits>
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

  // A count in [min_value, max_value]: `default_value` when absent, and an
  // InvalidArgument naming the flag when the value is malformed or out of
  // range (never silently wrapped, clamped or defaulted).
  StatusOr<uint32_t> GetUint32(
      std::string_view name, uint32_t default_value, uint32_t min_value = 0,
      uint32_t max_value = std::numeric_limits<uint32_t>::max()) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace hosr::util

#endif  // HOSR_UTIL_FLAGS_H_
