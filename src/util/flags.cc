#include "util/flags.h"

#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace hosr::util {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

bool Flags::Has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string Flags::GetString(std::string_view name,
                             std::string default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(std::string_view name, int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const auto parsed = ParseInt(it->second);
  if (!parsed.ok()) {
    // Name the offending flag explicitly — with several flags set, a
    // value-only warning is easy to misattribute.
    HOSR_LOG(Warning) << "flag --" << name << ": value \"" << it->second
                      << "\" is not an integer; using default "
                      << default_value;
    return default_value;
  }
  return parsed.value();
}

double Flags::GetDouble(std::string_view name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const auto parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    HOSR_LOG(Warning) << "flag --" << name << ": value \"" << it->second
                      << "\" is not a number; using default "
                      << default_value;
    return default_value;
  }
  return parsed.value();
}

StatusOr<uint32_t> Flags::GetUint32(std::string_view name,
                                    uint32_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const auto parsed = ParseInt(it->second);
  if (!parsed.ok() || parsed.value() < 0 ||
      parsed.value() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("flag --%s: \"%s\" is not an integer in [0, %u]",
                  std::string(name).c_str(), it->second.c_str(),
                  std::numeric_limits<uint32_t>::max()));
  }
  return static_cast<uint32_t>(parsed.value());
}

bool Flags::GetBool(std::string_view name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  HOSR_LOG(Warning) << "flag --" << name << ": value \"" << v
                    << "\" is not a boolean; using default "
                    << (default_value ? "true" : "false");
  return default_value;
}

}  // namespace hosr::util
