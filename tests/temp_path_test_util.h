#ifndef HOSR_TESTS_TEMP_PATH_TEST_UTIL_H_
#define HOSR_TESTS_TEMP_PATH_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>

namespace hosr::test_util {

// `name` in the system temp directory, suffixed with the pid. ctest runs a
// suite beside its forced-scalar rerun and its AddressSanitizer build, and
// the flake gate runs repeats in parallel, so two processes of one suite
// must never share a file.
inline std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(getpid())))
      .string();
}

}  // namespace hosr::test_util

#endif  // HOSR_TESTS_TEMP_PATH_TEST_UTIL_H_
