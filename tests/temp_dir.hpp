#pragma once

// Per-process scratch directories for tests that touch the filesystem.

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace pfar::test_support {

/// A fresh, empty directory `<TempDir()>/<stem>_<pid>`. ctest runs each
/// test case as its own process (gtest_discover_tests), so the pid suffix
/// keeps concurrent cases of one fixture from remove_all-ing each other's
/// files.
inline std::filesystem::path fresh_temp_dir(const std::string& stem) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (stem + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace pfar::test_support
