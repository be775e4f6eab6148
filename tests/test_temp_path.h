#ifndef WTPG_SCHED_TESTS_TEST_TEMP_PATH_H_
#define WTPG_SCHED_TESTS_TEST_TEMP_PATH_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace wtpgsched {

// Scratch file path unique to the running test and process. ctest runs each
// discovered case as its own process while whole-binary suites run the same
// cases concurrently, so a fixed name under TempDir() lets two processes
// overwrite each other's files mid-test.
inline std::string UniqueTempPath(const std::string& name) {
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    std::string test = std::string(info->test_suite_name()) + "." +
                       info->name() + ".";
    for (char& ch : test) {
      if (ch == '/') ch = '_';  // Parameterized names nest with '/'.
    }
    path += test;
  }
  return path + std::to_string(::getpid()) + "." + name;
}

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TESTS_TEST_TEMP_PATH_H_
