// ScopedTempDir, the scratch directory of one serving or streaming test:
// <gtest TempDir>/<name>_<pid>, cleared when it is made (a crashed run with
// the same pid may have left it) and removed with everything in it when it
// goes out of scope, so a test run leaves nothing behind. The directory
// itself is not created: the checkpoint code that writes there makes it.
#ifndef RTGCN_TESTS_TEMP_DIR_H_
#define RTGCN_TESTS_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace rtgcn {

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_(::testing::TempDir() + name + "_" +
              std::to_string(::getpid())) {
    Remove();
  }
  ~ScopedTempDir() { Remove(); }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  void Remove() {
    std::error_code ignored;  // absent is fine; nothing else can be done
    std::filesystem::remove_all(path_, ignored);
  }

  std::string path_;
};

}  // namespace rtgcn

#endif  // RTGCN_TESTS_TEMP_DIR_H_
