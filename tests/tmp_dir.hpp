// Fresh scratch locations for tests: <TempDir><stem>.<pid>, emptied before
// use.  A leftover from an earlier process that had the same pid -- a
// journal, a work dir, a log file -- would otherwise leak into the run
// (a campaign would resume from it, a log check would read its lines).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace rr {

/// A path nothing exists at: any leftover file or directory is removed.
inline std::string tmp_path(const std::string& stem) {
  const std::string path =
      ::testing::TempDir() + stem + "." + std::to_string(::getpid());
  std::filesystem::remove_all(path);
  return path;
}

/// A fresh, empty directory.
inline std::string tmp_dir(const std::string& stem) {
  const std::string dir = tmp_path(stem);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace rr
