// Injectable filesystem environment (DESIGN.md §13).
//
// The five syscalls whose failure decides what a persisting layer does
// -- open, write, fsync, fdatasync and rename -- go through
// Env::current() in util/fileio, sweep_engine/journal and
// campaign/cache; their other syscalls (read, close, unlink, truncate,
// mkdir, flock) call the OS directly.  The default environment forwards
// to the real syscalls.  Tests install an environment that fails one of
// the five (a full disk, a failed fdatasync or rename) to drive each
// layer's failure policy, and perfbench installs one whose syncs return
// at once.
//
// The active environment is process-global on purpose: the layers that
// persist state live in different libraries, and a forked campaign
// worker inherits the installed environment.
#pragma once

#include <cstddef>
#include <string>

namespace rr {

/// Filesystem operations the runtime persists state through.  POSIX
/// shape: negative return means failure with errno set, exactly like the
/// syscalls the default implementation forwards to.
class Env {
 public:
  virtual ~Env() = default;

  virtual int open(const std::string& path, int flags, int mode);
  virtual long write(int fd, const void* buf, std::size_t n);
  virtual int fsync(int fd);
  virtual int fdatasync(int fd);
  virtual int rename(const std::string& from, const std::string& to);

  /// The passthrough environment (real syscalls).  Always valid.
  static Env& real();
  /// The active environment every fileio/journal/cache operation uses.
  static Env& current();
  /// Install `env` (nullptr restores the real one); returns the previous
  /// environment so callers can restore it.
  static Env* install(Env* env);
};

/// RAII installation: installs `env` for the scope, restores the previous
/// environment on exit.
class ScopedEnv {
 public:
  explicit ScopedEnv(Env* env) : prev_(Env::install(env)) {}
  ~ScopedEnv() { Env::install(prev_); }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  Env* prev_;
};

}  // namespace rr
