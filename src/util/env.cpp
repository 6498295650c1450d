#include "util/env.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

namespace rr {

namespace {

std::atomic<Env*> g_current{nullptr};

}  // namespace

int Env::open(const std::string& path, int flags, int mode) {
  return ::open(path.c_str(), flags, mode);
}

long Env::write(int fd, const void* buf, std::size_t n) {
  return ::write(fd, buf, n);
}

int Env::fsync(int fd) { return ::fsync(fd); }

int Env::fdatasync(int fd) { return ::fdatasync(fd); }

int Env::rename(const std::string& from, const std::string& to) {
  return ::rename(from.c_str(), to.c_str());
}

Env& Env::real() {
  static Env env;
  return env;
}

Env& Env::current() {
  Env* env = g_current.load(std::memory_order_acquire);
  return env ? *env : real();
}

Env* Env::install(Env* env) {
  return g_current.exchange(env, std::memory_order_acq_rel);
}

}  // namespace rr
