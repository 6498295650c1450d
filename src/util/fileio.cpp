#include "util/fileio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/env.hpp"

namespace rr {

namespace {

void set_err(IoError* err, std::string_view op, std::string_view path,
             int errnum) {
  if (!err) return;
  err->errnum = errnum;
  err->detail = format_io_error(op, path, errnum);
}

bool write_fully(Env& env, int fd, const char* data, std::size_t n,
                 int* errnum) {
  std::size_t off = 0;
  while (off < n) {
    const long w = env.write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errnum) *errnum = errno;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

std::string format_io_error(std::string_view op, std::string_view path,
                            int errnum) {
  std::string out;
  out.reserve(op.size() + path.size() + 48);
  out.append(op);
  out.push_back(' ');
  out.append(path);
  out.append(": ");
  out.append(errnum != 0 ? std::strerror(errnum) : "unexpected end of data");
  out.append(" (errno ");
  out.append(std::to_string(errnum));
  out.push_back(')');
  return out;
}

bool write_file_atomic(const std::string& path, std::string_view content,
                       IoError* err) {
  Env& env = Env::current();
  // The temp file lives in the destination directory so the final
  // rename() cannot cross filesystems (rename is only atomic within one).
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = env.open(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    set_err(err, "open", tmp, errno);
    return false;
  }
  int errnum = 0;
  bool ok = write_fully(env, fd, content.data(), content.size(), &errnum);
  if (!ok) set_err(err, "write", tmp, errnum);
  if (ok && env.fsync(fd) != 0) {
    set_err(err, "fsync", tmp, errno);
    ok = false;
  }
  if (env.close(fd) != 0 && ok) {
    set_err(err, "close", tmp, errno);
    ok = false;
  }
  if (ok && env.rename(tmp, path) != 0) {
    set_err(err, "rename", tmp + " -> " + path, errno);
    ok = false;
  }
  if (!ok) env.unlink(tmp);
  return ok;
}

bool make_dirs(const std::string& path, IoError* err) {
  if (path.empty()) {
    set_err(err, "mkdir", "(empty path)", EINVAL);
    return false;
  }
  Env& env = Env::current();
  std::string partial;
  partial.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      partial.push_back(path[i]);
      continue;
    }
    if (!partial.empty() && partial != "/" && env.mkdir(partial, 0755) != 0 &&
        errno != EEXIST) {
      set_err(err, "mkdir", partial, errno);
      return false;
    }
    if (i < path.size()) partial.push_back('/');
  }
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    set_err(err, "stat", path, errno);
    return false;
  }
  if (!S_ISDIR(st.st_mode)) {
    set_err(err, "mkdir", path, ENOTDIR);
    return false;
  }
  return true;
}

FileLock::FileLock(const std::string& path) {
  Env& env = Env::current();
  fd_ = env.open(path, O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) return;
  int rc;
  do {
    rc = env.flock_ex(fd_);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    env.close(fd_);
    fd_ = -1;
  }
}

FileLock::~FileLock() {
  if (fd_ >= 0) {
    Env& env = Env::current();
    env.flock_un(fd_);
    env.close(fd_);
  }
}

bool append_line_fsync(int fd, std::string_view line, IoError* err) {
  Env& env = Env::current();
  std::string buf;
  buf.reserve(line.size() + 1);
  buf.append(line);
  buf.push_back('\n');
  // One write(2) for record + terminator: a crash mid-call leaves at most
  // a prefix of this line at the end of the file, never interleaving.
  int errnum = 0;
  if (!write_fully(env, fd, buf.data(), buf.size(), &errnum)) {
    set_err(err, "write", "journal fd " + std::to_string(fd), errnum);
    return false;
  }
  if (env.fdatasync(fd) != 0) {
    set_err(err, "fdatasync", "journal fd " + std::to_string(fd), errno);
    return false;
  }
  return true;
}

JsonlData read_jsonl(std::string_view text) {
  JsonlData out;
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string_view::npos;
    const std::string_view line =
        text.substr(pos, terminated ? nl - pos : std::string_view::npos);
    ++lineno;
    if (!terminated) {
      // Unterminated final line: the classic torn append.
      out.torn_tail = true;
      out.tail = std::string(line);
      out.clean_bytes = pos;
      return out;
    }
    if (!line.empty()) {
      try {
        out.records.push_back(Json::parse(line));
      } catch (const JsonError& e) {
        if (nl + 1 >= text.size()) {
          // Terminated but unparseable last line: a tear that happened to
          // land after a '\n' already present in the torn record's bytes.
          out.torn_tail = true;
          out.tail = std::string(line);
          out.clean_bytes = pos;
          return out;
        }
        throw JsonError("jsonl line " + std::to_string(lineno) + " (offset " +
                            std::to_string(pos) + "): " + e.what(),
                        e.line(), e.column(), e.offset());
      }
    }
    pos = nl + 1;
    out.clean_bytes = pos;
  }
  return out;
}

std::string read_file(const std::string& path) {
  Env& env = Env::current();
  const int fd = env.open(path, O_RDONLY, 0);
  if (fd < 0) throw std::runtime_error(format_io_error("open", path, errno));
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const long r = env.read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      const int errnum = errno;
      env.close(fd);
      throw std::runtime_error(format_io_error("read", path, errnum));
    }
    if (r == 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  env.close(fd);
  return out;
}

}  // namespace rr
