// Crash-safe file primitives for the result stores and the sweep journal.
//
// Two write disciplines cover every artifact this codebase persists:
//
//   * whole-file snapshots (result stores, golden files) are written to a
//     temp file in the target directory, fsync'd, and rename()d over the
//     destination -- a reader never observes a half-written file;
//   * append-only logs (the sweep journal) append one '\n'-terminated
//     record per write and fsync before acknowledging -- a crash can only
//     tear the final line, which the reader recovers by truncation.
//
// read_jsonl() is the matching reader: it parses every complete line and
// treats an unterminated or unparseable *last* line as a torn tail
// (recovered, reported), while corruption anywhere earlier still throws.
// All of these route their syscalls through util::Env::current()
// (env.hpp), so a chaos environment can inject the failures each caller
// must survive.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace rr {

/// Where and why an I/O operation failed.  `errnum` is the errno at the
/// point of failure (0 if the failure had no errno, e.g. a short read of
/// a file that shrank); `detail` is a human-readable
/// "op path: strerror(errno)" string ready for logs and exceptions.
struct IoError {
  int errnum = 0;
  std::string detail;
};

/// "`op` `path`: strerror(`errnum`) (errno `errnum`)" -- the one format
/// every I/O diagnostic in the codebase uses.
std::string format_io_error(std::string_view op, std::string_view path,
                            int errnum);

/// Atomically replace `path` with `content` (temp file + fsync + rename
/// within the same directory).  Returns false on any I/O failure; the
/// previous file, if any, is untouched in that case.  When `err` is
/// non-null it receives the errno and diagnostic of the first failure.
bool write_file_atomic(const std::string& path, std::string_view content,
                       IoError* err = nullptr);

/// mkdir -p: create `path` and any missing parents.  Returns true when
/// the directory exists afterwards (including when it already did).
bool make_dirs(const std::string& path, IoError* err = nullptr);

/// Advisory whole-file lock (flock LOCK_EX) held for the object's
/// lifetime; creates the lock file if needed and blocks until acquired.
/// Serializes cross-process critical sections -- the campaign result
/// cache takes one around publish so two coordinators finishing the same
/// campaign race on the rename, not on half-written entries.  The lock
/// file itself is never deleted (deleting would un-serialize a waiter).
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  /// False when the lock file could not be opened or flock failed; the
  /// caller decides whether to proceed unserialized or bail.
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Append `line` plus '\n' to `fd` as a single write(2), then fdatasync.
/// Returns false on failure (errno + diagnostic in `err` when non-null).
/// `line` must not contain '\n'.
bool append_line_fsync(int fd, std::string_view line, IoError* err = nullptr);

struct JsonlData {
  std::vector<Json> records;   ///< one per complete, parseable line
  bool torn_tail = false;      ///< trailing partial line was recovered over
  std::string tail;            ///< the recovered-over bytes, for diagnostics
  std::size_t clean_bytes = 0; ///< offset where the clean prefix ends
};

/// Parse JSON-lines `text`.  Blank lines are skipped.  A final line that
/// is unterminated or fails to parse is treated as a torn tail from an
/// interrupted append: it is reported (torn_tail/tail) rather than thrown.
/// A malformed line that is *not* last is real corruption and throws
/// JsonError with the jsonl line number.
JsonlData read_jsonl(std::string_view text);

/// Entire file as a string; throws std::runtime_error with the errno,
/// strerror text, and offending path on failure.
std::string read_file(const std::string& path);

}  // namespace rr
