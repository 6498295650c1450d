// Crash flight recorder (DESIGN.md §15): a fixed-size lock-free ring of
// the most recent structured events -- log records, key metric deltas,
// control frames, and free-form marks -- dumped atomically to a JSON
// postmortem when a run goes bad, so a degraded campaign leaves a "what
// happened just before" artifact instead of only an exit code.
//
// Writers pay one relaxed fetch_add plus a bounded memcpy; there are no
// locks and no allocation, so record() is safe from any thread including
// the logger's hot path.  dump_to() uses only async-signal-safe syscalls
// (open/write/close/rename) and hand-rolled formatting, so the SIGUSR1
// handler and the worker-exit path can call it directly.
//
// Torn-slot protocol: each slot carries a commit word holding ticket+1.
// A writer zeroes commit, fills the slot, then store-releases ticket+1;
// the dumper skips any slot whose commit does not match its ticket both
// before and after the copy.  When writers lap the ring more than
// kSlots apart concurrently a stale message can slip through with a
// newer ticket -- acceptable for a postmortem buffer, never unsafe.
//
// Dump triggers (wired by the campaign service and benches):
//   * any exit path with fault::ExitCode >= kDegraded (dump_on_exit),
//   * coordinator-side worker crash detection,
//   * SIGUSR1 (install_sigusr1), for poking a live wedged fleet.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace rr {

enum class FlightKind : std::uint8_t { kLog = 0, kMetric = 1, kFrame = 2, kMark = 3 };

const char* to_string(FlightKind k);

class FlightRecorder {
 public:
  static constexpr std::size_t kSlots = 256;   ///< ring capacity (power of two)
  static constexpr std::size_t kMsgBytes = 200;  ///< per-event message cap
  static constexpr std::size_t kPathBytes = 512;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event; lock-free, allocation-free, truncates `msg` to
  /// kMsgBytes.  `value` carries the metric delta / shard id / log level.
  void record(FlightKind kind, std::string_view msg,
              double value = 0.0) noexcept;

  /// Where dump() writes.  Fixed-size buffer (paths beyond kPathBytes-1
  /// are rejected); set it once at startup -- the SIGUSR1 handler reads
  /// it without a lock.
  void set_dump_path(std::string_view path) noexcept;
  bool has_dump_path() const noexcept;
  std::string dump_path() const;

  /// Dump the ring to the configured path (false when none is set or the
  /// write failed).  Async-signal-safe.
  bool dump() const noexcept;
  /// Dump to an explicit NUL-terminated path (async-signal-safe: the
  /// JSON is formatted by hand and written via raw syscalls, then
  /// renamed into place).
  bool dump_to(const char* path) const noexcept;

  /// Total events ever recorded (events beyond kSlots were overwritten).
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  /// Zero the ring and forget the dump path (tests).
  void reset() noexcept;

  /// Install a SIGUSR1 handler that dumps global() to its configured
  /// path -- a live postmortem poke for a wedged fleet.  Idempotent.
  static void install_sigusr1();

  /// Dump global() when `exit_code` is degraded or worse (>= 3, the
  /// fault::ExitCode::kDegraded contract); returns `exit_code` so it can
  /// wrap a return statement.
  static int dump_on_exit(int exit_code) noexcept;

  /// The process-wide recorder every subsystem records into (the logger
  /// feeds emitted records here automatically).
  static FlightRecorder& global();

 private:
  struct Slot {
    std::atomic<std::uint64_t> commit{0};  ///< ticket+1 once fully written
    std::uint8_t kind = 0;
    std::uint16_t len = 0;
    double value = 0.0;
    char msg[kMsgBytes] = {};
  };

  std::atomic<std::uint64_t> next_{0};
  Slot slots_[kSlots];
  std::atomic<std::size_t> path_len_{0};
  char path_[kPathBytes] = {};
};

}  // namespace rr
