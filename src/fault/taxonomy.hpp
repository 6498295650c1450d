// Shared failure taxonomy and exit-code contract.
//
// The sweep runtime (src/sweep_engine), the campaign service and the
// bench drivers classify failures and report outcomes the same way, so
// the vocabulary lives here -- header-only, no dependencies, usable from
// any layer without a link edge.
#pragma once

#include <cerrno>
#include <optional>
#include <string_view>

namespace rr::fault {

/// What a failure means for the work that hit it.
///
///   kTransient  -- environmental; the same work may succeed if retried
///                  (lost ack, EINTR, a flaky resource).
///   kPermanent  -- deterministic; retrying reproduces the failure
///                  (bad parameters, a contract violation in the model).
///   kPoison     -- the failure itself is suspect: an unknown foreign
///                  throw whose blast radius is unclear.  Never retried;
///                  quarantined so a human looks at it.
enum class ErrorClass { kTransient, kPermanent, kPoison };

constexpr const char* to_string(ErrorClass c) {
  switch (c) {
    case ErrorClass::kTransient: return "transient";
    case ErrorClass::kPermanent: return "permanent";
    case ErrorClass::kPoison: return "poison";
  }
  return "?";
}

constexpr std::optional<ErrorClass> error_class_from_string(
    std::string_view s) {
  if (s == "transient") return ErrorClass::kTransient;
  if (s == "permanent") return ErrorClass::kPermanent;
  if (s == "poison") return ErrorClass::kPoison;
  return std::nullopt;
}

/// Classify a failed syscall's errno for the I/O retry loops (journal
/// append, cache publish).  Transient errors are worth a bounded retry:
/// interruptions, momentary resource exhaustion a reaped fd or freed
/// buffer can relieve, and EIO, which on flaky media is famously
/// intermittent.  Hard environmental states (disk full, quota, read-only
/// mount) and anything permission- or existence-shaped retry to the same
/// answer, so they classify permanent and the caller degrades instead.
/// Unknown errnos default to permanent: guessing "retry" at a failure we
/// cannot name just delays the degradation the caller must do anyway.
constexpr ErrorClass classify_errno(int errnum) {
  switch (errnum) {
    case EINTR:
    case EAGAIN:
    case EIO:
    case EMFILE:
    case ENFILE:
    case EBUSY:
    case ENOMEM:
      return ErrorClass::kTransient;
    case ENOSPC:
    case EDQUOT:
    case EROFS:
    case EACCES:
    case EPERM:
    case ENOENT:
      return ErrorClass::kPermanent;
    default:
      return ErrorClass::kPermanent;
  }
}

/// Process exit-code contract shared by every sweep/campaign binary.
/// One table, one meaning per code, across the resilient runner, the
/// campaign service, the bench drivers, and CI's assertions:
///
///   0   kClean           every scenario ok
///   1   kError           the binary itself failed (I/O, internal gate)
///   2   kUsage           bad command line
///   3   kDegraded        completed, but with timeouts and/or quarantines
///   4   kBudgetExceeded  aborted on the run-level failure budget
///   137 kCrash           the crash hook fired (std::_Exit after a journal
///                        fsync) -- the same code a SIGKILLed child reports
enum class ExitCode : int {
  kClean = 0,
  kError = 1,
  kUsage = 2,
  kDegraded = 3,
  kBudgetExceeded = 4,
  kCrash = 137,
};

constexpr int to_int(ExitCode c) { return static_cast<int>(c); }

constexpr const char* describe(ExitCode c) {
  switch (c) {
    case ExitCode::kClean: return "clean";
    case ExitCode::kError: return "error";
    case ExitCode::kUsage: return "usage";
    case ExitCode::kDegraded: return "degraded";
    case ExitCode::kBudgetExceeded: return "failure-budget-exceeded";
    case ExitCode::kCrash: return "crash-hook";
  }
  return "?";
}

constexpr std::optional<ExitCode> exit_code_from_int(int v) {
  switch (v) {
    case 0: return ExitCode::kClean;
    case 1: return ExitCode::kError;
    case 2: return ExitCode::kUsage;
    case 3: return ExitCode::kDegraded;
    case 4: return ExitCode::kBudgetExceeded;
    case 137: return ExitCode::kCrash;
    default: return std::nullopt;
  }
}

}  // namespace rr::fault
