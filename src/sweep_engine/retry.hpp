// Error taxonomy and retry policy for sweep scenarios.
//
// A scenario that throws is classified (fault::ErrorClass) and handled by
// kind: transient failures get a bounded number of retries with a
// deterministic truncated-exponential backoff; permanent and poison
// failures are quarantined -- journaled with their class, seed, and
// message -- and the rest of the batch continues.  A run-level failure
// budget turns "too many quarantines" into a clean abort instead of a
// mostly-dead campaign.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>

#include "fault/taxonomy.hpp"

namespace rr::engine {

/// Base for scenario failures that declare their own class.  Anything
/// else thrown by a scenario is classified by classify() below.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(fault::ErrorClass c, const std::string& what)
      : std::runtime_error(what), class_(c) {}

  fault::ErrorClass error_class() const noexcept { return class_; }

 private:
  fault::ErrorClass class_;
};

/// Environmental failure; the same scenario may succeed on retry.
class TransientError : public ScenarioError {
 public:
  explicit TransientError(const std::string& what)
      : ScenarioError(fault::ErrorClass::kTransient, what) {}
};

/// Deterministic failure; retrying reproduces it.
class PermanentError : public ScenarioError {
 public:
  explicit PermanentError(const std::string& what)
      : ScenarioError(fault::ErrorClass::kPermanent, what) {}
};

/// Failure whose blast radius is unknown; never retried.
class PoisonError : public ScenarioError {
 public:
  explicit PoisonError(const std::string& what)
      : ScenarioError(fault::ErrorClass::kPoison, what) {}
};

/// Classify a captured scenario failure: a ScenarioError carries its own
/// class; any other std::exception is permanent (these sweeps are
/// deterministic -- rerunning the same seed reproduces the throw); a
/// non-exception object is poison.
fault::ErrorClass classify(const std::exception_ptr& e);

/// Human-readable message for a captured failure.
std::string describe(const std::exception_ptr& e);

/// Bounded retry with deterministic backoff for transient failures: a
/// given policy always produces the same waits in the same order.
struct RetryPolicy {
  int max_attempts = 3;  ///< total tries, including the first
  double initial_backoff_us = 100.0;
  double backoff_multiplier = 2.0;
  double max_backoff_us = 10'000.0;

  /// Truncated exponential wait before retry `losses` (>= 1 after the
  /// first failure), in us: initial * multiplier^(losses-1), clamped to
  /// the cap.  The iterative form (multiply, then clamp) is the contract,
  /// so the waits are the same bits on every run.
  double backoff_after_us(int losses) const {
    double b = initial_backoff_us;
    for (int i = 1; i < losses; ++i) {
      b = b * backoff_multiplier;
      if (b >= max_backoff_us) return max_backoff_us;
    }
    return b >= max_backoff_us ? max_backoff_us : b;
  }
};

}  // namespace rr::engine
