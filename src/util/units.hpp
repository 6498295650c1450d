// Strong unit types used throughout the library.
//
// Simulated time is kept as an *integer* number of picoseconds so that event
// ordering is exact, associative, and bit-reproducible across platforms
// (see DESIGN.md §4).  Bandwidths, rates, and sizes get thin wrappers so
// that a GB/s can never be silently added to a GFlop/s.
#pragma once

#include <cstdint>
#include <compare>
#include <string>

#include "util/expect.hpp"

namespace rr {

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

/// A span of simulated time, in integer picoseconds.
class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration picoseconds(std::int64_t ps) { return Duration{ps}; }
  static constexpr Duration nanoseconds(double ns) {
    return Duration{static_cast<std::int64_t>(ns * 1e3 + (ns >= 0 ? 0.5 : -0.5))};
  }
  static constexpr Duration microseconds(double us) { return nanoseconds(us * 1e3); }
  static constexpr Duration milliseconds(double ms) { return nanoseconds(ms * 1e6); }
  static constexpr Duration seconds(double s) { return nanoseconds(s * 1e9); }
  static constexpr Duration zero() { return Duration{0}; }
  static constexpr Duration max() { return Duration{INT64_MAX}; }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double ns() const { return static_cast<double>(ps_) * 1e-3; }
  constexpr double us() const { return static_cast<double>(ps_) * 1e-6; }
  constexpr double ms() const { return static_cast<double>(ps_) * 1e-9; }
  constexpr double sec() const { return static_cast<double>(ps_) * 1e-12; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ps_ + b.ps_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ps_ - b.ps_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.ps_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return a * k; }
  friend constexpr Duration operator*(Duration a, int k) { return a * static_cast<std::int64_t>(k); }
  friend constexpr Duration operator*(int k, Duration a) { return a * static_cast<std::int64_t>(k); }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration{static_cast<std::int64_t>(static_cast<double>(a.ps_) * k + 0.5)};
  }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }
  constexpr Duration& operator+=(Duration d) { ps_ += d.ps_; return *this; }
  constexpr Duration& operator-=(Duration d) { ps_ -= d.ps_; return *this; }
  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  constexpr explicit Duration(std::int64_t ps) : ps_(ps) {}
  std::int64_t ps_ = 0;
};

/// An absolute point on the simulated clock (picoseconds since sim start).
class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint origin() { return TimePoint{}; }
  static constexpr TimePoint from_ps(std::int64_t ps) { return TimePoint{ps}; }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double us() const { return static_cast<double>(ps_) * 1e-6; }
  constexpr double sec() const { return static_cast<double>(ps_) * 1e-12; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ps_ + d.ps()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::picoseconds(a.ps_ - b.ps_);
  }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

 private:
  constexpr explicit TimePoint(std::int64_t ps) : ps_(ps) {}
  std::int64_t ps_ = 0;
};

// Convenience literals-style factories.
constexpr Duration operator""_ps(unsigned long long v) {
  return Duration::picoseconds(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ns(unsigned long long v) {
  return Duration::nanoseconds(static_cast<double>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::microseconds(static_cast<double>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::milliseconds(static_cast<double>(v));
}

// ---------------------------------------------------------------------------
// Data sizes and rates
// ---------------------------------------------------------------------------

/// A byte count.  Decimal multiples (KB/MB/GB = powers of ten) match the
/// paper's bandwidth conventions; binary multiples are available explicitly.
class DataSize {
 public:
  constexpr DataSize() = default;
  static constexpr DataSize bytes(std::int64_t b) { return DataSize{b}; }
  static constexpr DataSize kib(double k) { return DataSize{static_cast<std::int64_t>(k * 1024.0)}; }
  static constexpr DataSize mib(double m) { return DataSize{static_cast<std::int64_t>(m * 1024.0 * 1024.0)}; }
  static constexpr DataSize gib(double g) { return DataSize{static_cast<std::int64_t>(g * 1024.0 * 1024.0 * 1024.0)}; }
  static constexpr DataSize zero() { return DataSize{0}; }

  constexpr std::int64_t b() const { return b_; }
  constexpr double kb() const { return static_cast<double>(b_) * 1e-3; }
  constexpr double mb() const { return static_cast<double>(b_) * 1e-6; }
  constexpr double gb() const { return static_cast<double>(b_) * 1e-9; }

  friend constexpr DataSize operator+(DataSize a, DataSize b) { return DataSize{a.b_ + b.b_}; }
  friend constexpr DataSize operator-(DataSize a, DataSize b) { return DataSize{a.b_ - b.b_}; }
  friend constexpr DataSize operator*(DataSize a, std::int64_t k) { return DataSize{a.b_ * k}; }
  friend constexpr auto operator<=>(DataSize, DataSize) = default;

 private:
  constexpr explicit DataSize(std::int64_t b) : b_(b) {}
  std::int64_t b_ = 0;
};

/// Bytes per second.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bytes_per_sec(double v) { return Bandwidth{v}; }
  static constexpr Bandwidth mb_per_sec(double v) { return Bandwidth{v * 1e6}; }
  static constexpr Bandwidth gb_per_sec(double v) { return Bandwidth{v * 1e9}; }

  constexpr double bps() const { return v_; }
  constexpr double mbps() const { return v_ * 1e-6; }
  constexpr double gbps() const { return v_ * 1e-9; }

  friend constexpr Bandwidth operator*(Bandwidth b, double k) { return Bandwidth{b.v_ * k}; }
  friend constexpr Bandwidth operator/(Bandwidth b, double k) { return Bandwidth{b.v_ / k}; }
  friend constexpr auto operator<=>(Bandwidth, Bandwidth) = default;

 private:
  constexpr explicit Bandwidth(double v) : v_(v) {}
  double v_ = 0.0;
};

/// Time to move `size` at `bw` (size/bw, rounded to the picosecond grid).
constexpr Duration transfer_time(DataSize size, Bandwidth bw) {
  RR_EXPECTS(bw.bps() > 0.0);
  return Duration::seconds(static_cast<double>(size.b()) / bw.bps());
}

/// Achieved bandwidth for moving `size` in `t`.
constexpr Bandwidth achieved_bandwidth(DataSize size, Duration t) {
  RR_EXPECTS(t > Duration::zero());
  return Bandwidth::bytes_per_sec(static_cast<double>(size.b()) / t.sec());
}

/// Clock frequency in Hz.
class Frequency {
 public:
  constexpr Frequency() = default;
  static constexpr Frequency hz(double v) { return Frequency{v}; }
  static constexpr Frequency ghz(double v) { return Frequency{v * 1e9}; }

  constexpr double in_hz() const { return v_; }
  constexpr double in_ghz() const { return v_ * 1e-9; }
  /// Duration of one clock cycle.
  constexpr Duration period() const { return Duration::seconds(1.0 / v_); }
  /// Duration of `n` cycles (computed in integer ps from the exact period).
  constexpr Duration cycles(double n) const { return Duration::seconds(n / v_); }
  friend constexpr auto operator<=>(Frequency, Frequency) = default;

 private:
  constexpr explicit Frequency(double v) : v_(v) {}
  double v_ = 0.0;
};

/// Floating-point rate (flop/s).
class FlopRate {
 public:
  constexpr FlopRate() = default;
  static constexpr FlopRate flops(double v) { return FlopRate{v}; }
  static constexpr FlopRate gflops(double v) { return FlopRate{v * 1e9}; }
  static constexpr FlopRate pflops(double v) { return FlopRate{v * 1e15}; }

  constexpr double in_flops() const { return v_; }
  constexpr double in_gflops() const { return v_ * 1e-9; }
  constexpr double in_tflops() const { return v_ * 1e-12; }
  constexpr double in_pflops() const { return v_ * 1e-15; }

  friend constexpr FlopRate operator+(FlopRate a, FlopRate b) { return FlopRate{a.v_ + b.v_}; }
  friend constexpr FlopRate operator*(FlopRate a, double k) { return FlopRate{a.v_ * k}; }
  friend constexpr double operator/(FlopRate a, FlopRate b) { return a.v_ / b.v_; }
  friend constexpr auto operator<=>(FlopRate, FlopRate) = default;

 private:
  constexpr explicit FlopRate(double v) : v_(v) {}
  double v_ = 0.0;
};

}  // namespace rr
