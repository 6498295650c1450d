// Shared pieces of the repository benchmark: the options every workload
// receives, the result record it fills, the host-speed reference, the
// timing clocks and the percentile rule.  Metric names and units live in
// BENCHMARK.json; the binary reports measured values by name and run.py
// attaches the units.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rr::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Scratch root inside the checkout: work/<pid>/ holds campaign
  /// directories (removed before exit), traces/ the traced runs' Chrome
  /// trace files.
  std::string out_dir = ".perfbench";
};

/// One run's outcome.  An operation is one timed unit of work (an
/// iteration, a campaign query, a pass over the paper rows); op() counts
/// it, and a failed output check marks it failed.  check() records a
/// failed check that belongs to no single operation.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;

  void op(bool ok, const std::string& what);
  void check(bool ok, const std::string& what);
  /// failed / attempted (1 when nothing was attempted).
  double fail_frac() const;
};

/// Host wall-clock seconds on the monotonic clock.
double wall_s();
/// Peak resident set of this process in MB (10^6 bytes).
double peak_rss_mb();

/// rr::percentile's 50th percentile; NaN when empty.
double median(const std::vector<double>& samples);

/// The reporting rule for timings: the median plus the highest of the
/// p50/p90/p99/p99.9 percentiles that leaves at least ten samples beyond
/// it.  Below 20 samples no percentile qualifies and tail_p is 0.
struct Timing {
  std::size_t n = 0;
  double median = 0.0;
  double tail_p = 0.0;
  double tail = 0.0;
  double min = 0.0;
  double max = 0.0;
};
double tail_percentile(std::size_t n);
Timing summarize(const std::vector<double>& samples);
/// "median 2.013 s, p90 2.2 s, 150 samples" in a run's report.
std::string describe(const Timing& t, const std::string& unit);

/// True when `model` equals `paper` at the `decimals` the paper states.
bool matches_to_digits(double model, double paper, int decimals);

/// The shared host runs branch-, call- and allocation-heavy code -- the
/// DES, the fat-tree build, the campaign's scenarios -- up to ~1.5x
/// slower when other tenants are busy, in phases of seconds to minutes,
/// while register loops and pointer chases barely change.  HostSpeed
/// measures that slowdown with the benchmark's own reference kernel (a
/// miniature event loop: a binary heap of timed events with small
/// heap-allocated payloads, dispatched through std::function), which no
/// library change can move, and scales timings taken beside it to the
/// nominal speed: the raw time divided by the slowdown measured around
/// it.  The slow phases are host-wide enough that the campaign's queries,
/// whose work runs in forked workers on the other cores, follow the
/// slowdown measured on this core too.
class HostSpeed {
 public:
  HostSpeed();
  ~HostSpeed();
  /// `raw_s` of work that just ended, scaled: divided by the mean of the
  /// slowdown measured before it (the previous call) and one measured
  /// now, for about a tenth of `raw_s` (at least one ~1 ms chunk).
  double scale(double raw_s);
  /// Slowdowns measured so far: reference time / nominal reference time.
  const std::vector<double>& slowdowns() const { return slowdowns_; }

 private:
  double sample(double budget_s);

  struct Kernel;
  std::unique_ptr<Kernel> kernel_;
  std::vector<double> slowdowns_;
};

/// Times a workload's set-up -- building what it needs before the timed
/// work -- in short bursts spread over the whole run, each set-up scaled
/// by `speed`, and reports the median.  One burst at the start would land
/// in a single phase of the host's speed; bursts between the timed units
/// see the same phases the timed work does.  `once` builds into scratch
/// objects, never into the ones the timed work uses.
class SetupClock {
 public:
  SetupClock(HostSpeed& speed, std::function<void()> once)
      : speed_(speed), once_(std::move(once)) {}
  /// Runs a burst (>= 3 set-ups, ~20 ms) unless one ran in the last 0.5 s.
  void tick();
  double median_s() const { return median(took_); }

 private:
  HostSpeed& speed_;
  std::function<void()> once_;
  std::vector<double> took_;
  double last_ = -1.0;
};

/// A run's measuring window of --seconds, ended at the unit boundary
/// nearest to it: the run overshoots by at most half a unit of work.
class RunClock {
 public:
  explicit RunClock(double seconds) : seconds_(seconds), start_(wall_s()), last_(start_) {}
  /// Call before each unit: true for the first, then while the next unit
  /// -- assumed as long as the last -- would end nearer the window's end.
  bool more();

 private:
  double seconds_;
  double start_;
  double last_;
  bool first_ = true;
};

/// A report line: "  name  value  note".
void report(std::ostream& os, const std::string& name, const std::string& value,
            const std::string& note = "");
std::string fixed(double v, int digits);

// Workloads (one translation unit each).
void run_des(const Options& o, Result& r);
void run_campaign_workload(const Options& o, Result& r);
void run_paper_figures(const Options& o, Result& r);

/// The benchmark's own arithmetic checked against the library: one line
/// per check to `log`; true when every check passes.  Every run executes
/// them before its workload.
bool run_selftests(std::ostream& log);

}  // namespace rr::perfbench
