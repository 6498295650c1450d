#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/stats.hpp"

namespace rr::perfbench {

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  check(false, what);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

double Result::fail_frac() const {
  return attempted == 0 ? 1.0
                        : static_cast<double>(failed) / static_cast<double>(attempted);
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

double median(const std::vector<double>& samples) { return rr::percentile(samples, 50.0); }

double tail_percentile(std::size_t n) {
  // Samples beyond the p-th percentile: floor(n * (100 - p) / 100), in
  // tenths of a percent so p99.9 stays exact.
  for (const int p10 : {999, 990, 900, 500})
    if (n * static_cast<std::size_t>(1000 - p10) / 1000 >= 10) return p10 / 10.0;
  return 0.0;
}

Timing summarize(const std::vector<double>& samples) {
  Timing t;
  t.n = samples.size();
  t.median = median(samples);
  t.tail_p = tail_percentile(samples.size());
  if (t.tail_p > 0.0) t.tail = rr::percentile(samples, t.tail_p);
  if (!samples.empty()) {
    t.min = *std::min_element(samples.begin(), samples.end());
    t.max = *std::max_element(samples.begin(), samples.end());
  }
  return t;
}

std::string fixed(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string describe(const Timing& t, const std::string& unit) {
  std::ostringstream os;
  os << "median " << fixed(t.median, 4) << " " << unit << ", ";
  if (t.tail_p > 0.0)
    os << "p" << t.tail_p << " " << fixed(t.tail, 4) << " " << unit;
  else
    os << "no tail percentile (needs >= 20 samples)";
  os << ", " << t.n << " samples in [" << fixed(t.min, 4) << ", " << fixed(t.max, 4) << "]";
  return os.str();
}

bool matches_to_digits(double model, double paper, int decimals) {
  const double half_unit = 0.5 * std::pow(10.0, -decimals);
  return std::abs(model - paper) <= half_unit * (1.0 + 1e-9);
}

/// The reference kernel: 512 pending events in a binary heap; each step
/// pops the earliest, runs one of eight handlers through std::function on
/// its payload, and pushes a successor with a freshly allocated payload.
struct HostSpeed::Kernel {
  static constexpr int kChunkEvents = 8192;
  /// One chunk's time at nominal speed: a 4-vCPU 2.0 GHz Xeon VM when
  /// its host's other tenants are quiet.
  static constexpr double kNominalChunkS = 0.8e-3;

  using Payload = std::array<std::uint64_t, 12>;
  struct Event {
    std::uint64_t time;
    std::uint32_t handler;
    std::unique_ptr<Payload> payload;
  };
  static bool later(const Event& a, const Event& b) { return a.time > b.time; }

  std::vector<Event> heap;
  std::vector<std::function<std::uint64_t(std::uint64_t)>> handlers = {
      [](std::uint64_t v) { return (v >> 3) % 97 + 1; },
      [](std::uint64_t v) { return (v * 3) % 89 + 2; },
      [](std::uint64_t v) { return (v ^ (v >> 7)) % 83 + 3; },
      [](std::uint64_t v) { return v % 79 + 1; },
      [](std::uint64_t v) { return (v >> 11) % 73 + 5; },
      [](std::uint64_t v) { return (v + 17) % 71 + 1; },
      [](std::uint64_t v) { return (v >> 5) % 67 + 2; },
      [](std::uint64_t v) { return (v * 7 + 1) % 61 + 1; }};
  std::uint64_t x = 0x9E3779B97F4A7C15ull;

  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  Kernel() {
    for (int i = 0; i < 512; ++i) {
      const std::uint64_t v = next();
      heap.push_back({v % 1000, static_cast<std::uint32_t>(v & 7), std::make_unique<Payload>()});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }

  /// Seconds for one chunk of events.
  double chunk() {
    const double t0 = wall_s();
    for (int i = 0; i < kChunkEvents; ++i) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Event e = std::move(heap.back());
      heap.pop_back();
      const std::uint64_t v = next();
      const std::uint64_t dt = handlers[e.handler](v + (*e.payload)[v % 12]);
      auto payload = std::make_unique<Payload>();
      (*payload)[v % 12] = dt;
      heap.push_back({e.time + dt, static_cast<std::uint32_t>((v >> 9) & 7), std::move(payload)});
      std::push_heap(heap.begin(), heap.end(), later);
    }
    return wall_s() - t0;
  }
};

HostSpeed::HostSpeed() : kernel_(std::make_unique<Kernel>()) {
  for (int i = 0; i < 4; ++i) kernel_->chunk();  // warm caches and predictors
  sample(0.01);
}

HostSpeed::~HostSpeed() = default;

double HostSpeed::sample(double budget_s) {
  double spent = 0.0;
  int chunks = 0;
  do {
    spent += kernel_->chunk();
    ++chunks;
  } while (spent < budget_s);
  slowdowns_.push_back(spent / chunks / Kernel::kNominalChunkS);
  return slowdowns_.back();
}

double HostSpeed::scale(double raw_s) {
  const double before = slowdowns_.back();
  const double after = sample(raw_s / 10.0);
  return raw_s / (0.5 * (before + after));
}

void SetupClock::tick() {
  const double now = wall_s();
  if (last_ >= 0.0 && now - last_ < 0.5) return;
  const std::size_t before = took_.size();
  while (took_.size() - before < 3 || wall_s() - now < 0.02) {
    const double t0 = wall_s();
    once_();
    took_.push_back(speed_.scale(wall_s() - t0));
  }
  last_ = wall_s();
}

bool RunClock::more() {
  const double now = wall_s();
  const double unit = now - last_;
  last_ = now;
  if (first_) {
    first_ = false;
    return true;
  }
  return now - start_ + 0.5 * unit < seconds_;
}

void report(std::ostream& os, const std::string& name, const std::string& value,
            const std::string& note) {
  os << "  " << std::left << std::setw(26) << name << " " << value;
  if (!note.empty()) os << "  (" << note << ")";
  os << "\n";
}

}  // namespace rr::perfbench
