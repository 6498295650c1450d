// Tiny command-line flag parser for examples and bench binaries.
// Supports --name=value plus bare --name boolean switches; everything else
// is positional.  (No "--name value" form: it is ambiguous with positional
// arguments.)  Numeric getters validate at the edge: a value that is not
// one complete number of the requested type is a usage error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rr {

class CliParser {
 public:
  CliParser(int argc, const char* const* argv);

  /// Exit status of a malformed numeric flag: fault::ExitCode::kUsage
  /// (util cannot include fault/; fault_test pins the two equal).
  static constexpr int kUsageExitCode = 2;

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The flag as an integer.  Only a complete decimal integer that fits
  /// std::int64_t (a leading '-' allowed) is accepted; anything else --
  /// "abc", "4x", an empty value, an overflow -- prints
  /// "<program>: --<name>=<value>: not an integer" to stderr and exits
  /// with kUsageExitCode.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// The flag as a double: one complete finite decimal number ("0.05",
  /// "1e-3", "-1"); anything else exits the same way, "not a number".
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  [[noreturn]] void usage_error(const std::string& name,
                                const std::string& value,
                                const char* what) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace rr
