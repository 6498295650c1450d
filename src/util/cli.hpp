// Tiny command-line flag parser for examples and bench binaries.
// Supports --name=value plus bare --name boolean switches; everything else
// is positional.  (No "--name value" form: it is ambiguous with positional
// arguments.)  Flags are validated at the edge: a binary declares the
// names it reads, a flag outside them is a usage error, and numeric
// getters accept only one complete number of the requested type.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rr {

class CliParser {
 public:
  /// Parse argv against `names`, the flags this binary reads.  A --name
  /// or --name=value whose name is not among them prints
  /// "<program>: --<name>: unknown flag" to stderr and exits with
  /// kUsageExitCode.
  CliParser(int argc, const char* const* argv,
            std::initializer_list<std::string_view> names);

  /// Exit status of a malformed or unknown flag: fault::ExitCode::kUsage
  /// (util cannot include fault/; fault_test pins the two equal).
  static constexpr int kUsageExitCode = 2;

  // Every getter takes a declared name; reading any other name is a
  // programming error (RR_EXPECTS).
  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The flag as an integer.  Only a complete decimal integer that fits
  /// std::int64_t (a leading '-' allowed) is accepted; anything else --
  /// "abc", "4x", an empty value, an overflow -- prints
  /// "<program>: --<name>=<value>: not an integer" to stderr and exits
  /// with kUsageExitCode.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int() held to [lo, hi]: a value outside it -- the one given, or
  /// the fallback when the flag is absent and the range depends on other
  /// flags -- prints "<program>: --<name>=<value>: out of range [lo, hi]"
  /// to stderr and exits with kUsageExitCode.  The bounds are ints, so the
  /// value narrows without loss.
  int get_int(const std::string& name, int fallback, int lo, int hi) const;
  /// The flag as a double: one complete finite decimal number ("0.05",
  /// "1e-3", "-1"); anything else exits the same way, "not a number".
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  /// The given value of declared flag `name`, or null when absent.
  const std::string* find(const std::string& name) const;
  [[noreturn]] void usage_error(const std::string& flag,
                                const std::string& what) const;

  std::string program_;
  std::set<std::string> names_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace rr
