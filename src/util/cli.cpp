#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace rr {

CliParser::CliParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      flags_[arg] = "true";  // bare --name is a boolean switch
    }
  }
}

bool CliParser::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string CliParser::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// True when all of `text` parses as one in-range T.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::int64_t CliParser::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::int64_t v = 0;
  if (!parse_whole(it->second, v)) usage_error(name, it->second, "not an integer");
  return v;
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  double v = 0.0;
  if (!parse_whole(it->second, v) || !std::isfinite(v))
    usage_error(name, it->second, "not a number");
  return v;
}

void CliParser::usage_error(const std::string& name, const std::string& value,
                            const char* what) const {
  std::cerr << program_ << ": --" << name << "=" << value << ": " << what << "\n";
  std::exit(kUsageExitCode);
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace rr
