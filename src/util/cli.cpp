#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "util/expect.hpp"

namespace rr {

CliParser::CliParser(int argc, const char* const* argv,
                     std::initializer_list<std::string_view> names)
    : names_(names.begin(), names.end()) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error(arg, "unexpected argument");
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    if (!names_.contains(name)) usage_error("--" + name, "unknown flag");
    // A bare --name is a boolean switch.
    flags_[std::move(name)] =
        eq == std::string::npos ? "true" : arg.substr(eq + 1);
  }
}

const std::string* CliParser::find(const std::string& name) const {
  RR_EXPECTS(names_.contains(name));
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CliParser::has(const std::string& name) const { return find(name) != nullptr; }

std::string CliParser::get(const std::string& name, const std::string& fallback) const {
  const std::string* v = find(name);
  return v ? *v : fallback;
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
  const std::string* text = find(name);
  if (!text) return fallback;
  std::int64_t v = 0;
  if (!parse_whole(*text, v))
    usage_error("--" + name + "=" + *text, "not an integer");
  return v;
}

int CliParser::get_int(const std::string& name, int fallback, int lo,
                       int hi) const {
  const std::int64_t v = get_int(name, fallback);
  if (v < lo || v > hi) {
    const std::string* text = find(name);
    usage_error("--" + name + "=" + (text ? *text : std::to_string(v)),
                "out of range [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
  }
  return static_cast<int>(v);
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const std::string* text = find(name);
  if (!text) return fallback;
  double v = 0.0;
  if (!parse_whole(*text, v) || !std::isfinite(v))
    usage_error("--" + name + "=" + *text, "not a number");
  return v;
}

void CliParser::usage_error(const std::string& arg,
                            const std::string& what) const {
  std::cerr << program_ << ": " << arg << ": " << what << "\n";
  std::exit(kUsageExitCode);
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  const std::string* text = find(name);
  if (!text) return fallback;
  return *text == "true" || *text == "1" || *text == "yes";
}

}  // namespace rr
