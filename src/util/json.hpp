// Minimal JSON value, parser, and writer for machine-readable result
// stores (JSON lines) and the golden regression files.
//
// Numbers are IEEE doubles serialized as printf's %.17g would print them
// (the bytes come from std::to_chars), which round-trips every finite
// double bit-exactly (max_digits10); golden comparisons can therefore
// assert bitwise equality across a dump/parse cycle.  Objects preserve
// insertion order so serialization is deterministic.  A document is
// written by appending to one string, through one number formatter and
// one string escaper that every entry point below shares.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rr {

class Json;

/// Thrown on malformed input or wrong-kind access.  Parse errors carry
/// the 1-based line/column and byte offset of the offending input (all 0
/// for non-parse errors such as wrong-kind access), and the what() string
/// names the offending byte -- enough to diagnose a corrupt journal line.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what, int line = 0, int column = 0,
                     std::size_t offset = 0)
      : std::runtime_error(what), line_(line), column_(column), offset_(offset) {}

  int line() const { return line_; }
  int column() const { return column_; }
  std::size_t offset() const { return offset_; }

 private:
  int line_ = 0;
  int column_ = 0;
  std::size_t offset_ = 0;
};

/// A JSON value holds only its own kind's payload: one variant of the
/// six kinds, 40 bytes (a std::string and a tag), so an object member
/// is 72.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  /// In the variant's alternative order: kind() is its index.
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : v_(b) {}
  Json(double v) : v_(v) {}
  Json(int v) : v_(static_cast<double>(v)) {}
  Json(std::int64_t v) : v_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : v_(static_cast<double>(v)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_object() const { return kind() == Kind::kObject; }
  bool is_array() const { return kind() == Kind::kArray; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  ///< number checked to be an integral int64
  int as_int32() const;         ///< as_int, checked to fit an int
  const std::string& as_string() const;
  std::string& as_string();  ///< for an owner moving the text out
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field access; `at` throws on a missing key.
  Json& set(std::string key, Json value);  ///< append or overwrite; returns *this
  const Json* find(std::string_view key) const;
  const Json& at(std::string_view key) const;
  Json& at(std::string_view key);  ///< for an owner moving a field out
  /// Array element access.
  const Json& at(std::size_t index) const;
  Json& at(std::size_t index);
  std::size_t size() const;

  void push_back(Json v);

  /// Compact single-line serialization (JSONL-friendly); `indent >= 0`
  /// pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;
  /// Append the compact dump to `out`: dump()'s bytes, with no string of
  /// their own.
  void append_to(std::string& out) const;

  /// Parse one JSON document (throws JsonError; trailing garbage rejected).
  static Json parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void write(std::string& out, int indent, int depth) const;

  std::variant<std::monostate, bool, double, std::string, Array, Object> v_;
};

/// The %.17g bytes of every JSON number (bit-exact round trip); throws
/// JsonError on a non-finite value.
std::string format_json_number(double v);

/// Write `s` as a quoted JSON string literal, escaping quotes,
/// backslashes, and control characters.  Shared by the Json writer and
/// the Chrome-trace emitter (sim/trace), so every JSON artifact escapes
/// identically.
void write_json_string(std::ostream& os, std::string_view s);
/// The same literal appended to `out`: for writers that build a document
/// in one string without a Json tree (engine::append_json).
void append_json_string(std::string& out, std::string_view s);

}  // namespace rr
