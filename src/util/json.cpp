#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

namespace rr {

namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

const char* kind_name(Json::Kind k) {
  switch (k) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return "bool";
    case Json::Kind::kNumber: return "number";
    case Json::Kind::kString: return "string";
    case Json::Kind::kArray: return "array";
    case Json::Kind::kObject: return "object";
  }
  return "?";
}

void require(bool ok, Json::Kind want, Json::Kind got) {
  if (!ok)
    fail(std::string("json: expected ") + kind_name(want) + ", have " +
         kind_name(got));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail_here("trailing characters");
    return v;
  }

 private:
  // Parse failures report where and on what byte, so a corrupt journal
  // line is diagnosable from the message alone.
  [[noreturn]] void fail_at(const std::string& what, std::size_t pos) {
    int line = 1;
    int column = 1;
    for (std::size_t i = 0; i < pos && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::string where = "line " + std::to_string(line) + ", column " +
                        std::to_string(column) + " (offset " +
                        std::to_string(pos);
    if (pos >= text_.size()) {
      where += ", end of input)";
    } else {
      const auto b = static_cast<unsigned char>(text_[pos]);
      char hex[8];
      std::snprintf(hex, sizeof hex, "0x%02x", b);
      where += std::string(", byte ") + hex;
      if (std::isprint(b)) {
        where += " '";
        where += static_cast<char>(b);
        where += "'";
      }
      where += ")";
    }
    throw JsonError("json: " + what + " at " + where, line, column, pos);
  }

  [[noreturn]] void fail_here(const std::string& what) { fail_at(what, pos_); }

  // The C locale's std::isspace and std::isdigit sets, tested inline.
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail_here("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail_here(std::string("expected '") + c + "'");
  }

  void expect_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) fail_here("bad literal");
    pos_ += w.size();
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_word("true"); return Json(true);
      case 'f': expect_word("false"); return Json(false);
      case 'n': expect_word("null"); return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), value());
      skip_ws();
      if (consume('}')) break;
      expect(',');
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      arr.push_back(value());
      skip_ws();
      if (consume(']')) break;
      expect(',');
    }
    return Json(std::move(arr));
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail_here("bad \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_];
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
      else fail_here("bad \\u escape");
      ++pos_;
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain bytes before the next quote or escape whole.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\')
        ++pos_;
      out.append(text_, run, pos_ - run);
      const char c = peek();
      ++pos_;
      if (c == '"') break;
      // An escape: c was its backslash.
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: a \uDC00-\uDFFF low half must follow;
            // combine into the supplementary code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail_here("unpaired surrogate in \\u escape");
            pos_ += 2;
            const std::size_t low_at = pos_;
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff)
              fail_at("unpaired surrogate in \\u escape", low_at);
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          } else if (code >= 0xdc00 && code <= 0xdfff) {
            fail_at("unpaired surrogate in \\u escape", pos_ - 4);
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail_at("bad escape", pos_ - 1);
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (is_digit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec != std::errc{} || ptr != text_.data() + pos_)
      fail_at("bad number", start);
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Append `v` as the bytes printf's %.17g gives: std::to_chars with the
/// general format and a precision is defined as that conversion, without
/// printf's format parsing and locale lookup.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) fail("json: non-finite number");
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

/// Append `s` quoted, copying the runs between escapes whole.
void append_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // first byte not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s, run);
  out += '"';
}

/// A line break and the indent of `depth` levels; nothing when compact.
void append_break(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

std::string format_json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void write_json_string(std::ostream& os, std::string_view s) {
  std::string out;
  append_string(out, s);
  os << out;
}

void append_json_string(std::string& out, std::string_view s) {
  append_string(out, s);
}

bool Json::as_bool() const {
  const bool* b = std::get_if<bool>(&v_);
  require(b != nullptr, Kind::kBool, kind());
  return *b;
}

double Json::as_double() const {
  const double* v = std::get_if<double>(&v_);
  require(v != nullptr, Kind::kNumber, kind());
  return *v;
}

std::int64_t Json::as_int() const {
  const double v = as_double();
  // Casting a double outside [-2^63, 2^63) to int64 is undefined.
  if (!(v >= -0x1p63 && v < 0x1p63)) fail("json: number out of int64 range");
  const auto i = static_cast<std::int64_t>(v);
  if (static_cast<double>(i) != v) fail("json: number is not integral");
  return i;
}

int Json::as_int32() const {
  const std::int64_t i = as_int();
  if (i < std::numeric_limits<int>::min() || i > std::numeric_limits<int>::max())
    fail("json: integer " + std::to_string(i) + " out of int range");
  return static_cast<int>(i);
}

const std::string& Json::as_string() const {
  const std::string* s = std::get_if<std::string>(&v_);
  require(s != nullptr, Kind::kString, kind());
  return *s;
}

std::string& Json::as_string() {
  return const_cast<std::string&>(std::as_const(*this).as_string());
}

const Json::Array& Json::as_array() const {
  const Array* a = std::get_if<Array>(&v_);
  require(a != nullptr, Kind::kArray, kind());
  return *a;
}

const Json::Object& Json::as_object() const {
  const Object* o = std::get_if<Object>(&v_);
  require(o != nullptr, Kind::kObject, kind());
  return *o;
}

Json& Json::set(std::string key, Json value) {
  Object* obj = std::get_if<Object>(&v_);
  require(obj != nullptr, Kind::kObject, kind());
  for (auto& [k, v] : *obj)
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  obj->emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (!v) fail("json: missing key '" + std::string(key) + "'");
  return *v;
}

Json& Json::at(std::string_view key) {
  return const_cast<Json&>(std::as_const(*this).at(key));
}

const Json& Json::at(std::size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size()) fail("json: index out of range");
  return arr[index];
}

Json& Json::at(std::size_t index) {
  return const_cast<Json&>(std::as_const(*this).at(index));
}

std::size_t Json::size() const {
  if (const Array* a = std::get_if<Array>(&v_)) return a->size();
  if (const Object* o = std::get_if<Object>(&v_)) return o->size();
  fail("json: size() on a scalar");
}

void Json::push_back(Json v) {
  Array* arr = std::get_if<Array>(&v_);
  require(arr != nullptr, Kind::kArray, kind());
  arr->push_back(std::move(v));
}

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind()) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += std::get<bool>(v_) ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, std::get<double>(v_)); break;
    case Kind::kString: append_string(out, std::get<std::string>(v_)); break;
    case Kind::kArray: {
      const Array& arr = std::get<Array>(v_);
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        append_break(out, indent, depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      if (!arr.empty()) append_break(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      const Object& obj = std::get<Object>(v_);
      out += '{';
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i) out += ',';
        append_break(out, indent, depth + 1);
        append_string(out, obj[i].first);
        out += indent >= 0 ? ": " : ":";
        obj[i].second.write(out, indent, depth + 1);
      }
      if (!obj.empty()) append_break(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

void Json::append_to(std::string& out) const { write(out, -1, 0); }

Json Json::parse(std::string_view text) { return Parser(text).document(); }

bool operator==(const Json& a, const Json& b) { return a.v_ == b.v_; }

}  // namespace rr
