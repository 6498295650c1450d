#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

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

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
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
      const char c = peek();
      ++pos_;
      if (c == '"') break;
      if (c == '\\') {
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
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
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

}  // namespace

std::string format_json_number(double v) {
  if (!std::isfinite(v)) fail("json: non-finite number");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

bool Json::as_bool() const {
  require(kind_ == Kind::kBool, Kind::kBool, kind_);
  return bool_;
}

double Json::as_double() const {
  require(kind_ == Kind::kNumber, Kind::kNumber, kind_);
  return num_;
}

std::int64_t Json::as_int() const {
  const double v = as_double();
  const auto i = static_cast<std::int64_t>(v);
  if (static_cast<double>(i) != v) fail("json: number is not integral");
  return i;
}

const std::string& Json::as_string() const {
  require(kind_ == Kind::kString, Kind::kString, kind_);
  return str_;
}

const Json::Array& Json::as_array() const {
  require(kind_ == Kind::kArray, Kind::kArray, kind_);
  return arr_;
}

const Json::Object& Json::as_object() const {
  require(kind_ == Kind::kObject, Kind::kObject, kind_);
  return obj_;
}

Json& Json::set(std::string key, Json value) {
  require(kind_ == Kind::kObject, Kind::kObject, kind_);
  for (auto& [k, v] : obj_)
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  obj_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  require(kind_ == Kind::kObject, Kind::kObject, kind_);
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (!v) fail("json: missing key '" + std::string(key) + "'");
  return *v;
}

const Json& Json::at(std::size_t index) const {
  require(kind_ == Kind::kArray, Kind::kArray, kind_);
  if (index >= arr_.size()) fail("json: index out of range");
  return arr_[index];
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return arr_.size();
  if (kind_ == Kind::kObject) return obj_.size();
  fail("json: size() on a scalar");
}

void Json::push_back(Json v) {
  require(kind_ == Kind::kArray, Kind::kArray, kind_);
  arr_.push_back(std::move(v));
}

void Json::write(std::ostream& os, int indent, int depth) const {
  // Built by append: GCC 12 flags `"\n" + std::string(...)` with a false
  // -Wrestrict.
  std::string pad, closing;
  if (indent >= 0) {
    const auto width = static_cast<std::size_t>(indent);
    closing.append(1, '\n').append(width * static_cast<std::size_t>(depth), ' ');
    pad = closing;
    pad.append(width, ' ');
  }
  const char* sep = indent >= 0 ? ": " : ":";
  switch (kind_) {
    case Kind::kNull: os << "null"; break;
    case Kind::kBool: os << (bool_ ? "true" : "false"); break;
    case Kind::kNumber: os << format_json_number(num_); break;
    case Kind::kString: write_json_string(os, str_); break;
    case Kind::kArray: {
      os << '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) os << ',';
        os << pad;
        arr_[i].write(os, indent, depth + 1);
      }
      if (!arr_.empty()) os << closing;
      os << ']';
      break;
    }
    case Kind::kObject: {
      os << '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) os << ',';
        os << pad;
        write_json_string(os, obj_[i].first);
        os << sep;
        obj_[i].second.write(os, indent, depth + 1);
      }
      if (!obj_.empty()) os << closing;
      os << '}';
      break;
    }
  }
}

void Json::dump_to(std::ostream& os, int indent) const { write(os, indent, 0); }

std::string Json::dump(int indent) const {
  std::ostringstream os;
  write(os, indent, 0);
  return os.str();
}

Json Json::parse(std::string_view text) { return Parser(text).document(); }

bool operator==(const Json& a, const Json& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Json::Kind::kNull: return true;
    case Json::Kind::kBool: return a.bool_ == b.bool_;
    case Json::Kind::kNumber: return a.num_ == b.num_;
    case Json::Kind::kString: return a.str_ == b.str_;
    case Json::Kind::kArray: return a.arr_ == b.arr_;
    case Json::Kind::kObject: return a.obj_ == b.obj_;
  }
  return false;
}

}  // namespace rr
