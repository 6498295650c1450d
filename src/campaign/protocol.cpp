#include "campaign/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/expect.hpp"

namespace rr::campaign {

namespace {

bool write_fully(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Full read; returns bytes read (short only at EOF).
std::size_t read_fully(int fd, char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("frame read failed: ") +
                               std::strerror(errno));
    }
    if (r == 0) break;
    off += static_cast<std::size_t>(r);
  }
  return off;
}

}  // namespace

bool write_frame(int fd, const Json& msg) {
  const std::string payload = msg.dump();
  RR_EXPECTS(payload.size() <= kMaxFrameBytes);
  const auto len = static_cast<std::uint32_t>(payload.size());
  char buf[4] = {static_cast<char>((len >> 24) & 0xff),
                 static_cast<char>((len >> 16) & 0xff),
                 static_cast<char>((len >> 8) & 0xff),
                 static_cast<char>(len & 0xff)};
  // Two writes at most; the peer reassembles by length, so a stream that
  // interleaves at the kernel boundary is still unambiguous.
  return write_fully(fd, buf, sizeof buf) &&
         write_fully(fd, payload.data(), payload.size());
}

std::optional<Json> read_frame(int fd) {
  char hdr[4];
  const std::size_t got = read_fully(fd, hdr, sizeof hdr);
  if (got == 0) return std::nullopt;  // clean EOF between frames
  if (got < sizeof hdr)
    throw std::runtime_error("frame truncated inside length prefix");
  const std::uint32_t len = (static_cast<std::uint32_t>(
                                 static_cast<unsigned char>(hdr[0]))
                             << 24) |
                            (static_cast<std::uint32_t>(
                                 static_cast<unsigned char>(hdr[1]))
                             << 16) |
                            (static_cast<std::uint32_t>(
                                 static_cast<unsigned char>(hdr[2]))
                             << 8) |
                            static_cast<std::uint32_t>(
                                static_cast<unsigned char>(hdr[3]));
  if (len == 0)
    throw std::runtime_error(
        "zero-length frame (no JSON document is empty; stream desynced?)");
  if (len > kMaxFrameBytes)
    throw std::runtime_error("frame length " + std::to_string(len) +
                             " exceeds limit (stream desynced?)");
  std::string payload(len, '\0');
  if (read_fully(fd, payload.data(), len) < len)
    throw std::runtime_error("frame truncated inside payload");
  if (!valid_utf8(payload))
    throw std::runtime_error(
        "frame payload is not valid UTF-8 (corrupt or hostile stream)");
  return Json::parse(payload);
}

bool valid_utf8(std::string_view bytes) {
  std::size_t i = 0;
  const std::size_t n = bytes.size();
  while (i < n) {
    // Skip 8 ASCII bytes at once: a word with no high bit set.
    if (n - i >= 8) {
      std::uint64_t word;
      std::memcpy(&word, bytes.data() + i, sizeof word);
      if ((word & 0x8080808080808080ULL) == 0) {
        i += 8;
        continue;
      }
    }
    const auto b0 = static_cast<unsigned char>(bytes[i]);
    std::size_t need;
    std::uint32_t cp;
    if (b0 < 0x80) {
      ++i;
      continue;
    } else if ((b0 & 0xe0) == 0xc0) {
      need = 1;
      cp = b0 & 0x1fu;
    } else if ((b0 & 0xf0) == 0xe0) {
      need = 2;
      cp = b0 & 0x0fu;
    } else if ((b0 & 0xf8) == 0xf0) {
      need = 3;
      cp = b0 & 0x07u;
    } else {
      return false;  // continuation byte or 0xfe/0xff in lead position
    }
    if (i + need >= n) return false;  // truncated sequence
    for (std::size_t k = 1; k <= need; ++k) {
      const auto bk = static_cast<unsigned char>(bytes[i + k]);
      if ((bk & 0xc0) != 0x80) return false;
      cp = (cp << 6) | (bk & 0x3fu);
    }
    // Overlong encodings, UTF-16 surrogates, and out-of-range values are
    // all invalid even when structurally well-formed.
    if ((need == 1 && cp < 0x80) || (need == 2 && cp < 0x800) ||
        (need == 3 && cp < 0x10000))
      return false;
    if (cp >= 0xd800 && cp <= 0xdfff) return false;
    if (cp > 0x10ffff) return false;
    i += need + 1;
  }
  return true;
}

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kProgress: return "progress";
    case MsgType::kReleased: return "released";
    case MsgType::kDone: return "done";
    case MsgType::kRun: return "run";
    case MsgType::kSteal: return "steal";
    case MsgType::kStop: return "stop";
  }
  return "?";
}

std::optional<MsgType> msg_type_from_string(std::string_view s) {
  if (s == "progress") return MsgType::kProgress;
  if (s == "released") return MsgType::kReleased;
  if (s == "done") return MsgType::kDone;
  if (s == "run") return MsgType::kRun;
  if (s == "steal") return MsgType::kSteal;
  if (s == "stop") return MsgType::kStop;
  return std::nullopt;
}

MsgType frame_type(const Json& msg) {
  if (!msg.is_object())
    throw std::runtime_error("frame is not a JSON object");
  const Json* t = msg.find("t");
  if (!t) throw std::runtime_error("frame carries no \"t\" field");
  if (t->kind() != Json::Kind::kString)
    throw std::runtime_error("frame \"t\" field is not a string");
  const auto type = msg_type_from_string(t->as_string());
  if (!type)
    throw std::runtime_error("unknown message type \"" + t->as_string() +
                             "\"");
  return *type;
}

Json ranges_to_json(const std::vector<IndexRange>& ranges) {
  Json arr = Json::array();
  for (const auto& r : ranges) {
    Json pair = Json::array();
    pair.push_back(r.lo);
    pair.push_back(r.hi);
    arr.push_back(std::move(pair));
  }
  return arr;
}

std::vector<IndexRange> ranges_from_json(const Json& j, int max_index) {
  std::vector<IndexRange> out;
  out.reserve(j.size());
  for (const Json& pair : j.as_array()) {
    if (!pair.is_array() || pair.size() != 2)
      throw std::runtime_error("index range is not a [lo,hi] pair");
    IndexRange r;
    r.lo = pair.at(std::size_t{0}).as_int32();
    r.hi = pair.at(std::size_t{1}).as_int32();
    if (r.lo < 0)
      throw std::runtime_error("negative index range lower bound " +
                               std::to_string(r.lo));
    if (r.lo > r.hi) throw std::runtime_error("inverted index range");
    if (max_index >= 0 && r.hi > max_index)
      throw std::runtime_error(
          "index range upper bound " + std::to_string(r.hi) +
          " exceeds campaign scenario count " + std::to_string(max_index));
    out.push_back(r);
  }
  return out;
}

int range_count(const std::vector<IndexRange>& ranges) {
  int n = 0;
  for (const auto& r : ranges) n += r.count();
  return n;
}

std::vector<IndexRange> ranges_from_sorted_indices(
    const std::vector<int>& indices) {
  std::vector<IndexRange> out;
  for (const int i : indices) {
    if (!out.empty() && out.back().hi == i) {
      ++out.back().hi;
    } else {
      RR_EXPECTS(out.empty() || i > out.back().hi);
      out.push_back({i, i + 1});
    }
  }
  return out;
}

Json time_to_json(TimePoint t) { return Json(t.ps() / 1000); }

TimePoint time_from_json(const Json& j) {
  const double ns = j.as_double();
  if (!(ns >= 0 && ns <= 9007199254740992.0) || ns != std::floor(ns))
    throw std::runtime_error("wire time is not a whole ns count in [0, 2^53]");
  return TimePoint::from_ps(static_cast<std::int64_t>(ns) * 1000);
}

namespace {

Json spans_to_json(const std::vector<sim::TraceRecorder::Span>& spans) {
  Json arr = Json::array();
  for (const auto& s : spans)
    arr.push_back(
        Json::Array{s.name, time_to_json(s.start), time_to_json(s.end)});
  return arr;
}

std::vector<sim::TraceRecorder::Span> spans_from_json(const Json& j) {
  std::vector<sim::TraceRecorder::Span> out;
  for (const Json& t : j.as_array()) {
    if (!t.is_array() || t.size() != 3)
      throw std::runtime_error("trace entry is not a [name,t0,t1] triple");
    sim::TraceRecorder::Span s{t.at(std::size_t{0}).as_string(),
                               time_from_json(t.at(std::size_t{1})),
                               time_from_json(t.at(std::size_t{2}))};
    if (s.end < s.start)
      throw std::runtime_error("trace entry \"" + s.name +
                               "\" ends before it starts");
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

Json trace_to_json(const FrameTrace& trace) {
  Json out = Json::object();
  out.set("spans", spans_to_json(trace.spans))
      .set("recvs", spans_to_json(trace.recvs));
  return out;
}

FrameTrace trace_from_json(const Json& j) {
  return {spans_from_json(j.at("spans")), spans_from_json(j.at("recvs"))};
}

std::optional<std::string> take_metrics_text(Json& msg) {
  if (!msg.find("metrics")) return std::nullopt;
  Json& field = msg.at("metrics");
  if (field.kind() != Json::Kind::kString)
    throw std::runtime_error("frame metrics field is not snapshot text");
  return std::move(field.as_string());
}

}  // namespace rr::campaign
