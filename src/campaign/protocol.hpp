// Wire protocol between the campaign coordinator and its forked workers
// (DESIGN.md §11): length-prefixed JSON frames over a local stream fd
// (socketpair or pipe).
//
// A frame is a 4-byte big-endian payload length followed by exactly that
// many bytes of compact JSON (util/json, so numbers round-trip bit-exactly
// through the protocol).  Frames are small -- assignments, progress and
// its metrics snapshot, steal grants -- and each side writes a whole
// frame with one write loop, so a reader woken by poll() drains complete
// messages.
//
// Message vocabulary (field "t"), six types:
//
//   worker -> coordinator
//     progress  {t, completed:[[idx,status]..],      after each chunk, and
//                executed, resumed, outcome,         as an idle heartbeat
//                metrics}
//     released  {t, ranges:[[lo,hi)..]}              reply to steal
//     done      {t, outcome, metrics}                reply to stop
//
//   coordinator -> worker
//     run       {t, ranges:[[lo,hi)..]}              own these indices
//     steal     {t}                                  give back ~half of the
//                                                    unstarted remainder
//     stop      {t}                                  finish up and exit
//
// "metrics" is the worker incarnation's cumulative absolute metrics
// snapshot in the obs fleet wire form (obs/fleet.hpp).
//
// Any frame may additionally carry "fs", a per-sender frame sequence id;
// the service layer stamps it to pair flow events (send "s" / recv "f")
// in merged distributed traces.  Receivers that don't trace ignore it.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace rr::campaign {

/// Upper bound on a frame payload; a length prefix beyond it means the
/// stream is corrupt (desynced), not that a message is merely large.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Write one frame.  Returns false on any write failure (EPIPE included:
/// the caller learns the peer died; run_campaign ignores SIGPIPE so a
/// dead worker cannot kill the coordinator).
bool write_frame(int fd, const Json& msg);

/// Blocking read of one frame.  nullopt on clean EOF at a frame boundary;
/// throws std::runtime_error with a diagnostic on anything hostile or
/// damaged: a truncated frame, a zero-length or oversized length prefix,
/// payload bytes that are not valid UTF-8, or unparseable JSON.  The
/// caller treats a throw as a corrupt stream, not a message -- it never
/// crashes on one (DESIGN.md §13).
std::optional<Json> read_frame(int fd);

/// True when `bytes` is well-formed UTF-8 (rejects overlong encodings,
/// surrogates, and values beyond U+10FFFF).  Frames are JSON, and our
/// writer only emits valid UTF-8, so anything else on the wire is
/// damage or hostility.
bool valid_utf8(std::string_view bytes);

/// The message vocabulary, one enumerator per "t" value.
enum class MsgType {
  kProgress,
  kReleased,
  kDone,  // worker -> coordinator
  kRun,
  kSteal,
  kStop,  // coordinator -> worker
};

const char* to_string(MsgType t);
std::optional<MsgType> msg_type_from_string(std::string_view s);

/// The validated type of a received frame.  Throws std::runtime_error
/// when the frame is not an object, has no "t" field, "t" is not a
/// string, or names no known message -- the reject-with-diagnostic path
/// for a hostile or desynced peer.
MsgType frame_type(const Json& msg);

/// Half-open index interval [lo, hi), the unit of shard assignment.
struct IndexRange {
  int lo = 0;
  int hi = 0;

  int count() const { return hi - lo; }
  friend bool operator==(const IndexRange&, const IndexRange&) = default;
};

/// [[lo,hi],...] <-> vector<IndexRange>.  Decoding validates shape and
/// bounds: every element must be a two-number array with
/// 0 <= lo <= hi, and, when `max_index >= 0`, hi <= max_index -- a
/// frame assigning indices outside the campaign is rejected with a
/// diagnostic, never acted on.
Json ranges_to_json(const std::vector<IndexRange>& ranges);
std::vector<IndexRange> ranges_from_json(const Json& j, int max_index = -1);

/// Total index count across ranges.
int range_count(const std::vector<IndexRange>& ranges);

/// Compress a sorted, duplicate-free index list into maximal ranges.
std::vector<IndexRange> ranges_from_sorted_indices(
    const std::vector<int>& indices);

}  // namespace rr::campaign
