// Machine-readable result store for sweep batches: one JSON object per
// scenario (JSON lines), each carrying the scenario parameters, its
// metrics, the derived seed, and provenance (engine vs. serial, thread
// count) so a stored row can be replayed bit-exactly later.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "fault/resilience_study.hpp"
#include "model/sweep_model.hpp"
#include "util/json.hpp"

namespace rr::engine {

/// Provenance stamped onto every record of a batch.  Engine-produced
/// records are always "parallel" (regardless of thread count, which is
/// recorded separately); "serial" marks records from the legacy loops.
struct Provenance {
  std::string engine = "parallel";  ///< "parallel" | "serial"
  int threads = 1;
  std::uint64_t base_seed = 0;
};

Json to_json(const Provenance& p);
Json to_json(const fault::ResiliencePoint& pt);
Json to_json(const fault::IntervalPoint& pt);
Json to_json(const model::ScalePoint& pt);

/// Inverse of to_json(ResiliencePoint).  %.17g serialization round-trips
/// every finite double bit-exactly, so decode(encode(pt)) == pt down to the
/// last bit -- the property that lets a resumed sweep serve journaled
/// points unchanged.
fault::ResiliencePoint resilience_point_from_json(const Json& j);

/// Thread-safe, append-only record collection; writes JSON lines.
class ResultStore {
 public:
  /// Append one scenario record (object), stamping `provenance` in.
  void append(Json record, const Provenance& provenance);

  std::size_t size() const;
  /// One compact JSON object per line, in append order.
  void write(std::ostream& os) const;
  /// Atomic snapshot: temp file + fsync + rename, so a crash mid-write can
  /// never leave a truncated or interleaved store on disk.  Returns false
  /// on I/O failure (the previous file, if any, survives intact).
  bool write_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Json> records_;
};

}  // namespace rr::engine
