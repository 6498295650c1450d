#include "sim/simulator.hpp"

// The simulator is header-only for inlining in hot event loops; this
// translation unit anchors the library target and hosts shared constants.

namespace rr::sim {

const char* engine_name() {
  return "rr-des (integer-picosecond indexed tombstone heap + ready FIFO)";
}

}  // namespace rr::sim
