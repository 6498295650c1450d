// The JSON form of a study point: what a campaign scenario returns as its
// metrics, what the journal stores, and what a resumed sweep decodes back.
#pragma once

#include "fault/resilience_study.hpp"
#include "model/sweep_model.hpp"
#include "util/json.hpp"

namespace rr::engine {

Json to_json(const fault::ResiliencePoint& pt);
Json to_json(const model::ScalePoint& pt);

/// Inverse of to_json(ResiliencePoint).  %.17g serialization round-trips
/// every finite double bit-exactly, so decode(encode(pt)) == pt down to the
/// last bit -- the property that lets a resumed sweep serve journaled
/// points unchanged.  A node count outside int range throws JsonError.
fault::ResiliencePoint resilience_point_from_json(const Json& j);

}  // namespace rr::engine
