// Plan serialization: a line-oriented text format so winning plans survive
// across runs and travel to other processes (plan files, the GRIDMAP/1 wire
// protocol's plan frames).
//
//   gridmap-plan v1
//   signature <canonical instance signature>
//   objective <jsum|jmax|jmax-then-jsum>
//   mapper <backend name>
//   jsum <int64>
//   jmax <int64>
//   ranks <count>
//   cells <c0> <c1> ... <c_{p-1}>
//   end
//
// All values are exact integers/strings, so serialize(parse(s)) == s holds
// bit-identically for any serialized plan.
#pragma once

#include <string>

#include "engine/plan.hpp"

namespace gridmap::engine {

std::string serialize_plan(const MappingPlan& plan);

/// Inverse of serialize_plan; throws std::invalid_argument on malformed
/// input (bad header, missing fields, rank-count mismatch, trailing data).
MappingPlan parse_plan(const std::string& text);

/// File convenience wrappers; throw on I/O failure.
void save_plan(const std::string& path, const MappingPlan& plan);
MappingPlan load_plan(const std::string& path);

}  // namespace gridmap::engine
