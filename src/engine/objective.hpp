// Objective: the cost-comparison rule under which the portfolio engine picks
// a winning mapping. The paper reports both Jsum and Jmax (Section II);
// selecting "the" best mapper for an instance therefore needs an explicit
// objective — including the lexicographic Jmax-then-Jsum rule that matches
// how the paper argues about bottleneck nodes.
#pragma once

#include <string>
#include <string_view>

#include "core/metrics.hpp"

namespace gridmap::engine {

enum class Objective {
  kJsum,         ///< minimize total inter-node edges
  kJmax,         ///< minimize the bottleneck node's outgoing edges
  kLexJmaxJsum,  ///< minimize Jmax, break ties by Jsum
};

std::string_view to_string(Objective objective);

/// Parses "jsum" | "jmax" | "lex" (also "jmax-then-jsum"); case-insensitive.
Objective objective_from_string(std::string_view name);

/// Strict "a is better than b" under the objective. Not a total order over
/// costs: equal scores compare false both ways, which the engine uses to
/// break ties deterministically by backend registration order.
bool better(Objective objective, const MappingCost& a, const MappingCost& b);

/// True when no mapping can be strictly `better` than `cost`: it reaches the
/// absolute floor (score 0 — both metrics are counts). The engine uses this
/// to cancel later-registered backends that are still running.
bool unbeatable(Objective objective, const MappingCost& cost);

}  // namespace gridmap::engine
