#include "engine/objective.hpp"

#include <algorithm>
#include <cctype>

#include "core/types.hpp"

namespace gridmap::engine {

std::string_view to_string(Objective objective) {
  switch (objective) {
    case Objective::kJsum:
      return "jsum";
    case Objective::kJmax:
      return "jmax";
    case Objective::kLexJmaxJsum:
      return "jmax-then-jsum";
  }
  return "unknown";
}

Objective objective_from_string(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "jsum") return Objective::kJsum;
  if (lower == "jmax") return Objective::kJmax;
  if (lower == "lex" || lower == "jmax-then-jsum" || lower == "jmaxthenjsum") {
    return Objective::kLexJmaxJsum;
  }
  throw_invalid("unknown objective (use jsum | jmax | lex): " + std::string(name));
}

bool better(Objective objective, const MappingCost& a, const MappingCost& b) {
  switch (objective) {
    case Objective::kJsum:
      return a.jsum < b.jsum;
    case Objective::kJmax:
      return a.jmax < b.jmax;
    case Objective::kLexJmaxJsum:
      return a.jmax != b.jmax ? a.jmax < b.jmax : a.jsum < b.jsum;
  }
  throw_invalid("unknown objective enumerator");
}

bool unbeatable(Objective objective, const MappingCost& cost) {
  switch (objective) {
    case Objective::kJsum:
      return cost.jsum <= 0;
    case Objective::kJmax:
      return cost.jmax <= 0;
    case Objective::kLexJmaxJsum:
      return cost.jmax <= 0 && cost.jsum <= 0;
  }
  throw_invalid("unknown objective enumerator");
}

}  // namespace gridmap::engine
