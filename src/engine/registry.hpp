// MapperRegistry: name -> factory registration for mapping backends, so the
// portfolio engine (and any future serving layer) discovers algorithms by
// name instead of hard-coding the paper's line-up. Factories, not instances:
// mappers are created per use, so concurrent evaluations never share state.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mapper.hpp"

namespace gridmap {
struct GmapOptions;
}

namespace gridmap::engine {

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;

class MapperRegistry {
 public:
  /// Registers a backend under `name`. Throws on duplicate or empty names
  /// and on null factories. Registration order is preserved and is the
  /// engine's deterministic tie-break order.
  void add(std::string name, MapperFactory factory);

  bool contains(std::string_view name) const;

  /// Instantiates the backend; throws on unknown names.
  std::unique_ptr<Mapper> create(std::string_view name) const;

  /// Backend names in registration order.
  const std::vector<std::string>& names() const noexcept { return names_; }

  std::size_t size() const noexcept { return names_.size(); }

  /// Every mapper in the repository: blocked, hyperplane, kdtree, strips,
  /// nodecart, viem, hilbert, morton, random, plus socket-aware hierarchical
  /// refinements of the paper's three algorithms.
  static MapperRegistry with_default_backends();

  /// The same line-up with a custom gmap (viem) configuration — how callers
  /// tune the multilevel backend (restarts, search depth, seed) without
  /// re-registering the portfolio by hand. The engine hands each run its
  /// race pool through Mapper::configure_execution.
  static MapperRegistry with_default_backends(const GmapOptions& gmap);

 private:
  std::vector<std::string> names_;
  std::vector<MapperFactory> factories_;
};

}  // namespace gridmap::engine
