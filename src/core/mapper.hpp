// Mapper: common interface of all process-to-node mapping algorithms.
//
// Every algorithm is cancellable: the virtual entry points take an
// ExecContext& and poll it in their hot loops, so callers (notably the
// portfolio engine) can budget and cancel runs. The overloads without an
// ExecContext forward the shared unlimited context, so plain call sites
// stay as simple as before.
#pragma once

#include <memory>
#include <string_view>

#include "core/allocation.hpp"
#include "core/exec_context.hpp"
#include "core/grid.hpp"
#include "core/remapping.hpp"
#include "core/stencil.hpp"

namespace gridmap::engine {
class ThreadPool;
}
namespace gridmap::obs {
class TraceRecorder;
}

namespace gridmap {

/// Base interface: computes a full rank -> grid-cell remapping.
class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Offers shared-memory execution resources for subsequent remap() calls:
  /// a shared worker pool the mapper may fork subtasks onto (null = serial;
  /// the pool's size is the thread count) and a trace recorder for
  /// backend-internal spans (may be null). The default implementation
  /// ignores the offer — mappers stay serial unless they opt in
  /// (GeneralGraphMapper does). The engine calls this on each per-run
  /// mapper instance right after creating it; implementations need not
  /// support being reconfigured concurrently with remap().
  virtual void configure_execution(engine::ThreadPool* /*pool*/,
                                   obs::TraceRecorder* /*trace*/) {}

  /// Whether the algorithm can handle this instance (e.g. Nodecart requires a
  /// factorization of n compatible with the grid). Default: always.
  virtual bool applicable(const CartesianGrid& grid, const Stencil& stencil,
                          const NodeAllocation& alloc) const;

  /// Convenience overload: runs without limits.
  Remapping remap(const CartesianGrid& grid, const Stencil& stencil,
                  const NodeAllocation& alloc) const {
    return remap(grid, stencil, alloc, ExecContext::none());
  }

  /// Cancellable entry point. Implementations call ctx.checkpoint() in their
  /// hot loops and abort with CancelledError when the deadline passes or the
  /// token fires; a limited ctx never changes the result of a completed run.
  virtual Remapping remap(const CartesianGrid& grid, const Stencil& stencil,
                          const NodeAllocation& alloc, ExecContext& ctx) const = 0;
};

/// A mapper whose result every rank can compute locally from the input alone
/// (the paper's design goal (a) in Section V). `new_coordinate` is the
/// distributed entry point; `remap` (provided here) simply loops over ranks,
/// so the two must stay consistent — a property the tests pin down.
class DistributedMapper : public Mapper {
 public:
  using Mapper::remap;

  /// Convenience overload: runs without limits.
  Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                       const NodeAllocation& alloc, Rank rank) const {
    return new_coordinate(grid, stencil, alloc, rank, ExecContext::none());
  }

  virtual Coord new_coordinate(const CartesianGrid& grid, const Stencil& stencil,
                               const NodeAllocation& alloc, Rank rank,
                               ExecContext& ctx) const = 0;

  /// Loops new_coordinate over all ranks with a cancellation checkpoint per
  /// rank.
  Remapping remap(const CartesianGrid& grid, const Stencil& stencil,
                  const NodeAllocation& alloc, ExecContext& ctx) const override;
};

}  // namespace gridmap
