// GraphParallel: the shared-memory execution context threaded through the
// multilevel gmap stack (coarsen -> bisection -> FM refinement). It bundles
// the worker pool the stack may fork subtasks onto (its size is the target
// concurrency) and an optional trace recorder for per-level spans —
// one struct passed by pointer so every layer shares a single decision
// about when parallelism engages.
//
// Ownership: non-owning. The pool is the one injected per backend run via
// Mapper::configure_execution (the PortfolioEngine's shared pool, or one a
// standalone caller builds) — never a pool per mapper, so racing many
// instances cannot explode thread counts. No pool means every code path
// runs the serial algorithm.
//
// Determinism contract: results are bit-identical to the serial algorithm
// and to themselves across any thread count. The stack achieves this with
// fixed reduction/commit orders — parallel phases only ever compute
// order-independent per-vertex candidates or run pure-function subproblems
// (subtree bisections, restarts) whose results are combined in a fixed
// order.
#pragma once

#include <cstdint>

#include "engine/thread_pool.hpp"

namespace gridmap::obs {
class TraceRecorder;
}

namespace gridmap {

struct GraphParallel {
  engine::ThreadPool* pool = nullptr;  ///< null = serial everywhere
  /// Graphs below this size take the serial path even with a pool: subtask
  /// overhead beats the win on small (sub)problems, and the recursion's
  /// deep levels go serial automatically as subgraphs shrink past it.
  int min_vertices = 2048;
  obs::TraceRecorder* trace = nullptr;  ///< per-level spans (null = off)

  /// Target concurrency: the pool's size (1 without a pool).
  int threads() const noexcept { return pool != nullptr ? pool->size() : 1; }

  /// Whether parallel code paths engage for a (sub)problem of this size.
  bool active(int num_vertices) const noexcept {
    return threads() > 1 && num_vertices >= min_vertices;
  }

  /// Chunk count for range-parallel phases: a few chunks per thread for
  /// load balance. Chunk *boundaries* are a pure function of the range
  /// size (see parallel_ranges), so chunking never affects results.
  int chunks() const noexcept { return threads() > 1 ? threads() * 4 : 1; }
};

}  // namespace gridmap
