// Fiduccia–Mattheyses style 2-way refinement with balance constraints and
// per-pass rollback to the best feasible prefix.
#pragma once

#include <cstdint>
#include <vector>

#include "core/exec_context.hpp"
#include "graph/csr_graph.hpp"

namespace gridmap {

struct FmOptions {
  int max_passes = 8;
  /// Allowed deviation of side-0 weight from its target during a pass. The
  /// final chosen prefix must respect it as well. 0 forces perfect balance
  /// (only reachable with unit vertex weights).
  std::int64_t slack = 0;
  /// Debug/test pin: assert at every pass boundary that the incrementally
  /// maintained gains equal a fresh recomputation — the invariant the
  /// cross-pass gain reuse (including the rollback's reverse deltas)
  /// depends on. O(m) per pass; leave off outside tests.
  bool verify_gains = false;
};

/// Refines `part` (entries 0/1) towards smaller cut while keeping side 0's
/// vertex weight within `slack` of `target0`. Returns the cut improvement
/// (>= 0); `part` is updated in place. Checkpoints `ctx` per processed
/// vertex (CancelledError leaves `part` mid-pass but structurally valid).
///
/// Gains are computed once and then maintained with the FM delta rule
/// across moves, rollbacks, and pass boundaries (the same structure
/// rebalance_exact uses) — an aborted pass un-applies its suffix deltas
/// instead of triggering an O(n * degree) recomputation. Each pass takes
/// moves from an indexed max-heap keyed by (gain, -vertex): highest gain
/// first, then lowest vertex id. A neighbor's heap slot is repaired right
/// after its gain changes, so every pop is a live vertex; a vertex the
/// balance limit rejects leaves the heap until a neighbor's move re-queues
/// it.
std::int64_t fm_refine(const CsrGraph& graph, std::vector<int>& part,
                       std::int64_t target0, const FmOptions& options,
                       ExecContext& ctx = ExecContext::none());

/// Moves lowest-loss boundary vertices until side 0's weight equals target0
/// exactly (requires unit vertex weights to be guaranteed to terminate at
/// exact balance; with weighted vertices it gets as close as possible).
void rebalance_exact(const CsrGraph& graph, std::vector<int>& part, std::int64_t target0,
                     ExecContext& ctx = ExecContext::none());

}  // namespace gridmap
