// Multilevel 2-way partitioning: coarsen (heavy-edge matching), greedy
// region-growing initial partition on the coarsest graph, FM refinement on
// every level while uncoarsening, exact rebalance at the finest level.
//
// Parallelism (BisectionOptions::par): coarsening and the initial
// region-growing attempts parallelize internally — the attempts draw their
// seed vertices from the serial RNG sequence first and are then pure
// functions run as independent tasks, reduced first-strict-minimum in
// attempt order, so the result stays bit-identical to the serial code for
// any thread count. FM refinement always runs serially.
#pragma once

#include <cstdint>
#include <vector>

#include "core/exec_context.hpp"
#include "graph/csr_graph.hpp"
#include "graph/parallel.hpp"

namespace gridmap {

struct BisectionOptions {
  std::int64_t target0 = 0;  ///< desired vertex weight of side 0
  int coarsen_target = 60;   ///< stop coarsening below this many vertices
  int initial_tries = 4;     ///< region-growing attempts (different seeds)
  int fm_passes = 8;
  std::uint64_t seed = 1;
  bool exact_balance = true;  ///< force side-0 weight == target0 at the end
  /// Shared-memory execution context (null = serial, the default). Non-owning;
  /// see graph/parallel.hpp for the determinism contract.
  const GraphParallel* par = nullptr;
};

/// Returns a 0/1 partition of the graph's vertices. Checkpoints `ctx`
/// through every phase (coarsening, growing, FM, rebalance). With a trace
/// recorder in options.par, records per-level "gmap:coarsen L<k>" /
/// "gmap:refine L<k>" spans (plus "gmap:initial") on a fresh track.
std::vector<int> multilevel_bisection(const CsrGraph& graph, const BisectionOptions& options,
                                      ExecContext& ctx = ExecContext::none());

/// Greedy region growing used for the initial partition (exposed for tests):
/// grows side 0 from `seed_vertex` by repeatedly absorbing the boundary
/// vertex with the strongest connection to side 0 until target0 is reached.
std::vector<int> grow_region(const CsrGraph& graph, int seed_vertex, std::int64_t target0,
                             ExecContext& ctx = ExecContext::none());

}  // namespace gridmap
