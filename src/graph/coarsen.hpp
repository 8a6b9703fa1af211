// Multilevel coarsening via heavy-edge matching (the standard first phase of
// multilevel graph partitioners; see Schulz et al. for the approach VieM is
// built on).
//
// Parallelism: every entry point takes an optional GraphParallel context.
// With a pool the matching runs as a parallel *propose* phase — each
// vertex's globally best neighbor, ignoring match state, computed
// independently per vertex range — followed by a sequential *commit* pass
// replaying the serial greedy order: an unmatched vertex whose proposed
// partner is still free takes it (provably the serial choice, since the
// proposal dominates every unmatched neighbor too), and otherwise falls
// back to the serial rescan. The result is bit-identical to the serial
// matching for any thread count. Contraction builds its edge list in
// parallel per contiguous vertex range and concatenates ranges in order,
// which reproduces the serial edge order exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "core/exec_context.hpp"
#include "graph/csr_graph.hpp"
#include "graph/parallel.hpp"

namespace gridmap {

struct CoarseLevel {
  CsrGraph graph;                ///< the contracted graph
  std::vector<int> fine_to_coarse;  ///< map from fine vertex to coarse vertex
};

/// One round of heavy-edge matching + contraction. Vertices are visited in a
/// seeded random order; each unmatched vertex is matched to the unmatched
/// neighbor with the heaviest connecting edge (ties: lower id). Checkpoints
/// `ctx` per visited vertex (parallel phases checkpoint per-task copies).
CoarseLevel coarsen_once(const CsrGraph& graph, std::uint64_t seed,
                         ExecContext& ctx = ExecContext::none(),
                         const GraphParallel* par = nullptr);

/// A full coarsening hierarchy: repeat until at most `target_vertices`
/// remain or a round shrinks the graph by less than 10 %. When `par` has a
/// trace recorder and `trace_track` is nonzero, each round records a
/// "gmap:coarsen L<k>" span on that track.
std::vector<CoarseLevel> coarsen_hierarchy(const CsrGraph& graph, int target_vertices,
                                           std::uint64_t seed,
                                           ExecContext& ctx = ExecContext::none(),
                                           const GraphParallel* par = nullptr,
                                           std::uint64_t trace_track = 0);

}  // namespace gridmap
