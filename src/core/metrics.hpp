// Mapping-quality metrics of the paper (Section II): Jsum — total number of
// directed inter-node communication edges — and Jmax — the outgoing edge
// count of the bottleneck node.
//
// Hot-path layout (see docs/PERFORMANCE.md): evaluation runs over a
// precomputed StencilAdjacency (shared interior delta table + boundary CSR
// rows, core/adjacency.hpp) instead of per-cell neighbor vectors and reuses
// a thread-local EvalScratch arena across calls. All paths produce
// bit-identical MappingCost values; the historical per-cell-allocation
// implementation stays compiled as evaluate_mapping_scalar for the
// equivalence suite.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/adjacency.hpp"
#include "core/allocation.hpp"
#include "core/grid.hpp"
#include "core/remapping.hpp"
#include "core/stencil.hpp"
#include "core/types.hpp"

namespace gridmap {

struct MappingCost {
  std::int64_t jsum = 0;  ///< directed edges crossing node boundaries
  std::int64_t jmax = 0;  ///< max over nodes of outgoing inter-node edges
  NodeId bottleneck = -1; ///< node attaining jmax
  std::vector<std::int64_t> out_edges;    ///< per node: outgoing inter-node edges
  std::vector<std::int64_t> intra_edges;  ///< per node: directed edges staying inside

  /// Recomputes jmax/bottleneck from out_edges (first maximum wins, the
  /// std::max_element tie-break of the full evaluation). O(num_nodes).
  void repair_jmax();
};

/// Evaluates a node-ownership vector (node_of_cell) directly. Uses the
/// thread-local EvalScratch arena: the (grid, stencil) adjacency is built
/// once and reused across calls with the same instance — e.g. the
/// per-backend scoring inside one portfolio race.
MappingCost evaluate_mapping(const CartesianGrid& grid, const Stencil& stencil,
                             const std::vector<NodeId>& node_of_cell, int num_nodes);

/// Evaluates a rank remapping under the given allocation (same arena reuse;
/// the node_of_cell scatter also lands in the scratch buffer, so the hot
/// loop performs no per-cell allocation).
MappingCost evaluate_mapping(const CartesianGrid& grid, const Stencil& stencil,
                             const Remapping& remapping, const NodeAllocation& alloc);

/// Evaluates over a caller-supplied adjacency (no arena involved).
MappingCost evaluate_mapping(const StencilAdjacency& adjacency,
                             const std::vector<NodeId>& node_of_cell, int num_nodes);

/// TEST-ONLY reference implementation: the historical scalar path that calls
/// CartesianGrid::neighbors() (one vector allocation per cell) with the
/// per-edge range check in the inner loop. Kept compiled so the equivalence
/// suite can assert bit-identical MappingCost against the CSR and arena
/// paths; production code must not call it.
MappingCost evaluate_mapping_scalar(const CartesianGrid& grid, const Stencil& stencil,
                                    const std::vector<NodeId>& node_of_cell,
                                    int num_nodes);

/// Thread-local scratch arena for metric evaluation: caches the most recent
/// (grid, stencil) StencilAdjacency and reuses a node_of_cell buffer, so a
/// portfolio race that scores many backends on one instance performs
/// O(backends) small allocations instead of O(backends * cells).
///
/// Contract: local() returns this thread's arena; buffers returned by it are
/// valid until the next call into the arena on the same thread (callers must
/// not hold them across evaluations). reset() drops the cached adjacency and
/// buffers — call it when a long-lived worker is done with large grids.
class EvalScratch {
 public:
  /// This thread's arena.
  static EvalScratch& local();

  /// The adjacency for (grid, stencil), built on first use and reused while
  /// the same instance keeps being evaluated (exact equality match).
  const StencilAdjacency& adjacency(const CartesianGrid& grid, const Stencil& stencil);

  /// A reusable buffer resized to `size` (contents unspecified).
  std::vector<NodeId>& node_buffer(std::size_t size);

  /// Drops the cached adjacency and buffers.
  void reset();

  /// Number of adjacency (re)builds — observability for reuse tests.
  std::uint64_t adjacency_builds() const noexcept { return builds_; }

 private:
  // Cache key: copies of the exact grid + stencil the adjacency was built
  // for (cheap: dims/periods/offsets are tiny vectors).
  std::unique_ptr<CartesianGrid> grid_;
  std::unique_ptr<Stencil> stencil_;
  std::unique_ptr<StencilAdjacency> adjacency_;
  std::vector<NodeId> nodes_;
  std::uint64_t builds_ = 0;
};

/// Directed communication volume between node pairs: entry (a, b) counts the
/// directed grid edges from a cell owned by node a to a cell owned by node b
/// (a != b). Used by the network simulator. Row sums, column sums and the
/// inter-node total are maintained incrementally by add(), so
/// out_degree_bytes / in_degree_bytes / total are O(1) instead of O(N) —
/// the analytic exchange-time bound reads all three per node.
class TrafficMatrix {
 public:
  TrafficMatrix(int num_nodes);

  int num_nodes() const noexcept { return num_nodes_; }
  std::int64_t at(NodeId from, NodeId to) const;

  /// Accumulates `count` directed edges from -> to, keeping the cached
  /// row/column/total sums consistent.
  void add(NodeId from, NodeId to, std::int64_t count = 1);

  std::int64_t total() const noexcept { return total_inter_; }  ///< == Jsum
  std::int64_t out_degree_bytes(NodeId) const;  ///< row sum (edge counts)
  std::int64_t in_degree_bytes(NodeId) const;   ///< column sum

 private:
  int num_nodes_ = 0;
  std::vector<std::int64_t> counts_;    // dense num_nodes x num_nodes
  std::vector<std::int64_t> row_sums_;  // including the diagonal
  std::vector<std::int64_t> col_sums_;  // including the diagonal
  std::int64_t total_inter_ = 0;        // excluding the diagonal
};

TrafficMatrix traffic_matrix(const CartesianGrid& grid, const Stencil& stencil,
                             const std::vector<NodeId>& node_of_cell, int num_nodes);

/// Per-rank directed communication edges (src rank -> dst rank) under a
/// remapping; the unit of the network simulator's flows.
struct RankFlow {
  Rank src = 0;
  Rank dst = 0;
  NodeId src_node = 0;
  NodeId dst_node = 0;
};

std::vector<RankFlow> rank_flows(const CartesianGrid& grid, const Stencil& stencil,
                                 const Remapping& remapping, const NodeAllocation& alloc);

}  // namespace gridmap
