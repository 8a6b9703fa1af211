// Compressed-sparse-row graph — the substrate for the general graph mapper
// (our VieM substitute). Vertices carry weights (coarsening multiplicities),
// edges carry weights (combined directed communication counts).
#pragma once

#include <span>
#include <vector>

#include "core/types.hpp"

namespace gridmap {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from an undirected edge list; parallel edges are merged by
  /// summing weights. Self-loops are rejected. Vertex weights default to 1.
  struct WeightedEdge {
    int u = 0;
    int v = 0;
    std::int64_t weight = 1;
  };
  static CsrGraph from_edges(int num_vertices, std::vector<WeightedEdge> edges);
  static CsrGraph from_edges(int num_vertices, std::vector<WeightedEdge> edges,
                             std::vector<std::int64_t> vertex_weights);

  /// Adopts CSR arrays that are already in from_edges's normal form: every
  /// row sorted ascending, the adjacency symmetric, no self-loops or
  /// duplicate neighbors, positive edge weights. Only the array sizes are
  /// checked. Builders that emit rows in order use this to skip the sort.
  static CsrGraph from_sorted_rows(std::vector<std::int64_t> xadj, std::vector<int> adjncy,
                                   std::vector<std::int64_t> adjwgt,
                                   std::vector<std::int64_t> vertex_weights);

  /// The subgraph induced by `vertices`, which must be strictly ascending:
  /// vertex i of the result is vertices[i] and keeps its vertex weight.
  /// Because the ids are ascending, filtering each sorted neighbor row in
  /// order yields exactly the arrays from_edges would build from the
  /// induced edge list, in O(n + m) instead of O(m log m).
  CsrGraph induced_subgraph(std::span<const int> vertices) const;

  int num_vertices() const noexcept { return static_cast<int>(xadj_.size()) - 1; }
  std::int64_t num_arcs() const noexcept { return static_cast<std::int64_t>(adjncy_.size()); }

  std::span<const int> neighbors(int v) const {
    return {adjncy_.data() + xadj_[static_cast<std::size_t>(v)],
            adjncy_.data() + xadj_[static_cast<std::size_t>(v) + 1]};
  }
  std::span<const std::int64_t> edge_weights(int v) const {
    return {adjwgt_.data() + xadj_[static_cast<std::size_t>(v)],
            adjwgt_.data() + xadj_[static_cast<std::size_t>(v) + 1]};
  }

  std::int64_t vertex_weight(int v) const { return vwgt_[static_cast<std::size_t>(v)]; }
  std::int64_t total_vertex_weight() const noexcept { return total_vwgt_; }

  int degree(int v) const {
    return static_cast<int>(xadj_[static_cast<std::size_t>(v) + 1] -
                            xadj_[static_cast<std::size_t>(v)]);
  }

  /// Sum of weights of edges with endpoints in different parts. With edge
  /// weights equal to the number of directed communication edges between the
  /// endpoints, this equals Jsum.
  std::int64_t cut(const std::vector<int>& part) const;

  friend bool operator==(const CsrGraph&, const CsrGraph&) = default;

 private:
  std::vector<std::int64_t> xadj_;
  std::vector<int> adjncy_;
  std::vector<std::int64_t> adjwgt_;
  std::vector<std::int64_t> vwgt_;
  std::int64_t total_vwgt_ = 0;
};

}  // namespace gridmap
