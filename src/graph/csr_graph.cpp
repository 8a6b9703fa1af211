#include "graph/csr_graph.hpp"

#include <algorithm>
#include <numeric>

namespace gridmap {

CsrGraph CsrGraph::from_edges(int num_vertices, std::vector<WeightedEdge> edges) {
  return from_edges(num_vertices, std::move(edges),
                    std::vector<std::int64_t>(static_cast<std::size_t>(num_vertices), 1));
}

CsrGraph CsrGraph::from_edges(int num_vertices, std::vector<WeightedEdge> edges,
                              std::vector<std::int64_t> vertex_weights) {
  GRIDMAP_CHECK(num_vertices >= 0, "negative vertex count");
  GRIDMAP_CHECK(static_cast<int>(vertex_weights.size()) == num_vertices,
                "vertex weight count mismatch");

  // Normalize to (min, max) endpoint order, sort, and merge duplicates.
  for (WeightedEdge& e : edges) {
    GRIDMAP_CHECK(e.u >= 0 && e.u < num_vertices && e.v >= 0 && e.v < num_vertices,
                  "edge endpoint out of range");
    GRIDMAP_CHECK(e.u != e.v, "self-loops are not allowed");
    GRIDMAP_CHECK(e.weight > 0, "edge weights must be positive");
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    return a.u < b.u || (a.u == b.u && a.v < b.v);
  });
  std::vector<WeightedEdge> merged;
  merged.reserve(edges.size());
  for (const WeightedEdge& e : edges) {
    if (!merged.empty() && merged.back().u == e.u && merged.back().v == e.v) {
      merged.back().weight += e.weight;
    } else {
      merged.push_back(e);
    }
  }

  CsrGraph g;
  g.vwgt_ = std::move(vertex_weights);
  g.total_vwgt_ = std::accumulate(g.vwgt_.begin(), g.vwgt_.end(), std::int64_t{0});
  g.xadj_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const WeightedEdge& e : merged) {
    ++g.xadj_[static_cast<std::size_t>(e.u) + 1];
    ++g.xadj_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < g.xadj_.size(); ++i) g.xadj_[i] += g.xadj_[i - 1];
  g.adjncy_.resize(static_cast<std::size_t>(g.xadj_.back()));
  g.adjwgt_.resize(static_cast<std::size_t>(g.xadj_.back()));
  std::vector<std::int64_t> cursor(g.xadj_.begin(), g.xadj_.end() - 1);
  for (const WeightedEdge& e : merged) {
    g.adjncy_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)])] = e.v;
    g.adjwgt_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] = e.weight;
    g.adjncy_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)])] = e.u;
    g.adjwgt_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++)] = e.weight;
  }
  return g;
}

CsrGraph CsrGraph::from_sorted_rows(std::vector<std::int64_t> xadj, std::vector<int> adjncy,
                                    std::vector<std::int64_t> adjwgt,
                                    std::vector<std::int64_t> vertex_weights) {
  GRIDMAP_CHECK(xadj.size() == vertex_weights.size() + 1 && xadj.front() == 0 &&
                    xadj.back() == static_cast<std::int64_t>(adjncy.size()) &&
                    adjwgt.size() == adjncy.size(),
                "CSR array sizes disagree");
  CsrGraph g;
  g.xadj_ = std::move(xadj);
  g.adjncy_ = std::move(adjncy);
  g.adjwgt_ = std::move(adjwgt);
  g.vwgt_ = std::move(vertex_weights);
  g.total_vwgt_ = std::accumulate(g.vwgt_.begin(), g.vwgt_.end(), std::int64_t{0});
  return g;
}

CsrGraph CsrGraph::induced_subgraph(std::span<const int> vertices) const {
  const int n = static_cast<int>(vertices.size());
  std::vector<int> local(static_cast<std::size_t>(num_vertices()), -1);
  std::int64_t arcs_bound = 0;
  for (int i = 0; i < n; ++i) {
    const int v = vertices[static_cast<std::size_t>(i)];
    GRIDMAP_CHECK(v >= 0 && v < num_vertices() &&
                      (i == 0 || vertices[static_cast<std::size_t>(i) - 1] < v),
                  "induced_subgraph wants strictly ascending vertex ids");
    local[static_cast<std::size_t>(v)] = i;
    arcs_bound += degree(v);
  }
  CsrGraph g;
  g.xadj_.reserve(static_cast<std::size_t>(n) + 1);
  g.xadj_.push_back(0);
  g.adjncy_.reserve(static_cast<std::size_t>(arcs_bound));
  g.adjwgt_.reserve(static_cast<std::size_t>(arcs_bound));
  g.vwgt_.reserve(static_cast<std::size_t>(n));
  for (const int v : vertices) {
    const auto nbs = neighbors(v);
    const auto wts = edge_weights(v);
    for (std::size_t j = 0; j < nbs.size(); ++j) {
      const int u = local[static_cast<std::size_t>(nbs[j])];
      if (u < 0) continue;
      g.adjncy_.push_back(u);
      g.adjwgt_.push_back(wts[j]);
    }
    g.xadj_.push_back(static_cast<std::int64_t>(g.adjncy_.size()));
    g.vwgt_.push_back(vertex_weight(v));
    g.total_vwgt_ += vertex_weight(v);
  }
  return g;
}

std::int64_t CsrGraph::cut(const std::vector<int>& part) const {
  GRIDMAP_CHECK(static_cast<int>(part.size()) == num_vertices(),
                "partition vector size mismatch");
  std::int64_t cut2 = 0;  // each cut edge counted from both endpoints
  for (int v = 0; v < num_vertices(); ++v) {
    const auto nbs = neighbors(v);
    const auto wts = edge_weights(v);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      if (part[static_cast<std::size_t>(v)] != part[static_cast<std::size_t>(nbs[i])]) {
        cut2 += wts[i];
      }
    }
  }
  return cut2 / 2;
}

}  // namespace gridmap
