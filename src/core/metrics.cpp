#include "core/metrics.hpp"

#include <algorithm>
#include <numeric>

namespace gridmap {

namespace {

// Node-id validation hoisted out of the evaluation inner loop: one linear
// pre-pass in ascending cell order, same failure point and message as the
// historical per-edge check.
void check_node_ids(const std::vector<NodeId>& node_of_cell, int num_nodes) {
  for (const NodeId n : node_of_cell) {
    GRIDMAP_CHECK(n >= 0 && n < num_nodes, "node id out of range");
  }
}

}  // namespace

void MappingCost::repair_jmax() {
  const auto it = std::max_element(out_edges.begin(), out_edges.end());
  jmax = (it == out_edges.end()) ? 0 : *it;
  bottleneck = (it == out_edges.end())
                   ? NodeId{-1}
                   : static_cast<NodeId>(std::distance(out_edges.begin(), it));
}

MappingCost evaluate_mapping(const StencilAdjacency& adjacency,
                             const std::vector<NodeId>& node_of_cell, int num_nodes) {
  GRIDMAP_CHECK(static_cast<std::int64_t>(node_of_cell.size()) == adjacency.num_cells(),
                "node_of_cell size must equal grid size");
  check_node_ids(node_of_cell, num_nodes);
  MappingCost cost;
  cost.out_edges.assign(static_cast<std::size_t>(num_nodes), 0);
  cost.intra_edges.assign(static_cast<std::size_t>(num_nodes), 0);

  const std::int64_t p = adjacency.num_cells();
  for (Cell u = 0; u < p; ++u) {
    const NodeId nu = node_of_cell[static_cast<std::size_t>(u)];
    adjacency.for_each_neighbor(u, [&](Cell v) {
      const NodeId nv = node_of_cell[static_cast<std::size_t>(v)];
      if (nu == nv) {
        ++cost.intra_edges[static_cast<std::size_t>(nu)];
      } else {
        ++cost.out_edges[static_cast<std::size_t>(nu)];
        ++cost.jsum;
      }
    });
  }
  cost.repair_jmax();
  return cost;
}

MappingCost evaluate_mapping(const CartesianGrid& grid, const Stencil& stencil,
                             const std::vector<NodeId>& node_of_cell, int num_nodes) {
  GRIDMAP_CHECK(static_cast<std::int64_t>(node_of_cell.size()) == grid.size(),
                "node_of_cell size must equal grid size");
  return evaluate_mapping(EvalScratch::local().adjacency(grid, stencil), node_of_cell,
                          num_nodes);
}

MappingCost evaluate_mapping(const CartesianGrid& grid, const Stencil& stencil,
                             const Remapping& remapping, const NodeAllocation& alloc) {
  GRIDMAP_CHECK(alloc.total() == remapping.size(),
                "allocation total must equal grid size");
  EvalScratch& scratch = EvalScratch::local();
  // Scatter node ownership into the reused buffer: ranks of node n occupy
  // the contiguous range [first_rank(n), first_rank(n) + size(n)).
  std::vector<NodeId>& nodes =
      scratch.node_buffer(static_cast<std::size_t>(remapping.size()));
  const int num_nodes = alloc.num_nodes();
  for (NodeId n = 0; n < num_nodes; ++n) {
    const Rank first = alloc.first_rank(n);
    const Rank last = first + alloc.size(n);
    for (Rank r = first; r < last; ++r) {
      nodes[static_cast<std::size_t>(remapping.cell_of(r))] = n;
    }
  }
  return evaluate_mapping(scratch.adjacency(grid, stencil), nodes, num_nodes);
}

MappingCost evaluate_mapping_scalar(const CartesianGrid& grid, const Stencil& stencil,
                                    const std::vector<NodeId>& node_of_cell,
                                    int num_nodes) {
  GRIDMAP_CHECK(static_cast<std::int64_t>(node_of_cell.size()) == grid.size(),
                "node_of_cell size must equal grid size");
  MappingCost cost;
  cost.out_edges.assign(static_cast<std::size_t>(num_nodes), 0);
  cost.intra_edges.assign(static_cast<std::size_t>(num_nodes), 0);

  const std::int64_t p = grid.size();
  for (Cell u = 0; u < p; ++u) {
    const NodeId nu = node_of_cell[static_cast<std::size_t>(u)];
    GRIDMAP_CHECK(nu >= 0 && nu < num_nodes, "node id out of range");
    for (const Cell v : grid.neighbors(u, stencil)) {
      const NodeId nv = node_of_cell[static_cast<std::size_t>(v)];
      if (nu == nv) {
        ++cost.intra_edges[static_cast<std::size_t>(nu)];
      } else {
        ++cost.out_edges[static_cast<std::size_t>(nu)];
        ++cost.jsum;
      }
    }
  }
  const auto it = std::max_element(cost.out_edges.begin(), cost.out_edges.end());
  cost.jmax = (it == cost.out_edges.end()) ? 0 : *it;
  cost.bottleneck = (it == cost.out_edges.end())
                        ? NodeId{-1}
                        : static_cast<NodeId>(std::distance(cost.out_edges.begin(), it));
  return cost;
}

EvalScratch& EvalScratch::local() {
  thread_local EvalScratch scratch;
  return scratch;
}

const StencilAdjacency& EvalScratch::adjacency(const CartesianGrid& grid,
                                               const Stencil& stencil) {
  if (adjacency_ && *grid_ == grid && *stencil_ == stencil) return *adjacency_;
  adjacency_ = std::make_unique<StencilAdjacency>(grid, stencil);
  grid_ = std::make_unique<CartesianGrid>(grid);
  stencil_ = std::make_unique<Stencil>(stencil);
  ++builds_;
  return *adjacency_;
}

std::vector<NodeId>& EvalScratch::node_buffer(std::size_t size) {
  nodes_.resize(size);
  return nodes_;
}

void EvalScratch::reset() {
  adjacency_.reset();
  grid_.reset();
  stencil_.reset();
  nodes_.clear();
  nodes_.shrink_to_fit();
}

TrafficMatrix::TrafficMatrix(int num_nodes) : num_nodes_(num_nodes) {
  GRIDMAP_CHECK(num_nodes >= 1, "traffic matrix needs at least one node");
  counts_.assign(static_cast<std::size_t>(num_nodes) * num_nodes, 0);
  row_sums_.assign(static_cast<std::size_t>(num_nodes), 0);
  col_sums_.assign(static_cast<std::size_t>(num_nodes), 0);
}

std::int64_t TrafficMatrix::at(NodeId from, NodeId to) const {
  return counts_.at(static_cast<std::size_t>(from) * num_nodes_ + to);
}

void TrafficMatrix::add(NodeId from, NodeId to, std::int64_t count) {
  GRIDMAP_CHECK(from >= 0 && from < num_nodes_, "node id out of range");
  GRIDMAP_CHECK(to >= 0 && to < num_nodes_, "node id out of range");
  counts_[static_cast<std::size_t>(from) * num_nodes_ + to] += count;
  row_sums_[static_cast<std::size_t>(from)] += count;
  col_sums_[static_cast<std::size_t>(to)] += count;
  if (from != to) total_inter_ += count;
}

std::int64_t TrafficMatrix::out_degree_bytes(NodeId node) const {
  return row_sums_.at(static_cast<std::size_t>(node)) -
         counts_[static_cast<std::size_t>(node) * num_nodes_ + node];
}

std::int64_t TrafficMatrix::in_degree_bytes(NodeId node) const {
  return col_sums_.at(static_cast<std::size_t>(node)) -
         counts_[static_cast<std::size_t>(node) * num_nodes_ + node];
}

TrafficMatrix traffic_matrix(const CartesianGrid& grid, const Stencil& stencil,
                             const std::vector<NodeId>& node_of_cell, int num_nodes) {
  GRIDMAP_CHECK(static_cast<std::int64_t>(node_of_cell.size()) == grid.size(),
                "node_of_cell size must equal grid size");
  check_node_ids(node_of_cell, num_nodes);
  const StencilAdjacency& adj = EvalScratch::local().adjacency(grid, stencil);
  TrafficMatrix traffic(num_nodes);
  const std::int64_t p = grid.size();
  for (Cell u = 0; u < p; ++u) {
    const NodeId nu = node_of_cell[static_cast<std::size_t>(u)];
    adj.for_each_neighbor(u, [&](Cell v) {
      traffic.add(nu, node_of_cell[static_cast<std::size_t>(v)]);
    });
  }
  return traffic;
}

std::vector<RankFlow> rank_flows(const CartesianGrid& grid, const Stencil& stencil,
                                 const Remapping& remapping, const NodeAllocation& alloc) {
  const std::vector<NodeId> node_of_rank = alloc.node_of_all_ranks();
  const StencilAdjacency& adj = EvalScratch::local().adjacency(grid, stencil);
  std::vector<RankFlow> flows;
  flows.reserve(static_cast<std::size_t>(adj.num_edges()));
  const std::int64_t p = grid.size();
  for (Cell u = 0; u < p; ++u) {
    const Rank src = remapping.rank_of(u);
    const NodeId src_node = node_of_rank[static_cast<std::size_t>(src)];
    adj.for_each_neighbor(u, [&](Cell v) {
      const Rank dst = remapping.rank_of(v);
      flows.push_back(RankFlow{src, dst, src_node,
                               node_of_rank[static_cast<std::size_t>(dst)]});
    });
  }
  return flows;
}

}  // namespace gridmap
