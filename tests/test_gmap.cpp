#include <gtest/gtest.h>

#include <numeric>

#include "core/metrics.hpp"
#include "gmap/gmap.hpp"
#include "graph/cartesian_graph.hpp"

namespace gridmap {
namespace {

TEST(Gmap, PartSizesAreExact) {
  const CartesianGrid grid({8, 6});
  const CsrGraph g = build_cartesian_graph(grid, Stencil::nearest_neighbor(2));
  const GeneralGraphMapper mapper(GmapOptions::fast());
  const std::vector<int> sizes = {10, 14, 24};
  const std::vector<int> part = mapper.map_graph(g, sizes);
  std::vector<int> counts(3, 0);
  for (const int p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 3);
    ++counts[static_cast<std::size_t>(p)];
  }
  EXPECT_EQ(counts[0], 10);
  EXPECT_EQ(counts[1], 14);
  EXPECT_EQ(counts[2], 24);
}

TEST(Gmap, RejectsMismatchedSizes) {
  const CartesianGrid grid({4, 4});
  const CsrGraph g = build_cartesian_graph(grid, Stencil::nearest_neighbor(2));
  const GeneralGraphMapper mapper(GmapOptions::fast());
  EXPECT_THROW(mapper.map_graph(g, {8, 9}), std::invalid_argument);
}

TEST(Gmap, RejectsWeightedVertices) {
  // Part sizes are vertex counts; a vertex weight other than 1 has no meaning.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}, {1, 2, 1, 1});
  const GeneralGraphMapper mapper(GmapOptions::fast());
  EXPECT_THROW(mapper.map_graph(g, {2, 2}), std::invalid_argument);
}

TEST(Gmap, RemappingRespectsAllocation) {
  const CartesianGrid grid({8, 6});
  const NodeAllocation alloc({12, 12, 24});
  const Stencil s = Stencil::nearest_neighbor(2);
  const GeneralGraphMapper mapper(GmapOptions::fast());
  const Remapping m = mapper.remap(grid, s, alloc);
  const std::vector<NodeId> node_of_cell = m.node_of_cell(alloc);
  std::vector<int> counts(3, 0);
  for (const NodeId n : node_of_cell) ++counts[static_cast<std::size_t>(n)];
  EXPECT_EQ(counts, (std::vector<int>{12, 12, 24}));
}

TEST(Gmap, QualityBeatsBlockedClearly) {
  const CartesianGrid grid({20, 12});
  const NodeAllocation alloc = NodeAllocation::homogeneous(10, 24);
  const Stencil s = Stencil::nearest_neighbor(2);
  const GeneralGraphMapper mapper(GmapOptions::fast());
  const MappingCost gm = evaluate_mapping(grid, s, mapper.remap(grid, s, alloc), alloc);
  const MappingCost blocked =
      evaluate_mapping(grid, s, Remapping::identity(grid), alloc);
  EXPECT_LT(gm.jsum, blocked.jsum);
}

TEST(Gmap, DeterministicPerSeed) {
  const CartesianGrid grid({10, 8});
  const NodeAllocation alloc = NodeAllocation::homogeneous(4, 20);
  const Stencil s = Stencil::nearest_neighbor(2);
  GmapOptions o = GmapOptions::fast();
  o.seed = 99;
  const GeneralGraphMapper a(o);
  const GeneralGraphMapper b(o);
  EXPECT_EQ(a.remap(grid, s, alloc), b.remap(grid, s, alloc));
}

TEST(Gmap, MoreRestartsNeverHurt) {
  const CartesianGrid grid({12, 10});
  const NodeAllocation alloc = NodeAllocation::homogeneous(6, 20);
  const Stencil s = Stencil::nearest_neighbor(2);
  GmapOptions weak = GmapOptions::fast();
  GmapOptions strong = GmapOptions::fast();
  strong.restarts = 6;
  const MappingCost a = evaluate_mapping(
      grid, s, GeneralGraphMapper(weak).remap(grid, s, alloc), alloc);
  const MappingCost b = evaluate_mapping(
      grid, s, GeneralGraphMapper(strong).remap(grid, s, alloc), alloc);
  EXPECT_LE(b.jsum, a.jsum);
}

TEST(Gmap, HandlesDisconnectedGraph) {
  // Component stencil: columns are disconnected from each other.
  const CartesianGrid grid({6, 4});
  const NodeAllocation alloc = NodeAllocation::homogeneous(4, 6);
  const Stencil s = Stencil::component(2);
  const GeneralGraphMapper mapper(GmapOptions::fast());
  const MappingCost cost = evaluate_mapping(grid, s, mapper.remap(grid, s, alloc), alloc);
  // Each node can own exactly one column: optimal cut 0.
  EXPECT_EQ(cost.jsum, 0);
}

}  // namespace
}  // namespace gridmap
