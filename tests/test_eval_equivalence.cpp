// Equivalence suite for the hot-path evaluation pass: the CSR adjacency
// path and the thread-local-arena path must both produce bit-identical
// MappingCost against the historical scalar implementation (kept compiled
// as evaluate_mapping_scalar) on randomized grids, stencils and allocations
// — including periodic wrap self-loops and duplicate neighbors.
//
// This binary also overrides global operator new/delete with a counting
// hook, pinning the zero-allocation claim: a warm-arena evaluation performs
// O(1) allocations while the scalar path allocates at least once per cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <random>
#include <vector>

#include "core/adjacency.hpp"
#include "core/dims_create.hpp"
#include "core/metrics.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook (test binary only). Thread-local so concurrent
// gtest machinery on other threads cannot skew a measurement.
namespace {
thread_local std::int64_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gridmap {
namespace {

constexpr unsigned kSeed = 20260808;

struct RandomEvalInstance {
  CartesianGrid grid;
  Stencil stencil;
  int num_nodes = 0;
  std::vector<NodeId> node_of_cell;
};

/// Random grid (1-3 dims, small), random periodicity, random stencil (paper
/// families or arbitrary offsets in [-3, 3]^d so hops can wrap or exceed a
/// dimension), and an arbitrary — not necessarily contiguous — node
/// ownership vector.
RandomEvalInstance random_eval_instance(std::mt19937& rng) {
  std::uniform_int_distribution<int> ndims_dist(1, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  const int ndims = ndims_dist(rng);

  Dims dims(static_cast<std::size_t>(ndims));
  std::uniform_int_distribution<int> dim_dist(1, ndims == 1 ? 40 : (ndims == 2 ? 12 : 6));
  for (int i = 0; i < ndims; ++i) dims[static_cast<std::size_t>(i)] = dim_dist(rng);
  std::vector<bool> periodic(static_cast<std::size_t>(ndims));
  for (int i = 0; i < ndims; ++i) periodic[static_cast<std::size_t>(i)] = coin(rng) == 1;
  CartesianGrid grid(std::move(dims), std::move(periodic));

  Stencil stencil = [&]() -> Stencil {
    switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
      case 0:
        return Stencil::nearest_neighbor(ndims);
      case 1:
        return Stencil::nearest_neighbor_with_hops(ndims);
      case 2:
        return ndims > 1 ? Stencil::component(ndims) : Stencil::nearest_neighbor(1);
      default: {
        std::uniform_int_distribution<int> component_dist(-3, 3);
        std::vector<Offset> offsets;
        for (int attempt = 0; attempt < 7; ++attempt) {
          Offset off(static_cast<std::size_t>(ndims));
          bool nonzero = false;
          for (int i = 0; i < ndims; ++i) {
            off[static_cast<std::size_t>(i)] = component_dist(rng);
            nonzero = nonzero || off[static_cast<std::size_t>(i)] != 0;
          }
          if (nonzero && std::find(offsets.begin(), offsets.end(), off) == offsets.end()) {
            offsets.push_back(std::move(off));
          }
        }
        if (offsets.empty()) return Stencil::nearest_neighbor(ndims);
        return Stencil::from_offsets(std::move(offsets));
      }
    }
  }();

  const int num_nodes = std::uniform_int_distribution<int>(1, 9)(rng);
  std::uniform_int_distribution<int> node_dist(0, num_nodes - 1);
  std::vector<NodeId> node_of_cell(static_cast<std::size_t>(grid.size()));
  for (NodeId& n : node_of_cell) n = node_dist(rng);
  return {std::move(grid), std::move(stencil), num_nodes, std::move(node_of_cell)};
}

void expect_same_cost(const MappingCost& a, const MappingCost& b, const char* what) {
  EXPECT_EQ(a.jsum, b.jsum) << what;
  EXPECT_EQ(a.jmax, b.jmax) << what;
  EXPECT_EQ(a.bottleneck, b.bottleneck) << what;
  EXPECT_EQ(a.out_edges, b.out_edges) << what;
  EXPECT_EQ(a.intra_edges, b.intra_edges) << what;
}

// ------------------------------------------------------------- adjacency --

TEST(StencilAdjacency, MatchesNeighborsOrderAndMultiset) {
  std::mt19937 rng(kSeed);
  for (int round = 0; round < 40; ++round) {
    const RandomEvalInstance inst = random_eval_instance(rng);
    const StencilAdjacency adj(inst.grid, inst.stencil);
    ASSERT_EQ(adj.num_cells(), inst.grid.size());
    EXPECT_EQ(adj.num_edges(), inst.grid.count_directed_edges(inst.stencil));
    for (Cell u = 0; u < inst.grid.size(); ++u) {
      const std::vector<Cell> expected = inst.grid.neighbors(u, inst.stencil);
      std::vector<Cell> got;
      adj.for_each_neighbor(u, [&](Cell v) { got.push_back(v); });
      ASSERT_EQ(got, expected) << "cell " << u << " round " << round;
      EXPECT_EQ(adj.degree(u), static_cast<int>(expected.size()));
    }
  }
}

TEST(StencilAdjacency, PeriodicWrapKeepsSelfLoopsAndDuplicates) {
  // dim size 2 with offsets +-1 on a periodic dimension: both offsets hit
  // the same neighbor (duplicate). dim size 1 periodic: every offset is a
  // self-loop.
  const CartesianGrid dup({2, 3}, {true, false});
  const Stencil s = Stencil::nearest_neighbor(2);
  const StencilAdjacency adj(dup, s);
  std::vector<Cell> got;
  adj.for_each_neighbor(0, [&](Cell v) { got.push_back(v); });
  EXPECT_EQ(got, dup.neighbors(0, s));

  const CartesianGrid loop({1, 4}, {true, true});
  const StencilAdjacency loop_adj(loop, s);
  std::vector<Cell> loop_got;
  loop_adj.for_each_neighbor(2, [&](Cell v) { loop_got.push_back(v); });
  EXPECT_EQ(loop_got, loop.neighbors(2, s));
  EXPECT_EQ(std::count(loop_got.begin(), loop_got.end(), Cell{2}), 2);  // +-1 wrap
}

// ----------------------------------------------------------- equivalence --

TEST(EvalEquivalence, CsrAndArenaPathsMatchScalar) {
  std::mt19937 rng(kSeed + 1);
  for (int round = 0; round < 60; ++round) {
    const RandomEvalInstance inst = random_eval_instance(rng);
    const MappingCost scalar =
        evaluate_mapping_scalar(inst.grid, inst.stencil, inst.node_of_cell, inst.num_nodes);
    const StencilAdjacency adj(inst.grid, inst.stencil);
    const MappingCost csr = evaluate_mapping(adj, inst.node_of_cell, inst.num_nodes);
    const MappingCost arena =
        evaluate_mapping(inst.grid, inst.stencil, inst.node_of_cell, inst.num_nodes);
    expect_same_cost(csr, scalar, "csr vs scalar");
    expect_same_cost(arena, scalar, "arena vs scalar");
  }
}

TEST(EvalEquivalence, RemappingOverloadMatchesScalar) {
  std::mt19937 rng(kSeed + 2);
  for (int round = 0; round < 30; ++round) {
    std::uniform_int_distribution<int> nodes_dist(1, 6);
    std::uniform_int_distribution<int> ppn_dist(1, 6);
    const int nodes = nodes_dist(rng);
    const int ppn = ppn_dist(rng);
    const std::int64_t ranks = static_cast<std::int64_t>(nodes) * ppn;
    const int ndims = std::uniform_int_distribution<int>(1, 3)(rng);
    CartesianGrid grid(dims_create(ranks, ndims));
    const Stencil stencil = Stencil::nearest_neighbor(ndims);
    const NodeAllocation alloc = NodeAllocation::homogeneous(nodes, ppn);

    std::vector<Cell> cells(static_cast<std::size_t>(ranks));
    std::iota(cells.begin(), cells.end(), Cell{0});
    std::shuffle(cells.begin(), cells.end(), rng);
    const Remapping remapping = Remapping::from_cells(grid, std::move(cells));

    const MappingCost fast = evaluate_mapping(grid, stencil, remapping, alloc);
    const MappingCost scalar = evaluate_mapping_scalar(
        grid, stencil, remapping.node_of_cell(alloc), alloc.num_nodes());
    expect_same_cost(fast, scalar, "remapping overload vs scalar");
  }
}

TEST(EvalEquivalence, TrafficMatrixCachedSumsMatchBruteForce) {
  std::mt19937 rng(kSeed + 4);
  for (int round = 0; round < 25; ++round) {
    const RandomEvalInstance inst = random_eval_instance(rng);
    const TrafficMatrix traffic =
        traffic_matrix(inst.grid, inst.stencil, inst.node_of_cell, inst.num_nodes);
    std::int64_t total = 0;
    for (NodeId a = 0; a < inst.num_nodes; ++a) {
      std::int64_t row = 0;
      std::int64_t col = 0;
      for (NodeId b = 0; b < inst.num_nodes; ++b) {
        if (b != a) {
          row += traffic.at(a, b);
          col += traffic.at(b, a);
          total += traffic.at(a, b);
        }
      }
      EXPECT_EQ(traffic.out_degree_bytes(a), row);
      EXPECT_EQ(traffic.in_degree_bytes(a), col);
    }
    EXPECT_EQ(traffic.total(), total);
    const MappingCost cost =
        evaluate_mapping_scalar(inst.grid, inst.stencil, inst.node_of_cell, inst.num_nodes);
    EXPECT_EQ(traffic.total(), cost.jsum);
  }
}

// ------------------------------------------------------ allocation counts --

TEST(EvalScratchArena, WarmEvaluationDoesNotAllocatePerCell) {
  const CartesianGrid grid({16, 16});
  const Stencil stencil = Stencil::nearest_neighbor(2);
  const int num_nodes = 8;
  std::vector<NodeId> nodes(static_cast<std::size_t>(grid.size()));
  for (std::size_t c = 0; c < nodes.size(); ++c) {
    nodes[c] = static_cast<NodeId>(c % static_cast<std::size_t>(num_nodes));
  }

  // Warm the arena (builds + caches the adjacency for this instance).
  (void)evaluate_mapping(grid, stencil, nodes, num_nodes);

  g_alloc_count = 0;
  const MappingCost warm = evaluate_mapping(grid, stencil, nodes, num_nodes);
  const std::int64_t warm_allocs = g_alloc_count;

  g_alloc_count = 0;
  const MappingCost scalar = evaluate_mapping_scalar(grid, stencil, nodes, num_nodes);
  const std::int64_t scalar_allocs = g_alloc_count;

  expect_same_cost(warm, scalar, "warm arena vs scalar");
  // Warm path: the two per-node result vectors (plus small slack for library
  // internals); nothing proportional to the cell count.
  EXPECT_LE(warm_allocs, 8);
  // Scalar path: one neighbor vector per cell.
  EXPECT_GE(scalar_allocs, grid.size());
}

TEST(EvalScratchArena, AdjacencyBuiltOncePerInstance) {
  const CartesianGrid grid({12, 12});
  const Stencil stencil = Stencil::nearest_neighbor(2);
  std::vector<NodeId> nodes(static_cast<std::size_t>(grid.size()), 0);

  EvalScratch& scratch = EvalScratch::local();
  scratch.reset();
  const std::uint64_t builds0 = scratch.adjacency_builds();
  for (int i = 0; i < 10; ++i) {
    (void)evaluate_mapping(grid, stencil, nodes, 1);
  }
  EXPECT_EQ(scratch.adjacency_builds(), builds0 + 1);

  // A different instance evicts; returning to the first rebuilds (the arena
  // caches the most recent instance, the race hot path).
  const CartesianGrid other({6, 24});
  std::vector<NodeId> other_nodes(static_cast<std::size_t>(other.size()), 0);
  (void)evaluate_mapping(other, stencil, other_nodes, 1);
  EXPECT_EQ(scratch.adjacency_builds(), builds0 + 2);
}

}  // namespace
}  // namespace gridmap
