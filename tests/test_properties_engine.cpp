// Property-style invariant harness for the portfolio engine: for randomized
// instances (seeded RNG, reproducible), every plan the engine produces must
//   (1) be a valid permutation of the grid cells,
//   (2) respect the allocation (exactly alloc.total() == grid.size() ranks),
//   (3) report exactly the jsum/jmax that `metrics` recomputes from scratch,
// and the same invariants must hold for every registered backend's own
// result inside the race. See tests/README.md for how to add invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/dims_create.hpp"
#include "core/metrics.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"

namespace gridmap::engine {
namespace {

/// One fixed seed: failures reproduce exactly; bump kRounds locally for a
/// longer soak.
constexpr unsigned kSeed = 20260730;
constexpr int kRounds = 18;

struct RandomInstance {
  Instance instance;
  std::string description;
};

/// Draws a random but always-valid instance: balanced grid over nodes*ppn
/// ranks, one of the paper's stencil families (or a random offset set),
/// homogeneous or perturbed-heterogeneous allocation, random periodicity.
RandomInstance random_instance(std::mt19937& rng) {
  std::uniform_int_distribution<int> ndims_dist(1, 3);
  std::uniform_int_distribution<int> nodes_dist(2, 8);
  std::uniform_int_distribution<int> ppn_dist(2, 8);
  std::uniform_int_distribution<int> stencil_dist(0, 3);
  std::uniform_int_distribution<int> coin(0, 1);

  const int ndims = ndims_dist(rng);
  const int nodes = nodes_dist(rng);
  const int ppn = ppn_dist(rng);
  const std::int64_t ranks = static_cast<std::int64_t>(nodes) * ppn;

  Dims dims = dims_create(ranks, ndims);
  std::vector<bool> periodic(static_cast<std::size_t>(ndims));
  for (int i = 0; i < ndims; ++i) periodic[static_cast<std::size_t>(i)] = coin(rng) == 1;

  Stencil stencil = [&]() -> Stencil {
    switch (stencil_dist(rng)) {
      case 0:
        return Stencil::nearest_neighbor(ndims);
      case 1:
        return Stencil::nearest_neighbor_with_hops(ndims);
      case 2:
        // component(1) is empty (no offsets); keep the harness on non-empty
        // stencils — the empty-stencil edge has its own coverage in
        // test_stencil / test_integration.
        return ndims > 1 ? Stencil::component(ndims) : Stencil::nearest_neighbor(1);
      default: {
        // Random offset set: up to 6 distinct non-zero offsets in [-2, 2]^d.
        std::uniform_int_distribution<int> component_dist(-2, 2);
        std::vector<Offset> offsets;
        for (int attempt = 0; attempt < 6; ++attempt) {
          Offset offset(static_cast<std::size_t>(ndims));
          bool nonzero = false;
          for (int i = 0; i < ndims; ++i) {
            offset[static_cast<std::size_t>(i)] = component_dist(rng);
            nonzero = nonzero || offset[static_cast<std::size_t>(i)] != 0;
          }
          if (nonzero && std::find(offsets.begin(), offsets.end(), offset) == offsets.end()) {
            offsets.push_back(std::move(offset));
          }
        }
        if (offsets.empty()) return Stencil::nearest_neighbor(ndims);
        return Stencil::from_offsets(std::move(offsets));
      }
    }
  }();

  NodeAllocation alloc = [&]() -> NodeAllocation {
    if (coin(rng) == 0 || nodes < 2) return NodeAllocation::homogeneous(nodes, ppn);
    // Heterogeneous: move processes between node pairs, keeping the total
    // and every size positive.
    std::vector<int> sizes(static_cast<std::size_t>(nodes), ppn);
    std::uniform_int_distribution<int> shift_dist(1, std::max(1, ppn - 1));
    for (int pair = 0; pair + 1 < nodes; pair += 2) {
      const int shift = shift_dist(rng);
      sizes[static_cast<std::size_t>(pair)] += shift;
      sizes[static_cast<std::size_t>(pair + 1)] -= shift;
    }
    return NodeAllocation(std::move(sizes));
  }();

  std::string description = "g";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    description += (i ? "x" : "") + std::to_string(dims[i]);
  }
  description += " " + stencil.canonical_signature() + " " + alloc.canonical_signature();
  return {{CartesianGrid(std::move(dims), std::move(periodic)), std::move(stencil),
           std::move(alloc)},
          std::move(description)};
}

/// Invariant (1): cell_of_rank is a permutation of [0, grid.size()).
void expect_valid_permutation(const std::vector<Cell>& cell_of_rank,
                              const CartesianGrid& grid, const std::string& what) {
  ASSERT_EQ(cell_of_rank.size(), static_cast<std::size_t>(grid.size())) << what;
  std::vector<Cell> sorted = cell_of_rank;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], static_cast<Cell>(i)) << what << ": not a permutation";
  }
}

TEST(EngineProperties, EveryPlanIsAValidScoredPermutation) {
  std::mt19937 rng(kSeed);
  EngineOptions options;
  options.threads = 4;
  PortfolioEngine engine(MapperRegistry::with_default_backends(), options);

  for (int round = 0; round < kRounds; ++round) {
    const RandomInstance ri = random_instance(rng);
    const auto& [grid, stencil, alloc] = ri.instance;
    SCOPED_TRACE(ri.description);

    const auto plan = engine.map(grid, stencil, alloc);
    ASSERT_NE(plan, nullptr);

    // (1) + (2): permutation over the grid, one cell per allocated rank.
    expect_valid_permutation(plan->cell_of_rank, grid, ri.description);
    EXPECT_EQ(static_cast<std::int64_t>(plan->cell_of_rank.size()), alloc.total());

    // to_remapping performs its own bijection validation; it must agree.
    const Remapping remapping = plan->to_remapping(grid);

    // (3): the engine-reported score is exactly what metrics recomputes.
    const MappingCost recomputed = evaluate_mapping(grid, stencil, remapping, alloc);
    EXPECT_EQ(plan->jsum, recomputed.jsum) << ri.description;
    EXPECT_EQ(plan->jmax, recomputed.jmax) << ri.description;
  }
}

TEST(EngineProperties, EveryBackendResultSatisfiesTheInvariants) {
  std::mt19937 rng(kSeed + 1);
  EngineOptions options;
  options.threads = 4;
  PortfolioEngine engine(MapperRegistry::with_default_backends(), options);

  for (int round = 0; round < kRounds / 2; ++round) {
    const RandomInstance ri = random_instance(rng);
    const auto& [grid, stencil, alloc] = ri.instance;
    SCOPED_TRACE(ri.description);

    const auto results = engine.evaluate_all(grid, stencil, alloc);
    ASSERT_EQ(results.size(), engine.registry().size());
    int usable = 0;
    for (const BackendResult& r : results) {
      ASSERT_FALSE(r.failed) << r.name << ": " << r.error << " (" << ri.description << ")";
      if (!r.usable()) continue;
      ++usable;
      expect_valid_permutation(r.remapping->cell_of_rank(), grid, r.name);
      const MappingCost recomputed = evaluate_mapping(grid, stencil, *r.remapping, alloc);
      EXPECT_EQ(r.cost.jsum, recomputed.jsum) << r.name;
      EXPECT_EQ(r.cost.jmax, recomputed.jmax) << r.name;
    }
    ASSERT_GT(usable, 0) << ri.description;

    // The declared winner is never strictly beaten by any usable result.
    const int winner = select_winner(options.objective, results);
    ASSERT_GE(winner, 0);
    for (const BackendResult& r : results) {
      if (!r.usable()) continue;
      EXPECT_FALSE(better(options.objective, r.cost,
                          results[static_cast<std::size_t>(winner)].cost))
          << r.name << " strictly beats the declared winner (" << ri.description << ")";
    }
  }
}

TEST(EngineProperties, AdaptiveSelectionPreservesTheInvariants) {
  // Same invariants with pruning + adaptive budgets live: whatever the
  // selector does, a returned plan is still a valid, correctly scored
  // permutation.
  std::mt19937 rng(kSeed + 2);
  EngineOptions options;
  options.threads = 4;
  options.max_backends = 3;
  options.adaptive_budgets = true;
  options.cache_capacity = 0;  // re-race repeated shapes, exercising pruning
  PortfolioEngine engine(MapperRegistry::with_default_backends(), options);

  for (int round = 0; round < kRounds; ++round) {
    const RandomInstance ri = random_instance(rng);
    const auto& [grid, stencil, alloc] = ri.instance;
    SCOPED_TRACE(ri.description);

    const auto plan = engine.map(grid, stencil, alloc);
    ASSERT_NE(plan, nullptr);
    expect_valid_permutation(plan->cell_of_rank, grid, ri.description);
    const MappingCost recomputed =
        evaluate_mapping(grid, stencil, plan->to_remapping(grid), alloc);
    EXPECT_EQ(plan->jsum, recomputed.jsum) << ri.description;
    EXPECT_EQ(plan->jmax, recomputed.jmax) << ri.description;
  }
  EXPECT_FALSE(engine.history().empty());
}

// ------------------------------------------------- applicable() guard sweep --

TEST(EngineProperties, EveryBackendRejectsMismatchedInstances) {
  // Sweep: every registered backend must (a) report !applicable on a grid /
  // allocation size mismatch and on a stencil dimensionality mismatch, and
  // (b) refuse to remap such instances with an exception rather than
  // produce garbage. This is the engine's first line of defense — a silent
  // acceptance would mean an invalid plan.
  const MapperRegistry registry = MapperRegistry::with_default_backends();
  const CartesianGrid grid({4, 4});
  const NodeAllocation matching = NodeAllocation::homogeneous(4, 4);
  const NodeAllocation too_small = NodeAllocation::homogeneous(3, 4);  // 12 != 16
  const Stencil wrong_ndims = Stencil::nearest_neighbor(3);

  for (const std::string& name : registry.names()) {
    const std::unique_ptr<Mapper> mapper = registry.create(name);
    EXPECT_FALSE(mapper->applicable(grid, Stencil::nearest_neighbor(2), too_small))
        << name << " accepts a size-mismatched allocation";
    EXPECT_FALSE(mapper->applicable(grid, wrong_ndims, matching))
        << name << " accepts a dimensionality-mismatched stencil";
    EXPECT_THROW((void)mapper->remap(grid, Stencil::nearest_neighbor(2), too_small),
                 std::invalid_argument)
        << name << " remaps a size-mismatched instance";
  }
}

TEST(EngineProperties, BackendSpecificApplicableGuardsHold) {
  // The three backends with guards beyond the base check, pinned by name so
  // a future regression is attributed immediately (see also test_sfc,
  // test_nodecart, test_hierarchical for the per-algorithm detail).
  const MapperRegistry registry = MapperRegistry::with_default_backends();
  const Stencil s = Stencil::nearest_neighbor(2);

  // hilbert: 2-d only; morton: any dimensionality.
  const CartesianGrid cube({4, 4, 4});
  const NodeAllocation cube_alloc = NodeAllocation::homogeneous(8, 8);
  EXPECT_FALSE(registry.create("hilbert")->applicable(cube, Stencil::nearest_neighbor(3),
                                                      cube_alloc));
  EXPECT_TRUE(registry.create("morton")->applicable(cube, Stencil::nearest_neighbor(3),
                                                    cube_alloc));

  // nodecart: homogeneous allocations only.
  const CartesianGrid grid({6, 4});
  EXPECT_FALSE(registry.create("nodecart")->applicable(grid, s, NodeAllocation({9, 5, 5, 5})));
  EXPECT_TRUE(registry.create("nodecart")->applicable(grid, s,
                                                      NodeAllocation::homogeneous(4, 6)));

  // socket-aware hierarchical: node sizes must split into 2 sockets.
  EXPECT_FALSE(registry.create("kdtree+sockets")
                   ->applicable(grid, s, NodeAllocation({9, 5, 5, 5})));  // odd sizes
  EXPECT_TRUE(registry.create("kdtree+sockets")
                  ->applicable(grid, s, NodeAllocation::homogeneous(4, 6)));
}

}  // namespace
}  // namespace gridmap::engine
