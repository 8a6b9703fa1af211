// Pins the parallel multilevel gmap contract (docs/PERFORMANCE.md, "Parallel
// multilevel gmap"):
//   (1) a run on an injected ThreadPool is bit-identical to the serial
//       algorithm (no pool) for any pool size (randomized grids, 1/2/4/8
//       workers),
//   (2) cancellation is honored mid-level with parallel tasks in flight,
//   (3) the serial FM's maintained gains stay exact across passes and
//       rollbacks (the cross-pass reuse the rollback depends on),
//   (4) the engine plumbing: plan identity across race pool sizes (gmap
//       forks onto the race pool) and gmap:* trace spans.
// Runs under TSan/ASan in CI — the parallel paths are forced onto small
// graphs via GmapOptions::parallel_min_vertices = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/dims_create.hpp"
#include "engine/portfolio.hpp"
#include "engine/registry.hpp"
#include "engine/telemetry.hpp"
#include "engine/thread_pool.hpp"
#include "gmap/gmap.hpp"
#include "graph/cartesian_graph.hpp"
#include "graph/fm_refine.hpp"
#include "obs/trace.hpp"

namespace gridmap {
namespace {

constexpr unsigned kSeed = 20260808;

/// A parallel-friendly configuration: cheap enough for a test, with the
/// size gate lowered so even small graphs take the parallel code paths.
GmapOptions parallel_options(std::uint64_t seed) {
  GmapOptions o = GmapOptions::fast();
  o.restarts = 2;
  o.initial_tries = 3;
  o.local_search_sweeps = 4;
  o.seed = seed;
  o.parallel_min_vertices = 1;
  return o;
}

/// A mapper forking onto `pool` (null = serial).
GeneralGraphMapper pooled_mapper(const GmapOptions& options, engine::ThreadPool* pool) {
  GeneralGraphMapper mapper(options);
  mapper.configure_execution(pool, nullptr);
  return mapper;
}

/// Random 2-d grid graph plus part sizes that sum to its vertex count.
struct RandomCase {
  CsrGraph graph;
  std::vector<int> sizes;
};

RandomCase random_case(std::mt19937& rng) {
  std::uniform_int_distribution<int> dim_dist(6, 12);
  std::uniform_int_distribution<int> parts_dist(3, 6);
  const int rows = dim_dist(rng);
  const int cols = dim_dist(rng);
  const CartesianGrid grid({rows, cols});
  RandomCase c{build_cartesian_graph(grid, Stencil::nearest_neighbor(2)), {}};
  const int nparts = parts_dist(rng);
  const int n = rows * cols;
  c.sizes.assign(static_cast<std::size_t>(nparts), n / nparts);
  for (int i = 0; i < n % nparts; ++i) ++c.sizes[static_cast<std::size_t>(i)];
  return c;
}

TEST(ParallelGmap, PooledRunsBitIdenticalToSerial) {
  std::mt19937 rng(kSeed);
  for (int round = 0; round < 4; ++round) {
    const RandomCase c = random_case(rng);
    const GmapOptions options = parallel_options(rng());
    const std::vector<int> serial = GeneralGraphMapper(options).map_graph(c.graph, c.sizes);
    for (const int workers : {1, 2, 4, 8}) {
      engine::ThreadPool pool(workers);
      const std::vector<int> parallel =
          pooled_mapper(options, &pool).map_graph(c.graph, c.sizes);
      EXPECT_EQ(parallel, serial) << "round " << round << ", " << workers << " workers";
    }
  }
}

TEST(ParallelGmap, PooledRemapMatchesSerialMapper) {
  const CartesianGrid grid({10, 8});
  const NodeAllocation alloc = NodeAllocation::homogeneous(8, 10);
  const Stencil s = Stencil::nearest_neighbor(2);
  engine::ThreadPool pool(4);
  const GeneralGraphMapper serial(parallel_options(7));
  EXPECT_EQ(serial.remap(grid, s, alloc),
            pooled_mapper(parallel_options(7), &pool).remap(grid, s, alloc));
}

TEST(ParallelGmap, CancellationHonoredWithParallelTasksInFlight) {
  const CartesianGrid grid({12, 12});
  const CsrGraph graph = build_cartesian_graph(grid, Stencil::nearest_neighbor(2));
  const std::vector<int> sizes(6, 24);
  engine::ThreadPool pool(4);
  const GeneralGraphMapper mapper = pooled_mapper(parallel_options(3), &pool);

  CancelSource cancel;
  cancel.cancel();
  ExecContext cancelled = ExecContext::with_token(cancel.token());
  EXPECT_THROW((void)mapper.map_graph(graph, sizes, cancelled), CancelledError);

  ExecContext expired = ExecContext::with_deadline(std::chrono::nanoseconds{0});
  EXPECT_THROW((void)mapper.map_graph(graph, sizes, expired), CancelledError);
}

TEST(ParallelFm, MaintainedGainsStayExactAcrossPassesAndRollbacks) {
  // verify_gains recomputes every gain at each pass boundary and after the
  // final rollback, throwing if the maintained values drifted — the pin for
  // the cross-pass gain reuse (an aborted pass un-applies its suffix deltas
  // instead of recomputing).
  std::mt19937 rng(kSeed + 2);
  for (int round = 0; round < 6; ++round) {
    const RandomCase c = random_case(rng);
    const int n = c.graph.num_vertices();
    std::vector<int> part(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) part[static_cast<std::size_t>(v)] = v % 2;
    std::shuffle(part.begin(), part.end(), rng);
    const std::int64_t target0 =
        static_cast<std::int64_t>(std::count(part.begin(), part.end(), 0));

    FmOptions options;
    options.max_passes = 6;
    options.slack = 1;
    options.verify_gains = true;
    const std::int64_t cut_before = c.graph.cut(part);
    const std::int64_t improvement =
        fm_refine(c.graph, part, target0, options);  // throws on gain drift
    EXPECT_GE(improvement, 0);
    EXPECT_EQ(cut_before - c.graph.cut(part), improvement);
    std::int64_t weight0 = 0;
    for (int v = 0; v < n; ++v) {
      if (part[static_cast<std::size_t>(v)] == 0) weight0 += c.graph.vertex_weight(v);
    }
    EXPECT_LE(std::llabs(weight0 - target0), options.slack);
  }
}

TEST(ParallelFm, FullPassRollbackKeepsGainsExact) {
  // From a locally optimal split every pass's best prefix is empty, so the
  // whole move sequence rolls back — the deepest exercise of the reverse
  // deltas. verify_gains then checks the restored gains exactly.
  const CartesianGrid grid({8, 8});
  const CsrGraph graph = build_cartesian_graph(grid, Stencil::nearest_neighbor(2));
  std::vector<int> part(64);
  for (int v = 0; v < 64; ++v) part[static_cast<std::size_t>(v)] = v % 8 < 4 ? 0 : 1;
  const std::int64_t cut_before = graph.cut(part);

  FmOptions options;
  options.max_passes = 4;
  options.slack = 1;
  options.verify_gains = true;
  const std::int64_t improvement = fm_refine(graph, part, 32, options);
  EXPECT_EQ(cut_before - graph.cut(part), improvement);
}

TEST(ParallelGmap, EnginePlansIdenticalAcrossRaceThreads) {
  const NodeAllocation alloc = NodeAllocation::homogeneous(6, 8);
  const CartesianGrid grid(dims_create(alloc.total(), 2));
  const Stencil s = Stencil::nearest_neighbor(2);

  // viem alone, so the plan is gmap's own output whatever would win a race.
  const GmapOptions gmap = parallel_options(11);
  const auto plan_with = [&](int race_threads) {
    engine::MapperRegistry registry;
    registry.add("viem", [gmap] { return std::make_unique<GeneralGraphMapper>(gmap); });
    engine::EngineOptions options;
    options.threads = race_threads;
    engine::PortfolioEngine engine(std::move(registry), options);
    return *engine.map(grid, s, alloc);
  };

  const engine::MappingPlan serial = plan_with(1);  // no pool: gmap runs serially
  EXPECT_EQ(plan_with(2), serial);                  // gmap forks onto the race pool
  EXPECT_EQ(plan_with(4), serial);
}

TEST(ParallelGmap, TracingRecordsGmapSpans) {
  GmapOptions gmap = parallel_options(5);
  gmap.coarsen_target = 8;  // force a real hierarchy on 48 cells
  engine::MapperRegistry registry;
  registry.add("viem", [gmap] { return std::make_unique<GeneralGraphMapper>(gmap); });

  engine::EngineOptions options;
  options.threads = 2;
  options.obs.trace = true;
  options.obs.trace_capacity = 4096;
  engine::PortfolioEngine engine(std::move(registry), options);

  const NodeAllocation alloc = NodeAllocation::homogeneous(6, 8);
  const CartesianGrid grid(dims_create(alloc.total(), 2));
  (void)engine.map(grid, Stencil::nearest_neighbor(2), alloc);

  ASSERT_NE(engine.telemetry(), nullptr);
  const std::vector<obs::TraceSpan> spans = engine.telemetry()->trace().spans();
  const auto has_prefix = [&spans](const std::string& prefix) {
    for (const obs::TraceSpan& span : spans) {
      if (span.name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix("gmap:restart"));
  EXPECT_TRUE(has_prefix("gmap:bisect [0,6)"));
  EXPECT_TRUE(has_prefix("gmap:coarsen L0"));
  EXPECT_TRUE(has_prefix("gmap:initial"));
  EXPECT_TRUE(has_prefix("gmap:refine L"));
}

}  // namespace
}  // namespace gridmap
