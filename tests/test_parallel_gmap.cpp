// Pins the parallel multilevel gmap contract (docs/PERFORMANCE.md, "Parallel
// multilevel gmap"):
//   (1) a run on an injected ThreadPool is bit-identical to the serial
//       algorithm (no pool) for any pool size (randomized grids, 1/2/4/8
//       workers),
//   (2) cancellation is honored mid-level with parallel tasks in flight,
//   (3) the serial FM's maintained gains stay exact across passes and
//       rollbacks (the cross-pass reuse the rollback depends on), and its
//       indexed gain heap moves exactly like the lazy-deletion queue it
//       replaced (a test-only reference kept below),
//   (4) the sort-free CSR builders (induced subgraphs, coarse graphs) emit
//       the same arrays as CsrGraph::from_edges,
//   (5) the engine plumbing: plan identity across race pool sizes (gmap
//       forks onto the race pool) and gmap:* trace spans.
// Runs under TSan/ASan in CI — the parallel paths are forced onto small
// graphs via GmapOptions::parallel_min_vertices = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
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
#include "graph/coarsen.hpp"
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

/// A random sparse graph: each vertex links to a few random others, edge
/// weights 1..5, vertex weights 1 or 1..4. Built by from_edges, so it is in
/// CSR normal form like every graph the gmap stack sees.
CsrGraph random_graph(std::mt19937& rng, bool unit_vertex_weights) {
  const int n = std::uniform_int_distribution<int>(16, 120)(rng);
  std::uniform_int_distribution<int> vertex(0, n - 1);
  std::uniform_int_distribution<int> weight(1, 5);
  std::uniform_int_distribution<int> links(1, 3);
  std::vector<CsrGraph::WeightedEdge> edges;
  for (int v = 0; v < n; ++v) {
    for (int k = links(rng); k > 0; --k) {
      const int u = vertex(rng);
      if (u != v) edges.push_back({v, u, weight(rng)});
    }
  }
  std::vector<std::int64_t> vwgt(static_cast<std::size_t>(n), 1);
  if (!unit_vertex_weights) {
    for (std::int64_t& w : vwgt) w = std::uniform_int_distribution<int>(1, 4)(rng);
  }
  return CsrGraph::from_edges(n, std::move(edges), std::move(vwgt));
}

std::int64_t side0_weight(const CsrGraph& graph, const std::vector<int>& part) {
  std::int64_t weight0 = 0;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) weight0 += graph.vertex_weight(v);
  }
  return weight0;
}

// ---- test-only reference: the lazy-deletion FM loop -----------------------
// fm_refine as it was before the indexed gain heap: a std::priority_queue of
// (gain, vertex, stamp) entries, re-pushing every unlocked neighbor after a
// move and skipping stale entries on pop. The heap must reproduce its pop
// order — highest gain, then lowest vertex id — and so its moves, rollbacks
// and results exactly.
struct ReferenceFmStats {
  std::int64_t rejected = 0;     ///< pops refused by the balance limit
  std::int64_t rolled_back = 0;  ///< moves undone by the prefix rollback
};

std::int64_t reference_gain(const CsrGraph& graph, const std::vector<int>& part, int v) {
  const auto nbs = graph.neighbors(v);
  const auto wts = graph.edge_weights(v);
  std::int64_t gain = 0;
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    gain += part[static_cast<std::size_t>(nbs[i])] != part[static_cast<std::size_t>(v)]
                ? wts[i]
                : -wts[i];
  }
  return gain;
}

void reference_flip(const CsrGraph& graph, std::vector<int>& part,
                    std::vector<std::int64_t>& gain, int v) {
  part[static_cast<std::size_t>(v)] ^= 1;
  gain[static_cast<std::size_t>(v)] = -gain[static_cast<std::size_t>(v)];
  const auto nbs = graph.neighbors(v);
  const auto wts = graph.edge_weights(v);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    const int u = nbs[i];
    gain[static_cast<std::size_t>(u)] +=
        part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(v)] ? 2 * wts[i]
                                                                               : -2 * wts[i];
  }
}

std::int64_t reference_fm_refine(const CsrGraph& graph, std::vector<int>& part,
                                 std::int64_t target0, const FmOptions& options,
                                 ReferenceFmStats& stats) {
  struct QueueEntry {
    std::int64_t gain = 0;
    int vertex = -1;
    std::int64_t stamp = 0;
    bool operator<(const QueueEntry& other) const {
      return gain < other.gain || (gain == other.gain && vertex > other.vertex);
    }
  };
  const int n = graph.num_vertices();
  std::int64_t weight0 = side0_weight(graph, part);
  std::int64_t max_vertex_weight = 1;
  std::vector<std::int64_t> gain(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    max_vertex_weight = std::max(max_vertex_weight, graph.vertex_weight(v));
    gain[static_cast<std::size_t>(v)] = reference_gain(graph, part, v);
  }
  std::vector<std::int64_t> stamp(static_cast<std::size_t>(n), 0);
  std::vector<bool> locked(static_cast<std::size_t>(n));
  std::int64_t total_improvement = 0;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), false);
    std::priority_queue<QueueEntry> queue;
    for (int v = 0; v < n; ++v) {
      queue.push({gain[static_cast<std::size_t>(v)], v, stamp[static_cast<std::size_t>(v)]});
    }
    struct Move {
      int vertex;
      std::int64_t cumulative_gain;
      std::int64_t imbalance;
    };
    std::vector<Move> moves;
    std::int64_t cumulative = 0;
    while (!queue.empty()) {
      const QueueEntry top = queue.top();
      queue.pop();
      const int v = top.vertex;
      if (locked[static_cast<std::size_t>(v)] ||
          top.stamp != stamp[static_cast<std::size_t>(v)] ||
          top.gain != gain[static_cast<std::size_t>(v)]) {
        continue;
      }
      const std::int64_t w = graph.vertex_weight(v);
      const std::int64_t new_weight0 =
          part[static_cast<std::size_t>(v)] == 0 ? weight0 - w : weight0 + w;
      if (std::llabs(new_weight0 - target0) > options.slack + max_vertex_weight) {
        ++stats.rejected;
        continue;
      }
      locked[static_cast<std::size_t>(v)] = true;
      weight0 = new_weight0;
      cumulative += gain[static_cast<std::size_t>(v)];
      reference_flip(graph, part, gain, v);
      moves.push_back({v, cumulative, std::llabs(weight0 - target0)});
      for (const int u : graph.neighbors(v)) {
        if (locked[static_cast<std::size_t>(u)]) continue;
        ++stamp[static_cast<std::size_t>(u)];
        queue.push({gain[static_cast<std::size_t>(u)], u, stamp[static_cast<std::size_t>(u)]});
      }
    }
    int best_prefix = 0;
    std::int64_t best_gain = 0;
    std::int64_t best_imbalance = std::numeric_limits<std::int64_t>::max();
    for (int i = 0; i < static_cast<int>(moves.size()); ++i) {
      const Move& m = moves[static_cast<std::size_t>(i)];
      if (m.imbalance > options.slack) continue;
      if (m.cumulative_gain > best_gain ||
          (m.cumulative_gain == best_gain && m.imbalance < best_imbalance)) {
        best_gain = m.cumulative_gain;
        best_imbalance = m.imbalance;
        best_prefix = i + 1;
      }
    }
    for (int i = static_cast<int>(moves.size()) - 1; i >= best_prefix; --i) {
      const int v = moves[static_cast<std::size_t>(i)].vertex;
      const std::int64_t w = graph.vertex_weight(v);
      weight0 += part[static_cast<std::size_t>(v)] == 0 ? -w : w;
      reference_flip(graph, part, gain, v);
      ++stats.rolled_back;
    }
    total_improvement += best_gain;
    if (best_gain == 0) break;
  }
  return total_improvement;
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
    EXPECT_LE(std::llabs(side0_weight(c.graph, part) - target0), options.slack);
  }
}

TEST(ParallelFm, FullPassRollbackKeepsGainsExact) {
  // From a locally optimal split every pass's best prefix is empty, so the
  // whole move sequence rolls back — the deepest exercise of the reverse
  // deltas. verify_gains then checks the restored gains exactly, and the
  // lazy-deletion reference the same moves and result.
  const CartesianGrid grid({8, 8});
  const CsrGraph graph = build_cartesian_graph(grid, Stencil::nearest_neighbor(2));
  std::vector<int> part(64);
  for (int v = 0; v < 64; ++v) part[static_cast<std::size_t>(v)] = v % 8 < 4 ? 0 : 1;
  const std::int64_t cut_before = graph.cut(part);

  FmOptions options;
  options.max_passes = 4;
  options.slack = 1;
  options.verify_gains = true;
  std::vector<int> expected = part;
  ReferenceFmStats stats;
  const std::int64_t expected_gain = reference_fm_refine(graph, expected, 32, options, stats);
  const std::int64_t improvement = fm_refine(graph, part, 32, options);
  EXPECT_EQ(cut_before - graph.cut(part), improvement);
  EXPECT_EQ(improvement, expected_gain);
  EXPECT_EQ(part, expected);
  EXPECT_GT(stats.rolled_back, 0);
}

TEST(ParallelFm, IndexedHeapMatchesLazyDeletionReference) {
  // Random sparse graphs (few gain ties, weighted vertices that trip the
  // balance limit) and grid graphs (many gain ties, decided by vertex id),
  // each from a random start, with slack 0 and slack > 0.
  std::mt19937 rng(kSeed + 3);
  ReferenceFmStats stats;
  int cases = 0;
  for (int round = 0; round < 48; ++round) {
    const bool unit = round % 2 == 0;
    const CsrGraph graph =
        round % 4 == 3 ? random_case(rng).graph : random_graph(rng, unit);
    const int n = graph.num_vertices();
    std::vector<int> start(static_cast<std::size_t>(n));
    for (int& side : start) side = static_cast<int>(rng() % 2);
    const std::int64_t target0 = graph.total_vertex_weight() / 2;
    for (const std::int64_t slack : {std::int64_t{0}, std::int64_t{1}, std::int64_t{3}}) {
      FmOptions options;
      options.max_passes = 1 + static_cast<int>(rng() % 8);
      options.slack = slack;
      std::vector<int> expected = start;
      const std::int64_t expected_gain =
          reference_fm_refine(graph, expected, target0, options, stats);
      std::vector<int> part = start;
      const std::int64_t gain = fm_refine(graph, part, target0, options);
      EXPECT_EQ(gain, expected_gain) << "round " << round << ", slack " << slack;
      EXPECT_EQ(part, expected) << "round " << round << ", slack " << slack;
      ++cases;
    }
  }
  // The cases must reach both rules the heap has to keep.
  EXPECT_GT(stats.rejected, 0) << "no balance-rejected pop in " << cases << " cases";
  EXPECT_GT(stats.rolled_back, 0) << "no rolled-back move in " << cases << " cases";
}

TEST(CsrBuild, InducedSubgraphMatchesFromEdges) {
  std::mt19937 rng(kSeed + 4);
  for (int round = 0; round < 24; ++round) {
    const CsrGraph graph = random_graph(rng, round % 2 == 0);
    std::vector<int> vertices;
    for (int v = 0; v < graph.num_vertices(); ++v) {
      if (rng() % 3 != 0) vertices.push_back(v);
    }
    // The reference: the induced edge list through from_edges's sort.
    const int k = static_cast<int>(vertices.size());
    std::vector<int> local(static_cast<std::size_t>(graph.num_vertices()), -1);
    for (int i = 0; i < k; ++i) local[static_cast<std::size_t>(vertices[static_cast<std::size_t>(i)])] = i;
    std::vector<CsrGraph::WeightedEdge> edges;
    std::vector<std::int64_t> vwgt;
    for (int i = 0; i < k; ++i) {
      const int v = vertices[static_cast<std::size_t>(i)];
      vwgt.push_back(graph.vertex_weight(v));
      const auto nbs = graph.neighbors(v);
      const auto wts = graph.edge_weights(v);
      for (std::size_t j = 0; j < nbs.size(); ++j) {
        const int u = local[static_cast<std::size_t>(nbs[j])];
        if (u > i) edges.push_back({i, u, wts[j]});
      }
    }
    EXPECT_EQ(graph.induced_subgraph(vertices),
              CsrGraph::from_edges(k, std::move(edges), std::move(vwgt)))
        << "round " << round;
  }
  // Every vertex: the graph itself, which is why gmap's root skips the copy.
  std::mt19937 rng2(kSeed + 5);
  const CsrGraph graph = random_graph(rng2, false);
  std::vector<int> all(static_cast<std::size_t>(graph.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(graph.induced_subgraph(all), graph);
  EXPECT_THROW((void)graph.induced_subgraph(std::vector<int>{2, 1}), std::invalid_argument);
}

TEST(CsrBuild, CoarseGraphMatchesFromEdges) {
  // The coarse graph of coarsen_once, serial and range-parallel, against
  // from_edges over the contracted edge list with summed vertex weights.
  std::mt19937 rng(kSeed + 6);
  engine::ThreadPool pool(4);
  for (int round = 0; round < 24; ++round) {
    const CsrGraph graph = round % 3 == 2 ? random_case(rng).graph
                                          : random_graph(rng, round % 2 == 0);
    const std::uint64_t seed = rng();
    const CoarseLevel level = coarsen_once(graph, seed);
    const int coarse_count = level.graph.num_vertices();
    std::vector<CsrGraph::WeightedEdge> edges;
    std::vector<std::int64_t> vwgt(static_cast<std::size_t>(coarse_count), 0);
    for (int v = 0; v < graph.num_vertices(); ++v) {
      const int cv = level.fine_to_coarse[static_cast<std::size_t>(v)];
      vwgt[static_cast<std::size_t>(cv)] += graph.vertex_weight(v);
      const auto nbs = graph.neighbors(v);
      const auto wts = graph.edge_weights(v);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        const int cu = level.fine_to_coarse[static_cast<std::size_t>(nbs[i])];
        if (cv < cu) edges.push_back({cv, cu, wts[i]});
      }
    }
    EXPECT_EQ(level.graph, CsrGraph::from_edges(coarse_count, std::move(edges), std::move(vwgt)))
        << "round " << round;

    GraphParallel par;
    par.pool = &pool;
    par.min_vertices = 1;
    const CoarseLevel pooled = coarsen_once(graph, seed, ExecContext::none(), &par);
    EXPECT_EQ(pooled.fine_to_coarse, level.fine_to_coarse) << "round " << round;
    EXPECT_EQ(pooled.graph, level.graph) << "round " << round;
  }
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
