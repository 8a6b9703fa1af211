#include "gmap/gmap.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "engine/thread_pool.hpp"
#include "graph/bisection.hpp"
#include "graph/cartesian_graph.hpp"
#include "obs/trace.hpp"

namespace gridmap {

namespace {

// A fresh trace track for one parallel job's spans, or 0 when tracing is off.
std::uint64_t job_track(const GraphParallel* par) {
  return par != nullptr && par->trace != nullptr && par->trace->enabled()
             ? par->trace->new_track()
             : 0;
}

}  // namespace

void GeneralGraphMapper::recursive_bisect(const CsrGraph& graph,
                                          const std::vector<int>& vertices,
                                          const std::vector<int>& part_sizes,
                                          int part_begin, int part_end, std::uint64_t seed,
                                          std::vector<int>& part_of_vertex,
                                          const GraphParallel* par, ExecContext& ctx) const {
  ctx.checkpoint();
  const int nparts = part_end - part_begin;
  if (nparts == 1) {
    for (const int v : vertices) part_of_vertex[static_cast<std::size_t>(v)] = part_begin;
    return;
  }
  const std::uint64_t track = job_track(par);
  obs::SpanScope span(track != 0 ? par->trace : nullptr,
                      track != 0 ? "gmap:bisect [" + std::to_string(part_begin) + "," +
                                       std::to_string(part_end) + ")"
                                 : std::string(),
                      "gmap", track);
  // Split the node list in the middle; side 0 receives the first half's
  // total process count.
  const int part_mid = part_begin + nparts / 2;
  std::int64_t target0 = 0;
  for (int i = part_begin; i < part_mid; ++i) {
    target0 += part_sizes[static_cast<std::size_t>(i)];
  }

  // `vertices` is ascending at every level (the root's is every vertex, and
  // the sides below are filtered in order), so the subgraph is built by
  // filtering sorted rows; at the root it is the graph itself.
  const bool root = static_cast<int>(vertices.size()) == graph.num_vertices();
  CsrGraph induced;
  if (!root) induced = graph.induced_subgraph(vertices);
  const CsrGraph& sub = root ? graph : induced;

  BisectionOptions options;
  options.target0 = target0;
  options.coarsen_target = std::max(options_.coarsen_target, 2 * nparts);
  options.initial_tries = options_.initial_tries;
  options.fm_passes = options_.fm_passes;
  options.seed = seed;
  options.exact_balance = true;
  options.par = par;
  const std::vector<int> side = multilevel_bisection(sub, options, ctx);

  std::vector<int> left;
  std::vector<int> right;
  for (int i = 0; i < static_cast<int>(side.size()); ++i) {
    if (side[static_cast<std::size_t>(i)] == 0) {
      left.push_back(vertices[static_cast<std::size_t>(i)]);
    } else {
      right.push_back(vertices[static_cast<std::size_t>(i)]);
    }
  }
  // The two subtrees are pure functions of (graph, side vertices, seed) and
  // write disjoint part_of_vertex entries, so they fork as independent
  // tasks; the caller runs the left subtree itself and helps drain the
  // group while joining (never deadlocking the shared pool, never running
  // unrelated work — see TaskGroup). Bit-identical to the serial recursion
  // by purity alone, whatever the schedule.
  if (par != nullptr && par->active(static_cast<int>(vertices.size())) && nparts > 2) {
    engine::TaskGroup group(par->pool);
    // right_ctx snapshots ctx at capture time, on this thread: an own
    // checkpoint counter with the shared deadline/token. Copying inside the
    // task would read ctx while this thread's recursion checkpoints it.
    group.run([&, seed, right_ctx = ctx]() mutable {
      recursive_bisect(graph, right, part_sizes, part_mid, part_end, seed * 2 + 2,
                       part_of_vertex, par, right_ctx);
    });
    ExecContext left_ctx = ctx;
    recursive_bisect(graph, left, part_sizes, part_begin, part_mid, seed * 2 + 1,
                     part_of_vertex, par, left_ctx);
    group.wait();
  } else {
    recursive_bisect(graph, left, part_sizes, part_begin, part_mid, seed * 2 + 1,
                     part_of_vertex, par, ctx);
    recursive_bisect(graph, right, part_sizes, part_mid, part_end, seed * 2 + 2,
                     part_of_vertex, par, ctx);
  }
}

std::int64_t GeneralGraphMapper::local_search(const CsrGraph& graph,
                                              std::vector<int>& part,
                                              ExecContext& ctx) const {
  // Randomized pairwise-swap local search over connected vertex pairs (the
  // largest search neighborhood of the paper's VieM configuration). A swap
  // preserves all part sizes, so balance is maintained by construction.
  const int n = graph.num_vertices();
  std::vector<std::pair<int, int>> candidate_edges;
  for (int v = 0; v < n; ++v) {
    for (const int u : graph.neighbors(v)) {
      if (u > v) candidate_edges.push_back({v, u});
    }
  }
  std::mt19937_64 rng(options_.seed ^ 0xc2b2ae3d27d4eb4fULL);
  std::int64_t total_gain = 0;

  const auto swap_gain = [&](int u, int v) {
    // Gain (cut decrease) of exchanging the parts of u and v.
    const int pu = part[static_cast<std::size_t>(u)];
    const int pv = part[static_cast<std::size_t>(v)];
    std::int64_t gain = 0;
    const auto nu = graph.neighbors(u);
    const auto wu = graph.edge_weights(u);
    for (std::size_t i = 0; i < nu.size(); ++i) {
      const int w = nu[i];
      if (w == v) continue;  // the connecting edge stays cut either way
      const int pw = part[static_cast<std::size_t>(w)];
      gain += wu[i] * ((pw != pu ? 1 : 0) - (pw != pv ? 1 : 0));
    }
    const auto nv = graph.neighbors(v);
    const auto wv = graph.edge_weights(v);
    for (std::size_t i = 0; i < nv.size(); ++i) {
      const int w = nv[i];
      if (w == u) continue;
      const int pw = part[static_cast<std::size_t>(w)];
      gain += wv[i] * ((pw != pv ? 1 : 0) - (pw != pu ? 1 : 0));
    }
    return gain;
  };

  for (int sweep = 0; sweep < options_.local_search_sweeps; ++sweep) {
    std::shuffle(candidate_edges.begin(), candidate_edges.end(), rng);
    std::int64_t sweep_gain = 0;
    for (const auto& [u, v] : candidate_edges) {
      ctx.checkpoint();
      if (part[static_cast<std::size_t>(u)] == part[static_cast<std::size_t>(v)]) continue;
      const std::int64_t gain = swap_gain(u, v);
      if (gain > 0) {
        std::swap(part[static_cast<std::size_t>(u)], part[static_cast<std::size_t>(v)]);
        sweep_gain += gain;
      }
    }
    total_gain += sweep_gain;
    if (sweep_gain == 0) break;
  }
  return total_gain;
}

std::vector<int> GeneralGraphMapper::map_graph(const CsrGraph& graph,
                                               const std::vector<int>& part_sizes,
                                               ExecContext& ctx) const {
  const std::int64_t total =
      std::accumulate(part_sizes.begin(), part_sizes.end(), std::int64_t{0});
  GRIDMAP_CHECK(total == graph.num_vertices(),
                "part sizes must sum to the number of vertices");
  for (int v = 0; v < graph.num_vertices(); ++v) {
    GRIDMAP_CHECK(graph.vertex_weight(v) == 1,
                  "map_graph balances vertex counts: vertex weights must be 1");
  }
  std::vector<int> vertices(static_cast<std::size_t>(graph.num_vertices()));
  std::iota(vertices.begin(), vertices.end(), 0);

  GraphParallel par;
  par.pool = pool_;
  par.min_vertices = options_.parallel_min_vertices;
  par.trace = trace_;
  const GraphParallel* par_ptr = par.threads() > 1 ? &par : nullptr;

  // Restarts are pure functions of (graph, part_sizes, restart seed); the
  // serial loop's first-strict-minimum winner is reproduced by reducing
  // the completed results in restart order.
  const int restarts = std::max(1, options_.restarts);
  const int nparts = static_cast<int>(part_sizes.size());
  const auto run_restart = [&](int restart, ExecContext& restart_ctx) {
    const std::uint64_t track = job_track(par_ptr);
    obs::SpanScope span(track != 0 ? par.trace : nullptr,
                        track != 0 ? "gmap:restart " + std::to_string(restart)
                                   : std::string(),
                        "gmap", track);
    std::vector<int> part_of_vertex(static_cast<std::size_t>(graph.num_vertices()), -1);
    recursive_bisect(graph, vertices, part_sizes, 0, nparts,
                     options_.seed + static_cast<std::uint64_t>(restart) * 7919,
                     part_of_vertex, par_ptr, restart_ctx);
    local_search(graph, part_of_vertex, restart_ctx);
    return part_of_vertex;
  };

  std::vector<std::vector<int>> results(static_cast<std::size_t>(restarts));
  if (par_ptr != nullptr && restarts > 1 && par_ptr->active(graph.num_vertices())) {
    engine::TaskGroup group(par.pool);
    for (int restart = 1; restart < restarts; ++restart) {
      // Snapshot ctx at capture time: run_restart(0, ctx) below bumps the
      // parent's checkpoint counter while these tasks run.
      group.run([&, restart, restart_ctx = ctx]() mutable {
        results[static_cast<std::size_t>(restart)] = run_restart(restart, restart_ctx);
      });
    }
    results[0] = run_restart(0, ctx);
    group.wait();
  } else {
    for (int restart = 0; restart < restarts; ++restart) {
      ctx.checkpoint();
      results[static_cast<std::size_t>(restart)] = run_restart(restart, ctx);
    }
  }

  std::vector<int> best;
  std::int64_t best_cut = -1;
  for (int restart = 0; restart < restarts; ++restart) {
    const std::int64_t cut = graph.cut(results[static_cast<std::size_t>(restart)]);
    if (best_cut < 0 || cut < best_cut) {
      best_cut = cut;
      best = std::move(results[static_cast<std::size_t>(restart)]);
    }
  }
  return best;
}

Remapping GeneralGraphMapper::remap(const CartesianGrid& grid, const Stencil& stencil,
                                    const NodeAllocation& alloc, ExecContext& ctx) const {
  GRIDMAP_CHECK(applicable(grid, stencil, alloc),
                "mapper not applicable to this instance");
  const CsrGraph graph = build_cartesian_graph(grid, stencil);
  const std::vector<int> node_of_cell = map_graph(graph, alloc.sizes(), ctx);

  // Convert the cell->node assignment into a rank->cell permutation that
  // respects the blocked allocation: node i's cells are filled by node i's
  // ranks in order.
  std::vector<Cell> cell_of_rank(static_cast<std::size_t>(grid.size()));
  std::vector<Rank> next_rank(static_cast<std::size_t>(alloc.num_nodes()));
  for (NodeId node = 0; node < alloc.num_nodes(); ++node) {
    next_rank[static_cast<std::size_t>(node)] = alloc.first_rank(node);
  }
  for (Cell c = 0; c < grid.size(); ++c) {
    const NodeId node = node_of_cell[static_cast<std::size_t>(c)];
    cell_of_rank[static_cast<std::size_t>(next_rank[static_cast<std::size_t>(node)]++)] = c;
  }
  return Remapping::from_cells(grid, std::move(cell_of_rank));
}

}  // namespace gridmap
