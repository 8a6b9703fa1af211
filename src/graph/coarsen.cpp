#include "graph/coarsen.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "engine/thread_pool.hpp"
#include "obs/trace.hpp"

namespace gridmap {

namespace {

// The serial heavy-edge scan for one vertex: heaviest edge to a neighbor
// accepted by `eligible`, ties broken towards the lower vertex id. The
// comparator shape must stay identical across the serial, propose, and
// rescan call sites — the determinism proof leans on it.
template <class Eligible>
int best_neighbor(const CsrGraph& graph, int v, Eligible eligible) {
  const auto nbs = graph.neighbors(v);
  const auto wts = graph.edge_weights(v);
  int best = -1;
  std::int64_t best_weight = -1;
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    const int u = nbs[i];
    if (!eligible(u)) continue;
    if (wts[i] > best_weight || (wts[i] == best_weight && u < best)) {
      best = u;
      best_weight = wts[i];
    }
  }
  return best;
}

void match_serial(const CsrGraph& graph, const std::vector<int>& order,
                  std::vector<int>& match, ExecContext& ctx) {
  for (const int v : order) {
    ctx.checkpoint();
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    const int best =
        best_neighbor(graph, v, [&](int u) { return match[static_cast<std::size_t>(u)] < 0; });
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // stays alone
    }
  }
}

// Deterministic parallel matching: propose in parallel, commit serially.
//
// Propose: candidate[v] = v's best neighbor over *all* neighbors (match
// state ignored) — a pure per-vertex function, safe to chunk any way.
// Commit: replay the serial shuffled order; for an unmatched v whose
// candidate u is still unmatched, u dominates every neighbor of v and in
// particular every *unmatched* one under the same comparator, so taking it
// is exactly the serial greedy choice. Only when u was already claimed do
// we pay the serial rescan. Identical output to match_serial for every
// thread count.
void match_propose_commit(const CsrGraph& graph, const std::vector<int>& order,
                          std::vector<int>& match, ExecContext& ctx,
                          const GraphParallel& par) {
  const int n = graph.num_vertices();
  std::vector<int> candidate(static_cast<std::size_t>(n), -1);
  engine::parallel_ranges(par.pool, n, par.chunks(), [&](int begin, int end, int /*chunk*/) {
    ExecContext task_ctx = ctx;  // own checkpoint counter per task
    for (int v = begin; v < end; ++v) {
      task_ctx.checkpoint();
      candidate[static_cast<std::size_t>(v)] =
          best_neighbor(graph, v, [](int) { return true; });
    }
  });

  for (const int v : order) {
    ctx.checkpoint();
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    int best = candidate[static_cast<std::size_t>(v)];
    if (best >= 0 && match[static_cast<std::size_t>(best)] >= 0) {
      best = best_neighbor(graph, v,
                           [&](int u) { return match[static_cast<std::size_t>(u)] < 0; });
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;
    }
  }
}

// The coarse edge list in serial vertex order. The parallel path builds one
// buffer per contiguous vertex range and concatenates the buffers in range
// order — byte-identical to the serial single-loop emission.
std::vector<CsrGraph::WeightedEdge> build_coarse_edges(const CsrGraph& graph,
                                                       const std::vector<int>& fine_to_coarse,
                                                       ExecContext& ctx,
                                                       const GraphParallel* par) {
  const int n = graph.num_vertices();
  const auto emit_range = [&](int begin, int end, std::vector<CsrGraph::WeightedEdge>& out,
                              ExecContext& range_ctx) {
    for (int v = begin; v < end; ++v) {
      range_ctx.checkpoint();
      const auto nbs = graph.neighbors(v);
      const auto wts = graph.edge_weights(v);
      const int cv = fine_to_coarse[static_cast<std::size_t>(v)];
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        const int cu = fine_to_coarse[static_cast<std::size_t>(nbs[i])];
        if (cv < cu) out.push_back({cv, cu, wts[i]});  // each fine edge once
      }
    }
  };

  std::vector<CsrGraph::WeightedEdge> edges;
  if (par == nullptr || !par->active(n)) {
    emit_range(0, n, edges, ctx);
    return edges;
  }
  std::vector<std::vector<CsrGraph::WeightedEdge>> buffers(
      static_cast<std::size_t>(par->chunks()));
  engine::parallel_ranges(par->pool, n, par->chunks(), [&](int begin, int end, int chunk) {
    ExecContext task_ctx = ctx;
    emit_range(begin, end, buffers[static_cast<std::size_t>(chunk)], task_ctx);
  });
  std::size_t total = 0;
  for (const auto& buffer : buffers) total += buffer.size();
  edges.reserve(total);
  for (const auto& buffer : buffers) {
    edges.insert(edges.end(), buffer.begin(), buffer.end());
  }
  return edges;
}

}  // namespace

CoarseLevel coarsen_once(const CsrGraph& graph, std::uint64_t seed, ExecContext& ctx,
                         const GraphParallel* par) {
  const int n = graph.num_vertices();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<int> match(static_cast<std::size_t>(n), -1);
  if (par != nullptr && par->active(n)) {
    match_propose_commit(graph, order, match, ctx, *par);
  } else {
    match_serial(graph, order, match, ctx);
  }

  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  int coarse_count = 0;
  for (int v = 0; v < n; ++v) {
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] >= 0) continue;
    const int u = match[static_cast<std::size_t>(v)];
    level.fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
    level.fine_to_coarse[static_cast<std::size_t>(u)] = coarse_count;
    ++coarse_count;
  }

  std::vector<std::int64_t> vwgt(static_cast<std::size_t>(coarse_count), 0);
  for (int v = 0; v < n; ++v) {
    vwgt[static_cast<std::size_t>(level.fine_to_coarse[static_cast<std::size_t>(v)])] +=
        graph.vertex_weight(v);
  }
  std::vector<CsrGraph::WeightedEdge> edges =
      build_coarse_edges(graph, level.fine_to_coarse, ctx, par);
  level.graph = CsrGraph::from_edges(coarse_count, std::move(edges), std::move(vwgt));
  return level;
}

std::vector<CoarseLevel> coarsen_hierarchy(const CsrGraph& graph, int target_vertices,
                                           std::uint64_t seed, ExecContext& ctx,
                                           const GraphParallel* par,
                                           std::uint64_t trace_track) {
  obs::TraceRecorder* trace = par != nullptr ? par->trace : nullptr;
  std::vector<CoarseLevel> hierarchy;
  const CsrGraph* current = &graph;
  while (current->num_vertices() > target_vertices) {
    CoarseLevel level;
    {
      obs::SpanScope span(trace, "gmap:coarsen L" + std::to_string(hierarchy.size()),
                          "gmap", trace_track);
      level = coarsen_once(*current, seed + hierarchy.size(), ctx, par);
    }
    const int before = current->num_vertices();
    const int after = level.graph.num_vertices();
    if (after >= before || before - after < before / 10) break;  // matching stalled
    hierarchy.push_back(std::move(level));
    current = &hierarchy.back().graph;
  }
  return hierarchy;
}

}  // namespace gridmap
