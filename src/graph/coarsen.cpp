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

// The coarse graph, built row by row in from_edges's normal form. Coarse
// vertex c's row merges the neighbor rows of its one or two members
// (members[2c] and members[2c + 1], equal for a vertex left alone) mapped
// through fine_to_coarse: each coarse neighbor other than c is
// insertion-sorted into that short row, and a repeated one adds its weight.
// This replaces a global O(m log m) edge sort. The parallel path builds
// contiguous coarse-vertex ranges into per-range buffers and concatenates
// them in range order — byte-identical to the serial single-range build.
CsrGraph build_coarse_graph(const CsrGraph& graph, const std::vector<int>& fine_to_coarse,
                            const std::vector<int>& members,
                            std::vector<std::int64_t> vwgt, ExecContext& ctx,
                            const GraphParallel* par) {
  struct Rows {
    std::vector<std::int64_t> row_end;  ///< end of each row within adjncy
    std::vector<int> adjncy;
    std::vector<std::int64_t> adjwgt;
  };
  const auto emit_range = [&](int begin, int end, Rows& out, ExecContext& range_ctx) {
    std::int64_t arcs_bound = 0;  // every coarse arc comes from a fine arc
    for (std::size_t i = 2 * static_cast<std::size_t>(begin);
         i < 2 * static_cast<std::size_t>(end); ++i) {
      arcs_bound += graph.degree(members[i]);
    }
    out.row_end.reserve(static_cast<std::size_t>(end - begin));
    out.adjncy.reserve(static_cast<std::size_t>(arcs_bound));
    out.adjwgt.reserve(static_cast<std::size_t>(arcs_bound));
    for (int c = begin; c < end; ++c) {
      range_ctx.checkpoint();
      const std::size_t row_begin = out.adjncy.size();
      const auto add_member = [&](int v) {
        const auto nbs = graph.neighbors(v);
        const auto wts = graph.edge_weights(v);
        for (std::size_t j = 0; j < nbs.size(); ++j) {
          const int d = fine_to_coarse[static_cast<std::size_t>(nbs[j])];
          if (d == c) continue;
          std::size_t at = out.adjncy.size();
          while (at > row_begin && out.adjncy[at - 1] > d) --at;
          if (at > row_begin && out.adjncy[at - 1] == d) {
            out.adjwgt[at - 1] += wts[j];
          } else {
            out.adjncy.insert(out.adjncy.begin() + static_cast<std::ptrdiff_t>(at), d);
            out.adjwgt.insert(out.adjwgt.begin() + static_cast<std::ptrdiff_t>(at), wts[j]);
          }
        }
      };
      const int first = members[2 * static_cast<std::size_t>(c)];
      const int second = members[2 * static_cast<std::size_t>(c) + 1];
      add_member(first);
      if (second != first) add_member(second);
      out.row_end.push_back(static_cast<std::int64_t>(out.adjncy.size()));
    }
  };

  const int coarse_count = static_cast<int>(vwgt.size());
  const bool parallel = par != nullptr && par->active(graph.num_vertices());
  std::vector<Rows> ranges(parallel ? static_cast<std::size_t>(par->chunks()) : 1);
  if (parallel) {
    engine::parallel_ranges(par->pool, coarse_count, par->chunks(),
                            [&](int begin, int end, int chunk) {
                              ExecContext task_ctx = ctx;
                              emit_range(begin, end, ranges[static_cast<std::size_t>(chunk)],
                                         task_ctx);
                            });
  } else {
    emit_range(0, coarse_count, ranges[0], ctx);
  }
  std::vector<std::int64_t> xadj{0};
  xadj.reserve(static_cast<std::size_t>(coarse_count) + 1);
  std::vector<int> adjncy;
  std::vector<std::int64_t> adjwgt;
  for (Rows& r : ranges) {
    const auto base = static_cast<std::int64_t>(adjncy.size());
    for (const std::int64_t end : r.row_end) xadj.push_back(base + end);
    if (adjncy.empty()) {
      adjncy = std::move(r.adjncy);
      adjwgt = std::move(r.adjwgt);
    } else {
      adjncy.insert(adjncy.end(), r.adjncy.begin(), r.adjncy.end());
      adjwgt.insert(adjwgt.end(), r.adjwgt.begin(), r.adjwgt.end());
    }
  }
  return CsrGraph::from_sorted_rows(std::move(xadj), std::move(adjncy), std::move(adjwgt),
                                    std::move(vwgt));
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

  // Coarse ids in order of each pair's lower member; members lists each
  // coarse vertex's (lower, upper) fine pair, (v, v) for a vertex left alone.
  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> members;
  std::vector<std::int64_t> vwgt;
  members.reserve(2 * static_cast<std::size_t>(n));
  vwgt.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] >= 0) continue;
    const int u = match[static_cast<std::size_t>(v)];
    const int coarse = static_cast<int>(vwgt.size());
    level.fine_to_coarse[static_cast<std::size_t>(v)] = coarse;
    level.fine_to_coarse[static_cast<std::size_t>(u)] = coarse;
    members.push_back(v);
    members.push_back(u);
    vwgt.push_back(u == v ? graph.vertex_weight(v)
                          : graph.vertex_weight(v) + graph.vertex_weight(u));
  }
  level.graph =
      build_coarse_graph(graph, level.fine_to_coarse, members, std::move(vwgt), ctx, par);
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
