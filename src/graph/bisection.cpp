#include "graph/bisection.hpp"

#include <algorithm>
#include <queue>
#include <random>
#include <string>

#include "engine/thread_pool.hpp"
#include "graph/coarsen.hpp"
#include "graph/fm_refine.hpp"
#include "obs/trace.hpp"

namespace gridmap {

std::vector<int> grow_region(const CsrGraph& graph, int seed_vertex, std::int64_t target0,
                             ExecContext& ctx) {
  const int n = graph.num_vertices();
  std::vector<int> part(static_cast<std::size_t>(n), 1);
  if (target0 <= 0) return part;

  std::vector<std::int64_t> attraction(static_cast<std::size_t>(n), 0);
  std::priority_queue<std::pair<std::int64_t, int>> frontier;
  std::int64_t weight0 = 0;
  int current = seed_vertex;

  while (true) {
    ctx.checkpoint();
    if (part[static_cast<std::size_t>(current)] == 0) {
      // already absorbed (stale frontier entry); fall through to pop
    } else {
      part[static_cast<std::size_t>(current)] = 0;
      weight0 += graph.vertex_weight(current);
      if (weight0 >= target0) break;
      const auto nbs = graph.neighbors(current);
      const auto wts = graph.edge_weights(current);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        const int u = nbs[i];
        if (part[static_cast<std::size_t>(u)] == 0) continue;
        attraction[static_cast<std::size_t>(u)] += wts[i];
        frontier.push({attraction[static_cast<std::size_t>(u)], u});
      }
    }
    // Pick the strongest-connected unabsorbed vertex; if the frontier dries
    // up (disconnected graph), grab any remaining side-1 vertex.
    int next = -1;
    while (!frontier.empty()) {
      const auto [a, u] = frontier.top();
      frontier.pop();
      if (part[static_cast<std::size_t>(u)] == 1 &&
          a == attraction[static_cast<std::size_t>(u)]) {
        next = u;
        break;
      }
    }
    if (next < 0) {
      for (int v = 0; v < n && next < 0; ++v) {
        if (part[static_cast<std::size_t>(v)] == 1) next = v;
      }
      if (next < 0) break;  // everything absorbed
    }
    current = next;
  }
  return part;
}

std::vector<int> multilevel_bisection(const CsrGraph& graph, const BisectionOptions& options,
                                      ExecContext& ctx) {
  const GraphParallel* par = options.par;
  obs::TraceRecorder* trace = par != nullptr ? par->trace : nullptr;
  const std::uint64_t track =
      trace != nullptr && trace->enabled() ? trace->new_track() : 0;

  const std::vector<CoarseLevel> hierarchy =
      coarsen_hierarchy(graph, options.coarsen_target, options.seed, ctx, par, track);
  const CsrGraph& coarsest = hierarchy.empty() ? graph : hierarchy.back().graph;

  // Initial partition: best of several greedy growths. The RNG draws every
  // attempt's seed vertex up front (the exact serial sequence); each
  // attempt is then a pure function of (coarsest, seed_vertex), so they
  // can run as parallel tasks. The reduction takes the first strict
  // minimum cut in attempt order — precisely what the serial loop's
  // `cut < best_cut` does — keeping the winner bit-identical.
  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ULL + 1);
  const int tries = std::max(1, options.initial_tries);
  std::vector<int> seed_vertices(static_cast<std::size_t>(tries));
  for (int attempt = 0; attempt < tries; ++attempt) {
    seed_vertices[static_cast<std::size_t>(attempt)] =
        static_cast<int>(rng() % static_cast<std::uint64_t>(coarsest.num_vertices()));
  }
  FmOptions coarse_fm;
  coarse_fm.max_passes = options.fm_passes;
  // Slack on coarse levels: the heaviest vertex, so FM can cross lumpy
  // weight boundaries.
  std::int64_t coarse_max_vw = 1;
  for (int v = 0; v < coarsest.num_vertices(); ++v) {
    coarse_max_vw = std::max(coarse_max_vw, coarsest.vertex_weight(v));
  }
  coarse_fm.slack = coarse_max_vw;

  const auto run_attempt = [&](int attempt, ExecContext& attempt_ctx) {
    std::vector<int> part = grow_region(
        coarsest, seed_vertices[static_cast<std::size_t>(attempt)], options.target0,
        attempt_ctx);
    fm_refine(coarsest, part, options.target0, coarse_fm, attempt_ctx);
    return part;
  };

  std::vector<std::vector<int>> attempt_parts(static_cast<std::size_t>(tries));
  {
    obs::SpanScope span(trace, "gmap:initial", "gmap", track);
    if (par != nullptr && par->active(coarsest.num_vertices()) && tries > 1) {
      engine::TaskGroup group(par->pool);
      for (int attempt = 1; attempt < tries; ++attempt) {
        // Snapshot ctx at capture time: run_attempt(0, ctx) below bumps the
        // parent's checkpoint counter while these tasks run.
        group.run([&, attempt, attempt_ctx = ctx]() mutable {
          attempt_parts[static_cast<std::size_t>(attempt)] = run_attempt(attempt, attempt_ctx);
        });
      }
      attempt_parts[0] = run_attempt(0, ctx);
      group.wait();
    } else {
      for (int attempt = 0; attempt < tries; ++attempt) {
        ctx.checkpoint();
        attempt_parts[static_cast<std::size_t>(attempt)] = run_attempt(attempt, ctx);
      }
    }
  }
  std::vector<int> best_part;
  std::int64_t best_cut = -1;
  for (int attempt = 0; attempt < tries; ++attempt) {
    const std::int64_t cut =
        coarsest.cut(attempt_parts[static_cast<std::size_t>(attempt)]);
    if (best_cut < 0 || cut < best_cut) {
      best_cut = cut;
      best_part = std::move(attempt_parts[static_cast<std::size_t>(attempt)]);
    }
  }

  // Uncoarsen with refinement at every level.
  std::vector<int> part = std::move(best_part);
  for (int level = static_cast<int>(hierarchy.size()) - 1; level >= 0; --level) {
    ctx.checkpoint();
    const CsrGraph& fine =
        (level == 0) ? graph : hierarchy[static_cast<std::size_t>(level) - 1].graph;
    const std::vector<int>& fine_to_coarse =
        hierarchy[static_cast<std::size_t>(level)].fine_to_coarse;
    obs::SpanScope span(trace, "gmap:refine L" + std::to_string(level), "gmap", track);
    std::vector<int> fine_part(static_cast<std::size_t>(fine.num_vertices()));
    for (int v = 0; v < fine.num_vertices(); ++v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(fine_to_coarse[static_cast<std::size_t>(v)])];
    }
    FmOptions fm;
    fm.max_passes = options.fm_passes;
    std::int64_t max_vw = 1;
    for (int v = 0; v < fine.num_vertices(); ++v) {
      max_vw = std::max(max_vw, fine.vertex_weight(v));
    }
    fm.slack = (level == 0 && options.exact_balance) ? 0 : max_vw;
    if (fm.slack == 0) rebalance_exact(fine, fine_part, options.target0, ctx);
    fm_refine(fine, fine_part, options.target0, fm, ctx);
    part = std::move(fine_part);
  }
  if (hierarchy.empty()) {
    // graph was small enough that no coarsening happened; `part` already
    // refers to `graph` vertices.
  }
  if (options.exact_balance) rebalance_exact(graph, part, options.target0, ctx);
  return part;
}

}  // namespace gridmap
