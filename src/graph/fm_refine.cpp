#include "graph/fm_refine.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace gridmap {

namespace {

// Gain of moving v to the other side: external - internal edge weight.
std::int64_t move_gain(const CsrGraph& graph, const std::vector<int>& part, int v) {
  const auto nbs = graph.neighbors(v);
  const auto wts = graph.edge_weights(v);
  std::int64_t gain = 0;
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    if (part[static_cast<std::size_t>(nbs[i])] != part[static_cast<std::size_t>(v)]) {
      gain += wts[i];
    } else {
      gain -= wts[i];
    }
  }
  return gain;
}

// Flips v and applies the FM delta rule to the maintained gain vector: v's
// own gain negates (all its edges swap internal/external roles) and each
// neighbor u gains +-2w for the one edge that changed role. Evaluated
// after the flip, so "different side now" means the edge was internal for
// u before. The rule is its own inverse — the rollback path un-applies a
// move by calling it again — which is what keeps gains exact across pass
// boundaries without recomputation.
void flip_with_deltas(const CsrGraph& graph, std::vector<int>& part,
                      std::vector<std::int64_t>& gain, int v) {
  part[static_cast<std::size_t>(v)] ^= 1;
  gain[static_cast<std::size_t>(v)] = -gain[static_cast<std::size_t>(v)];
  const auto nbs = graph.neighbors(v);
  const auto wts = graph.edge_weights(v);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    const int u = nbs[i];
    const std::int64_t delta =
        part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(v)]
            ? 2 * wts[i]
            : -2 * wts[i];
    gain[static_cast<std::size_t>(u)] += delta;
  }
}

struct QueueEntry {
  std::int64_t gain = 0;
  int vertex = -1;
  std::int64_t stamp = 0;  // lazy-deletion version

  bool operator<(const QueueEntry& other) const {
    return gain < other.gain || (gain == other.gain && vertex > other.vertex);
  }
};

}  // namespace

std::int64_t fm_refine(const CsrGraph& graph, std::vector<int>& part,
                       std::int64_t target0, const FmOptions& options,
                       ExecContext& ctx) {
  const int n = graph.num_vertices();
  GRIDMAP_CHECK(static_cast<int>(part.size()) == n, "partition size mismatch");

  std::int64_t total_improvement = 0;
  // Side-0 weight, the max vertex weight, and the per-vertex gains are all
  // maintained across passes (the rollback below keeps weight0 *and* the
  // gains consistent) instead of being recomputed O(n * degree) at the top
  // of every pass.
  std::int64_t weight0 = 0;
  std::int64_t max_vertex_weight = 1;
  for (int v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) weight0 += graph.vertex_weight(v);
    max_vertex_weight = std::max(max_vertex_weight, graph.vertex_weight(v));
  }
  std::vector<std::int64_t> gain(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    gain[static_cast<std::size_t>(v)] = move_gain(graph, part, v);
  }
  std::vector<std::int64_t> stamp(static_cast<std::size_t>(n), 0);
  std::vector<bool> locked(static_cast<std::size_t>(n));

  for (int pass = 0; pass < options.max_passes; ++pass) {
    if (options.verify_gains) {
      for (int v = 0; v < n; ++v) {
        GRIDMAP_CHECK(gain[static_cast<std::size_t>(v)] == move_gain(graph, part, v),
                      "maintained FM gain diverged from recomputation");
      }
    }
    std::fill(locked.begin(), locked.end(), false);
    std::priority_queue<QueueEntry> queue;
    for (int v = 0; v < n; ++v) {
      queue.push({gain[static_cast<std::size_t>(v)], v, stamp[static_cast<std::size_t>(v)]});
    }

    struct Move {
      int vertex;
      std::int64_t cumulative_gain;
      std::int64_t imbalance;  // |weight0 - target0| after the move
    };
    std::vector<Move> moves;
    moves.reserve(static_cast<std::size_t>(n));
    std::int64_t cumulative = 0;

    while (!queue.empty()) {
      ctx.checkpoint();
      const QueueEntry top = queue.top();
      queue.pop();
      const int v = top.vertex;
      if (locked[static_cast<std::size_t>(v)] ||
          top.stamp != stamp[static_cast<std::size_t>(v)] ||
          top.gain != gain[static_cast<std::size_t>(v)]) {
        continue;  // stale entry
      }
      // Feasibility: moving v changes weight0 by +-w(v). Intermediate states
      // may overshoot the slack by up to one vertex weight — the classic FM
      // alternation — because the rollback below only accepts prefixes whose
      // final imbalance is within the slack.
      const std::int64_t w = graph.vertex_weight(v);
      const std::int64_t new_weight0 =
          part[static_cast<std::size_t>(v)] == 0 ? weight0 - w : weight0 + w;
      if (std::llabs(new_weight0 - target0) > options.slack + max_vertex_weight) {
        continue;
      }

      locked[static_cast<std::size_t>(v)] = true;
      weight0 = new_weight0;
      cumulative += gain[static_cast<std::size_t>(v)];
      flip_with_deltas(graph, part, gain, v);
      moves.push_back({v, cumulative, std::llabs(weight0 - target0)});

      // flip_with_deltas updated every neighbor's gain (locked ones too —
      // their values must stay exact for the next pass); only unlocked
      // neighbors get re-queued.
      const auto nbs = graph.neighbors(v);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        const int u = nbs[i];
        if (locked[static_cast<std::size_t>(u)]) continue;
        ++stamp[static_cast<std::size_t>(u)];
        queue.push({gain[static_cast<std::size_t>(u)], u, stamp[static_cast<std::size_t>(u)]});
      }
    }

    // Roll back to the best feasible prefix (max cumulative gain with
    // imbalance within slack; ties prefer better balance, then shorter).
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
      flip_with_deltas(graph, part, gain, v);  // self-inverse: un-applies the move
    }
    total_improvement += best_gain;
    if (best_gain == 0) break;
  }
  if (options.verify_gains) {
    for (int v = 0; v < n; ++v) {
      GRIDMAP_CHECK(gain[static_cast<std::size_t>(v)] == move_gain(graph, part, v),
                    "maintained FM gain diverged after rollback");
    }
  }
  return total_improvement;
}

void rebalance_exact(const CsrGraph& graph, std::vector<int>& part, std::int64_t target0,
                     ExecContext& ctx) {
  const int n = graph.num_vertices();
  std::int64_t weight0 = 0;
  for (int v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == 0) weight0 += graph.vertex_weight(v);
  }
  // Greedily move the highest-gain (least cut-increasing) vertex from the
  // overweight side until balanced. Only moves that strictly reduce the
  // imbalance are taken, so the loop terminates even with weighted vertices
  // (where the exact target may be unreachable). Gains are computed once and
  // maintained incrementally with the FM delta rule, turning each iteration
  // from O(n * degree) into O(n + degree) — same candidate values, same
  // first-maximum selection, bit-identical result.
  if (weight0 == target0) return;
  std::vector<std::int64_t> gain(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    gain[static_cast<std::size_t>(v)] = move_gain(graph, part, v);
  }
  while (weight0 != target0) {
    ctx.checkpoint();
    const int from = weight0 > target0 ? 0 : 1;
    const std::int64_t imbalance = std::llabs(weight0 - target0);
    int best = -1;
    std::int64_t best_gain = std::numeric_limits<std::int64_t>::min();
    for (int v = 0; v < n; ++v) {
      if (part[static_cast<std::size_t>(v)] != from) continue;
      const std::int64_t w = graph.vertex_weight(v);
      const std::int64_t next = (from == 0) ? weight0 - w : weight0 + w;
      if (std::llabs(next - target0) >= imbalance) continue;
      const std::int64_t g = gain[static_cast<std::size_t>(v)];
      if (g > best_gain) {
        best_gain = g;
        best = v;
      }
    }
    if (best < 0) break;  // no strictly improving move exists
    weight0 += (from == 0) ? -graph.vertex_weight(best) : graph.vertex_weight(best);
    flip_with_deltas(graph, part, gain, best);
  }
}

}  // namespace gridmap
