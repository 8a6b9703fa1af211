#include "graph/fm_refine.hpp"

#include <algorithm>
#include <limits>

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
// boundaries without recomputation. `on_gain_changed(u)` runs right after
// each neighbor's gain changes, so a heap keyed by the gains is repaired
// one key at a time.
template <class OnGainChanged>
void flip_with_deltas(const CsrGraph& graph, std::vector<int>& part,
                      std::vector<std::int64_t>& gain, int v, OnGainChanged on_gain_changed) {
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
    on_gain_changed(u);
  }
}

void flip_with_deltas(const CsrGraph& graph, std::vector<int>& part,
                      std::vector<std::int64_t>& gain, int v) {
  flip_with_deltas(graph, part, gain, v, [](int) {});
}

// Indexed binary max-heap over vertices, keyed by (gain[v], -v) and reading
// the keys from the maintained gain vector. Keys are unique per vertex, so
// the pop order is a function of the gains alone: highest gain first, then
// lowest vertex id. Each vertex is in the heap at most once; update(v)
// restores the heap after v's key (and only v's) changed.
class GainHeap {
 public:
  explicit GainHeap(const std::vector<std::int64_t>& gain)
      : gain_(gain), pos_(gain.size(), -1) {
    heap_.reserve(gain.size());
  }

  bool empty() const noexcept { return heap_.empty(); }
  bool contains(int v) const { return pos_[static_cast<std::size_t>(v)] >= 0; }

  /// Fills the heap with every vertex (Floyd's O(n) heapify).
  void fill_all() {
    const int n = static_cast<int>(pos_.size());
    heap_.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) place(v, v);
    for (int slot = n / 2 - 1; slot >= 0; --slot) sift_down(slot);
  }

  void push(int v) {
    heap_.push_back(v);
    place(static_cast<int>(heap_.size()) - 1, v);
    sift_up(static_cast<int>(heap_.size()) - 1);
  }

  int pop() {
    const int top = heap_.front();
    pos_[static_cast<std::size_t>(top)] = -1;
    const int last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(0, last);
      sift_down(0);
    }
    return top;
  }

  void update(int v) {
    const int slot = pos_[static_cast<std::size_t>(v)];
    sift_up(slot);
    sift_down(pos_[static_cast<std::size_t>(v)]);
  }

 private:
  bool before(int a, int b) const {
    const std::int64_t ga = gain_[static_cast<std::size_t>(a)];
    const std::int64_t gb = gain_[static_cast<std::size_t>(b)];
    return ga > gb || (ga == gb && a < b);
  }

  void place(int slot, int v) {
    heap_[static_cast<std::size_t>(slot)] = v;
    pos_[static_cast<std::size_t>(v)] = slot;
  }

  void sift_up(int slot) {
    const int v = heap_[static_cast<std::size_t>(slot)];
    while (slot > 0) {
      const int parent = (slot - 1) / 2;
      const int p = heap_[static_cast<std::size_t>(parent)];
      if (!before(v, p)) break;
      place(slot, p);
      slot = parent;
    }
    place(slot, v);
  }

  void sift_down(int slot) {
    const int n = static_cast<int>(heap_.size());
    const int v = heap_[static_cast<std::size_t>(slot)];
    while (true) {
      int child = 2 * slot + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[static_cast<std::size_t>(child) + 1],
                                  heap_[static_cast<std::size_t>(child)])) {
        ++child;
      }
      const int c = heap_[static_cast<std::size_t>(child)];
      if (!before(c, v)) break;
      place(slot, c);
      slot = child;
    }
    place(slot, v);
  }

  const std::vector<std::int64_t>& gain_;
  std::vector<int> heap_;  ///< vertices in heap order
  std::vector<int> pos_;   ///< slot of each vertex in heap_, -1 when absent
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
  std::vector<bool> locked(static_cast<std::size_t>(n));
  GainHeap heap(gain);

  for (int pass = 0; pass < options.max_passes; ++pass) {
    if (options.verify_gains) {
      for (int v = 0; v < n; ++v) {
        GRIDMAP_CHECK(gain[static_cast<std::size_t>(v)] == move_gain(graph, part, v),
                      "maintained FM gain diverged from recomputation");
      }
    }
    std::fill(locked.begin(), locked.end(), false);
    // The heap holds exactly the unlocked vertices still queued for this
    // pass; every pass drains it, so it starts empty.
    heap.fill_all();

    struct Move {
      int vertex;
      std::int64_t cumulative_gain;
      std::int64_t imbalance;  // |weight0 - target0| after the move
    };
    std::vector<Move> moves;
    moves.reserve(static_cast<std::size_t>(n));
    std::int64_t cumulative = 0;

    while (!heap.empty()) {
      ctx.checkpoint();
      const int v = heap.pop();
      // Feasibility: moving v changes weight0 by +-w(v). Intermediate states
      // may overshoot the slack by up to one vertex weight — the classic FM
      // alternation — because the rollback below only accepts prefixes whose
      // final imbalance is within the slack. A rejected vertex stays out of
      // the heap until a neighbor's move re-queues it.
      const std::int64_t w = graph.vertex_weight(v);
      const std::int64_t new_weight0 =
          part[static_cast<std::size_t>(v)] == 0 ? weight0 - w : weight0 + w;
      if (std::llabs(new_weight0 - target0) > options.slack + max_vertex_weight) {
        continue;
      }

      locked[static_cast<std::size_t>(v)] = true;
      weight0 = new_weight0;
      cumulative += gain[static_cast<std::size_t>(v)];
      // Every neighbor's gain changes (locked ones too — their values must
      // stay exact for the next pass); each unlocked neighbor is re-keyed
      // right after its own change, or re-queued if it was rejected.
      flip_with_deltas(graph, part, gain, v, [&](int u) {
        if (locked[static_cast<std::size_t>(u)]) return;
        if (heap.contains(u)) {
          heap.update(u);
        } else {
          heap.push(u);
        }
      });
      moves.push_back({v, cumulative, std::llabs(weight0 - target0)});
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
