// GeneralGraphMapper — our reimplementation of the VieM approach (Schulz &
// Träff: "Better Process Mapping and Sparse Quadratic Assignment"): a
// general multilevel graph mapper that recursively bisects the communication
// graph into perfectly balanced parts of the given node sizes and then
// improves Jsum by randomized local search over swaps of connected vertex
// pairs — the strongest configuration the paper benchmarks against.
//
// Deliberately graph-generic (it never looks at the grid structure), so it
// reproduces both of VieM's roles in the paper: mapping quality similar to
// the specialized algorithms, and a runtime orders of magnitude larger.
//
// Shared-memory parallelism: restarts, the recursive-bisection subtrees,
// coarsening, and the initial attempts all run as fork-join tasks on the
// worker pool injected via configure_execution() — the PortfolioEngine's
// shared pool (so racing many instances never multiplies thread counts) or
// one a standalone caller builds. No pool means serial. Every parallel
// phase either computes order-independent per-vertex candidates or runs
// pure-function subproblems reduced in a fixed order, so the output is
// bit-identical to the serial code for any pool size. See
// docs/PERFORMANCE.md, "Parallel multilevel gmap".
#pragma once

#include <cstdint>

#include "core/mapper.hpp"
#include "graph/csr_graph.hpp"
#include "graph/parallel.hpp"

namespace gridmap {

struct GmapOptions {
  int coarsen_target = 60;
  int initial_tries = 4;
  int fm_passes = 8;
  /// Local-search sweeps over all edges; stops early when a full sweep finds
  /// no improving swap.
  int local_search_sweeps = 64;
  /// Independent multilevel runs with different seeds; the best result wins.
  /// The paper benchmarks VieM in its strongest (quality-first) setting, so
  /// the default invests heavily in restarts.
  int restarts = 8;
  std::uint64_t seed = 12345;
  /// (Sub)problems below this many vertices take the serial path even with
  /// a pool — forking overhead beats the win on small graphs. Tests lower
  /// it to force parallel paths on small instances.
  int parallel_min_vertices = 2048;

  /// A cheap configuration for tests.
  static GmapOptions fast() {
    GmapOptions o;
    o.local_search_sweeps = 8;
    o.restarts = 1;
    return o;
  }
};

class GeneralGraphMapper final : public Mapper {
 public:
  using Mapper::remap;

  GeneralGraphMapper() = default;
  explicit GeneralGraphMapper(GmapOptions options) : options_(options) {}

  std::string_view name() const noexcept override { return "VieM*"; }

  Remapping remap(const CartesianGrid& grid, const Stencil& stencil,
                  const NodeAllocation& alloc, ExecContext& ctx) const override;

  /// Adopts the worker pool (its size is the thread count) and trace
  /// recorder for subsequent remap()s and map_graph()s.
  void configure_execution(engine::ThreadPool* pool, obs::TraceRecorder* trace) override {
    pool_ = pool;
    trace_ = trace;
  }

  /// Graph-level entry point: partitions `graph` into parts of exactly the
  /// given sizes (unit vertex weights assumed for exactness), minimizing the
  /// weighted cut, then local-search over connected swaps. Returns
  /// part_of_vertex. Checkpoints `ctx` throughout the multilevel phases —
  /// the slowest backend in the portfolio, and the reason budgets exist
  /// (parallel subtasks checkpoint their own ExecContext copies, which
  /// share the caller's deadline and cancel token).
  std::vector<int> map_graph(const CsrGraph& graph, const std::vector<int>& part_sizes,
                             ExecContext& ctx = ExecContext::none()) const;

 private:
  void recursive_bisect(const CsrGraph& graph, const std::vector<int>& vertices,
                        const std::vector<int>& part_sizes, int part_begin, int part_end,
                        std::uint64_t seed, std::vector<int>& part_of_vertex,
                        const GraphParallel* par, ExecContext& ctx) const;

  std::int64_t local_search(const CsrGraph& graph, std::vector<int>& part_of_vertex,
                            ExecContext& ctx) const;

  GmapOptions options_;
  engine::ThreadPool* pool_ = nullptr;   ///< injected, non-owning
  obs::TraceRecorder* trace_ = nullptr;  ///< injected, non-owning
};

}  // namespace gridmap
