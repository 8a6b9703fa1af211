// Mapping explorer: inspect what the portfolio engine does with an
// instance. Races every registered backend, prints a per-backend score
// table (skipping inapplicable ones), the winner under the chosen
// objective, the winner's node-ownership picture (for 2-d grids up to 64
// columns) — and optionally saves the winning plan to a file and verifies
// it round-trips.
//
// Usage:
//   ./mapping_explorer [nodes] [ppn] [stencil] [ndims] [objective] [planfile]
//                      [budget_ms] [historyfile] [max_backends]
//   ./mapping_explorer 6 8 hops 2 jmax
//   ./mapping_explorer 32 48 nn 2 lex "" 5     # 5 ms per-backend budget
//   ./mapping_explorer 6 8 nn 2 lex "" 0 history.txt 4
// Stencils: nn | hops | component. Objectives: jsum | jmax | lex.
// budget_ms > 0 bounds each backend's remap; slow backends show "timed out".
// historyfile enables adaptive selection: outcomes persist there across
// runs, the "pred" column shows each backend's predicted remap time, and
// with max_backends > 0 a warmed history prunes predicted losers ("pruned"
// note) — run the same instance twice to see the pruned race.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "core/dims_create.hpp"
#include "core/metrics.hpp"
#include "engine/plan_io.hpp"
#include "engine/signature.hpp"
#include "engine/portfolio.hpp"
#include "report/table.hpp"

namespace {

using namespace gridmap;
using namespace gridmap::engine;

Stencil stencil_from_name(const std::string& name, int ndims) {
  if (name == "nn") return Stencil::nearest_neighbor(ndims);
  if (name == "hops") return Stencil::nearest_neighbor_with_hops(ndims);
  if (name == "component") return Stencil::component(ndims);
  throw_invalid("unknown stencil (use nn | hops | component): " + name);
}

char node_symbol(NodeId node) {
  constexpr const char* symbols =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  return node < 62 ? symbols[node] : '#';
}

std::string format_seconds(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << seconds * 1e3 << " ms";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) try {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 6;
  const int ppn = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::string stencil_name = argc > 3 ? argv[3] : "nn";
  const int ndims = argc > 4 ? std::atoi(argv[4]) : 2;
  const std::string objective_name = argc > 5 ? argv[5] : "lex";
  const std::string plan_file = argc > 6 ? argv[6] : "";
  const double budget_ms = argc > 7 ? std::atof(argv[7]) : 0.0;
  const std::string history_file = argc > 8 ? argv[8] : "";
  const std::size_t max_backends =
      argc > 9 ? static_cast<std::size_t>(std::atoi(argv[9])) : 0;

  const NodeAllocation alloc = NodeAllocation::homogeneous(nodes, ppn);
  const CartesianGrid grid(dims_create(alloc.total(), ndims));
  const Stencil stencil = stencil_from_name(stencil_name, ndims);

  EngineOptions options;
  options.objective = objective_from_string(objective_name);
  if (budget_ms > 0.0) {
    options.backend_budget = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double, std::milli>(budget_ms));
  }
  options.history_file = history_file;
  options.max_backends = max_backends;
  PortfolioEngine engine(MapperRegistry::with_default_backends(), options);

  std::cout << "Instance: grid";
  for (int i = 0; i < grid.ndims(); ++i) std::cout << (i ? "x" : " ") << grid.dim(i);
  std::cout << ", " << nodes << " nodes x " << ppn << " ppn, stencil "
            << stencil.to_string() << "\nPortfolio: " << engine.registry().size()
            << " backends on " << engine.threads() << " threads, objective "
            << to_string(engine.objective());
  if (!history_file.empty()) {
    std::cout << "\nHistory: " << engine.history().size() << " outcomes from "
              << history_file;
    if (max_backends > 0) {
      std::cout << " (pruning to " << max_backends << " predicted contenders)";
    }
  }
  std::cout << "\n\n";

  const auto results = engine.evaluate_all(grid, stencil, alloc);
  const int winner = select_winner(engine.objective(), results);

  Table table({"Backend", "Jsum", "Jmax", "remap", "eval", "pred", "note"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BackendResult& r = results[i];
    std::string note;
    if (r.pruned) {
      note = "pruned (predicted loser)";
    } else if (!r.applicable) {
      note = r.failed ? "error: " + r.error : "not applicable";
    } else if (r.failed) {
      note = "error: " + r.error;
    } else if (r.timed_out) {
      note = "timed out";
    } else if (r.cancelled) {
      note = "cancelled (could not win)";
    } else if (static_cast<int>(i) == winner) {
      note = "<- winner";
    }
    const bool ran = r.applicable && !r.failed;  // timed-out runs still show remap time
    table.add_row({r.name, r.usable() ? std::to_string(r.cost.jsum) : "-",
                   r.usable() ? std::to_string(r.cost.jmax) : "-",
                   ran ? format_seconds(r.remap_seconds) : "-",
                   r.usable() ? format_seconds(r.eval_seconds) : "-",
                   r.predicted_seconds > 0.0 ? format_seconds(r.predicted_seconds) : "-",
                   note});
  }
  table.print(std::cout);

  if (winner < 0) {
    std::cout << "\nNo backend produced a usable result for this instance"
              << (budget_ms > 0.0 ? " (try a larger budget)" : "") << ".\n";
    return 1;
  }

  // Build the plan from the race we already ran (map() would re-race).
  const BackendResult& best = results[static_cast<std::size_t>(winner)];
  MappingPlan plan;
  plan.signature = instance_signature(grid, stencil, alloc, engine.objective());
  plan.mapper = best.name;
  plan.objective = engine.objective();
  plan.jsum = best.cost.jsum;
  plan.jmax = best.cost.jmax;
  plan.cell_of_rank = best.remapping->cell_of_rank();

  const std::vector<NodeId> node_of_cell = best.remapping->node_of_cell(alloc);

  if (grid.ndims() == 2 && grid.dim(1) <= 64 && grid.dim(0) <= 64) {
    std::cout << "\nNode ownership (" << plan.mapper << "):\n";
    for (int i = 0; i < grid.dim(0); ++i) {
      std::cout << "  ";
      for (int j = 0; j < grid.dim(1); ++j) {
        std::cout << node_symbol(node_of_cell[static_cast<std::size_t>(
            grid.cell_of({i, j}))]);
      }
      std::cout << "\n";
    }
  }

  const MappingCost blocked =
      evaluate_mapping(grid, stencil, Remapping::identity(grid), alloc);
  std::cout << "\nWinner: " << plan.mapper << "\nJsum = " << plan.jsum
            << " (blocked: " << blocked.jsum;
  if (blocked.jsum > 0) {
    std::cout << ", reduction "
              << static_cast<double>(plan.jsum) / static_cast<double>(blocked.jsum);
  }
  std::cout << ")\nJmax = " << plan.jmax << " (blocked: " << blocked.jmax << ")\n";

  if (!plan_file.empty()) {
    save_plan(plan_file, plan);
    const MappingPlan reloaded = load_plan(plan_file);
    std::cout << "\nPlan saved to " << plan_file << " ("
              << (reloaded == plan ? "round-trip verified" : "ROUND-TRIP MISMATCH")
              << ")\n";
    if (reloaded != plan) return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what()
            << "\nusage: mapping_explorer [nodes] [ppn] [nn|hops|component] [ndims] "
               "[jsum|jmax|lex] [planfile] [budget_ms] [historyfile] [max_backends]\n";
  return 2;
}
