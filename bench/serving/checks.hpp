// Output checks and plan quality for bench_serving: every served plan is
// re-verified on the client side, and its quality is scored against the
// blocked mapping the way the paper does (Jsum/Jmax and the simulated
// MPI_Neighbor_alltoall time on VSC4).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/metrics.hpp"
#include "engine/plan_io.hpp"
#include "engine/portfolio.hpp"
#include "engine/signature.hpp"
#include "engine/wire.hpp"
#include "netsim/exchange.hpp"
#include "netsim/machine.hpp"

namespace gridmap::bench::serving {

/// The instance a request line's "map"/"mapspec" arguments describe, built
/// with the server's own parser.
inline engine::Instance parse_instance(const std::string& args) {
  std::istringstream in(args);
  return engine::wire::parse_map_request(in).instance;
}

/// Checks one served plan frame against the instance it answers: it parses,
/// it names the instance's signature under `objective`, its cells form a
/// bijection, and a fresh evaluate_mapping reproduces its Jsum and Jmax.
/// Returns "" when all hold, else what failed; `out` receives the plan.
inline std::string verify_plan(const std::string& frame, const engine::Instance& inst,
                               engine::Objective objective, engine::MappingPlan& out) {
  try {
    out = engine::parse_plan(frame);
    const std::string expected =
        engine::instance_signature(inst.grid, inst.stencil, inst.alloc, objective);
    if (out.signature != expected) {
      return "plan names another instance: " + out.signature;
    }
    const MappingCost cost =
        evaluate_mapping(inst.grid, inst.stencil, out.to_remapping(inst.grid), inst.alloc);
    if (cost.jsum != out.jsum || cost.jmax != out.jmax) {
      return "plan cost mismatch for " + out.signature + ": stated " + std::to_string(out.jsum) +
             "/" + std::to_string(out.jmax) + ", recomputed " + std::to_string(cost.jsum) + "/" +
             std::to_string(cost.jmax);
    }
    return "";
  } catch (const std::exception& e) {
    return std::string("unparseable or invalid plan: ") + e.what();
  }
}

/// A plan's quality relative to the blocked (identity) mapping of the same
/// instance: cost ratios (lower is better; 0 when the plan needs no
/// inter-node edge at all, 1 when blocked needs none either) and the speedup
/// of a simulated 64 KiB MPI_Neighbor_alltoall on VSC4 (analytic model;
/// higher is better).
struct PlanQuality {
  double jsum_ratio = 0.0;
  double jmax_ratio = 0.0;
  double exchange_speedup = 0.0;
};

inline double exchange_seconds(const engine::Instance& inst, const Remapping& remapping) {
  constexpr std::int64_t kMessageBytes = 65536;
  const TrafficMatrix traffic = traffic_matrix(inst.grid, inst.stencil,
                                               remapping.node_of_cell(inst.alloc),
                                               inst.alloc.num_nodes());
  return exchange_time(vsc4(), traffic, kMessageBytes, inst.stencil.k(), /*use_fluid=*/false);
}

inline PlanQuality plan_quality(const engine::Instance& inst, const engine::MappingPlan& plan) {
  const Remapping blocked = Remapping::identity(inst.grid);
  const Remapping served = plan.to_remapping(inst.grid);
  const MappingCost base = evaluate_mapping(inst.grid, inst.stencil, blocked, inst.alloc);
  const auto ratio = [](std::int64_t served_cost, std::int64_t blocked_cost) {
    return blocked_cost == 0 ? 1.0
                             : static_cast<double>(served_cost) / static_cast<double>(blocked_cost);
  };
  PlanQuality q;
  q.jsum_ratio = ratio(plan.jsum, base.jsum);
  q.jmax_ratio = ratio(plan.jmax, base.jmax);
  q.exchange_speedup = exchange_seconds(inst, blocked) / exchange_seconds(inst, served);
  return q;
}

}  // namespace gridmap::bench::serving
