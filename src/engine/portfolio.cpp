#include "engine/portfolio.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "core/types.hpp"
#include "engine/race.hpp"
#include "engine/signature.hpp"
#include "engine/telemetry.hpp"

namespace gridmap::engine {

namespace {

int resolve_threads(int requested) {
  if (requested != 0) return std::max(1, requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

/// Rejects option combinations that would silently misbehave instead of
/// doing what the caller asked: negative budgets and thread counts, selector
/// knobs outside their domain, and selection without any history to ever
/// warm it. Everything else (0 = disabled conventions) stays valid.
void validate_options(const EngineOptions& options) {
  GRIDMAP_CHECK(options.threads >= 0,
                "EngineOptions::threads must be >= 0 (0 = hardware concurrency)");
  GRIDMAP_CHECK(options.backend_budget.count() >= 0,
                "EngineOptions::backend_budget must not be negative");
  const SelectorOptions& sel = options.selector;
  GRIDMAP_CHECK(sel.min_budget.count() >= 0,
                "SelectorOptions::min_budget must not be negative");
  GRIDMAP_CHECK(sel.budget_clamp.count() >= 0,
                "SelectorOptions::budget_clamp must not be negative");
  GRIDMAP_CHECK(sel.budget_quantile > 0.0 && sel.budget_quantile <= 1.0,
                "SelectorOptions::budget_quantile must be in (0, 1]");
  GRIDMAP_CHECK(std::isfinite(sel.budget_slack) && sel.budget_slack > 0.0,
                "SelectorOptions::budget_slack must be positive and finite");
  GRIDMAP_CHECK(sel.min_backends >= 1,
                "SelectorOptions::min_backends must be >= 1 (the race needs a floor)");
  GRIDMAP_CHECK(sel.neighbors >= 1, "SelectorOptions::neighbors must be >= 1");
  if (selection_enabled(options)) {
    GRIDMAP_CHECK(options.history_capacity > 0,
                  "adaptive selection (max_backends / adaptive_budgets) needs "
                  "history_capacity > 0 — with recording disabled the selector "
                  "could never warm up");
  }
  GRIDMAP_CHECK(!options.obs.trace || options.obs.trace_capacity >= 1,
                "ObsOptions::trace_capacity must be >= 1 when tracing is enabled");
}

}  // namespace

PortfolioEngine::PortfolioEngine(MapperRegistry registry, EngineOptions options)
    : registry_(std::move(registry)),
      options_(std::move(options)),
      cache_(options_.cache_capacity),
      history_(options_.history_capacity) {
  validate_options(options_);
  GRIDMAP_CHECK(registry_.size() > 0, "portfolio engine needs at least one backend");
  if (options_.obs.any()) {
    telemetry_ = std::make_unique<EngineTelemetry>(options_.obs, registry_.names());
  }
  const int threads = resolve_threads(options_.threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  if (!options_.history_file.empty() && options_.history_capacity > 0) {
    // Warm start is best-effort: a missing or malformed history file means
    // a cold start (full races), never a failed engine. load() is
    // all-or-nothing, so nothing to clean up on failure.
    try {
      if (std::ifstream(options_.history_file).good()) {
        history_.load(options_.history_file);
      }
    } catch (const std::exception&) {
    }
  }
}

PortfolioEngine::~PortfolioEngine() {
  // With recording disabled nothing was loaded or produced — never clobber
  // an existing history file with an empty one.
  if (!options_.history_file.empty() && options_.history_capacity > 0) {
    try {
      history_.save(options_.history_file);
    } catch (const std::exception&) {
      // Shutdown persistence is best-effort; never throw from a destructor.
    }
  }
}

int PortfolioEngine::threads() const noexcept { return pool_ ? pool_->size() : 1; }

std::uint64_t PortfolioEngine::mapper_runs() const noexcept {
  return mapper_runs_.load(std::memory_order_relaxed);
}

std::vector<BackendResult> PortfolioEngine::evaluate_all(const CartesianGrid& grid,
                                                         const Stencil& stencil,
                                                         const NodeAllocation& alloc) {
  StageEnv env{registry_, options_, cache_,      history_,
               pool_.get(), mapper_runs_, telemetry_.get()};
  if (telemetry_ != nullptr && telemetry_->tracing()) {
    env.trace_track = telemetry_->trace().new_track();
  }
  TraceScope request_span(telemetry_.get(), "evaluate_all", "engine", env.trace_track);
  const SelectorPass selection = SelectorPass::run(env, grid, stencil, alloc, nullptr);
  RaceStage race(env, grid, stencil, alloc, selection);
  std::vector<BackendResult> results = race.collect();
  RecordStage::record(env, selection.features, results);
  return results;
}

std::shared_ptr<const MappingPlan> PortfolioEngine::map(const CartesianGrid& grid,
                                                        const Stencil& stencil,
                                                        const NodeAllocation& alloc,
                                                        const std::atomic<bool>* cancel) {
  StageEnv env{registry_, options_, cache_,      history_,
               pool_.get(), mapper_runs_, telemetry_.get()};
  if (telemetry_ != nullptr && telemetry_->tracing()) {
    env.trace_track = telemetry_->trace().new_track();
  }
  TraceScope request_span(telemetry_.get(), "map", "engine", env.trace_track);
  const CacheProbe probe = CacheProbe::run(env, grid, stencil, alloc);
  if (probe.hit()) return probe.plan;
  const SelectorPass selection =
      SelectorPass::run(env, grid, stencil, alloc, nullptr, fnv1a_hash(probe.signature));
  RaceStage race(env, grid, stencil, alloc, selection, cancel);
  const std::vector<BackendResult> results = race.collect();
  RecordStage::record(env, selection.features, results);
  return RecordStage::commit(env, probe.signature, results);
}

std::shared_ptr<const MappingPlan> PortfolioEngine::speculate(const CartesianGrid& grid,
                                                              const Stencil& stencil,
                                                              const NodeAllocation& alloc) {
  StageEnv env{registry_, options_, cache_,      history_,
               pool_.get(), mapper_runs_, telemetry_.get()};
  if (telemetry_ != nullptr && telemetry_->tracing()) {
    env.trace_track = telemetry_->trace().new_track();
  }
  TraceScope request_span(telemetry_.get(), "speculate", "engine", env.trace_track);
  const std::string signature = instance_signature(grid, stencil, alloc, options_.objective);
  // A cached plan is already final — no point speculating below it.
  if (std::shared_ptr<const MappingPlan> hit = cache_.probe(signature)) return hit;
  return SpeculateStage::run(env, signature, grid, stencil, alloc);
}

}  // namespace gridmap::engine
