// PortfolioEngine: races every registered mapping backend on an instance,
// scores the results with evaluate_mapping, and selects a winner under a
// configurable objective — the component that automates the paper's
// per-instance "which algorithm wins on Jsum/Jmax?" comparison (Section VI)
// and caches the answer.
//
// Execution limits: every backend runs under an ExecContext wired with the
// per-backend wall-clock budget (EngineOptions::backend_budget) and a
// per-race cancellation token. A backend that overruns its budget reports
// `timed_out`; once a completed result is provably unbeatable (see
// unbeatable() in objective.hpp) the race cancels every *later-registered*
// backend still running, which reports `cancelled`.
//
// Determinism: backends are scored independently (each mapper here is
// deterministic for fixed inputs/seeds) and the winner is reduced in
// registration order with strict-improvement comparison, so the parallel
// race selects exactly the same winner as a sequential loop. Cancellation
// preserves this: only backends registered after an unbeatable result are
// cancelled, and no such backend can strictly beat that result — so the
// selected winner is identical with and without cancellation. Budgets
// preserve it conditionally: the budgeted winner equals the unbudgeted
// winner whenever the unbudgeted winner finishes within the budget.
//
// Adaptive selection: when EngineOptions::max_backends or adaptive_budgets
// is set, every race first consults the PortfolioSelector against a
// snapshot of the BackendHistory — backends predicted to have no realistic
// chance of winning are pruned (BackendResult::pruned) and history-derived
// per-backend deadlines replace the fixed backend_budget. Selection is
// deterministic given a fixed history snapshot, and an empty history — the
// cold start — keeps every backend with no extra deadline, i.e. exactly the
// unpruned race above.
// Every race's usable outcomes are recorded back into the history, which
// persists across runs via EngineOptions::history_file.
//
// Structure: the map path itself (cache probe -> selector pass -> race ->
// record/commit) lives in engine/race.{hpp,cpp} as four explicit stages;
// this class is the thin orchestration that wires its own state (registry,
// cache, history, pool) into those stages. The MappingService
// (engine/service.hpp) builds an asynchronous request queue on top.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exec_context.hpp"
#include "core/features.hpp"
#include "core/metrics.hpp"
#include "engine/history.hpp"
#include "engine/objective.hpp"
#include "engine/plan.hpp"
#include "engine/plan_cache.hpp"
#include "engine/registry.hpp"
#include "engine/selector.hpp"
#include "engine/thread_pool.hpp"
#include "obs/options.hpp"

namespace gridmap::engine {

class EngineTelemetry;

/// One mapping problem: the grid, its stencil and the node allocation.
struct Instance {
  CartesianGrid grid;
  Stencil stencil;
  NodeAllocation alloc;
};

/// Outcome of one backend on one instance.
struct BackendResult {
  std::string name;            ///< registry name
  bool applicable = false;     ///< Mapper::applicable said yes
  bool failed = false;         ///< remap/evaluate threw (error holds what())
  bool timed_out = false;      ///< remap exceeded its budget (fixed or adaptive)
  bool cancelled = false;      ///< race cancelled the run (it could not win)
  bool pruned = false;         ///< selector skipped the run (predicted non-winner)
  std::string error;
  MappingCost cost;            ///< valid iff usable()
  std::optional<Remapping> remapping;
  double remap_seconds = 0.0;  ///< wall time of remap alone — what budgets charge
  double eval_seconds = 0.0;   ///< wall time of evaluate_mapping (not budgeted)
  double predicted_seconds = 0.0;  ///< selector's remap-time prediction (0 = none)
  double budget_seconds = 0.0;     ///< effective remap budget of the run (0 = unlimited)

  double total_seconds() const noexcept { return remap_seconds + eval_seconds; }

  /// Produced a scored mapping this race can select.
  bool usable() const noexcept {
    return applicable && !failed && !timed_out && !cancelled && !pruned &&
           remapping.has_value();
  }
};

/// Index into `results` of the winner under `objective`: the first (in
/// registration order) usable result that no later result strictly beats.
/// Returns -1 when no result is usable.
int select_winner(Objective objective, const std::vector<BackendResult>& results);

struct EngineOptions {
  Objective objective = Objective::kLexJmaxJsum;
  /// Worker threads for the portfolio race; <= 1 evaluates sequentially on
  /// the calling thread, 0 picks std::thread::hardware_concurrency(). The
  /// same pool is handed to every backend via Mapper::configure_execution
  /// (only the multilevel gmap backend forks onto it), so the race never
  /// multiplies thread counts; without a pool gmap runs serially. Plans are
  /// bit-identical for any value.
  int threads = 0;
  /// LRU plan-cache capacity in plans; 0 disables caching.
  std::size_t cache_capacity = 256;
  /// Per-backend wall-clock budget for `remap` on one instance; zero means
  /// unlimited. Scoring (evaluate_mapping) is never charged against it.
  std::chrono::nanoseconds backend_budget{0};
  /// Cancel still-running backends once a completed result proves they
  /// cannot win. Never changes the selected winner (see header comment).
  bool cancel_losers = true;
  /// Maximum backends with history the selector lets race per instance;
  /// 0 disables pruning. Never-seen backends always race regardless, and
  /// pruning never drops below selector.min_backends — so an empty history
  /// (cold start) races the full portfolio exactly as if this were 0.
  std::size_t max_backends = 0;
  /// Derive per-backend deadlines from the remap times observed on similar
  /// instances (quantile + slack, see SelectorOptions), clamped by
  /// backend_budget. Off: every backend gets the fixed backend_budget.
  bool adaptive_budgets = false;
  /// Selector tuning: neighbor count, quantile, pruning floor, slack.
  /// max_backends / derive_budgets / budget_clamp inside it are overwritten
  /// from the engine options above on every selection.
  SelectorOptions selector;
  /// A deterministic ~1/N sample of instances (those whose signature hash
  /// falls on the refresh residue) ignores pruning and adaptive deadlines
  /// and races full under the fixed backend_budget. This keeps the history
  /// honest: pruned backends keep getting fresh outcomes near refresh
  /// instances (so a backend mispredicted as a loser can recover when the
  /// workload shifts) and adaptively timed-out backends get re-measured.
  /// Hash-based rather than counter-based so the decision is a pure
  /// function of the instance — identical across engines and runs. 0
  /// disables the refresh.
  std::uint32_t full_race_every = 16;
  /// When non-empty: warm-start the backend history from this file at
  /// construction (ignored if missing or malformed) and persist it back at
  /// destruction (best-effort, write-then-rename). Ignored when
  /// history_capacity is 0.
  std::string history_file;
  /// Per-backend outcome window of the history store; 0 disables outcome
  /// recording (and thereby selection ever warming up in-process).
  std::size_t history_capacity = 512;
  /// Telemetry toggles: latency histograms/counters (`metrics`, default on)
  /// and per-request trace spans (`trace`, default off). Both off means the
  /// engine allocates no telemetry at all and the hot path pays only
  /// null-pointer checks. See src/obs/ and docs/OBSERVABILITY.md.
  obs::ObsOptions obs;
};

class PortfolioEngine {
 public:
  /// Validates `options` (throws std::invalid_argument on negative budgets
  /// or thread counts, selector quantile/slack out of range, a zero
  /// min_backends floor, or selection enabled with outcome recording
  /// disabled) and warm-starts the history from its configured file.
  /// Throws when the registry is empty.
  explicit PortfolioEngine(MapperRegistry registry, EngineOptions options = {});

  /// Persists the history to EngineOptions::history_file, if configured.
  ~PortfolioEngine();

  PortfolioEngine(const PortfolioEngine&) = delete;
  PortfolioEngine& operator=(const PortfolioEngine&) = delete;

  /// Races all applicable backends (cache-aware) and returns the winning
  /// plan. Throws when no backend is applicable to the instance (or every
  /// applicable backend timed out).
  ///
  /// A non-null `cancel` is an external cancellation flag (the
  /// MappingService wires an abandoned request's CancelSource here). Once
  /// the flag is set the race stops cooperatively and CancelledError is
  /// thrown; a cancelled request never records outcomes or caches a plan.
  std::shared_ptr<const MappingPlan> map(const CartesianGrid& grid, const Stencil& stencil,
                                         const NodeAllocation& alloc,
                                         const std::atomic<bool>* cancel = nullptr);

  /// The speculative fast path: returns a *provisional* plan from one cheap
  /// synchronous backend run on the calling thread (cached plans are served
  /// directly), or null when no candidate answered within
  /// kSpeculationBudget (engine/race.hpp). Never caches or records anything —
  /// a later map() of the same instance races exactly as if speculate() had
  /// never run, so final plans stay bit-identical to a direct race. Never
  /// throws for a failed attempt (null is the failure signal).
  std::shared_ptr<const MappingPlan> speculate(const CartesianGrid& grid,
                                               const Stencil& stencil,
                                               const NodeAllocation& alloc);

  /// Probes the plan cache by canonical signature without racing anything —
  /// the MappingService's synchronous fast path. A hit counts and refreshes
  /// recency exactly like the probe at the head of map(); a miss is not
  /// counted (the authoritative probe inside map() follows and counts it).
  std::shared_ptr<const MappingPlan> cached(const std::string& signature) {
    return cache_.probe(signature);
  }

  /// Runs every backend (no cache) under the configured budget and reports
  /// per-backend outcomes in registration order. Inapplicable backends are
  /// skipped, throwing backends recorded as failed, slow ones as timed_out
  /// or cancelled, selector-skipped ones as pruned — the race never crashes
  /// on a backend. Usable outcomes are recorded into the history.
  std::vector<BackendResult> evaluate_all(const CartesianGrid& grid, const Stencil& stencil,
                                          const NodeAllocation& alloc);

  const MapperRegistry& registry() const noexcept { return registry_; }
  const EngineOptions& options() const noexcept { return options_; }
  Objective objective() const noexcept { return options_.objective; }
  int threads() const noexcept;

  CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

  /// The engine's backend outcome history. Exposed so tooling can warm,
  /// inspect, or snapshot it; record/snapshot are thread-safe.
  BackendHistory& history() noexcept { return history_; }
  const BackendHistory& history() const noexcept { return history_; }

  /// Total individual mapper executions so far (cache hits run none; a
  /// timed-out or cancelled run still counts — it executed; a pruned
  /// backend does not — it never ran).
  std::uint64_t mapper_runs() const noexcept;

  /// The engine's telemetry (latency histograms, counters, trace ring), or
  /// null when EngineOptions::obs disables metrics and tracing both.
  EngineTelemetry* telemetry() const noexcept { return telemetry_.get(); }

 private:
  MapperRegistry registry_;
  EngineOptions options_;
  PlanCache cache_;
  BackendHistory history_;
  std::unique_ptr<ThreadPool> pool_;  // null when sequential
  std::unique_ptr<EngineTelemetry> telemetry_;  // null when ObsOptions disables all
  std::atomic<std::uint64_t> mapper_runs_{0};
};

}  // namespace gridmap::engine
