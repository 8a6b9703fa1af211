// The staged map path of the portfolio engine. One map()/evaluate_all()
// request flows through four explicit stages:
//
//   CacheProbe    — canonical signature + plan-cache lookup
//   SelectorPass  — instance features, refresh decision, backend predictions
//   RaceStage     — schedule kept backends, gather results, rescue held-back
//                   backends when nothing usable finished
//   RecordStage   — record usable outcomes into the history; select the
//                   winner, build the plan, insert it into the cache
//
// PortfolioEngine (portfolio.cpp) is thin orchestration over these stages;
// the MappingService reuses the same path via PortfolioEngine::map, so a
// served plan is bit-identical to a directly computed one. Each stage is a
// pure function of its inputs plus the StageEnv it runs against — the
// determinism contracts documented in portfolio.hpp (parallel race ==
// sequential winner, selection deterministic per history snapshot) live
// here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/portfolio.hpp"

namespace gridmap::engine {

class EngineTelemetry;

/// The engine state a stage runs against: registry and options are read-only,
/// cache/history/mapper_runs are the shared mutable stores (each thread-safe
/// on its own). A StageEnv is a value bundle of references — cheap to copy,
/// valid only while the engine that handed it out lives.
struct StageEnv {
  const MapperRegistry& registry;
  const EngineOptions& options;
  PlanCache& cache;
  BackendHistory& history;
  ThreadPool* pool;  // null = run races on the calling thread
  std::atomic<std::uint64_t>& mapper_runs;
  /// Engine telemetry; null when ObsOptions disables metrics and tracing.
  EngineTelemetry* telemetry = nullptr;
  /// Trace track of the current request — stage spans land here; 0 means no
  /// request track (stage spans are skipped; backend runs still trace, each
  /// on a fresh track of its own).
  std::uint64_t trace_track = 0;
};

/// Pruning/budget decisions apply, or outcomes are recorded — either way the
/// selector machinery is live for these options.
bool selection_enabled(const EngineOptions& options) noexcept;
bool recording_enabled(const EngineOptions& options) noexcept;

/// Stage 1: signature + cache lookup (counts a cache hit or miss).
struct CacheProbe {
  std::string signature;
  std::shared_ptr<const MappingPlan> plan;  ///< non-null = cache hit

  bool hit() const noexcept { return plan != nullptr; }

  static CacheProbe run(const StageEnv& env, const CartesianGrid& grid,
                        const Stencil& stencil, const NodeAllocation& alloc);
};

/// Stage 2: features + refresh decision + per-backend predictions. With
/// selection disabled this degenerates to "keep every backend, no deadline"
/// — exactly the pre-selector full race. `snapshot` is the history state to
/// select against; null takes a fresh snapshot when selection needs one.
/// `hash` is the instance's signature hash when the caller already has it;
/// computed on demand for the refresh decision otherwise.
struct SelectorPass {
  InstanceFeatures features;              ///< meaningful iff selection/recording on
  std::vector<BackendPrediction> preds;   ///< index-aligned with registry names

  static SelectorPass run(const StageEnv& env, const CartesianGrid& grid,
                          const Stencil& stencil, const NodeAllocation& alloc,
                          const HistorySnapshot* snapshot,
                          std::optional<std::uint64_t> hash = std::nullopt);
};

/// Stage 3: one race over the selector's kept backends. Owns the per-backend
/// cancellation sources, the unbeatable-result bookkeeping, and the rescue
/// safety net. Single-use: construct, optionally schedule() early, then
/// collect() exactly once.
///
/// `abandon` is an optional external cancellation flag (the MappingService
/// wires the request's CancelSource here): every backend's ExecContext
/// watches it in addition to its race token, and collect() throws
/// CancelledError once it is set — an abandoned request never records
/// outcomes or caches a plan. A null `abandon` never changes behavior.
///
/// The referenced grid/stencil/alloc (and the StageEnv's engine) must
/// outlive the stage; the destructor cancels and drains any futures that
/// were scheduled but never collected, so no worker task outlives them.
class RaceStage {
 public:
  RaceStage(const StageEnv& env, const CartesianGrid& grid, const Stencil& stencil,
            const NodeAllocation& alloc, const SelectorPass& selection,
            const std::atomic<bool>* abandon = nullptr);
  ~RaceStage();

  RaceStage(const RaceStage&) = delete;
  RaceStage& operator=(const RaceStage&) = delete;

  /// Submits every kept backend to the pool (no-op when the env has none,
  /// or when already scheduled). collect() schedules first if needed.
  void schedule();

  /// Gathers results in registration order (running them inline when the
  /// env has no pool), synthesizes pruned placeholders, applies the rescue
  /// safety net, and returns one BackendResult per registered backend.
  /// Throws CancelledError if the race was abandoned.
  std::vector<BackendResult> collect();

 private:
  BackendResult run_backend(const std::string& name, std::size_t index,
                            std::chrono::nanoseconds budget, double predicted_seconds,
                            bool racing);
  BackendResult run_kept(std::size_t index);

  /// Backend `index` finished with an unbeatable cost: remember the smallest
  /// such index and cancel everything after it — the only set whose removal
  /// provably cannot change the selected winner. Racing reporters are fine:
  /// cancel() is idempotent and the sweep always uses the current minimum.
  void report_unbeatable(int index);

  /// Safety net: if no result is usable, re-runs the backends the selector
  /// held back — pruned ones, and (with adaptive budgets) ones that timed
  /// out under a history-derived deadline tighter than the fixed budget —
  /// under the fixed budget, in place. The selector must never turn a
  /// servable instance into a "no applicable backend" failure.
  void rescue(std::vector<BackendResult>& results);

  bool abandoned() const noexcept {
    return abandon_ != nullptr && abandon_->load(std::memory_order_relaxed);
  }

  StageEnv env_;
  const CartesianGrid& grid_;
  const Stencil& stencil_;
  const NodeAllocation& alloc_;
  std::vector<BackendPrediction> preds_;  // own copy: no lifetime coupling
  const std::atomic<bool>* abandon_;
  std::vector<CancelSource> cancels_;  // one per backend, indexed like preds_
  std::atomic<int> unbeatable_at_;
  std::vector<std::future<BackendResult>> futures_;  // kept backends, in order
  bool scheduled_ = false;
};

/// Per-attempt remap deadline of SpeculateStage. An attempt that overruns it
/// falls through to the next cheapest candidate.
constexpr std::chrono::nanoseconds kSpeculationBudget = std::chrono::milliseconds(2);

/// The speculative fast path: one cheap synchronous backend run producing a
/// *provisional* plan on the calling thread — the first tier of the
/// service's two-tier response (the full race refines it in the background).
/// Candidates are ordered by the selector's win-score ranking when history
/// is warm (skipping backends predicted slower than kSpeculationBudget) and
/// by a static cheapest-first rank otherwise; each attempt runs under
/// kSpeculationBudget and a failed or timed-out attempt falls through to the
/// next candidate.
///
/// Side-effect contract: the provisional plan is NEVER cached and NEVER
/// recorded into the history — the subsequent full race must stay
/// bit-identical to a direct PortfolioEngine::map() with no speculation.
/// Only the mapper-run counter and telemetry observe the attempt. Returns
/// null when no candidate produced a plan within the budget (the caller
/// falls back to waiting on the race).
struct SpeculateStage {
  static std::shared_ptr<const MappingPlan> run(const StageEnv& env,
                                                const std::string& signature,
                                                const CartesianGrid& grid,
                                                const Stencil& stencil,
                                                const NodeAllocation& alloc);
};

/// Stage 4: persists a finished race — outcome recording and plan commit.
struct RecordStage {
  /// Records every usable result into the history (no-op when recording is
  /// disabled). The winner flag is derived with select_winner.
  static void record(const StageEnv& env, const InstanceFeatures& features,
                     const std::vector<BackendResult>& results);

  /// Selects the winner, builds the MappingPlan, and inserts it into the
  /// cache. Throws std::invalid_argument when no result is usable.
  static std::shared_ptr<const MappingPlan> commit(const StageEnv& env,
                                                   const std::string& signature,
                                                   const std::vector<BackendResult>& results);
};

}  // namespace gridmap::engine
