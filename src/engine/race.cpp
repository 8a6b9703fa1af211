#include "engine/race.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/types.hpp"
#include "engine/signature.hpp"
#include "engine/telemetry.hpp"

namespace gridmap::engine {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-stage instrumentation: wall time into `hist` (pass null when metrics
/// are off — the caller reads the pre-bound pointer, which is null exactly
/// then) and a span on the request's trace track. Both disabled = two null
/// checks and one unused clock read.
class StageScope {
 public:
  StageScope(const StageEnv& env, gridmap::obs::LatencyHistogram* hist, const char* name)
      : hist_(hist), span_(env.telemetry, name, "engine", env.trace_track) {
    if (hist_ != nullptr) start_ = Clock::now();
  }
  ~StageScope() {
    if (hist_ != nullptr) hist_->record_seconds(seconds_since(start_));
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  gridmap::obs::LatencyHistogram* hist_;
  TraceScope span_;
  Clock::time_point start_;
};

gridmap::obs::LatencyHistogram* stage_hist(const StageEnv& env,
                                           gridmap::obs::LatencyHistogram* EngineTelemetry::*hist) {
  return env.telemetry != nullptr ? env.telemetry->*hist : nullptr;
}

/// The synthesized result of a backend the selector pruned from a race.
BackendResult pruned_result(const BackendPrediction& p) {
  BackendResult pruned;
  pruned.name = p.name;
  pruned.pruned = true;
  pruned.predicted_seconds = p.predicted_seconds;
  return pruned;
}

/// Selector verdict for every backend, index-aligned with registry names.
/// A null snapshot (or disabled selection) keeps every backend under the
/// fixed budget — exactly the pre-selector behavior.
std::vector<BackendPrediction> predict(const StageEnv& env, const InstanceFeatures& features,
                                       const HistorySnapshot* snapshot) {
  const std::vector<std::string>& names = env.registry.names();
  if (snapshot == nullptr || !selection_enabled(env.options)) {
    std::vector<BackendPrediction> keep_all(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) keep_all[i].name = names[i];
    return keep_all;
  }
  SelectorOptions opts = env.options.selector;
  opts.max_backends = env.options.max_backends;
  opts.derive_budgets = env.options.adaptive_budgets;
  opts.budget_clamp = env.options.backend_budget;
  return PortfolioSelector::select(names, features, *snapshot, opts);
}

/// Whether this instance (by signature hash) is a full-race refresh sample
/// (see EngineOptions::full_race_every).
bool refresh_due(const EngineOptions& options, std::uint64_t instance_hash) noexcept {
  if (!selection_enabled(options) || options.full_race_every == 0) return false;
  return instance_hash % options.full_race_every == 0;
}

}  // namespace

bool selection_enabled(const EngineOptions& options) noexcept {
  return options.max_backends > 0 || options.adaptive_budgets;
}

bool recording_enabled(const EngineOptions& options) noexcept {
  return options.history_capacity > 0 &&
         (selection_enabled(options) || !options.history_file.empty());
}

// ------------------------------------------------------------- CacheProbe --

CacheProbe CacheProbe::run(const StageEnv& env, const CartesianGrid& grid,
                           const Stencil& stencil, const NodeAllocation& alloc) {
  StageScope scope(env, stage_hist(env, &EngineTelemetry::stage_cache_probe), "cache_probe");
  CacheProbe probe;
  probe.signature = instance_signature(grid, stencil, alloc, env.options.objective);
  gridmap::obs::LatencyHistogram* const probe_hist =
      stage_hist(env, &EngineTelemetry::plan_cache_probe);
  if (probe_hist != nullptr) {
    const auto lookup_start = Clock::now();
    probe.plan = env.cache.get(probe.signature);
    probe_hist->record_seconds(seconds_since(lookup_start));
  } else {
    probe.plan = env.cache.get(probe.signature);
  }
  return probe;
}

// ----------------------------------------------------------- SelectorPass --

SelectorPass SelectorPass::run(const StageEnv& env, const CartesianGrid& grid,
                               const Stencil& stencil, const NodeAllocation& alloc,
                               const HistorySnapshot* snapshot,
                               std::optional<std::uint64_t> hash) {
  StageScope scope(env, stage_hist(env, &EngineTelemetry::stage_selector), "selector");
  SelectorPass out;
  if (selection_enabled(env.options) || recording_enabled(env.options)) {
    out.features = extract_features(grid, stencil, alloc);
  }
  // A refresh instance ignores the snapshot entirely: predict(features,
  // nullptr) keeps every backend under the fixed budget (full race).
  bool refresh = false;
  if (selection_enabled(env.options) && env.options.full_race_every != 0) {
    const std::uint64_t h =
        hash ? *hash : instance_hash(grid, stencil, alloc, env.options.objective);
    refresh = refresh_due(env.options, h);
  }
  HistorySnapshot local;
  if (!refresh && selection_enabled(env.options) && snapshot == nullptr) {
    local = env.history.snapshot();
    snapshot = &local;
  }
  out.preds = predict(env, out.features, refresh ? nullptr : snapshot);
  return out;
}

// -------------------------------------------------------------- RaceStage --

RaceStage::RaceStage(const StageEnv& env, const CartesianGrid& grid,
                     const Stencil& stencil, const NodeAllocation& alloc,
                     const SelectorPass& selection, const std::atomic<bool>* abandon)
    : env_(env),
      grid_(grid),
      stencil_(stencil),
      alloc_(alloc),
      preds_(selection.preds),
      abandon_(abandon),
      cancels_(preds_.size()),
      unbeatable_at_(std::numeric_limits<int>::max()) {}

RaceStage::~RaceStage() {
  // If collect() never consumed the futures (an exception unwound the
  // orchestration), no worker task may outlive the objects its lambda
  // captured: cancel everything still running, then block until done.
  bool pending = false;
  for (const std::future<BackendResult>& f : futures_) pending = pending || f.valid();
  if (!pending) return;
  for (CancelSource& c : cancels_) c.cancel();
  for (std::future<BackendResult>& f : futures_) {
    if (f.valid()) f.wait();
  }
}

void RaceStage::report_unbeatable(int index) {
  int current = unbeatable_at_.load(std::memory_order_relaxed);
  while (index < current &&
         !unbeatable_at_.compare_exchange_weak(current, index, std::memory_order_relaxed)) {
  }
  const int cutoff = unbeatable_at_.load(std::memory_order_relaxed);
  for (std::size_t j = static_cast<std::size_t>(cutoff) + 1; j < cancels_.size(); ++j) {
    cancels_[j].cancel();
  }
}

BackendResult RaceStage::run_backend(const std::string& name, std::size_t index,
                                     std::chrono::nanoseconds budget,
                                     double predicted_seconds, bool racing) {
  EngineTelemetry* const tel = env_.telemetry;
  const bool traced = tel != nullptr && tel->tracing();
  // Each backend run traces on a fresh track: concurrent backends render as
  // parallel rows with remap/eval nested inside the run span, never as a
  // false interleaving on a shared row.
  const std::uint64_t track = traced ? tel->trace().new_track() : 0;
  TraceScope run_span(tel, traced ? "backend:" + name : std::string(), "backend", track);

  BackendResult result;
  result.name = name;
  result.predicted_seconds = predicted_seconds;
  result.budget_seconds = std::chrono::duration<double>(budget).count();
  try {
    const std::unique_ptr<Mapper> mapper = env_.registry.create(name);
    // Backends that can use shared-memory parallelism (gmap) fork onto the
    // race's own pool — one pool for the whole engine, never nested ones.
    mapper->configure_execution(env_.pool, traced ? &tel->trace() : nullptr);
    if (!mapper->applicable(grid_, stencil_, alloc_)) return result;  // skipped
    result.applicable = true;

    const std::atomic<bool>* token = racing ? cancels_[index].token() : nullptr;
    ExecContext ctx = budget.count() > 0 ? ExecContext::with_deadline(budget, token)
                                         : ExecContext::with_token(token);
    if (abandon_ != nullptr) ctx.also_watch(abandon_);

    env_.mapper_runs.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t remap_t0 = traced ? tel->trace().now_nanos() : 0;
    const auto remap_start = Clock::now();
    try {
      Remapping remapping = mapper->remap(grid_, stencil_, alloc_, ctx);
      result.remap_seconds = seconds_since(remap_start);
      if (traced) tel->span("remap", "backend", track, remap_t0);
      if (tel != nullptr && tel->metrics()) {
        tel->backend_remap[index]->record_seconds(result.remap_seconds);
      }
      const std::uint64_t eval_t0 = traced ? tel->trace().now_nanos() : 0;
      const auto eval_start = Clock::now();
      // Scoring goes through the worker thread's EvalScratch arena: every
      // backend of a race shares the same (grid, stencil), so the stencil
      // adjacency and the node_of_cell scatter buffer are built once per
      // pool thread and reused — O(backends) allocations per race instead
      // of O(backends * cells).
      result.cost = evaluate_mapping(grid_, stencil_, remapping, alloc_);
      result.eval_seconds = seconds_since(eval_start);
      if (traced) tel->span("eval", "backend", track, eval_t0);
      if (tel != nullptr && tel->metrics()) {
        tel->backend_eval[index]->record_seconds(result.eval_seconds);
      }
      result.remapping = std::move(remapping);
    } catch (const CancelledError& e) {
      result.remap_seconds = seconds_since(remap_start);
      if (traced) tel->span("remap", "backend", track, remap_t0);
      if (e.reason() == CancelledError::Reason::kDeadline) {
        result.timed_out = true;
      } else {
        result.cancelled = true;
      }
      return result;
    }

    if (racing && env_.options.cancel_losers && unbeatable(env_.options.objective, result.cost)) {
      report_unbeatable(static_cast<int>(index));
    }
  } catch (const std::exception& e) {
    result.failed = true;
    result.remapping.reset();
    result.error = e.what();
  }
  return result;
}

BackendResult RaceStage::run_kept(std::size_t index) {
  const BackendPrediction& p = preds_[index];
  const std::chrono::nanoseconds budget =
      p.deadline.count() > 0 ? p.deadline : env_.options.backend_budget;
  return run_backend(p.name, index, budget, p.predicted_seconds, /*racing=*/true);
}

void RaceStage::schedule() {
  if (env_.pool == nullptr || scheduled_) return;
  scheduled_ = true;
  // Kept backends only go to the pool; pruned results are synthesized on
  // the collecting thread.
  futures_.reserve(preds_.size());
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (!preds_[i].keep) continue;
    futures_.push_back(env_.pool->submit([this, i] { return run_kept(i); }));
  }
}

std::vector<BackendResult> RaceStage::collect() {
  StageScope scope(env_, stage_hist(env_, &EngineTelemetry::stage_race), "race");
  schedule();
  std::vector<BackendResult> results;
  results.reserve(preds_.size());
  if (env_.pool == nullptr) {
    for (std::size_t i = 0; i < preds_.size(); ++i) {
      results.push_back(preds_[i].keep ? run_kept(i) : pruned_result(preds_[i]));
    }
  } else {
    std::size_t next_future = 0;
    for (std::size_t i = 0; i < preds_.size(); ++i) {
      results.push_back(preds_[i].keep ? futures_[next_future++].get()
                                       : pruned_result(preds_[i]));
    }
  }
  // An abandoned request stops here: no rescue re-runs, no recording, no
  // cached plan. Checked after the gather so the worker tasks are done.
  if (abandoned()) throw CancelledError(CancelledError::Reason::kCancelled);
  rescue(results);
  return results;
}

void RaceStage::rescue(std::vector<BackendResult>& results) {
  if (select_winner(env_.options.objective, results) >= 0) return;
  // A timed-out result is only the selector's doing when adaptive budgets
  // are on and the run's budget was actually tighter than the fixed one; a
  // re-run under the same (or no larger) budget would just time out again.
  const double fixed = std::chrono::duration<double>(env_.options.backend_budget).count();
  const auto held_back = [this, fixed](const BackendResult& r) {
    if (r.pruned) return true;
    if (!env_.options.adaptive_budgets || !r.timed_out) return false;
    return r.budget_seconds > 0.0 && (fixed == 0.0 || r.budget_seconds < fixed);
  };
  bool any = false;
  for (const BackendResult& r : results) any = any || held_back(r);
  if (!any) return;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!held_back(results[i])) continue;
    if (env_.telemetry != nullptr && env_.telemetry->metrics()) {
      env_.telemetry->rescued_runs->inc();
    }
    results[i] = run_backend(results[i].name, i, env_.options.backend_budget,
                             results[i].predicted_seconds, /*racing=*/false);
  }
}

// --------------------------------------------------------- SpeculateStage --

namespace {

/// Static cheapest-first order for cold-history speculation: the geometric
/// mappers answer in microseconds, the multilevel graph mapper can take
/// milliseconds — exactly the wrong first bet for a provisional plan.
int cheap_rank(std::string_view name) noexcept {
  constexpr std::pair<std::string_view, int> kRanks[] = {
      {"blocked", 0},         {"hilbert", 1},
      {"morton", 2},          {"strips", 3},
      {"strips+sockets", 4},  {"kdtree", 5},
      {"kdtree+sockets", 6},  {"hyperplane", 7},
      {"hyperplane+sockets", 8}, {"nodecart", 9},
      {"random", 10},         {"viem", 11}};
  for (const auto& [known, rank] : kRanks) {
    if (known == name) return rank;
  }
  return 6;  // unknown backends: assume mid-pack cost
}

}  // namespace

std::shared_ptr<const MappingPlan> SpeculateStage::run(const StageEnv& env,
                                                       const std::string& signature,
                                                       const CartesianGrid& grid,
                                                       const Stencil& stencil,
                                                       const NodeAllocation& alloc) {
  StageScope scope(env, stage_hist(env, &EngineTelemetry::stage_speculate), "speculate");
  const SelectorPass selection =
      SelectorPass::run(env, grid, stencil, alloc, nullptr, fnv1a_hash(signature));

  // History-informed first, cheapest-static otherwise: a seen backend with a
  // positive win score that the selector predicts fits the speculation
  // budget is the best single bet; everything else falls back to the static
  // cheap rank so a cold start still answers in microseconds. A prediction
  // of 0 (none) counts as fast.
  const double budget_seconds = std::chrono::duration<double>(kSpeculationBudget).count();
  const auto predicted_fast = [budget_seconds](const BackendPrediction& p) {
    return p.predicted_seconds <= budget_seconds;
  };
  std::vector<std::size_t> order(selection.preds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const BackendPrediction& pa = selection.preds[a];
    const BackendPrediction& pb = selection.preds[b];
    const bool ranked_a = pa.seen && pa.win_score > 0.0 && predicted_fast(pa);
    const bool ranked_b = pb.seen && pb.win_score > 0.0 && predicted_fast(pb);
    if (ranked_a != ranked_b) return ranked_a;
    if (ranked_a && pa.win_score != pb.win_score) return pa.win_score > pb.win_score;
    return cheap_rank(pa.name) < cheap_rank(pb.name);
  });

  constexpr std::size_t kMaxAttempts = 4;
  std::size_t attempts = 0;
  for (const std::size_t index : order) {
    if (attempts >= kMaxAttempts) break;
    const std::string& name = selection.preds[index].name;
    try {
      const std::unique_ptr<Mapper> mapper = env.registry.create(name);
      // Strictly on the calling thread: speculation must answer fast without
      // contending with the background race for the shared pool.
      mapper->configure_execution(nullptr, nullptr);
      if (!mapper->applicable(grid, stencil, alloc)) continue;
      ++attempts;
      ExecContext ctx = ExecContext::with_deadline(kSpeculationBudget, nullptr);
      env.mapper_runs.fetch_add(1, std::memory_order_relaxed);
      Remapping remapping = mapper->remap(grid, stencil, alloc, ctx);
      const MappingCost cost = evaluate_mapping(grid, stencil, remapping, alloc);
      auto plan = std::make_shared<MappingPlan>();
      plan->signature = signature;
      plan->mapper = name;
      plan->objective = env.options.objective;
      plan->jsum = cost.jsum;
      plan->jmax = cost.jmax;
      plan->cell_of_rank = remapping.cell_of_rank();
      return plan;  // NOT cached, NOT recorded — see the contract above
    } catch (const std::exception&) {
      // Deadline, cancellation, or a backend failure: try the next candidate.
    }
  }
  return nullptr;
}

// ------------------------------------------------------------ RecordStage --

void RecordStage::record(const StageEnv& env, const InstanceFeatures& features,
                         const std::vector<BackendResult>& results) {
  TraceScope span(env.telemetry, "record_outcomes", "engine", env.trace_track);
  if (!recording_enabled(env.options)) return;
  const int winner = select_winner(env.options.objective, results);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BackendResult& r = results[i];
    if (!r.usable()) continue;
    BackendOutcome outcome;
    outcome.features = features;
    outcome.remap_seconds = r.remap_seconds;
    outcome.jsum = r.cost.jsum;
    outcome.jmax = r.cost.jmax;
    outcome.won = static_cast<int>(i) == winner;
    env.history.record(r.name, outcome);
  }
}

std::shared_ptr<const MappingPlan> RecordStage::commit(
    const StageEnv& env, const std::string& signature,
    const std::vector<BackendResult>& results) {
  StageScope scope(env, stage_hist(env, &EngineTelemetry::stage_record), "record");
  const int winner = select_winner(env.options.objective, results);
  GRIDMAP_CHECK(winner >= 0, "no applicable backend for instance: " + signature);

  const BackendResult& best = results[static_cast<std::size_t>(winner)];
  auto plan = std::make_shared<MappingPlan>();
  plan->signature = signature;
  plan->mapper = best.name;
  plan->objective = env.options.objective;
  plan->jsum = best.cost.jsum;
  plan->jmax = best.cost.jmax;
  plan->cell_of_rank = best.remapping->cell_of_rank();
  env.cache.put(signature, plan);
  return plan;
}

int select_winner(Objective objective, const std::vector<BackendResult>& results) {
  int winner = -1;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BackendResult& r = results[i];
    if (!r.usable()) continue;
    if (winner < 0 ||
        better(objective, r.cost, results[static_cast<std::size_t>(winner)].cost)) {
      winner = static_cast<int>(i);
    }
  }
  return winner;
}

}  // namespace gridmap::engine
