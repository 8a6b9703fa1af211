// Adaptive portfolio selection: instance features, the BackendHistory
// store, the PortfolioSelector, and their integration into PortfolioEngine.
// The load-bearing guarantees pinned here:
//   - cold start (empty history) is bit-identical to the unpruned race;
//   - selection is deterministic given a fixed history snapshot;
//   - pruning never drops the true winner when its win is in the history,
//     never drops below the floor, and never drops a never-seen backend;
//   - history save/load round-trips exactly, including recency/eviction.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "core/features.hpp"
#include "engine/history.hpp"
#include "engine/portfolio.hpp"
#include "engine/selector.hpp"

namespace gridmap::engine {
namespace {

Stencil nn(int ndims) { return Stencil::nearest_neighbor(ndims); }

Instance make_instance(Dims dims, Stencil stencil, NodeAllocation alloc) {
  return {CartesianGrid(std::move(dims)), std::move(stencil), std::move(alloc)};
}

std::vector<Instance> test_instances() {
  std::vector<Instance> instances;
  instances.push_back(make_instance({6, 8}, nn(2), NodeAllocation::homogeneous(6, 8)));
  instances.push_back(make_instance({4, 4, 4}, nn(3), NodeAllocation::homogeneous(8, 8)));
  instances.push_back(make_instance({12, 4}, Stencil::nearest_neighbor_with_hops(2),
                                    NodeAllocation::homogeneous(4, 12)));
  instances.push_back(make_instance({6, 6}, nn(2), NodeAllocation({12, 8, 8, 8})));
  instances.push_back(make_instance({5, 7}, Stencil::component(2),
                                    NodeAllocation({7, 7, 7, 7, 7})));
  return instances;
}

BackendOutcome make_outcome(const InstanceFeatures& features, double remap_seconds,
                            bool won, std::int64_t jsum = 10, std::int64_t jmax = 3) {
  BackendOutcome o;
  o.features = features;
  o.remap_seconds = remap_seconds;
  o.jsum = jsum;
  o.jmax = jmax;
  o.won = won;
  return o;
}

/// Only applicable to homogeneous allocations; maps to the identity.
class HomogeneousOnlyMapper final : public Mapper {
 public:
  using Mapper::remap;

  std::string_view name() const noexcept override { return "HomogOnly"; }

  bool applicable(const CartesianGrid& grid, const Stencil& stencil,
                  const NodeAllocation& alloc) const override {
    return Mapper::applicable(grid, stencil, alloc) && alloc.homogeneous();
  }

  Remapping remap(const CartesianGrid& grid, const Stencil& /*stencil*/,
                  const NodeAllocation& alloc, ExecContext& /*ctx*/) const override {
    GRIDMAP_CHECK(alloc.homogeneous(), "mapper not applicable to this instance");
    return Remapping::identity(grid);
  }
};

/// Always applicable; maps ranks to cells in reverse order (a valid but
/// unremarkable permutation).
class ReverseMapper final : public Mapper {
 public:
  using Mapper::remap;

  std::string_view name() const noexcept override { return "Reverse"; }

  Remapping remap(const CartesianGrid& grid, const Stencil& /*stencil*/,
                  const NodeAllocation& /*alloc*/, ExecContext& /*ctx*/) const override {
    std::vector<Cell> cells(static_cast<std::size_t>(grid.size()));
    for (std::size_t r = 0; r < cells.size(); ++r) {
      cells[r] = grid.size() - 1 - static_cast<Cell>(r);
    }
    return Remapping::from_cells(grid, std::move(cells));
  }
};

/// Cooperative spinner, the budget test double (same as test_engine's).
class SlowMapper final : public Mapper {
 public:
  using Mapper::remap;

  explicit SlowMapper(std::chrono::milliseconds spin) : spin_(spin) {}

  std::string_view name() const noexcept override { return "Slow"; }

  Remapping remap(const CartesianGrid& grid, const Stencil& /*stencil*/,
                  const NodeAllocation& /*alloc*/, ExecContext& ctx) const override {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < spin_) ctx.checkpoint();
    return Remapping::identity(grid);
  }

 private:
  std::chrono::milliseconds spin_;
};

// ---------------------------------------------------------------- features --

TEST(Features, DeterministicAndSignatureConsistent) {
  const CartesianGrid grid({6, 8}, {true, false});
  const NodeAllocation alloc = NodeAllocation::homogeneous(6, 8);
  const InstanceFeatures a = extract_features(grid, nn(2), alloc);
  const InstanceFeatures b = extract_features(grid, nn(2), alloc);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(feature_distance(a, b), 0.0);

  EXPECT_DOUBLE_EQ(a.v[0], 2.0);                      // ndims
  EXPECT_NEAR(a.v[1], std::log2(48.0), 1e-12);        // log_ranks
  EXPECT_DOUBLE_EQ(a.v[2], 8.0 / 6.0);                // extent ratio
  EXPECT_DOUBLE_EQ(a.v[3], 4.0);                      // stencil k
  EXPECT_DOUBLE_EQ(a.v[4], 1.0);                      // stencil radius
  EXPECT_DOUBLE_EQ(a.v[5], 3.0);                      // log2(8 ppn)
  EXPECT_NEAR(a.v[6], std::log2(6.0), 1e-12);         // log2(6 nodes)
  EXPECT_DOUBLE_EQ(a.v[7], 0.5);                      // one of two dims periodic
  EXPECT_DOUBLE_EQ(a.v[8], 0.0);                      // homogeneous
}

TEST(Features, DiscriminatesInstanceProperties) {
  const NodeAllocation alloc = NodeAllocation::homogeneous(6, 8);
  const InstanceFeatures base = extract_features(CartesianGrid({6, 8}), nn(2), alloc);
  const InstanceFeatures hops = extract_features(
      CartesianGrid({6, 8}), Stencil::nearest_neighbor_with_hops(2), alloc);
  const InstanceFeatures het =
      extract_features(CartesianGrid({6, 8}), nn(2), NodeAllocation({16, 16, 16}));
  EXPECT_GT(feature_distance(base, hops), 0.0);  // radius and k differ
  EXPECT_GT(feature_distance(base, het), 0.0);   // node count differs
  EXPECT_EQ(feature_names().size(), static_cast<std::size_t>(InstanceFeatures::kCount));
}

// ----------------------------------------------------------------- history --

TEST(History, RecordsAndEvictsOldestBeyondCapacity) {
  BackendHistory history(3);
  const InstanceFeatures f =
      extract_features(CartesianGrid({4, 4}), nn(2), NodeAllocation::homogeneous(4, 4));
  for (int i = 0; i < 5; ++i) {
    history.record("blocked", make_outcome(f, 0.001 * (i + 1), false));
  }
  EXPECT_EQ(history.size(), 3u);
  EXPECT_EQ(history.size("blocked"), 3u);
  EXPECT_EQ(history.size("unknown"), 0u);

  const HistorySnapshot snap = history.snapshot();
  ASSERT_EQ(snap.at("blocked").size(), 3u);
  // Oldest (0.001, 0.002) evicted; order preserved oldest-first.
  EXPECT_DOUBLE_EQ(snap.at("blocked")[0].remap_seconds, 0.003);
  EXPECT_DOUBLE_EQ(snap.at("blocked")[2].remap_seconds, 0.005);
}

TEST(History, ZeroCapacityDisablesRecording) {
  BackendHistory history(0);
  const InstanceFeatures f{};
  history.record("blocked", make_outcome(f, 0.001, true));
  EXPECT_TRUE(history.empty());
}

TEST(History, RejectsInvalidBackendNames) {
  BackendHistory history;
  EXPECT_THROW(history.record("", make_outcome({}, 0.0, false)), std::invalid_argument);
  EXPECT_THROW(history.record("has space", make_outcome({}, 0.0, false)),
               std::invalid_argument);
}

TEST(History, SaveLoadRoundTripsExactlyIncludingRecency) {
  BackendHistory history(8);
  const InstanceFeatures f1 =
      extract_features(CartesianGrid({6, 8}), nn(2), NodeAllocation::homogeneous(6, 8));
  const InstanceFeatures f2 = extract_features(
      CartesianGrid({4, 4, 4}), nn(3), NodeAllocation::homogeneous(8, 8));
  history.record("blocked", make_outcome(f1, 0.125, true, 42, 7));
  history.record("blocked", make_outcome(f2, 1.0 / 3.0, false, 10, 3));  // inexact double
  history.record("kdtree+sockets", make_outcome(f2, 5e-7, true, 0, 0));

  const std::string path = ::testing::TempDir() + "gridmap_history_roundtrip.txt";
  history.save(path);
  BackendHistory reloaded(8);
  EXPECT_EQ(reloaded.load(path), 3u);
  EXPECT_EQ(reloaded.snapshot(), history.snapshot());  // bit-exact, order included
  EXPECT_EQ(reloaded.backends(),
            (std::vector<std::string>{"blocked", "kdtree+sockets"}));
  std::remove(path.c_str());
}

TEST(History, LoadIntoSmallerCapacityKeepsNewestOutcomes) {
  BackendHistory history(8);
  const InstanceFeatures f{};
  for (int i = 0; i < 5; ++i) {
    history.record("viem", make_outcome(f, 0.01 * (i + 1), false));
  }
  const std::string path = ::testing::TempDir() + "gridmap_history_capacity.txt";
  history.save(path);

  BackendHistory small(2);
  EXPECT_EQ(small.load(path), 5u);  // loaded count is pre-eviction
  EXPECT_EQ(small.size("viem"), 2u);
  const HistorySnapshot snap = small.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("viem")[0].remap_seconds, 0.04);
  EXPECT_DOUBLE_EQ(snap.at("viem")[1].remap_seconds, 0.05);
  std::remove(path.c_str());
}

TEST(History, LoadReplacesPreviousContents) {
  BackendHistory donor(4);
  donor.record("blocked", make_outcome({}, 0.5, true));
  const std::string path = ::testing::TempDir() + "gridmap_history_replace.txt";
  donor.save(path);

  BackendHistory history(4);
  history.record("stale", make_outcome({}, 9.0, false));
  EXPECT_EQ(history.load(path), 1u);
  EXPECT_EQ(history.size("stale"), 0u);  // replaced, not merged
  EXPECT_EQ(history.size("blocked"), 1u);
  std::remove(path.c_str());
}

TEST(History, ConcurrentRecordingIsSafeAndLossless) {
  BackendHistory history(10000);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&history, t] {
      InstanceFeatures f{};
      f.v[0] = static_cast<double>(t);
      for (int i = 0; i < kPerThread; ++i) {
        history.record("backend-" + std::to_string(t % 2), make_outcome(f, 0.001, i % 7 == 0));
        if (i % 50 == 0) (void)history.snapshot();  // concurrent reads
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(history.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(history.backends(), (std::vector<std::string>{"backend-0", "backend-1"}));
}

// ---------------------------------------------------------------- selector --

std::vector<std::string> portfolio_names() {
  return MapperRegistry::with_default_backends().names();
}

TEST(Selector, EmptyHistoryKeepsEveryBackendWithNoDeadline) {
  SelectorOptions options;
  options.max_backends = 2;
  options.derive_budgets = true;
  const auto preds = PortfolioSelector::select(portfolio_names(), {}, {}, options);
  ASSERT_EQ(preds.size(), portfolio_names().size());
  for (const BackendPrediction& p : preds) {
    EXPECT_TRUE(p.keep) << p.name;
    EXPECT_FALSE(p.seen) << p.name;
    EXPECT_EQ(p.deadline.count(), 0) << p.name;
    EXPECT_DOUBLE_EQ(p.predicted_seconds, 0.0) << p.name;
  }
}

TEST(Selector, DeterministicForAFixedSnapshot) {
  const std::vector<std::string> names = portfolio_names();
  const InstanceFeatures f =
      extract_features(CartesianGrid({6, 8}), nn(2), NodeAllocation::homogeneous(6, 8));
  HistorySnapshot snapshot;
  for (std::size_t i = 0; i < names.size(); ++i) {
    snapshot[names[i]] = {make_outcome(f, 0.001 * static_cast<double>(i + 1), i == 3)};
  }
  SelectorOptions options;
  options.max_backends = 4;
  options.derive_budgets = true;

  const auto first = PortfolioSelector::select(names, f, snapshot, options);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto again = PortfolioSelector::select(names, f, snapshot, options);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i].name, first[i].name);
      EXPECT_EQ(again[i].keep, first[i].keep);
      EXPECT_EQ(again[i].seen, first[i].seen);
      EXPECT_DOUBLE_EQ(again[i].win_score, first[i].win_score);
      EXPECT_DOUBLE_EQ(again[i].predicted_seconds, first[i].predicted_seconds);
      EXPECT_EQ(again[i].deadline, first[i].deadline);
    }
  }
}

TEST(Selector, PrunesLowScoredBackendsButKeepsTheRecordedWinner) {
  const std::vector<std::string> names = portfolio_names();
  const InstanceFeatures f =
      extract_features(CartesianGrid({6, 8}), nn(2), NodeAllocation::homogeneous(6, 8));
  HistorySnapshot snapshot;
  for (const std::string& name : names) {
    snapshot[name] = {make_outcome(f, 0.001, name == "kdtree")};
  }
  SelectorOptions options;
  options.max_backends = 3;
  const auto preds = PortfolioSelector::select(names, f, snapshot, options);

  std::size_t kept = 0;
  for (const BackendPrediction& p : preds) kept += p.keep ? 1 : 0;
  EXPECT_EQ(kept, 3u);
  const auto kdtree = std::find_if(preds.begin(), preds.end(),
                                   [](const auto& p) { return p.name == "kdtree"; });
  ASSERT_NE(kdtree, preds.end());
  EXPECT_TRUE(kdtree->keep);
  EXPECT_GT(kdtree->win_score, 0.5);
}

TEST(Selector, NeverPrunesANeverSeenBackend) {
  const std::vector<std::string> names = portfolio_names();
  const InstanceFeatures f{};
  HistorySnapshot snapshot;
  for (const std::string& name : names) {
    if (name == "viem" || name == "random") continue;  // never seen
    snapshot[name] = {make_outcome(f, 0.001, name == "blocked")};
  }
  SelectorOptions options;
  options.max_backends = 2;
  const auto preds = PortfolioSelector::select(names, f, snapshot, options);
  for (const BackendPrediction& p : preds) {
    if (p.name == "viem" || p.name == "random") {
      EXPECT_TRUE(p.keep) << p.name;
      EXPECT_FALSE(p.seen) << p.name;
    }
  }
}

TEST(Selector, NeverPrunesBelowTheFloor) {
  const std::vector<std::string> names = portfolio_names();
  const InstanceFeatures f{};
  HistorySnapshot snapshot;
  for (const std::string& name : names) {
    snapshot[name] = {make_outcome(f, 0.001, name == names.front())};
  }
  SelectorOptions options;
  options.max_backends = 1;  // harsher than the floor allows
  options.min_backends = 3;
  const auto preds = PortfolioSelector::select(names, f, snapshot, options);
  std::size_t kept = 0;
  for (const BackendPrediction& p : preds) kept += p.keep ? 1 : 0;
  EXPECT_GE(kept, 3u);
}

TEST(Selector, DerivesDeadlinesFromQuantileWithFloorAndClamp) {
  const std::vector<std::string> names = {"blocked", "viem", "fresh"};
  const InstanceFeatures f{};
  HistorySnapshot snapshot;
  // blocked: microsecond-fast => deadline floors at min_budget.
  // viem: ~100 ms remap times => deadline = quantile * slack, then clamped.
  for (int i = 0; i < 8; ++i) {
    snapshot["blocked"].push_back(make_outcome(f, 1e-6, false));
    snapshot["viem"].push_back(make_outcome(f, 0.1, true));
  }
  SelectorOptions options;
  options.derive_budgets = true;
  options.budget_quantile = 0.9;
  options.budget_slack = 4.0;
  options.min_budget = std::chrono::milliseconds(2);

  auto preds = PortfolioSelector::select(names, f, snapshot, options);
  EXPECT_EQ(preds[0].deadline, std::chrono::nanoseconds(std::chrono::milliseconds(2)));
  EXPECT_EQ(preds[1].deadline,
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::duration<double>(0.1 * 4.0)));
  EXPECT_EQ(preds[2].deadline.count(), 0);  // never seen: no deadline

  options.budget_clamp = std::chrono::milliseconds(50);
  preds = PortfolioSelector::select(names, f, snapshot, options);
  EXPECT_EQ(preds[1].deadline, std::chrono::nanoseconds(std::chrono::milliseconds(50)));
}

TEST(Selector, NoDeadlineBelowMinimumOutcomeCount) {
  const std::vector<std::string> names = {"blocked"};
  const InstanceFeatures f{};
  HistorySnapshot snapshot;
  snapshot["blocked"] = {make_outcome(f, 0.5, true)};  // one outcome only
  SelectorOptions options;
  options.derive_budgets = true;
  options.min_outcomes_for_budget = 4;
  const auto preds = PortfolioSelector::select(names, f, snapshot, options);
  EXPECT_EQ(preds[0].deadline.count(), 0);
  EXPECT_GT(preds[0].predicted_seconds, 0.0);  // prediction still reported
}

TEST(Selector, RejectsNonsenseOptions) {
  SelectorOptions options;
  options.budget_quantile = 0.0;
  EXPECT_THROW(PortfolioSelector::select({"blocked"}, {}, {}, options),
               std::invalid_argument);
  options = SelectorOptions{};
  options.neighbors = 0;
  EXPECT_THROW(PortfolioSelector::select({"blocked"}, {}, {}, options),
               std::invalid_argument);
}

// ------------------------------------------------------- engine integration --

EngineOptions selecting_options(int threads, std::size_t max_backends) {
  EngineOptions o;
  o.threads = threads;
  o.max_backends = max_backends;
  return o;
}

TEST(AdaptiveEngine, ColdStartRaceIsBitIdenticalToPlainEngine) {
  // Selection and adaptive budgets fully enabled, but no history: plans
  // must be bit-identical to a plain engine's, and nothing gets pruned.
  for (int threads : {1, 4}) {
    EngineOptions adaptive = selecting_options(threads, 4);
    adaptive.adaptive_budgets = true;
    PortfolioEngine selecting(MapperRegistry::with_default_backends(), adaptive);

    EngineOptions plain;
    plain.threads = threads;
    PortfolioEngine reference(MapperRegistry::with_default_backends(), plain);

    for (const Instance& inst : test_instances()) {
      const auto results = selecting.evaluate_all(inst.grid, inst.stencil, inst.alloc);
      for (const BackendResult& r : results) EXPECT_FALSE(r.pruned) << r.name;
      selecting.history().clear();  // each race records; stay cold throughout
    }
    selecting.clear_cache();

    for (const Instance& inst : test_instances()) {
      const auto plan = selecting.map(inst.grid, inst.stencil, inst.alloc);
      const auto ref = reference.map(inst.grid, inst.stencil, inst.alloc);
      EXPECT_EQ(*plan, *ref) << "threads=" << threads;
      selecting.history().clear();  // stay cold for every instance
    }
  }
}

TEST(AdaptiveEngine, WarmedPruningKeepsTheTrueWinnerPerInstance) {
  // Regression pin: warm the history with exactly one full race of the
  // instance, then race again with aggressive pruning — the winner must be
  // the full race's winner, for every test instance and thread count.
  for (int threads : {1, 4}) {
    for (const Instance& inst : test_instances()) {
      EngineOptions options = selecting_options(threads, 2);
      options.cache_capacity = 0;   // force re-racing
      options.full_race_every = 0;  // pin the pruned path for every instance
      PortfolioEngine engine(MapperRegistry::with_default_backends(), options);

      const auto full = engine.evaluate_all(inst.grid, inst.stencil, inst.alloc);
      const int full_winner = select_winner(options.objective, full);
      ASSERT_GE(full_winner, 0);
      ASSERT_FALSE(engine.history().empty());

      const auto pruned = engine.evaluate_all(inst.grid, inst.stencil, inst.alloc);
      const int pruned_winner = select_winner(options.objective, pruned);
      ASSERT_GE(pruned_winner, 0);
      EXPECT_EQ(pruned[static_cast<std::size_t>(pruned_winner)].name,
                full[static_cast<std::size_t>(full_winner)].name)
          << "threads=" << threads;

      std::size_t pruned_count = 0;
      for (const BackendResult& r : pruned) pruned_count += r.pruned ? 1 : 0;
      EXPECT_GT(pruned_count, 0u) << "warmed race should actually prune";
    }
  }
}

TEST(AdaptiveEngine, PrunedRaceRunsStrictlyFewerMappers) {
  const Instance inst = test_instances().front();
  EngineOptions options = selecting_options(4, 3);
  options.cache_capacity = 0;
  options.full_race_every = 0;
  PortfolioEngine engine(MapperRegistry::with_default_backends(), options);

  (void)engine.evaluate_all(inst.grid, inst.stencil, inst.alloc);  // warm
  const std::uint64_t full_runs = engine.mapper_runs();
  (void)engine.evaluate_all(inst.grid, inst.stencil, inst.alloc);  // pruned
  const std::uint64_t pruned_runs = engine.mapper_runs() - full_runs;
  EXPECT_LT(pruned_runs, full_runs);
  EXPECT_GT(pruned_runs, 0u);
}

TEST(AdaptiveEngine, SelectionDeterministicAcrossEnginesWithSameHistory) {
  const std::string path = ::testing::TempDir() + "gridmap_selector_history.txt";
  std::remove(path.c_str());
  const std::vector<Instance> instances = test_instances();

  // Warm one engine, persist its history at destruction.
  {
    EngineOptions options = selecting_options(4, 0);
    options.history_file = path;
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);
    for (const Instance& inst : instances) (void)engine.map(inst.grid, inst.stencil, inst.alloc);
  }

  // Two fresh engines loading the identical history must select and map the
  // same request sequence identically (same snapshot per request =>
  // deterministic selection).
  std::vector<std::shared_ptr<const MappingPlan>> first, second;
  for (int round = 0; round < 2; ++round) {
    EngineOptions options = selecting_options(4, 3);
    options.history_file.clear();
    options.cache_capacity = 0;
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);
    ASSERT_GT(engine.history().load(path), 0u);
    auto& plans = round == 0 ? first : second;
    for (const Instance& inst : instances) {
      plans.push_back(engine.map(inst.grid, inst.stencil, inst.alloc));
    }
  }
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(*first[i], *second[i]) << "instance " << i;
  }
  std::remove(path.c_str());
}

TEST(AdaptiveEngine, HistoryFileRoundTripsThroughEngineLifecycle) {
  const std::string path = ::testing::TempDir() + "gridmap_engine_history.txt";
  std::remove(path.c_str());
  const Instance inst = test_instances().front();

  HistorySnapshot persisted;
  {
    EngineOptions options = selecting_options(1, 0);
    options.history_file = path;
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);
    (void)engine.map(inst.grid, inst.stencil, inst.alloc);
    EXPECT_FALSE(engine.history().empty());
    persisted = engine.history().snapshot();
  }  // destructor persists

  {
    EngineOptions options = selecting_options(1, 0);
    options.history_file = path;
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);
    EXPECT_EQ(engine.history().snapshot(), persisted);  // warm-started, bit-exact
  }
  std::remove(path.c_str());
}

TEST(AdaptiveEngine, MissingOrCorruptHistoryFileStartsCold) {
  EngineOptions options = selecting_options(1, 4);
  options.history_file = ::testing::TempDir() + "gridmap_history_missing.txt";
  std::remove(options.history_file.c_str());
  {
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);
    EXPECT_TRUE(engine.history().empty());
  }
  {
    std::ofstream out(options.history_file);
    out << "this is not a history file\n";
  }
  {
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);
    EXPECT_TRUE(engine.history().empty());  // corrupt file ignored, engine fine
    EXPECT_NO_THROW(engine.map(CartesianGrid({4, 4}), nn(2),
                               NodeAllocation::homogeneous(4, 4)));
  }
  std::remove(options.history_file.c_str());
}

TEST(AdaptiveEngine, RescuesAnInstanceWhoseOnlyApplicableBackendsWerePruned) {
  // Regression (code review, PR 3): warm the history on a homogeneous
  // instance where the homogeneous-only backend wins; then map a
  // heterogeneous instance under aggressive pruning. The selector keeps
  // only the (now inapplicable) past winner and prunes the one backend
  // that could serve the instance — the engine must rescue the pruned
  // backend instead of throwing "no applicable backend".
  MapperRegistry registry;
  registry.add("homog-only", [] { return std::make_unique<HomogeneousOnlyMapper>(); });
  registry.add("reverse", [] { return std::make_unique<ReverseMapper>(); });

  for (int threads : {1, 4}) {
    EngineOptions options;
    options.threads = threads;
    options.max_backends = 1;
    options.selector.min_backends = 1;
    options.cache_capacity = 0;
    options.full_race_every = 0;  // the pruned path itself is under test
    PortfolioEngine engine(registry, options);

    // Warm race on a homogeneous instance: both backends tie on cost (the
    // reverse of blocked is cost-symmetric), so the first-registered
    // homogeneous-only backend wins and is the sole recorded winner.
    const CartesianGrid grid({4, 4});
    const auto warm = engine.map(grid, nn(2), NodeAllocation::homogeneous(4, 4));
    ASSERT_EQ(warm->mapper, "homog-only");

    // Heterogeneous instance: the selector keeps "homog-only" (win score 1)
    // and prunes "reverse" — which is the only applicable backend here.
    const auto plan = engine.map(grid, nn(2), NodeAllocation({6, 6, 4}));
    EXPECT_EQ(plan->mapper, "reverse") << "threads=" << threads;
  }
}

TEST(AdaptiveEngine, RefreshSampleRacesFullDespiteWarmHistory) {
  // full_race_every selects a deterministic hash-based sample of instances
  // that always race full — the escape hatch that lets mispredicted
  // backends recover. full_race_every = 1 puts every instance in the
  // sample (warmed race must not prune); 0 disables it (warmed race must
  // prune). The decision is per-instance, so it is identical across
  // engines.
  const Instance inst = test_instances().front();
  for (const std::uint32_t every : {std::uint32_t{1}, std::uint32_t{0}}) {
    EngineOptions options = selecting_options(1, 2);
    options.selector.min_backends = 1;
    options.full_race_every = every;
    options.cache_capacity = 0;
    PortfolioEngine engine(MapperRegistry::with_default_backends(), options);

    (void)engine.evaluate_all(inst.grid, inst.stencil, inst.alloc);  // warm
    const auto warmed = engine.evaluate_all(inst.grid, inst.stencil, inst.alloc);
    std::size_t pruned = 0;
    for (const BackendResult& r : warmed) pruned += r.pruned ? 1 : 0;
    if (every == 1) {
      EXPECT_EQ(pruned, 0u) << "refresh sample must race full";
    } else {
      EXPECT_GT(pruned, 0u) << "with refresh disabled the warmed race prunes";
    }
  }
}

TEST(AdaptiveEngine, RescuesARaceStrangledByAdaptiveDeadlines) {
  // Regression (code review, PR 3): deadlines learned on fast outcomes can
  // be too tight for a genuinely slower instance. If that times out every
  // backend, the engine must re-run them under the fixed budget instead of
  // failing an instance the non-adaptive engine would serve.
  MapperRegistry registry;
  registry.add("slow", [] { return std::make_unique<SlowMapper>(std::chrono::milliseconds(50)); });

  EngineOptions options;
  options.threads = 1;
  options.adaptive_budgets = true;
  options.cache_capacity = 0;
  options.full_race_every = 0;
  PortfolioEngine engine(std::move(registry), options);

  const CartesianGrid grid({4, 4});
  const NodeAllocation alloc = NodeAllocation::homogeneous(4, 4);
  const InstanceFeatures f = extract_features(grid, nn(2), alloc);
  for (int i = 0; i < 8; ++i) {
    engine.history().record("slow", make_outcome(f, 1e-6, true));  // ~2 ms deadline
  }

  const auto plan = engine.map(grid, nn(2), alloc);  // must not throw
  EXPECT_EQ(plan->mapper, "slow");
}

TEST(AdaptiveEngine, AdaptiveBudgetTimesOutABackendSlowerThanItsHistory) {
  // The slow backend's history says ~1 ms remaps; its actual run spins 10 s.
  // With adaptive budgets on and no fixed backend_budget, the derived
  // deadline must stop it (timed_out) without hurting the race.
  const Instance inst = test_instances().front();
  MapperRegistry registry = MapperRegistry::with_default_backends();
  registry.add("slow", [] { return std::make_unique<SlowMapper>(std::chrono::seconds(10)); });

  EngineOptions options;
  options.threads = 4;
  options.adaptive_budgets = true;
  options.cache_capacity = 0;
  options.full_race_every = 0;  // the adaptive-deadline path is under test
  PortfolioEngine engine(std::move(registry), options);

  const InstanceFeatures f = extract_features(inst.grid, inst.stencil, inst.alloc);
  for (int i = 0; i < 8; ++i) {
    engine.history().record("slow", make_outcome(f, 0.001, false));
  }

  const auto results = engine.evaluate_all(inst.grid, inst.stencil, inst.alloc);
  const auto slow = std::find_if(results.begin(), results.end(),
                                 [](const BackendResult& r) { return r.name == "slow"; });
  ASSERT_NE(slow, results.end());
  EXPECT_TRUE(slow->timed_out);
  EXPECT_FALSE(slow->usable());
  EXPECT_LT(slow->remap_seconds, 5.0);
  EXPECT_GT(slow->predicted_seconds, 0.0);
  EXPECT_GE(select_winner(options.objective, results), 0);
}

}  // namespace
}  // namespace gridmap::engine
