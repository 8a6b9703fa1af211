// ShardedService tests: signature-hash routing determinism, the
// served-plan ≡ direct-engine bit-identity contract per shard, aggregated
// ServiceCounters, per-shard cache/history persistence, and a concurrent
// cross-shard storm (runs under the CI TSan and ASan+UBSan jobs, label
// `engine`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/blocked.hpp"
#include "core/types.hpp"
#include "engine/sharded_service.hpp"
#include "engine/signature.hpp"

namespace gridmap::engine {
namespace {

using std::chrono::milliseconds;

MapperRegistry tiny_registry() {
  MapperRegistry registry;
  registry.add("blocked", [] { return std::make_unique<BlockedMapper>(); });
  return registry;
}

/// Deliberately slow cooperative mapper: spins for `spin` wall time while
/// polling the ExecContext, then returns the identity mapping. Used to hold
/// one shard's dispatcher provably busy while twins pile up behind it.
class SlowMapper final : public Mapper {
 public:
  using Mapper::remap;

  explicit SlowMapper(milliseconds spin) : spin_(spin) {}

  std::string_view name() const noexcept override { return "Slow"; }

  Remapping remap(const CartesianGrid& grid, const Stencil& /*stencil*/,
                  const NodeAllocation& /*alloc*/, ExecContext& ctx) const override {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < spin_) ctx.checkpoint();
    return Remapping::identity(grid);
  }

 private:
  milliseconds spin_;
};

MapperRegistry slow_registry(milliseconds spin) {
  MapperRegistry registry;
  registry.add("blocked", [] { return std::make_unique<BlockedMapper>(); });
  registry.add("slow", [spin] { return std::make_unique<SlowMapper>(spin); });
  return registry;
}

Instance instance_2d(int a, int b) {
  return {CartesianGrid({a, b}), Stencil::nearest_neighbor(2),
          NodeAllocation::homogeneous(a, b)};
}

std::string signature_of(const ShardedService& service, const Instance& inst) {
  return instance_signature(inst.grid, inst.stencil, inst.alloc, service.objective());
}

MapTicket submit(ShardedService& service, const Instance& inst,
                 Priority priority = Priority::kNormal) {
  return service.map_async(inst.grid, inst.stencil, inst.alloc, priority);
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

// ---------------------------------------------------------------- routing --

TEST(ShardedService, RoutingIsTheSignatureRouteHashModuloShardCount) {
  ShardedService service(tiny_registry(), {}, {}, 5);
  for (int a = 3; a < 12; ++a) {
    const Instance inst = instance_2d(a, 4);
    const std::string signature = signature_of(service, inst);
    EXPECT_EQ(service.shard_of(signature),
              static_cast<std::size_t>(ShardedService::route_hash(signature) % 5));
  }
}

TEST(ShardedService, RouteHashMixesTheBiasedFnv1aLowBits) {
  // Raw fnv1a % 4 sends the whole "g[Nx4;...]" family to even shards (a
  // measured pathology: 24/0/16/0 over N = 3..42); the splitmix64-finished
  // route_hash must not inherit that degeneracy. This pins the mixer: if it
  // is ever dropped, this family collapses onto half the shards again.
  ShardedService service(tiny_registry(), {}, {}, 4);
  std::vector<int> load(4, 0);
  for (int a = 3; a < 43; ++a) {
    ++load[service.shard_of(signature_of(service, instance_2d(a, 4)))];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GE(load[static_cast<std::size_t>(s)], 4) << "shard " << s << " starved";
  }
}

TEST(ShardedService, RoutingIsDeterministicAcrossServiceInstancesAndRuns) {
  // fnv1a_hash is stable across runs and platforms, so two independent
  // services with the same shard count must route every signature
  // identically — the property that keeps per-shard cache files coherent
  // across server restarts.
  ShardedService first(tiny_registry(), {}, {}, 4);
  ShardedService second(tiny_registry(), {}, {}, 4);
  for (int a = 3; a < 20; ++a) {
    for (int b = 3; b < 8; ++b) {
      const std::string signature = signature_of(first, instance_2d(a, b));
      EXPECT_EQ(first.shard_of(signature), second.shard_of(signature)) << signature;
    }
  }
}

TEST(ShardedService, EveryRequestLandsOnItsSignatureShard) {
  ShardedService service(tiny_registry(), {}, {}, 3);
  for (int a = 3; a < 11; ++a) {
    const Instance inst = instance_2d(a, 5);
    const std::size_t expected = service.shard_of(signature_of(service, inst));
    const ServiceCounters before = service.shard_counters(expected);
    ASSERT_NE(submit(service, inst).get(), nullptr);
    const ServiceCounters after = service.shard_counters(expected);
    EXPECT_EQ(after.submitted, before.submitted + 1);
    // No other shard saw the request.
    ServiceCounters total = service.counters();
    std::uint64_t sum = 0;
    for (int s = 0; s < service.shards(); ++s) {
      sum += service.shard_counters(static_cast<std::size_t>(s)).submitted;
    }
    EXPECT_EQ(total.submitted, sum);
  }
}

TEST(ShardedService, SpreadsDistinctSignaturesOverMultipleShards) {
  // Not a uniformity proof — just that routing is not degenerate: across 40
  // distinct instances every one of 4 shards serves at least one request.
  ShardedService service(tiny_registry(), {}, {}, 4);
  std::vector<bool> hit(4, false);
  for (int a = 3; a < 43; ++a) {
    hit[service.shard_of(signature_of(service, instance_2d(a, 4)))] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(hit[static_cast<std::size_t>(s)]) << s;
}

TEST(ShardedService, InvalidShardCountThrows) {
  EXPECT_THROW(ShardedService(tiny_registry(), {}, {}, 0), std::invalid_argument);
  EXPECT_THROW(ShardedService(tiny_registry(), {}, {}, -3), std::invalid_argument);
}

// ---------------------------------------------------- served plans ≡ direct --

TEST(ShardedService, ServedPlansBitIdenticalToDirectEngineOnEveryShard) {
  PortfolioEngine direct(MapperRegistry::with_default_backends(), {});
  ShardedService service(MapperRegistry::with_default_backends(), {}, {}, 3);
  // Enough instances that every shard provably serves at least one (the
  // assertion below would be vacuous for a shard nothing routed to).
  std::vector<bool> exercised(3, false);
  for (int a = 4; a < 10; ++a) {
    const Instance inst = instance_2d(a, 6);
    exercised[service.shard_of(signature_of(service, inst))] = true;
    const auto served = submit(service, inst).get();
    const auto direct_plan = direct.map(inst.grid, inst.stencil, inst.alloc);
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(*served, *direct_plan);
  }
  for (int s = 0; s < 3; ++s) EXPECT_TRUE(exercised[static_cast<std::size_t>(s)]) << s;
}

TEST(ShardedService, OneShardBehavesExactlyLikeASingleMappingService) {
  ShardedService sharded(tiny_registry(), {}, {}, 1);
  MappingService single(tiny_registry(), {}, {});
  for (int a = 3; a < 8; ++a) {
    const Instance inst = instance_2d(a, 4);
    const auto via_sharded = submit(sharded, inst).get();
    const auto via_single = single.map_async(inst.grid, inst.stencil, inst.alloc).get();
    EXPECT_EQ(*via_sharded, *via_single);
  }
  const ServiceCounters a = sharded.counters();
  const ServiceCounters b = single.counters();
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

// ------------------------------------------------------- dedup stays local --

TEST(ShardedService, TwinsAlwaysMeetOnTheSameShardSoDedupStillWorks) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.cache_capacity = 0;  // dedup, not the cache, must carry this
  ServiceOptions service_options;
  service_options.workers = 1;
  ShardedService service(slow_registry(milliseconds(200)), engine_options,
                         service_options, 4);

  // Occupy the twin's home shard (its only dispatcher) with a different
  // instance that routes to the same shard, so the twins below are all
  // queued together and must deduplicate rather than race serially.
  const Instance twin = instance_2d(6, 5);
  const std::size_t home = service.shard_of(signature_of(service, twin));
  MapTicket occupier;
  bool occupied = false;
  for (int a = 3; a < 40 && !occupied; ++a) {
    const Instance candidate = instance_2d(a, 7);
    if (service.shard_of(signature_of(service, candidate)) != home) continue;
    occupier = submit(service, candidate);
    occupied = true;
  }
  ASSERT_TRUE(occupied) << "no occupier instance routed to shard " << home;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.shard_counters(home).in_flight < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_GE(service.shard_counters(home).in_flight, 1u);

  std::vector<MapTicket> tickets;
  for (int i = 0; i < 6; ++i) tickets.push_back(submit(service, twin));
  for (int i = 1; i < 6; ++i) EXPECT_TRUE(tickets[static_cast<std::size_t>(i)].deduped());
  const auto plan = tickets[0].get();
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].get(), plan);  // same object, not a copy
  }
  (void)occupier.get();

  // All dedup happened on the twin's home shard; the aggregate sees it.
  const ServiceCounters total = service.counters();
  EXPECT_EQ(total.submitted, 7u);
  EXPECT_EQ(total.deduped, 5u);
  EXPECT_EQ(total.admitted, 2u);  // occupier + first twin
  EXPECT_EQ(service.shard_counters(home).submitted, 7u);
  EXPECT_EQ(service.shard_counters(home).deduped, 5u);
}

// ------------------------------------------------------ counter aggregation --

TEST(ShardedService, AggregatedCountersAreTheFieldwiseSumOverShards) {
  ShardedService service(tiny_registry(), {}, {}, 4);
  // 24 distinct instances completed first, then 8 repeats — the repeats are
  // guaranteed cache hits on whichever shard served the original.
  for (int i = 0; i < 24; ++i) ASSERT_NE(submit(service, instance_2d(3 + i, 4)).get(), nullptr);
  for (int i = 0; i < 8; ++i) ASSERT_NE(submit(service, instance_2d(3 + i, 4)).get(), nullptr);

  ServiceCounters sum;
  for (int s = 0; s < service.shards(); ++s) {
    const ServiceCounters c = service.shard_counters(static_cast<std::size_t>(s));
    sum.submitted += c.submitted;
    sum.admitted += c.admitted;
    sum.rejected_full += c.rejected_full;
    sum.rejected_shutdown += c.rejected_shutdown;
    sum.deduped += c.deduped;
    sum.cache_hits += c.cache_hits;
    sum.completed += c.completed;
    sum.failed += c.failed;
    sum.cancelled += c.cancelled;
    sum.queue_depth += c.queue_depth;
    sum.in_flight += c.in_flight;
    sum.max_queue_depth = std::max(sum.max_queue_depth, c.max_queue_depth);
  }
  const ServiceCounters total = service.counters();
  EXPECT_EQ(total.submitted, sum.submitted);
  EXPECT_EQ(total.admitted, sum.admitted);
  EXPECT_EQ(total.rejected_full, sum.rejected_full);
  EXPECT_EQ(total.rejected_shutdown, sum.rejected_shutdown);
  EXPECT_EQ(total.deduped, sum.deduped);
  EXPECT_EQ(total.cache_hits, sum.cache_hits);
  EXPECT_EQ(total.completed, sum.completed);
  EXPECT_EQ(total.failed, sum.failed);
  EXPECT_EQ(total.cancelled, sum.cancelled);
  EXPECT_EQ(total.queue_depth, sum.queue_depth);
  EXPECT_EQ(total.in_flight, sum.in_flight);
  EXPECT_EQ(total.max_queue_depth, sum.max_queue_depth);

  EXPECT_EQ(total.submitted, 32u);
  EXPECT_EQ(total.completed + total.cache_hits + total.deduped, 32u);
  EXPECT_EQ(total.cache_hits, 8u);  // the 8 repeats hit their shard's cache
}

TEST(ShardedService, MapperRunsAndCacheStatsSumOverShards) {
  ShardedService service(tiny_registry(), {}, {}, 3);
  for (int i = 0; i < 9; ++i) (void)submit(service, instance_2d(3 + i, 4)).get();
  for (int i = 0; i < 9; ++i) (void)submit(service, instance_2d(3 + i, 4)).get();

  std::uint64_t runs = 0;
  std::uint64_t hits = 0, misses = 0;
  for (int s = 0; s < service.shards(); ++s) {
    runs += service.shard(static_cast<std::size_t>(s)).engine().mapper_runs();
    const CacheStats c = service.shard(static_cast<std::size_t>(s)).engine().cache_stats();
    hits += c.hits;
    misses += c.misses;
  }
  EXPECT_EQ(service.mapper_runs(), runs);
  EXPECT_EQ(runs, 9u);  // 9 distinct races x 1 backend; repeats were cached
  const CacheStats total = service.cache_stats();
  EXPECT_EQ(total.hits, hits);
  EXPECT_EQ(total.misses, misses);
  EXPECT_EQ(total.hits, 9u);
}

// -------------------------------------------------- per-shard persistence --

TEST(ShardedService, PerShardHistoryFilesPersistIndependently) {
  const std::string history_path = temp_path("gridmap_sharded_history.txt");
  for (int s = 0; s < 2; ++s) {
    std::remove(ShardedService::shard_file(history_path, s).c_str());
  }
  EngineOptions engine_options;
  engine_options.history_file = history_path;
  {
    ShardedService service(tiny_registry(), engine_options, {}, 2);
    for (int a = 3; a < 9; ++a) ASSERT_NE(submit(service, instance_2d(a, 4)).get(), nullptr);
  }
  for (int s = 0; s < 2; ++s) {
    const std::string path = ShardedService::shard_file(history_path, s);
    EXPECT_TRUE(file_exists(path)) << path;
    std::remove(path.c_str());
  }
  EXPECT_FALSE(file_exists(history_path));
}

// --------------------------------------------------- concurrent cross-shard --

TEST(ShardedService, ConcurrentCrossShardStormStaysConsistent) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  ServiceOptions service_options;
  service_options.workers = 1;
  service_options.queue_capacity = 16;
  ShardedService service(tiny_registry(), engine_options, service_options, 4);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::atomic<std::uint64_t> plans{0}, rejections{0}, cancels{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &plans, &rejections, &cancels, t] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          MapTicket ticket = submit(service, instance_2d(3 + (t * kPerThread + i) % 17, 4),
                                    i % 3 == 0 ? Priority::kHigh : Priority::kNormal);
          if ((t + i) % 9 == 0) {
            ticket.cancel();
            try {
              ticket.get();
              ++plans;  // raced to completion before the cancel landed
            } catch (const CancelledError&) {
              ++cancels;
            }
            continue;
          }
          if (ticket.get() != nullptr) ++plans;
        } catch (const AdmissionError&) {
          ++rejections;
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(plans + rejections + cancels,
            static_cast<std::uint64_t>(kThreads * kPerThread));

  // Gauges settle back to zero (they are unsigned: a negative-going bug
  // would show up as a huge value, which the bounds below also catch).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.counters().in_flight > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  const ServiceCounters total = service.counters();
  EXPECT_EQ(total.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(total.queue_depth, 0u);
  EXPECT_EQ(total.in_flight, 0u);
  for (int s = 0; s < service.shards(); ++s) {
    const ServiceCounters c = service.shard_counters(static_cast<std::size_t>(s));
    EXPECT_LE(c.queue_depth, service_options.queue_capacity) << "shard " << s;
    EXPECT_LE(c.max_queue_depth, service_options.queue_capacity) << "shard " << s;
    EXPECT_LE(c.in_flight, static_cast<std::size_t>(service_options.workers))
        << "shard " << s;
  }
}

}  // namespace
}  // namespace gridmap::engine
