// ShardedService: N independent MappingService shards behind one front
// door — the engine's horizontal scaling axis. Each shard owns a complete
// service stack (engine + registry + plan cache + history + bounded request
// queue), and every request is routed by the FNV-1a hash of its canonical
// instance signature:
//
//   shard(request) = route_hash(canonical_signature) % shards
//
// where route_hash is fnv1a_hash finished with a splitmix64 bit mixer: raw
// FNV-1a low bits correlate for families of similar short signatures (e.g.
// "g[Nx4;...]" for N = 3..42 lands exclusively on even shards of 4 — a
// measured pathology), and the mixer restores balance while staying a pure,
// platform-stable function of the signature.
//
// Routing by signature rather than round-robin keeps every per-signature
// mechanism correct without any cross-shard coordination: concurrent twins
// always land on the same shard, so single-flight deduplication, the plan
// cache, and the queued-twin priority promotion all work exactly as they do
// in a single service — there is no lock shared between shards.
//
// Determinism: fnv1a_hash is stable across runs and platforms, so for a
// fixed shard count the same instance is always served by the same shard
// (its history file stays coherent across restarts). Served plans are
// bit-identical to direct PortfolioEngine::map() calls with the same
// options — sharding adds placement, not policy.
//
// Persistence: when EngineOptions names a history_file, each shard derives
// its own file ("<path>.shard<i>") so shards never race on one file and a
// restart warms every shard with the outcomes of the instances it will be
// asked for again.
//
// Counters: counters() aggregates across shards — monotonic counters and
// the queue_depth/in_flight gauges sum; max_queue_depth is the maximum over
// shards (a per-queue high-water mark; summing would overstate it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "engine/service.hpp"

namespace gridmap::engine {

class ShardedService {
 public:
  /// Builds `shards` independent MappingService instances, each with a copy
  /// of `registry` and its own engine built from `engine_options` (history
  /// file rewritten per shard, see shard_file). Throws
  /// std::invalid_argument when shards < 1 or any option is invalid.
  explicit ShardedService(const MapperRegistry& registry, EngineOptions engine_options = {},
                          ServiceOptions service_options = {}, int shards = 1);

  /// Routes the request to its signature's shard. Everything else —
  /// admission, dedup, priorities, tickets, the two-tier speculative path —
  /// is that shard's MappingService::map_async contract.
  MapTicket map_async(const CartesianGrid& grid, const Stencil& stencil,
                      const NodeAllocation& alloc, Priority priority = Priority::kNormal,
                      bool speculate = false);

  /// The shard index serving `signature`: route_hash(signature) % shards().
  /// A pure function of the signature — stable across runs and instances.
  std::size_t shard_of(const std::string& signature) const noexcept;

  /// The routing hash: fnv1a_hash(signature) mixed through splitmix64 so
  /// every output bit depends on every input bit (raw FNV-1a low bits are
  /// biased on similar short signatures). Stable across runs and platforms.
  static std::uint64_t route_hash(std::string_view signature) noexcept;

  int shards() const noexcept { return static_cast<int>(shards_.size()); }

  MappingService& shard(std::size_t index) { return *shards_[index]; }
  const MappingService& shard(std::size_t index) const { return *shards_[index]; }

  /// Counters aggregated over all shards (sums; max_queue_depth is the max).
  ServiceCounters counters() const;

  ServiceCounters shard_counters(std::size_t index) const {
    return shards_[index]->counters();
  }

  /// Plan-cache statistics summed over every shard's engine.
  CacheStats cache_stats() const;

  /// Cross-shard Prometheus-style text exposition — the body of the
  /// `metrics` wire verb. Counters and gauges stay one series per shard,
  /// tagged shard="i" (so a per-shard high-water mark like
  /// gridmap_queue_depth_max is never summed or averaged away); latency
  /// histograms are pooled across shards with HistogramSnapshot::merge.
  std::string metrics_text() const;

  /// Whether any shard's engine records trace spans.
  bool tracing() const noexcept;

  /// Merged Chrome trace-event JSON for every shard's trace ring: one pid
  /// per shard (pid = shard index + 1), span tracks as tids. Writes a valid
  /// empty trace when tracing is off.
  void write_trace(std::ostream& out) const;

  /// Total mapper executions across every shard's engine.
  std::uint64_t mapper_runs() const noexcept;

  Objective objective() const noexcept { return objective_; }

  /// The per-shard file a shared history path is rewritten to:
  /// "<path>.shard<index>".
  static std::string shard_file(const std::string& path, int index);

 private:
  // unique_ptr: MappingService owns threads and a mutex, so it is neither
  // movable nor copyable — the vector holds stable heap slots instead.
  std::vector<std::unique_ptr<MappingService>> shards_;
  Objective objective_;
};

}  // namespace gridmap::engine
