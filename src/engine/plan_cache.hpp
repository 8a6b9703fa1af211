// PlanCache: a thread-safe LRU cache from canonical instance signatures to
// winning plans, with hit/miss/eviction statistics. Plans are immutable and
// handed out as shared_ptr<const>, so a cached plan stays valid even if it
// is evicted while a caller still holds it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/plan.hpp"

namespace gridmap::engine {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;   ///< new signatures stored (capacity-0 drops excluded)
  std::uint64_t refreshes = 0; ///< put() on an already-cached signature
  std::size_t size = 0;
  std::size_t capacity = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class PlanCache {
 public:
  /// Capacity 0 disables caching (every get is a miss, puts are dropped).
  explicit PlanCache(std::size_t capacity);

  /// Returns the cached plan and refreshes its recency, or nullptr.
  /// Counts a hit or a miss.
  std::shared_ptr<const MappingPlan> get(const std::string& signature);

  /// get() for a layered fast path (the MappingService probes before
  /// queueing): a hit counts and refreshes recency exactly like get(), but
  /// a miss is NOT counted — the authoritative get() inside the engine's
  /// map path follows and counts it, so stats match a direct map() call.
  std::shared_ptr<const MappingPlan> probe(const std::string& signature);

  /// Inserts or refreshes a plan under `signature`, evicting the least
  /// recently used entry when over capacity.
  void put(const std::string& signature, std::shared_ptr<const MappingPlan> plan);

  CacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  void clear();

 private:
  using LruList = std::list<std::pair<std::string, std::shared_ptr<const MappingPlan>>>;

  mutable std::mutex mutex_;
  std::size_t capacity_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace gridmap::engine
