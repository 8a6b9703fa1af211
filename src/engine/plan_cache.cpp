#include "engine/plan_cache.hpp"

#include "core/types.hpp"

namespace gridmap::engine {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const MappingPlan> PlanCache::get(const std::string& signature) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(signature);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

std::shared_ptr<const MappingPlan> PlanCache::probe(const std::string& signature) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(signature);
  if (it == index_.end()) return nullptr;  // deliberately not a counted miss
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PlanCache::put(const std::string& signature, std::shared_ptr<const MappingPlan> plan) {
  GRIDMAP_CHECK(plan != nullptr, "cannot cache a null plan");
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;
  const auto it = index_.find(signature);
  if (it != index_.end()) {
    ++refreshes_;
    it->second->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  ++inserts_;
  lru_.emplace_front(signature, std::move(plan));
  index_.emplace(signature, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.inserts = inserts_;
  s.refreshes = refreshes_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace gridmap::engine
