#include "engine/sharded_service.hpp"

#include <algorithm>
#include <sstream>

#include "core/types.hpp"
#include "engine/signature.hpp"
#include "engine/telemetry.hpp"

namespace gridmap::engine {

std::string ShardedService::shard_file(const std::string& path, int index) {
  return path + ".shard" + std::to_string(index);
}

ShardedService::ShardedService(const MapperRegistry& registry, EngineOptions engine_options,
                               ServiceOptions service_options, int shards)
    : objective_(engine_options.objective) {
  GRIDMAP_CHECK(shards >= 1, "ShardedService: shards must be >= 1");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    EngineOptions shard_options = engine_options;
    if (!shard_options.history_file.empty()) {
      shard_options.history_file = shard_file(engine_options.history_file, i);
    }
    shards_.push_back(std::make_unique<MappingService>(registry, std::move(shard_options),
                                                       service_options));
  }
}

std::uint64_t ShardedService::route_hash(std::string_view signature) noexcept {
  // splitmix64 finalizer over the FNV-1a hash: fixed constants, so the
  // shard of a signature never changes across runs, builds, or platforms.
  std::uint64_t x = fnv1a_hash(signature);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::size_t ShardedService::shard_of(const std::string& signature) const noexcept {
  return static_cast<std::size_t>(route_hash(signature) % shards_.size());
}

MapTicket ShardedService::map_async(const CartesianGrid& grid, const Stencil& stencil,
                                    const NodeAllocation& alloc, Priority priority,
                                    bool speculate) {
  const std::string signature = instance_signature(grid, stencil, alloc, objective_);
  return shards_[shard_of(signature)]->map_async(grid, stencil, alloc, priority, speculate);
}

ServiceCounters ShardedService::counters() const {
  ServiceCounters total;
  for (const std::unique_ptr<MappingService>& shard : shards_) {
    const ServiceCounters c = shard->counters();
    total.submitted += c.submitted;
    total.admitted += c.admitted;
    total.rejected_full += c.rejected_full;
    total.rejected_shutdown += c.rejected_shutdown;
    total.deduped += c.deduped;
    total.cache_hits += c.cache_hits;
    total.completed += c.completed;
    total.failed += c.failed;
    total.cancelled += c.cancelled;
    total.fully_cancelled += c.fully_cancelled;
    total.speculated += c.speculated;
    total.upgraded += c.upgraded;
    total.queue_depth += c.queue_depth;
    total.in_flight += c.in_flight;
    total.max_queue_depth = std::max(total.max_queue_depth, c.max_queue_depth);
  }
  return total;
}

CacheStats ShardedService::cache_stats() const {
  CacheStats total;
  for (const std::unique_ptr<MappingService>& shard : shards_) {
    const CacheStats c = shard->engine().cache_stats();
    total.hits += c.hits;
    total.misses += c.misses;
    total.evictions += c.evictions;
    total.inserts += c.inserts;
    total.refreshes += c.refreshes;
    total.size += c.size;
    total.capacity += c.capacity;
  }
  return total;
}

std::string ShardedService::metrics_text() const {
  obs::MetricsSnapshot out;     // per-shard counter/gauge series, shard= tagged
  obs::MetricsSnapshot pooled;  // histograms merged across shards
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    obs::MetricsSnapshot shard = shards_[i]->metrics();
    obs::MetricsSnapshot histograms;
    obs::MetricsSnapshot scalars;
    for (obs::SeriesSnapshot& series : shard) {
      (series.kind == obs::SeriesSnapshot::Kind::kHistogram ? histograms : scalars)
          .push_back(std::move(series));
    }
    obs::merge_series(pooled, histograms);
    obs::add_label(scalars, "shard", std::to_string(i));
    for (obs::SeriesSnapshot& series : scalars) out.push_back(std::move(series));
  }
  for (obs::SeriesSnapshot& series : pooled) out.push_back(std::move(series));

  obs::SeriesSnapshot shard_count;
  shard_count.kind = obs::SeriesSnapshot::Kind::kGauge;
  shard_count.name = "gridmap_shards";
  shard_count.value = static_cast<double>(shards_.size());
  out.push_back(std::move(shard_count));

  std::ostringstream text;
  obs::write_exposition(text, std::move(out));
  return text.str();
}

bool ShardedService::tracing() const noexcept {
  for (const std::unique_ptr<MappingService>& shard : shards_) {
    const EngineTelemetry* tel = shard->engine().telemetry();
    if (tel != nullptr && tel->tracing()) return true;
  }
  return false;
}

void ShardedService::write_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const EngineTelemetry* tel = shards_[i]->engine().telemetry();
    if (tel == nullptr || !tel->tracing()) continue;
    obs::write_chrome_trace_events(out, tel->trace().spans(), static_cast<int>(i) + 1,
                                   "shard " + std::to_string(i), first);
  }
  out << "\n]}\n";
}

std::uint64_t ShardedService::mapper_runs() const noexcept {
  std::uint64_t total = 0;
  for (const std::unique_ptr<MappingService>& shard : shards_) {
    total += shard->engine().mapper_runs();
  }
  return total;
}

}  // namespace gridmap::engine
