// The traced pass of bench_serving: per-layer attribution without touching
// the program. A workload's seeded request sequence is replayed in-process
// through the layers' public functions, in the order PortfolioEngine::map
// and the wire layer run them —
//
//   wire.parse      LineBuffer + parse_map_request
//   route           instance_signature + ShardedService::route_hash
//   cache_probe     CacheProbe::run
//   selector        SelectorPass::run                       (misses only)
//   race            RaceStage schedule + collect            (misses only)
//   record          RecordStage::record + commit            (misses only)
//   wire.serialize  serialize_plan
//   client_parse    parse_plan (what a client does with the frame)
//
// — against a bench-owned StageEnv (PlanCache, BackendHistory and
// ThreadPool per the server's default EngineOptions, one cache/history per
// shard). Every layer call is a span on the request's track in an
// obs::TraceRecorder; the request span covers the whole iteration,
// bookkeeping included, so trace.residual_fraction measures what the
// attribution misses. The service layer is replayed separately through
// ShardedService::map_async from several threads, and the socket's share
// is the difference between real wire hits and the same hits in-process.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/plan_io.hpp"
#include "engine/race.hpp"
#include "engine/sharded_service.hpp"
#include "engine/signature.hpp"
#include "engine/wire.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace gridmap::bench::serving {

/// A workload's request sequence as the traced pass replays it.
struct ReplayStream {
  std::vector<std::string> lines;  ///< request lines, no newline
  std::size_t warm = 0;            ///< leading lines that only warm caches
  std::size_t burst = 1;           ///< consecutive identical lines sent together
};

/// Per-layer durations of one replayed request, in nanoseconds; race-side
/// fields stay 0 on a cache hit.
struct LayerSample {
  std::uint64_t parse = 0, route = 0, probe = 0, selector = 0, race = 0, record = 0,
                serialize = 0, client_parse = 0;
  std::size_t response_bytes = 0;
};

class StageReplay {
 public:
  explicit StageReplay(int shards)
      : registry_(engine::MapperRegistry::with_default_backends()),
        caches_(static_cast<std::size_t>(shards)),
        histories_(static_cast<std::size_t>(shards)),
        runs_(static_cast<std::size_t>(shards)),
        shard_requests_(static_cast<std::size_t>(shards), 0),
        trace_(1u << 18) {
    for (auto& c : caches_) c = std::make_unique<engine::PlanCache>(options_.cache_capacity);
    for (auto& h : histories_) {
      h = std::make_unique<engine::BackendHistory>(options_.history_capacity);
    }
    // threads = 0 resolves like the engine's: one pool of hardware size.
    const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    if (threads > 1) pool_ = std::make_unique<engine::ThreadPool>(threads);
    const std::vector<std::string>& names = registry_.names();
    backends_.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) backends_[i].name = names[i];
  }

  /// Replays `lines` in order until done or `deadline`.
  void run(const std::vector<std::string>& lines, Clock::time_point deadline) {
    for (const std::string& line : lines) {
      if (Clock::now() >= deadline) break;
      replay(line, /*traced=*/true);
    }
  }

  /// One request through every layer; returns its layer durations. Traced
  /// requests also land in the trace ring and the per-layer aggregates.
  LayerSample replay(const std::string& line, bool traced) {
    using engine::CacheProbe;
    const std::uint64_t track = trace_.new_track();
    const std::uint64_t t0 = trace_.now_nanos();

    engine::wire::LineBuffer buffer;
    buffer.feed(line);
    buffer.feed("\n");
    std::string request_line;
    buffer.next(request_line);
    std::istringstream args(request_line);
    std::string verb;
    args >> verb;
    const engine::wire::MapRequest request = engine::wire::parse_map_request(args);
    const engine::Instance& inst = request.instance;
    const std::uint64_t t1 = trace_.now_nanos();

    const std::string signature =
        engine::instance_signature(inst.grid, inst.stencil, inst.alloc, options_.objective);
    const std::size_t shard = engine::ShardedService::route_hash(signature) % caches_.size();
    const std::uint64_t t2 = trace_.now_nanos();

    const engine::StageEnv env{registry_,   options_,     *caches_[shard], *histories_[shard],
                               pool_.get(), runs_[shard], nullptr,         0};
    const CacheProbe probe = CacheProbe::run(env, inst.grid, inst.stencil, inst.alloc);
    const std::uint64_t t3 = trace_.now_nanos();

    std::shared_ptr<const engine::MappingPlan> plan = probe.plan;
    std::vector<engine::BackendResult> results;
    std::uint64_t t4 = t3, t5 = t3, t6 = t3;
    if (!probe.hit()) {
      const engine::SelectorPass selection = engine::SelectorPass::run(
          env, inst.grid, inst.stencil, inst.alloc, nullptr, fnv1a_hash(probe.signature));
      t4 = trace_.now_nanos();
      engine::RaceStage race(env, inst.grid, inst.stencil, inst.alloc, selection);
      race.schedule();
      results = race.collect();
      t5 = trace_.now_nanos();
      engine::RecordStage::record(env, selection.features, results);
      plan = engine::RecordStage::commit(env, probe.signature, results);
      t6 = trace_.now_nanos();
    }
    const std::string frame = engine::serialize_plan(*plan);
    const std::uint64_t t7 = trace_.now_nanos();
    const engine::MappingPlan parsed = engine::parse_plan(frame);
    const std::uint64_t t8 = trace_.now_nanos();

    LayerSample s{t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6, t8 - t7,
                  frame.size()};
    if (!traced) return s;

    if (!(parsed == *plan)) ++client_mismatches_;
    ++shard_requests_[shard];
    samples_.push_back(s);
    if (!results.empty()) account_race(results);
    const auto span = [&](const char* name, std::uint64_t start, std::uint64_t end) {
      if (end > start) trace_.record({name, "layer", track, start, end - start});
    };
    span("wire.parse", t0, t1);
    span("route", t1, t2);
    span("cache_probe", t2, t3);
    span("selector", t3, t4);
    span("race", t4, t5);
    span("record", t5, t6);
    span("wire.serialize", t6, t7);
    span("client_parse", t7, t8);
    layer_nanos_ += t8 - t0;
    const std::uint64_t end = trace_.now_nanos();
    trace_.record({"request", "request", track, t0, end - t0});
    request_nanos_ += end - t0;
    return s;
  }

  /// The per-layer metrics of everything replayed so far, by metric name.
  void report(std::vector<Metric>& out) const {
    const auto mean_of = [this](std::uint64_t LayerSample::*field, bool misses_only) {
      double sum = 0.0;
      std::size_t n = 0;
      for (const LayerSample& s : samples_) {
        if (misses_only && s.race == 0) continue;
        sum += static_cast<double>(s.*field);
        ++n;
      }
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };
    std::vector<double> race_ms;
    for (const LayerSample& s : samples_) {
      if (s.race > 0) race_ms.push_back(static_cast<double>(s.race) / 1e6);
    }
    engine::CacheStats cache;
    for (const auto& c : caches_) {
      const engine::CacheStats one = c->stats();
      cache.hits += one.hits;
      cache.misses += one.misses;
      cache.inserts += one.inserts;
      cache.evictions += one.evictions;
    }
    double bytes = 0.0;
    for (const LayerSample& s : samples_) bytes += static_cast<double>(s.response_bytes);
    const double requests = std::max<double>(1.0, static_cast<double>(samples_.size()));
    const double max_shard = static_cast<double>(
        *std::max_element(shard_requests_.begin(), shard_requests_.end()));

    const auto us = [&](std::uint64_t LayerSample::*field, bool misses_only) {
      return mean_of(field, misses_only) / 1e3;
    };
    out.push_back({"wire.parse_us", us(&LayerSample::parse, false), "us"});
    out.push_back({"wire.serialize_us", us(&LayerSample::serialize, false), "us"});
    out.push_back({"wire.client_parse_us", us(&LayerSample::client_parse, false), "us"});
    out.push_back({"wire.response_bytes", bytes / requests, "bytes"});
    out.push_back({"route.signature_us", us(&LayerSample::route, false), "us"});
    out.push_back({"route.shard_max_share", max_shard / requests, "ratio"});
    out.push_back({"plan_cache.probe_us", us(&LayerSample::probe, false), "us"});
    out.push_back({"plan_cache.hit_rate", cache.hit_rate(), "ratio"});
    out.push_back({"plan_cache.inserts", static_cast<double>(cache.inserts), "count"});
    out.push_back({"plan_cache.evictions", static_cast<double>(cache.evictions), "count"});
    out.push_back({"selector.us", us(&LayerSample::selector, true), "us"});
    out.push_back({"record.us", us(&LayerSample::record, true), "us"});
    out.push_back({"race.count", static_cast<double>(races_), "count"});
    out.push_back({"race.ms_p50", quantile(race_ms, 0.5), "ms"});
    out.push_back({"race.ms_p99", quantile(race_ms, 0.99), "ms"});
    const double races = std::max<double>(1.0, static_cast<double>(races_));
    out.push_back(
        {"race.mapper_runs_per_race", static_cast<double>(mapper_runs_) / races, "ratio"});
    out.push_back({"race.cancelled_runs", static_cast<double>(cancelled_runs_), "count"});
    out.push_back({"race.loser_ms_mean", loser_seconds_ * 1e3 / races, "ms"});
    double remap = 0.0, eval = 0.0, runs = 0.0;
    for (const Backend& b : backends_) {
      remap += b.remap_seconds;
      eval += b.eval_seconds;
      runs += static_cast<double>(b.runs);
    }
    out.push_back({"eval.ms", runs > 0 ? eval * 1e3 / runs : 0.0, "ms"});
    out.push_back({"eval.share", remap + eval > 0 ? eval / (remap + eval) : 0.0, "ratio"});
    for (const Backend& b : backends_) {
      const std::string name = metric_name(b.name);
      const double remap_ms =
          b.runs > 0 ? b.remap_seconds * 1e3 / static_cast<double>(b.runs) : 0.0;
      out.push_back(
          {"race.critical_share." + name, static_cast<double>(b.critical) / races, "ratio"});
      out.push_back({"backend." + name + ".remap_ms", remap_ms, "ms"});
      out.push_back(
          {"backend." + name + ".win_share", static_cast<double>(b.wins) / races, "ratio"});
    }
    const double residual =
        request_nanos_ == 0
            ? 0.0
            : 1.0 - static_cast<double>(layer_nanos_) / static_cast<double>(request_nanos_);
    out.push_back({"trace.residual_fraction", residual, "ratio"});
  }

  std::size_t replayed() const noexcept { return samples_.size(); }
  std::size_t client_mismatches() const noexcept { return client_mismatches_; }
  const obs::TraceRecorder& trace() const noexcept { return trace_; }

 private:
  /// Metric-name form of a backend name ('+' is not a metric-name letter).
  static std::string metric_name(std::string name) {
    std::replace(name.begin(), name.end(), '+', '-');
    return name;
  }

  struct Backend {
    std::string name;
    std::size_t runs = 0, wins = 0, critical = 0;
    double remap_seconds = 0.0, eval_seconds = 0.0;
  };

  /// Race anatomy: who ran, who won outright, who bounded the race.
  void account_race(const std::vector<engine::BackendResult>& results) {
    ++races_;
    const int winner = engine::select_winner(options_.objective, results);
    bool tied = false;
    int critical = -1;
    double longest = -1.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const engine::BackendResult& r = results[i];
      if (!r.applicable || r.pruned) continue;
      Backend& b = backends_[i];
      ++mapper_runs_;
      ++b.runs;
      b.remap_seconds += r.remap_seconds;
      b.eval_seconds += r.eval_seconds;
      if (r.cancelled) ++cancelled_runs_;
      if (static_cast<int>(i) != winner) loser_seconds_ += r.total_seconds();
      if (r.total_seconds() > longest) {
        longest = r.total_seconds();
        critical = static_cast<int>(i);
      }
      if (winner >= 0 && static_cast<int>(i) != winner && r.usable()) {
        const MappingCost& w = results[static_cast<std::size_t>(winner)].cost;
        tied = tied || (r.cost.jsum == w.jsum && r.cost.jmax == w.jmax);
      }
    }
    if (winner >= 0 && !tied) ++backends_[static_cast<std::size_t>(winner)].wins;
    if (critical >= 0) ++backends_[static_cast<std::size_t>(critical)].critical;
  }

  engine::MapperRegistry registry_;
  engine::EngineOptions options_;
  std::vector<std::unique_ptr<engine::PlanCache>> caches_;
  std::vector<std::unique_ptr<engine::BackendHistory>> histories_;
  std::vector<std::atomic<std::uint64_t>> runs_;
  std::unique_ptr<engine::ThreadPool> pool_;
  std::vector<std::size_t> shard_requests_;
  obs::TraceRecorder trace_;
  std::vector<LayerSample> samples_;
  std::vector<Backend> backends_;
  std::size_t races_ = 0, mapper_runs_ = 0, cancelled_runs_ = 0, client_mismatches_ = 0;
  double loser_seconds_ = 0.0;
  std::uint64_t layer_nanos_ = 0, request_nanos_ = 0;
};

/// Reads one quantile of a summary series out of a metrics exposition.
inline double exposition_quantile(const std::string& text, const std::string& series,
                                  const std::string& q) {
  std::istringstream lines(text);
  const std::string prefix = series + "{";
  const std::string label = "quantile=\"" + q + "\"";
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0 || line.find(label) == std::string::npos) continue;
    return std::stod(line.substr(line.rfind(' ') + 1));
  }
  return 0.0;
}

/// The service layer replayed from `threads` submitting threads: each
/// thread runs a closed loop over its share of the stream, or — for burst
/// streams — all threads submit one burst's twins together.
inline void replay_service(const ReplayStream& stream, int shards, bool speculative,
                           std::size_t threads, Clock::time_point deadline,
                           std::vector<Metric>& out,
                           std::vector<std::string>& failures) {
  engine::ShardedService service(engine::MapperRegistry::with_default_backends(), {}, {}, shards);
  std::vector<engine::Instance> instances;
  instances.reserve(stream.lines.size());
  for (const std::string& line : stream.lines) {
    std::istringstream args(line);
    std::string verb;
    args >> verb;
    instances.push_back(engine::wire::parse_map_request(args).instance);
  }
  for (std::size_t i = 0; i < stream.warm; ++i) {
    const engine::Instance& inst = instances[i];
    service.map_async(inst.grid, inst.stencil, inst.alloc).get();
  }

  const std::size_t burst = stream.burst;
  std::vector<std::vector<double>> submit_us(threads);
  std::vector<std::vector<std::string>> errors(threads);
  std::atomic<bool> stop{false};
  std::barrier sync(static_cast<std::ptrdiff_t>(threads));
  const auto submit = [&](std::size_t t, std::size_t index) {
    const engine::Instance& inst = instances[index];
    try {
      const auto start = Clock::now();
      engine::MapTicket ticket = service.map_async(inst.grid, inst.stencil, inst.alloc,
                                                   engine::Priority::kNormal, speculative);
      submit_us[t].push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start).count());
      if (ticket.speculative()) ticket.provisional().get();
      ticket.get();
    } catch (const std::exception& e) {
      errors[t].push_back(e.what());
    }
  };
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (burst > 1) {
        // Burst b occupies lines [warm + b*burst, warm + (b+1)*burst); thread
        // t submits twin t % burst of it, all threads released together.
        for (std::size_t b = 0;; ++b) {
          const std::size_t base = stream.warm + b * burst;
          if (t == 0 && (Clock::now() >= deadline || base + burst > instances.size())) {
            stop.store(true);
          }
          sync.arrive_and_wait();
          if (stop.load()) return;
          submit(t, base + t % burst);
          sync.arrive_and_wait();
        }
      }
      for (std::size_t i = stream.warm + t; i < instances.size() && Clock::now() < deadline;
           i += threads) {
        submit(t, i);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<double> all_submit;
  for (std::size_t t = 0; t < threads; ++t) {
    all_submit.insert(all_submit.end(), submit_us[t].begin(), submit_us[t].end());
    for (const std::string& e : errors[t]) failures.push_back("service replay: " + e);
  }
  const engine::ServiceCounters c = service.counters();
  const double submitted = std::max<double>(1.0, static_cast<double>(c.submitted));
  const std::string text = service.metrics_text();
  const auto queue_wait_ms = [&text](const char* q) {
    return exposition_quantile(text, "gridmap_queue_wait_seconds", q) * 1e3;
  };
  const double upgraded =
      c.speculated == 0 ? 0.0
                        : static_cast<double>(c.upgraded) / static_cast<double>(c.speculated);
  out.push_back({"service.requests", static_cast<double>(all_submit.size()), "count"});
  out.push_back({"service.submit_us_p50", quantile(all_submit, 0.5), "us"});
  out.push_back({"service.queue_wait_ms_p50", queue_wait_ms("0.5"), "ms"});
  out.push_back({"service.queue_wait_ms_p99", queue_wait_ms("0.99"), "ms"});
  out.push_back({"service.dedup_share", static_cast<double>(c.deduped) / submitted, "ratio"});
  out.push_back(
      {"service.races_per_request", static_cast<double>(c.completed) / submitted, "ratio"});
  out.push_back({"service.upgraded_share", upgraded, "ratio"});
  out.push_back(
      {"service.rejected", static_cast<double>(c.rejected_full + c.rejected_shutdown), "count"});
}

}  // namespace gridmap::bench::serving
