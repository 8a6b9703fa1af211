// bench_serving: the end-to-end benchmark of the GRIDMAP/1 plan service.
//
// It fork/execs the real plan_server on an AF_UNIX socket, drives it from
// one load-generator thread over at most min(4, nproc) nonblocking
// connections, checks every response, and prints every metric as
// `<workload> <metric> <value> <unit>`, then one JSON result line. Four
// workloads (README.md in this directory says why each exists):
//
//   cold-paper  closed loop, 1 connection, distinct paper-family instances
//               (every request misses the cache and runs a full race)
//   hot-zipf    open loop, Poisson 5000 req/s over 4 connections, Zipf(1.0)
//               over 64 warmed signatures (every request is a cache hit)
//   twin-storm  closed loop of bursts: one fresh instance sent as mapspec
//               on every connection at once (dedup + two-tier serving)
//   mixed       open loop, Poisson 1000 req/s over 4 connections: 98% hits
//               on the same hot set, 2% fresh instances that race,
//               plan_server --shards 2
//
// Each workload starts fresh servers (no cache or history files) and times
// its phase for --seconds. `--trace 1` replaces the timed run by the traced
// pass (replay.hpp), which reports per-layer metrics instead.
//
// Usage:
//   bench_serving [--workload all|cold-paper|hot-zipf|twin-storm|mixed]
//                 [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//                 [--trace-json FILE] [--server PATH] [--workdir DIR]
//   bench_serving --selftest
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "server.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace gridmap;
using namespace gridmap::bench::serving;
namespace eng = gridmap::engine;

constexpr int kSetupSpawns = 25;
constexpr auto kReplyTimeout = std::chrono::seconds(60);
/// Every n-th cold-paper plan is compared byte for byte with a direct
/// in-process PortfolioEngine::map of the same instance.
constexpr std::size_t kDirectCheckEvery = 20;
/// The wire probe behind wire.socket_us: hits per side.
constexpr int kSocketProbeRequests = 2000;
/// An open-loop run whose generator sent its p99 request later than this
/// is invalid: its latencies would time the client, not the server.
constexpr double kMaxLateMs = 1.0;

/// The traffic of each workload; README.md gives the basis of every number.
struct Workload {
  std::string_view name;
  int shards;
  double rate;        ///< open-loop arrivals per second; 0 = closed loop
  double cold_share;  ///< open loop: share of arrivals that carry a fresh instance
};

constexpr Workload kWorkloads[] = {
    {"cold-paper", 1, 0.0, 0.0},
    {"hot-zipf", 1, 5000.0, 0.0},
    {"twin-storm", 1, 0.0, 0.0},
    {"mixed", 2, 1000.0, 0.02},
};

/// The metrics the JSON line of an untraced run carries — the "end_to_end"
/// list of BENCHMARK.json. Everything else is printed for people only. No
/// tail is among them: every gated metric must hold on every workload, and
/// mixed's tails follow its few hundred races (README.md, "Gated metrics").
constexpr std::string_view kEndToEnd[] = {
    "setup_s",       "latency_p50_ms",  "first_plan_p50_ms", "throughput_rps",
    "server_rss_mb", "plan_jsum_ratio", "plan_jmax_ratio",   "exchange_speedup"};

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string json_file;
  std::string trace_json;
  std::string server = GRIDMAP_PLAN_SERVER;
  std::string workdir = ".";
  bool selftest = false;
  std::string socket;  ///< per-process socket path under workdir
};

struct Report {
  explicit Report(std::string_view name) : workload(name) {}

  std::string workload;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log

  void add(std::string name, double value, std::string unit, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

std::size_t connection_count() {
  return std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::duration seconds_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

std::string support_note(const std::vector<double>& samples, double tail) {
  return "n=" + std::to_string(samples.size()) +
         " beyond=" + std::to_string(count_above(samples, tail));
}

/// Adds <prefix>_mean_ms, _p50_ms, _p95_ms and _p99_ms with their sample
/// support.
void add_latency(Report& r, const std::string& prefix, const std::vector<double>& ms) {
  r.add(prefix + "_mean_ms", mean(ms), "ms", "n=" + std::to_string(ms.size()));
  for (const auto& [q, suffix] : {std::pair<double, const char*>{0.5, "_p50_ms"},
                                  {0.95, "_p95_ms"},
                                  {0.99, "_p99_ms"}}) {
    const double value = quantile(ms, q);
    r.add(prefix + suffix, value, "ms", support_note(ms, value));
  }
}

std::vector<int> connect_all(const std::string& socket, std::size_t n) {
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) fds.push_back(connect_unix(socket, /*nonblocking=*/true));
  return fds;
}

/// The next completions; fails everything outstanding when none arrives
/// within kReplyTimeout.
std::vector<Completion> await(LoadGenerator& lg) {
  std::vector<Completion> done;
  lg.poll_until(Clock::now() + kReplyTimeout, done);
  if (done.empty()) lg.fail_all("no reply within 60 s", done);
  return done;
}

/// Spawns kSetupSpawns servers one after another (each fresh, no cache or
/// history files) and keeps the last; setup_s is the median spawn.
std::unique_ptr<ServerProcess> start_server(const Options& o, const Workload& w, Report& r) {
  std::vector<std::string> flags;
  if (w.shards > 1) flags = {"--shards", std::to_string(w.shards)};
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetupSpawns; ++i) {
    if (server) server->stop();
    server = std::make_unique<ServerProcess>(o.server, o.socket, flags);
    setup.push_back(server->setup_seconds());
  }
  r.add("setup_s", quantile(setup, 0.5), "s",
        "median of " + std::to_string(kSetupSpawns) + " spawns, exec -> hello");
  return server;
}

/// One distinct instance and the (first) final plan served for it.
struct Served {
  std::string args;
  std::string plan;
};

/// Verifies every served plan (parse, signature, bijection, recomputed
/// cost), compares every `direct_every`-th one with a direct in-process
/// race, and reports plan quality against the blocked mapping.
void check_served(const std::vector<Served>& served, std::size_t direct_every, Report& r) {
  std::unique_ptr<eng::PortfolioEngine> direct;
  if (direct_every > 0) {
    direct = std::make_unique<eng::PortfolioEngine>(eng::MapperRegistry::with_default_backends());
  }
  const eng::Objective objective = eng::EngineOptions{}.objective;
  std::vector<double> jsum, jmax, speedup;
  std::size_t compared = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (served[i].plan.empty()) continue;
    const eng::Instance inst = parse_instance(served[i].args);
    eng::MappingPlan plan;
    const std::string error = verify_plan(served[i].plan, inst, objective, plan);
    if (!error.empty()) {
      r.fail(error);
      continue;
    }
    const PlanQuality q = plan_quality(inst, plan);
    jsum.push_back(q.jsum_ratio);
    jmax.push_back(q.jmax_ratio);
    speedup.push_back(q.exchange_speedup);
    if (direct && i % direct_every == 0) {
      ++compared;
      const auto plan_direct = direct->map(inst.grid, inst.stencil, inst.alloc);
      if (eng::serialize_plan(*plan_direct) != served[i].plan) {
        r.fail("served plan differs from a direct race: " + served[i].args);
      }
    }
  }
  const std::string n = "n=" + std::to_string(jsum.size()) + " distinct instances";
  // Arithmetic means: a ratio can be 0 (a plan with no inter-node edge).
  r.add("plan_jsum_ratio", mean(jsum), "ratio", n + ", mean of served/blocked");
  r.add("plan_jmax_ratio", mean(jmax), "ratio", n + ", mean of served/blocked");
  r.add("exchange_speedup", geomean(speedup), "x",
        n + ", blocked/served 64 KiB neighbor alltoall on vsc4");
  if (direct) r.add("checks.direct_compared", static_cast<double>(compared), "count");
}

void add_throughput(Report& r, std::size_t completed, Clock::time_point start,
                    Clock::time_point last) {
  const double elapsed = std::chrono::duration<double>(last - start).count();
  r.add("throughput_rps", elapsed > 0 ? static_cast<double>(completed) / elapsed : 0.0, "1/s",
        std::to_string(completed) + " replies in " + std::to_string(elapsed) + " s");
}

// ------------------------------------------------------------ cold-paper --

Report run_cold_paper(const Options& o, const Workload& w) {
  Report r(w.name);
  std::unique_ptr<ServerProcess> server = start_server(o, w, r);
  LoadGenerator lg(connect_all(o.socket, 1));
  const PriorityBoost boost;
  FamilyStream family(stream(o.seed, "cold-paper/family"), kFamilyMaxNodes, kFamilyMaxPpn);
  std::vector<Served> served;
  std::vector<Clock::time_point> sent_at;
  std::vector<double> latency_ms;
  const auto send_next = [&] {
    served.push_back({family.next().args(), {}});
    sent_at.push_back(Clock::now());
    lg.send(0, served.size() - 1, "map " + served.back().args, false);
  };

  const auto start = Clock::now();
  const auto end = start + seconds_duration(o.seconds);
  Clock::time_point last = start;
  bool healthy = true;
  send_next();
  while (lg.outstanding() > 0) {
    for (Completion& c : await(lg)) {
      last = c.final_at;
      if (!c.error.empty()) {
        r.fail("cold-paper: " + c.error);
        healthy = false;
        continue;
      }
      latency_ms.push_back(ms_between(sent_at[c.id], c.final_at));
      served[c.id].plan = std::move(c.plan);
    }
    if (healthy && Clock::now() < end) send_next();
  }
  lg.close_all();
  r.attempted = served.size();
  add_latency(r, "latency", latency_ms);
  r.add("first_plan_p50_ms", quantile(latency_ms, 0.5), "ms", "= latency_p50_ms (one answer)");
  add_throughput(r, latency_ms.size(), start, last);
  r.add("server_rss_mb", server->stop(), "MB", "peak RSS of plan_server");
  r.add("gen.priority_boosted", boost.boosted() ? 1.0 : 0.0, "count");
  check_served(served, kDirectCheckEvery, r);
  return r;
}

// ------------------------------------------------- hot-zipf, mixed (open) --

Report run_open_loop(const Options& o, const Workload& w) {
  Report r(w.name);
  const OpenLoopStream s = open_loop_stream(o.seed, w.name, w.rate, o.seconds, w.cold_share);
  std::unique_ptr<ServerProcess> server = start_server(o, w, r);
  const std::size_t conns = connection_count();
  LoadGenerator lg(connect_all(o.socket, conns));

  // Untimed warm-up: the hot set once, spread over the connections. These
  // first responses are the references every later hit must equal.
  std::vector<Served> served(s.instances.size());
  for (std::size_t k = 0; k < served.size(); ++k) served[k].args = s.instances[k].args();
  for (std::size_t k = 0; k < s.warm; ++k) lg.send(k % conns, k, "map " + served[k].args, false);
  while (lg.outstanding() > 0) {
    for (Completion& c : await(lg)) {
      if (!c.error.empty()) r.fail("warm-up: " + c.error);
      served[c.id].plan = std::move(c.plan);
    }
  }

  // Arrivals take the connections in turn and are pipelined, so a hit sent
  // behind a fresh instance on its connection waits for that race.
  const PriorityBoost boost;
  const std::size_t arrivals = s.due.size();
  const auto start = Clock::now();
  const auto due = [&](std::size_t i) { return start + seconds_duration(s.due[i]); };
  std::vector<double> latency_ms, hit_ms, race_ms, late_ms;
  std::size_t next = 0;
  Clock::time_point last = start;
  std::vector<Completion> done;
  while (next < arrivals || lg.outstanding() > 0) {
    const auto now = Clock::now();
    for (; next < arrivals && due(next) <= now; ++next) {
      lg.send(next % conns, next, "map " + served[s.key[next]].args, false);
      late_ms.push_back(ms_between(due(next), now));
    }
    const bool all_sent = next == arrivals;
    done.clear();
    lg.poll_until(all_sent ? now + kReplyTimeout : due(next), done);
    if (all_sent && done.empty() && lg.outstanding() > 0) lg.fail_all("no reply within 60 s", done);
    for (Completion& c : done) {
      last = c.final_at;
      if (!c.error.empty()) {
        r.fail(c.error);
        continue;
      }
      // Open loop: latency counts from when the request was due, so a
      // stalled generator or connection is charged, never hidden.
      const double ms = ms_between(due(c.id), c.final_at);
      latency_ms.push_back(ms);
      const std::size_t key = s.key[c.id];
      if (key < s.warm) {
        hit_ms.push_back(ms);
        if (c.plan != served[key].plan) r.fail("repeat hit differs from its first response");
      } else {
        race_ms.push_back(ms);
        served[key].plan = std::move(c.plan);  // a fresh instance: verified below
      }
    }
  }
  lg.close_all();
  r.attempted = s.warm + arrivals;
  add_latency(r, "latency", latency_ms);
  r.add("first_plan_p50_ms", quantile(latency_ms, 0.5), "ms", "= latency_p50_ms (one answer)");
  add_throughput(r, latency_ms.size(), start, last);
  r.add("server_rss_mb", server->stop(), "MB", "peak RSS of plan_server");
  r.add("gen.priority_boosted", boost.boosted() ? 1.0 : 0.0, "count");
  if (w.cold_share > 0.0) {
    add_latency(r, "hit_latency", hit_ms);
    add_latency(r, "race_latency", race_ms);
  }
  const double late_p99 = quantile(late_ms, 0.99);
  r.add("gen.late_ms_p99", late_p99, "ms", "n=" + std::to_string(late_ms.size()));
  if (!(late_p99 <= kMaxLateMs)) {
    r.fail("generator ran late (gen.late_ms_p99 " + std::to_string(late_p99) +
           " ms > 1 ms): the run is invalid");
  }
  check_served(served, 0, r);
  return r;
}

// ------------------------------------------------------------ twin-storm --

Report run_twin_storm(const Options& o, const Workload& w) {
  Report r(w.name);
  std::unique_ptr<ServerProcess> server = start_server(o, w, r);
  const std::size_t conns = connection_count();
  LoadGenerator lg(connect_all(o.socket, conns));
  const PriorityBoost boost;
  FamilyStream family(stream(o.seed, "twin-storm/family"), 48, 32);
  std::vector<Served> served;  // one per burst: its instance and final plan
  std::vector<std::vector<std::string>> provisionals;
  std::vector<double> first_ms, final_ms;

  const auto start = Clock::now();
  const auto end = start + seconds_duration(o.seconds);
  Clock::time_point last = start;
  bool healthy = true;
  while (healthy && Clock::now() < end) {
    served.push_back({family.next().args(), {}});
    provisionals.emplace_back();
    const std::string line = "mapspec " + served.back().args;
    const auto sent = Clock::now();
    for (std::size_t c = 0; c < conns; ++c) lg.send(c, c, line, /*speculative=*/true);
    r.attempted += conns;
    for (std::size_t got = 0; got < conns;) {
      for (Completion& c : await(lg)) {
        ++got;
        last = c.final_at;
        if (!c.error.empty()) {
          r.fail("twin-storm: " + c.error);
          healthy = false;
          continue;
        }
        first_ms.push_back(ms_between(sent, c.first));
        final_ms.push_back(ms_between(sent, c.final_at));
        std::string& final_plan = served.back().plan;
        if (final_plan.empty()) {
          final_plan = std::move(c.plan);
        } else if (c.plan != final_plan) {
          r.fail("twin finals of one burst differ: " + served.back().args);
        }
        if (!c.provisional.empty()) provisionals.back().push_back(std::move(c.provisional));
      }
    }
  }
  lg.close_all();
  add_latency(r, "latency", final_ms);
  r.add("first_plan_p50_ms", quantile(first_ms, 0.5), "ms", "= provisional_p50_ms");
  add_throughput(r, final_ms.size(), start, last);
  r.add("server_rss_mb", server->stop(), "MB", "peak RSS of plan_server");
  r.add("gen.priority_boosted", boost.boosted() ? 1.0 : 0.0, "count");
  add_latency(r, "provisional", first_ms);

  // No final may be worse than the provisional plan its request saw first.
  const eng::Objective objective = eng::EngineOptions{}.objective;
  std::size_t provisional_count = 0;
  for (std::size_t b = 0; b < served.size(); ++b) {
    if (served[b].plan.empty()) continue;
    const eng::Instance inst = parse_instance(served[b].args);
    eng::MappingPlan final_plan;
    // A final that fails its checks is reported by check_served below.
    if (!verify_plan(served[b].plan, inst, objective, final_plan).empty()) continue;
    MappingCost final_cost;
    final_cost.jsum = final_plan.jsum;
    final_cost.jmax = final_plan.jmax;
    for (const std::string& text : std::set<std::string>(provisionals[b].begin(),
                                                        provisionals[b].end())) {
      ++provisional_count;
      eng::MappingPlan early;
      const std::string error = verify_plan(text, inst, objective, early);
      if (!error.empty()) {
        r.fail("provisional: " + error);
        continue;
      }
      MappingCost early_cost;
      early_cost.jsum = early.jsum;
      early_cost.jmax = early.jmax;
      if (eng::better(objective, early_cost, final_cost)) {
        r.fail("final plan worse than its provisional: " + served[b].args);
      }
    }
  }
  r.add("checks.provisionals", static_cast<double>(provisional_count), "count");
  check_served(served, 0, r);
  return r;
}

// ---------------------------------------------------------- traced pass --

/// The seeded request sequence the traced pass replays, drawn from the
/// untraced run's streams of the same workload and seed.
ReplayStream replay_stream(std::uint64_t seed, const Workload& w, std::size_t conns) {
  ReplayStream out;
  if (w.rate > 0.0) {
    constexpr double kRequests = 20000;
    const OpenLoopStream s =
        open_loop_stream(seed, w.name, w.rate, kRequests / w.rate, w.cold_share);
    out.warm = s.warm;
    for (std::size_t k = 0; k < s.warm; ++k) out.lines.push_back("map " + s.instances[k].args());
    for (const std::size_t key : s.key) out.lines.push_back("map " + s.instances[key].args());
    return out;
  }
  constexpr int kInstances = 300;
  const bool twins = w.name == "twin-storm";
  FamilyStream family(stream(seed, std::string(w.name) + "/family"),
                      twins ? 48 : kFamilyMaxNodes, twins ? 32 : kFamilyMaxPpn);
  out.burst = twins ? conns : 1;
  for (int i = 0; i < kInstances; ++i) {
    const std::string line = (twins ? "mapspec " : "map ") + family.next().args();
    for (std::size_t t = 0; t < out.burst; ++t) out.lines.push_back(line);
  }
  return out;
}

/// wire.socket_us: mean closed-loop latency of real wire hits minus the
/// server-side layers of the same hits replayed in-process (parse, route,
/// cache probe, serialize — the load generator never parses plans), on up
/// to 8 signatures the replay has cached, so both sides serve identical
/// plans. What remains is the socket, the connection thread and the
/// service's hit path.
double socket_share_us(const Options& o, const Workload& w, StageReplay& stages,
                       const std::vector<std::string>& replayed) {
  std::vector<std::string> probe;
  std::set<std::string> seen;
  for (auto it = replayed.rbegin(); it != replayed.rend() && probe.size() < 8; ++it) {
    const std::string args = it->substr(it->find(' ') + 1);
    if (seen.insert(args).second) probe.push_back("map " + args);
  }
  if (probe.empty()) throw std::runtime_error("the traced replay served no request");
  double inproc_ns = 0.0;
  for (int i = 0; i < kSocketProbeRequests; ++i) {
    const LayerSample s = stages.replay(probe[static_cast<std::size_t>(i) % probe.size()], false);
    inproc_ns += static_cast<double>(s.parse + s.route + s.probe + s.serialize);
  }

  std::vector<std::string> flags;
  if (w.shards > 1) flags = {"--shards", std::to_string(w.shards)};
  ServerProcess server(o.server, o.socket, flags);
  LoadGenerator lg(connect_all(o.socket, 1));
  for (std::size_t k = 0; k < probe.size(); ++k) lg.send(0, k, probe[k], false);
  while (lg.outstanding() > 0) await(lg);
  double wire_ms = 0.0;
  for (int i = 0; i < kSocketProbeRequests; ++i) {
    const auto sent = Clock::now();
    lg.send(0, 0, probe[static_cast<std::size_t>(i) % probe.size()], false);
    for (const Completion& c : await(lg)) {
      if (!c.error.empty()) throw std::runtime_error("socket probe: " + c.error);
      wire_ms += ms_between(sent, c.final_at);
    }
  }
  lg.close_all();
  server.stop();
  return (wire_ms * 1e3 - inproc_ns / 1e3) / kSocketProbeRequests;
}

Report run_traced(const Options& o, const Workload& w) {
  Report r(w.name);
  const std::size_t conns = connection_count();
  const ReplayStream stream = replay_stream(o.seed, w, conns);
  const auto start = Clock::now();

  StageReplay stages(w.shards);
  stages.run(stream.lines, start + seconds_duration(0.45 * o.seconds));
  const std::vector<std::string> replayed(stream.lines.begin(),
                                          stream.lines.begin() +
                                              static_cast<std::ptrdiff_t>(stages.replayed()));
  stages.report(r.metrics);
  std::vector<std::string> failures;
  replay_service(stream, w.shards, /*speculative=*/stream.burst > 1, conns,
                 Clock::now() + seconds_duration(0.35 * o.seconds), r.metrics, failures);
  r.add("wire.socket_us", socket_share_us(o, w, stages, replayed), "us");

  r.attempted = stages.replayed() + kSocketProbeRequests;
  for (const std::string& f : failures) r.fail(f);
  if (stages.client_mismatches() > 0) r.fail("client parse_plan differs from the served plan");
  if (!o.trace_json.empty()) {
    std::ofstream out(o.trace_json);
    stages.trace().write_chrome_trace(out, 1, "bench_serving " + std::string(w.name));
    if (!out) r.fail("cannot write " + o.trace_json);
  }
  return r;
}

// --------------------------------------------------------------- output --

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

bool in_result(const Metric& m, bool trace) {
  if (trace) return true;
  return std::find(std::begin(kEndToEnd), std::end(kEndToEnd), m.name) != std::end(kEndToEnd);
}

/// `<workload> <metric> <value> <unit>  # note` lines, then the failures.
void print_human(const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %.6g %s%s%s\n", r.workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  const double error_rate =
      r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("%s error_rate %.6g ratio  # failed=%llu attempted=%llu\n", r.workload.c_str(),
              error_rate, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "%s FAILED: %s\n", r.workload.c_str(), f.c_str());
  }
}

/// The one-line result: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const Report& r, bool trace) {
  std::string out = "{\"correct\": " + std::string(r.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!in_result(m, trace)) continue;
    out += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

bool write_json_file(const std::string& path, const Stamp& stamp,
                     const std::vector<Report>& reports, bool trace) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"gridmap-bench-serving/1\",\n  \"trace\": " << (trace ? 1 : 0)
      << ",\n  \"stamp\": {\"nproc\": " << stamp.nproc << ", \"compiler\": \""
      << json_escape(stamp.compiler) << "\", \"build_type\": \"" << stamp.build_type
      << "\", \"commit\": \"" << stamp.commit << "\", \"seed\": " << stamp.seed
      << "},\n  \"workloads\": {";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Report& r = reports[i];
    out << (i ? "," : "") << "\n    \"" << r.workload << "\": {\"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const Metric& m = r.metrics[j];
      out << (j ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
          << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- selftest --

int selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  for (const Workload& w : kWorkloads) {
    const std::string name(w.name);
    expect(replay_stream(7, w, 4).lines == replay_stream(7, w, 4).lines,
           name + ": same seed, different request lists");
    expect(replay_stream(7, w, 4).lines != replay_stream(8, w, 4).lines,
           name + ": different seeds, same request lists");
    if (w.rate > 0.0) {
      const OpenLoopStream a = open_loop_stream(7, w.name, w.rate, 3.0, 0.02);
      const OpenLoopStream b = open_loop_stream(7, w.name, w.rate, 3.0, 0.02);
      std::vector<std::string> args_a, args_b;
      for (const FamilyInstance& i : a.instances) args_a.push_back(i.args());
      for (const FamilyInstance& i : b.instances) args_b.push_back(i.args());
      expect(a.due == b.due && a.key == b.key && args_a == args_b,
             name + ": same seed, different arrival schedules");
      const double rate = static_cast<double>(a.due.size()) / 3.0;
      expect(std::abs(rate - w.rate) < 0.1 * w.rate, name + ": Poisson rate off");
    }
  }
  FamilyStream family(stream(3, "selftest"), kFamilyMaxNodes, kFamilyMaxPpn);
  // The stratified stream: a block holds every (ppn, d, stencil) shape once.
  const std::size_t cells = family_strata(kFamilyMaxNodes, kFamilyMaxPpn).size();
  std::map<std::string, int> block;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    const FamilyInstance inst = family.next();
    if (i < cells / kNodeBins) {
      ++block[std::to_string(inst.ppn) + "/" + std::to_string(inst.dims.size()) + "/" + inst.kind];
    }
    seen.insert(inst.args());
  }
  expect(seen.size() == 1000, "distinct instance stream repeated an instance");
  expect(block.size() * kNodeBins == cells, "a block missed a family shape");
  for (const auto& [shape, count] : block) {
    expect(count == 1, "a block visited shape " + shape + " more than once");
  }
  expect(hot_strata().size() == 64, "the hot set is not 64 cells");
  for (auto it = seen.begin(); it != std::next(seen.begin(), 20); ++it) {
    const eng::Instance inst = parse_instance(*it);
    expect(inst.alloc.total() == inst.grid.size(), "inconsistent family instance: " + *it);
  }

  // Hand-computed type-7 quantiles (Python: statistics.quantiles(method=
  // "inclusive") gives the same), on unsorted input.
  const std::vector<double> five = {40.0, 10.0, 30.0, 0.0, 20.0};
  for (const auto& [q, want] : {std::pair<double, double>{0.0, 0.0},
                                {0.25, 10.0},
                                {0.5, 20.0},
                                {0.9, 36.0},
                                {0.99, 39.6},
                                {1.0, 40.0}}) {
    expect(std::abs(quantile(five, q) - want) < 1e-9,
           "quantile of {0..40 by 10} at q=" + std::to_string(q));
  }
  expect(quantile({3.0, 1.0, 2.0, 4.0}, 0.5) == 2.5, "median of {1, 2, 3, 4} is not 2.5");
  expect(quantile({7.0}, 0.99) == 7.0, "quantile of one sample");
  expect(std::isnan(quantile({}, 0.5)), "quantile of no samples is not NaN");
  std::printf("selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

/// SIGINT/SIGTERM/SIGHUP: take the running plan_server down too, then exit.
/// Async-signal-safe: an atomic load, kill() and _exit().
void on_signal(int sig) {
  const pid_t server = g_live_server.load();
  if (server > 0) ::kill(server, SIGKILL);
  ::_exit(128 + sig);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_serving [--workload all|cold-paper|hot-zipf|twin-storm|mixed]\n"
               "                     [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n"
               "                     [--trace-json FILE] [--server PATH] [--workdir DIR]\n"
               "       bench_serving --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " wants a value");
        return argv[++i];
      };
      if (flag == "--workload") {
        o.workload = value();
      } else if (flag == "--seed") {
        o.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value());
        if (!(o.seconds > 0.0 && o.seconds <= 600.0)) throw std::invalid_argument("bad --seconds");
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace wants 0 or 1");
        o.trace = v == "1";
      } else if (flag == "--json") {
        o.json_file = value();
      } else if (flag == "--trace-json") {
        o.trace_json = value();
      } else if (flag == "--server") {
        o.server = value();
      } else if (flag == "--workdir") {
        o.workdir = value();
      } else if (flag == "--selftest") {
        o.selftest = true;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }
  if (o.selftest) return selftest();

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (o.workload == "all" || o.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return usage();

  std::signal(SIGPIPE, SIG_IGN);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) std::signal(sig, on_signal);
  // The open loop sleeps in ppoll until each request is due; the default
  // 50 us timer slack would make every send late by up to that much.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const Stamp stamp = make_stamp(o.seed, GRIDMAP_BUILD_TYPE, GRIDMAP_SOURCE_ROOT);
  if (stamp.build_type != "Release") {
    std::fprintf(stderr,
                 "WARNING: bench_serving built as '%s', not Release: its numbers are not "
                 "comparable with any recorded baseline\n",
                 stamp.build_type.c_str());
  }
  std::printf("# bench_serving nproc=%u compiler=\"%s\" build=%s commit=%s seed=%llu "
              "seconds=%g trace=%d\n",
              stamp.nproc, stamp.compiler.c_str(), stamp.build_type.c_str(),
              stamp.commit.c_str(), static_cast<unsigned long long>(stamp.seed), o.seconds,
              o.trace ? 1 : 0);
  std::fflush(stdout);

  std::string dir = o.workdir + "/bench_serving.XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror(("mkdtemp in " + o.workdir).c_str());
    return 1;
  }
  o.socket = dir + "/plan.sock";

  std::vector<Report> reports;
  bool ok = true;
  for (const Workload* w : selected) {
    try {
      Report r = o.trace                   ? run_traced(o, *w)
                 : w->rate > 0.0           ? run_open_loop(o, *w)
                 : w->name == "cold-paper" ? run_cold_paper(o, *w)
                                           : run_twin_storm(o, *w);
      for (const Metric& m : r.metrics) {
        if (in_result(m, o.trace) && !std::isfinite(m.value)) r.fail(m.name + " not measured");
      }
      print_human(r);
      std::printf("%s\n", result_line(r, o.trace).c_str());
      std::fflush(stdout);
      ok = ok && r.failed == 0;
      reports.push_back(std::move(r));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: run aborted: %s\n", std::string(w->name).c_str(), e.what());
      ok = false;
    }
  }
  ::unlink(o.socket.c_str());
  ::rmdir(dir.c_str());
  if (!o.json_file.empty() && !write_json_file(o.json_file, stamp, reports, o.trace)) {
    std::fprintf(stderr, "cannot write %s\n", o.json_file.c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
