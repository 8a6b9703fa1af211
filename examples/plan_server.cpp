// plan_server: the networked front-end of a ShardedService — "mapping as a
// service" across processes and hosts. One sharded service (N independent
// engines, requests routed by signature hash) serves every connected
// client over AF_UNIX and/or TCP listeners; concurrent identical requests
// from different processes join one race via per-shard single-flight
// deduplication, and repeated instances come straight from that shard's
// plan cache.
//
// The protocol is GRIDMAP/1 (src/engine/wire.hpp, spec in docs/FORMATS.md):
// the server sends a "GRIDMAP/1\n" hello on connect, then answers one-line
// requests (map/stats/metrics/shutdown) with a plan or metrics block or an
// ok/err line.
//
// Robustness: SIGPIPE is ignored (writes to vanished peers fail instead of
// killing the server); reads and writes are EINTR-safe and carry socket
// timeouts so a half-open peer cannot pin a connection thread; SIGTERM and
// SIGINT trigger a graceful shutdown — listeners close, connection threads
// finish their current request, and the service destructor delivers every
// in-flight race before the process exits.
//
// Usage:
//   plan_server (--unix PATH | --tcp PORT) [--shards N] [--threads T]
//               [--queue CAP] [--workers W] [--trace FILE] [--no-metrics]
//
// Both --unix and --tcp may be given to serve local and remote clients at
// once. --trace FILE records per-request spans into each shard's bounded
// ring and writes the merged Chrome trace-event JSON (Perfetto-loadable) to
// FILE on shutdown; --no-metrics turns the latency histograms off (the
// `metrics` verb then exposes only the service counters). See
// plan_client.cpp for the matching client; README "Mapping as a service"
// walks through the multi-process demo.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_service.hpp"
#include "engine/wire.hpp"

namespace {

using namespace gridmap;
using namespace gridmap::engine;

std::atomic<bool> g_stop{false};
// Listener fds the signal handler shuts down to unblock the accept loops.
// Plain ints set before any signal can arrive; -1 means "not listening".
std::atomic<int> g_listeners[2] = {-1, -1};

void request_stop() {
  g_stop.store(true);
  for (const std::atomic<int>& listener : g_listeners) {
    const int fd = listener.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

// Async-signal-safe: an atomic store plus the shutdown() syscall.
void on_signal(int) { request_stop(); }

int usage() {
  std::cerr << "usage: plan_server (--unix PATH | --tcp PORT) [--shards N]"
               " [--threads T] [--queue CAP] [--workers W] [--trace FILE]"
               " [--no-metrics]\n";
  return 2;
}

/// Parses a count flag strictly: decimal digits only — no sign, no
/// whitespace, no trailing junk — and within T's range. `--queue -1` must
/// not wrap to an unbounded queue, nor `--threads 2x` pass as 2.
template <class T>
T parse_count(const std::string& flag, const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || text.front() == '-') {
    throw std::invalid_argument(flag + " wants a non-negative integer, got '" + text + "'");
  }
  return value;
}

int make_unix_listener(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket(unix)");
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::cerr << "socket path too long: " << path << "\n";
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    std::perror("bind/listen(unix)");
    ::close(fd);
    return -1;
  }
  return fd;
}

int make_tcp_listener(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket(tcp)");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    std::perror("bind/listen(tcp)");
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Serves one accepted connection over the wire protocol, with read/write
/// timeouts so an idle or half-open peer notices `g_stop` within 500 ms /
/// cannot wedge a writer for more than 5 s.
void serve_fd(int fd, ShardedService& service) {
  timeval read_timeout{};
  read_timeout.tv_usec = 500 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout, sizeof read_timeout);
  timeval write_timeout{};
  write_timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &write_timeout, sizeof write_timeout);

  wire::FdTransport transport(fd);
  wire::serve_connection(transport, service, g_stop, request_stop);
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  std::string trace_file;
  int tcp_port = -1;
  int shards = 1;
  EngineOptions engine_options;
  ServiceOptions service_options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " wants a value");
        return argv[++i];
      };
      if (flag == "--unix") {
        unix_path = value();
      } else if (flag == "--trace") {
        trace_file = value();
        engine_options.obs.trace = true;
      } else if (flag == "--no-metrics") {
        engine_options.obs.metrics = false;
      } else if (flag == "--tcp") {
        tcp_port = parse_count<int>(flag, value());
        if (tcp_port < 1 || tcp_port > 65535) {
          throw std::invalid_argument("--tcp wants a port in [1, 65535]");
        }
      } else if (flag == "--shards") {
        shards = parse_count<int>(flag, value());
      } else if (flag == "--threads") {
        engine_options.threads = parse_count<int>(flag, value());
      } else if (flag == "--queue") {
        service_options.queue_capacity = parse_count<std::size_t>(flag, value());
      } else if (flag == "--workers") {
        service_options.workers = parse_count<int>(flag, value());
      } else {
        std::cerr << "unknown flag: " << flag << "\n";
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }
  if (unix_path.empty() && tcp_port < 0) return usage();

  std::signal(SIGPIPE, SIG_IGN);  // a vanished peer fails the write, not the server
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::vector<int> listeners;
  if (!unix_path.empty()) {
    const int fd = make_unix_listener(unix_path);
    if (fd < 0) return 1;
    g_listeners[0].store(fd);
    listeners.push_back(fd);
  }
  if (tcp_port >= 0) {
    const int fd = make_tcp_listener(tcp_port);
    if (fd < 0) return 1;
    g_listeners[1].store(fd);
    listeners.push_back(fd);
  }

  // Option validation (shards >= 1, engine/service option ranges) throws
  // from the constructors — report it as a usage error, not a terminate().
  std::unique_ptr<ShardedService> service_owner;
  try {
    service_owner = std::make_unique<ShardedService>(
        MapperRegistry::with_default_backends(), engine_options, service_options, shards);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    for (const int fd : listeners) ::close(fd);
    if (!unix_path.empty()) ::unlink(unix_path.c_str());
    return usage();
  }
  ShardedService& service = *service_owner;
  std::cout << "plan_server (" << wire::kProtocol << ") listening on";
  if (!unix_path.empty()) std::cout << " unix:" << unix_path;
  if (tcp_port >= 0) std::cout << " tcp:" << tcp_port;
  std::cout << " — " << service.shards() << " shard(s), "
            << service.shard(0).engine().registry().size() << " backends, "
            << service.shard(0).engine().threads() << " engine thread(s) each\n"
            << std::flush;

  // One thread per connection, reaped as they finish so a long-running
  // server does not accumulate joinable handles for every client ever seen.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::vector<Connection> connections;
  std::mutex connections_mutex;  // both acceptors push into `connections`
  const auto reap = [&connections](bool all) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (all || it->finished->load()) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  // One accept loop per listener; each exits when its listener is shut down
  // by a signal or the wire shutdown command.
  std::vector<std::thread> acceptors;
  for (const int listen_fd : listeners) {
    acceptors.emplace_back([listen_fd, &service, &connections, &connections_mutex, &reap] {
      while (!g_stop.load()) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EINTR) continue;
          break;  // listener shut down (or fatal error)
        }
        std::lock_guard<std::mutex> lock(connections_mutex);
        reap(/*all=*/false);
        auto finished = std::make_shared<std::atomic<bool>>(false);
        connections.push_back({std::thread([fd, &service, finished] {
                                 serve_fd(fd, service);
                                 finished->store(true);
                               }),
                               finished});
      }
    });
  }
  for (std::thread& acceptor : acceptors) acceptor.join();

  request_stop();  // listeners gone: wake idle connections out of their reads
  reap(/*all=*/true);
  for (const int fd : listeners) ::close(fd);
  if (!unix_path.empty()) ::unlink(unix_path.c_str());

  // ~ShardedService drains: in-flight races deliver, queued requests are
  // rejected with shutting-down — the graceful-SIGTERM contract.
  bool ignored = false;
  std::cout << wire::handle_request(service, "stats", ignored);

  if (!trace_file.empty()) {
    std::ofstream trace(trace_file);
    if (trace) {
      service.write_trace(trace);
      std::cout << "trace written to " << trace_file << "\n";
    } else {
      std::cerr << "could not write trace to " << trace_file << "\n";
    }
  }
  return 0;
}
