// A real plan_server child process on an AF_UNIX socket: spawn, readiness,
// hello-checked connections, graceful shutdown with peak-RSS readout.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/wire.hpp"

extern char** environ;

namespace gridmap::bench::serving {

/// The plan_server currently running (-1 when none), for a signal handler
/// that must not leave it behind. Servers run one at a time.
inline std::atomic<pid_t> g_live_server{-1};

/// Blocking connect to a unix socket plus the GRIDMAP/1 hello check. The
/// returned fd is left nonblocking when `nonblocking` is set (the load
/// generator's mode). Throws std::runtime_error on any failure.
inline int connect_unix(const std::string& path, bool nonblocking) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + why);
  }
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string hello;
  char byte = 0;
  while (hello.size() < 64 && ::recv(fd, &byte, 1, 0) == 1 && byte != '\n') hello += byte;
  if (hello != engine::wire::kProtocol) {
    ::close(fd);
    throw std::runtime_error("bad hello from plan_server: '" + hello + "'");
  }
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One plan_server process. Construction spawns it and returns once it
/// answered a hello (setup_seconds() is that span: exec -> hello read). The
/// destructor kills and reaps a server that was not stopped.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& socket_path,
                const std::vector<std::string>& flags)
      : socket_path_(socket_path) {
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    stdout_fd_ = out[0];

    std::vector<std::string> args = {binary, "--unix", socket_path};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc == 0) g_live_server.store(pid_);
    if (rc != 0) {
      pid_ = -1;
      ::close(stdout_fd_);
      throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
    }
    try {
      // plan_server prints its "listening" line only after bind + listen and
      // the service constructor, so the first connect after it succeeds.
      std::string line;
      if (read_stdout_line(10000, line) != Read::kLine) {
        throw std::runtime_error("plan_server exited or stalled before listening");
      }
      ::close(connect_unix(socket_path_, false));
    } catch (...) {
      kill_and_reap();
      throw;
    }
    setup_seconds_ = std::chrono::duration<double>(Clock::now() - start).count();
  }

  ~ServerProcess() { kill_and_reap(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  double setup_seconds() const noexcept { return setup_seconds_; }

  /// Sends the wire "shutdown" verb, waits for a clean exit (in-flight races
  /// drain first), and returns the server's peak resident set in MB. Close
  /// every load connection first: idle connections only notice the stop
  /// flag at their next read timeout. A server whose stdout stays open 60 s
  /// after the verb is killed; that, or any exit but 0, throws.
  double stop() {
    const double peak_mb = peak_rss_mb();
    const int fd = connect_unix(socket_path_, false);
    const char request[] = "shutdown\n";
    ::send(fd, request, sizeof request - 1, MSG_NOSIGNAL);
    char sink[64];
    while (::recv(fd, sink, sizeof sink, 0) > 0) {
    }
    ::close(fd);
    std::string line;
    Read read = Read::kLine;
    while (read == Read::kLine) read = read_stdout_line(60000, line);
    if (read == Read::kTimeout) ::kill(pid_, SIGKILL);
    int status = 0;
    const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
    if (reaped) {
      pid_ = -1;
      g_live_server.store(-1);
    }
    if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("plan_server did not shut down cleanly");
    }
    return peak_mb;
  }

 private:
  /// VmHWM of the running server. Not the ru_maxrss of its exit status:
  /// Linux carries the spawning process's peak over an exec into that.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    throw std::runtime_error("cannot read the peak RSS of plan_server");
  }

  void kill_and_reap() noexcept {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      g_live_server.store(-1);
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  enum class Read { kLine, kEof, kTimeout };

  /// Reads the server's next stdout line into `line`.
  Read read_stdout_line(int timeout_ms, std::string& line) {
    line.clear();
    char byte = 0;
    pollfd p{stdout_fd_, POLLIN, 0};
    for (;;) {
      if (::poll(&p, 1, timeout_ms) <= 0) return Read::kTimeout;
      if (::read(stdout_fd_, &byte, 1) != 1) return Read::kEof;
      if (byte == '\n') return Read::kLine;
      line += byte;
    }
  }

  std::string socket_path_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  double setup_seconds_ = 0.0;
};

}  // namespace gridmap::bench::serving
