// The load generator: one thread driving any number of nonblocking
// GRIDMAP/1 connections through ppoll(). Requests are pipelined per
// connection (the server answers a connection's requests in order), so an
// open-loop schedule never waits for a reply before sending, and a request
// queued behind a slow one on its connection is charged that wait.
#pragma once

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "engine/wire.hpp"

namespace gridmap::bench::serving {

using Clock = std::chrono::steady_clock;

/// One finished request as the client saw it.
struct Completion {
  explicit Completion(std::size_t request) : id(request) {}

  std::size_t id = 0;           ///< the caller's request id
  Clock::time_point first{};    ///< first plan frame (provisional or final) or error
  Clock::time_point final_at{}; ///< final plan frame or error
  std::string provisional;      ///< provisional block with the flag stripped; empty if none
  std::string plan;             ///< final plan block; empty on failure
  std::string error;            ///< err frame or protocol violation; empty on success
};

/// Runs the calling thread — the load generator — under SCHED_FIFO for its
/// lifetime. It shares this machine's cores with the plan_server it drives,
/// and when the server's race threads fill every core a normal-priority
/// generator wakes milliseconds after a request is due; it would then time
/// its own scheduling delay instead of the server's answer (a real client
/// runs on another host). The generator sleeps in ppoll between sends, so
/// the boost costs the server only the generator's own few microseconds per
/// event. Needs CAP_SYS_NICE, else nothing changes and gen.late_ms_p99
/// shows it. SCHED_RESET_ON_FORK keeps spawned servers at normal priority.
class PriorityBoost {
 public:
  PriorityBoost() {
    const sched_param realtime{1};
    boosted_ = ::sched_setscheduler(0, SCHED_FIFO | SCHED_RESET_ON_FORK, &realtime) == 0;
  }
  ~PriorityBoost() {
    const sched_param normal{0};
    if (boosted_) ::sched_setscheduler(0, SCHED_OTHER, &normal);
  }

  PriorityBoost(const PriorityBoost&) = delete;
  PriorityBoost& operator=(const PriorityBoost&) = delete;

  bool boosted() const noexcept { return boosted_; }

 private:
  bool boosted_ = false;
};

class LoadGenerator {
 public:
  /// Takes ownership of connected, hello-checked, nonblocking fds.
  explicit LoadGenerator(const std::vector<int>& fds) {
    for (const int fd : fds) {
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
  }
  ~LoadGenerator() { close_all(); }

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  std::size_t outstanding() const noexcept {
    std::size_t n = refused_.size();
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }
  /// Queues request `line` (no newline) on connection `conn` and writes
  /// whatever the socket accepts right now. `speculative` marks a mapspec
  /// request, which may answer with a provisional block plus a revision.
  void send(std::size_t conn, std::size_t id, std::string_view line, bool speculative) {
    Conn& c = conns_[conn];
    if (c.fd < 0) {
      Completion failed(id);
      failed.first = failed.final_at = Clock::now();
      failed.error = "connection to plan_server is closed";
      refused_.push_back(std::move(failed));
      return;
    }
    c.out.append(line);
    c.out += '\n';
    c.pending.push_back(Pending{id, speculative, 0, Completion(id)});
    flush(c);
  }

  /// Waits for socket events until `wake_at`, returning early once at least
  /// one request completed; completions are appended to `done`. A
  /// connection that dies fails its outstanding requests.
  void poll_until(Clock::time_point wake_at, std::vector<Completion>& done) {
    const std::size_t before = done.size();
    for (Completion& c : refused_) done.push_back(std::move(c));
    refused_.clear();
    if (done.size() > before) return;
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const Conn& c = conns_[i];
        fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out_head < c.out.size() ? POLLOUT : 0)),
                  0};
      }
      const auto wait = std::max(Clock::duration::zero(), wake_at - Clock::now());
      const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timespec timeout{static_cast<time_t>(nanos / 1000000000),
                       static_cast<long>(nanos % 1000000000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready < 0 && errno != EINTR) {
        fail_all("poll failed", done);
        return;
      }
      for (std::size_t i = 0; ready > 0 && i < conns_.size(); ++i) {
        Conn& c = conns_[i];
        if (c.fd < 0) continue;
        if (fds[i].revents & POLLOUT) flush(c);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(c, done);
      }
      if (done.size() > before || Clock::now() >= wake_at) return;
    }
  }

  /// Fails every outstanding request with `why` (e.g. a drain timeout).
  void fail_all(const std::string& why, std::vector<Completion>& done) {
    for (Conn& c : conns_) fail_conn(c, why, done);
  }

  void close_all() noexcept {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

 private:
  struct Pending {
    std::size_t id;
    bool speculative;
    int phase;  // 0: first frame, 1: after provisional, 2: after revision marker
    Completion completion;
  };

  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_head = 0;
    std::string in;
    std::size_t in_head = 0;
    std::size_t scan = 0;  // "\nend\n" search resumes here
    std::deque<Pending> pending;
  };

  enum class Frame { kPlan, kProvisional, kRevision, kError };

  void flush(Conn& c) {
    while (c.out_head < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_head, c.out.size() - c.out_head,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_head += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return;  // EAGAIN: POLLOUT resumes; a dead peer shows up on the read side
      }
    }
    c.out.clear();
    c.out_head = 0;
  }

  void receive(Conn& c, std::vector<Completion>& done) {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n > 0) {
        c.in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      parse(c, done);
      fail_conn(c, "connection closed by plan_server", done);
      return;
    }
    parse(c, done);
  }

  /// Splits complete frames off the connection's input and advances the
  /// request at the head of its queue.
  void parse(Conn& c, std::vector<Completion>& done) {
    for (;;) {
      Frame kind = Frame::kError;
      const std::size_t length = next_frame(c, kind);
      if (length == 0) break;
      const auto now = Clock::now();
      std::string frame = c.in.substr(c.in_head, length);
      c.in_head += length;
      c.scan = c.in_head;
      if (c.pending.empty()) {
        fail_conn(c, "unsolicited frame from plan_server", done);
        return;
      }
      Pending& p = c.pending.front();
      Completion& out = p.completion;
      bool finished = true;
      if (kind == Frame::kError) {
        out.error = frame;
      } else if (p.phase == 0 && kind == Frame::kPlan) {
        out.first = now;
        out.plan = std::move(frame);
      } else if (p.phase == 0 && kind == Frame::kProvisional && p.speculative) {
        out.first = now;
        frame.erase(frame.find(" provisional"), std::strlen(" provisional"));
        out.provisional = std::move(frame);
        p.phase = 1;
        finished = false;
      } else if (p.phase == 1 && kind == Frame::kRevision) {
        p.phase = 2;
        finished = false;
      } else if (p.phase == 2 && kind == Frame::kPlan) {
        out.plan = std::move(frame);
      } else {
        out.error = "unexpected frame: " + frame.substr(0, frame.find('\n'));
      }
      if (!finished) continue;
      if (out.first == Clock::time_point{}) out.first = now;
      out.final_at = now;
      done.push_back(std::move(out));
      c.pending.pop_front();
    }
    if (c.in_head == c.in.size()) {
      c.in.clear();
      c.in_head = c.scan = 0;
    } else if (c.in_head > (1u << 20)) {
      c.in.erase(0, c.in_head);
      c.scan -= c.in_head;
      c.in_head = 0;
    }
  }

  /// Length of the complete frame at the head of the input (0 = not yet
  /// complete); sets its kind.
  static std::size_t next_frame(Conn& c, Frame& kind) {
    const std::size_t newline = c.in.find('\n', c.in_head);
    if (newline == std::string::npos) return 0;
    const std::string_view first(c.in.data() + c.in_head, newline - c.in_head);
    const std::size_t line_length = newline + 1 - c.in_head;
    if (first == engine::wire::kRevisionLine) {
      kind = Frame::kRevision;
      return line_length;
    }
    if (first.rfind("err ", 0) == 0) {
      kind = Frame::kError;
      return line_length;
    }
    if (first == "gridmap-plan v1" || first == engine::wire::kProvisionalHeader) {
      kind = first == "gridmap-plan v1" ? Frame::kPlan : Frame::kProvisional;
      const std::size_t end = c.in.find("\nend\n", std::max(c.scan, newline));
      if (end == std::string::npos) {
        c.scan = std::max(newline, c.in.size() - std::min<std::size_t>(c.in.size(), 4));
        return 0;
      }
      return end + 5 - c.in_head;
    }
    kind = Frame::kError;
    return line_length;  // garbage line: surfaces as an error completion
  }

  static void fail_conn(Conn& c, const std::string& why, std::vector<Completion>& done) {
    const auto now = Clock::now();
    for (Pending& p : c.pending) {
      p.completion.error = why;
      p.completion.first = p.completion.final_at = now;
      done.push_back(std::move(p.completion));
    }
    c.pending.clear();
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }

  std::vector<Conn> conns_;
  std::vector<Completion> refused_;  // sent on a dead connection; reported by poll_until
};

}  // namespace gridmap::bench::serving
