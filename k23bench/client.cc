// k23bench_client — the benchmark's closed-loop load client for the kv-get
// and http-log workloads. One process, one thread, CONNS keep-alive
// connections per server with exactly one request outstanding on each: a
// connection sends its next request only after the previous reply was read
// and checked byte for byte against the bytes the seed says it must be.
//
//   k23bench_client kv|http SEED SECONDS WARMUP PHASE_MS CONNS
//                   PORT:PID[:SPANS] ...
//
// Several servers (the same program, native and under k23_run) are loaded
// in turn: each gets WARMUP seconds of warm-up, then the client alternates
// between them in phases of PHASE_MS until each has been loaded for
// SECONDS. Only one server is loaded at a time, and alternating every
// PHASE_MS makes host drift hit every server alike.
//
// kv:   SETs the seeded key set on each server first (each "+OK" checked),
//       then GETs seeded random keys; every GET must return the value SET.
// http: GET /<seeded path>; every reply must equal mini_http's 0 KB
//       response exactly.
//
// A wrong byte, a closed or reset connection and a refused reconnect each
// count as one failed request; the connection is reopened and the loop
// goes on. A server's CPU time (all threads) is read through its process
// CPU clock at both ends of each phase. Prints, per server in argument
// order, one "phase target=I ..." line per measured phase (requests,
// duration, server CPU time, latency p50 and p99) and a closing "result
// target=I ..." line with the counts. SPANS (traced runs) receives one
// span per measured request, from send to checked reply.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"

namespace k23bench {
namespace {

constexpr uint64_t kKeys = 4096;
constexpr uint64_t kConnectDeadlineNs = 60'000'000'000ull;
constexpr uint64_t kMaxFailures = 1000;

const char kHttpReply[] =
    "HTTP/1.1 200 OK\r\nServer: mini_http\r\nContent-Type: text/plain\r\n"
    "Content-Length: 0\r\nConnection: keep-alive\r\n\r\n";

enum class Kind { kKv, kHttp };

struct Conn {
  int fd = -1;
  Rng rng{0};
  uint64_t seq = 0;
  uint64_t sent_ns = 0;
  bool busy = false;
  const std::string* expect = nullptr;
  std::string inbox;
};

// One measured phase of one server.
struct PhaseStat {
  uint64_t ops = 0;
  uint64_t ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

// Everything the client knows and counts about one server.
struct Target {
  uint16_t port = 0;
  clockid_t cpu_clock{};
  std::string spans_path;
  std::vector<Conn> conns;
  std::vector<Span> spans;
  std::vector<uint64_t> latencies;  // of the current phase
  std::vector<PhaseStat> phases;
  uint64_t first_reply_ns = 0;
  uint64_t total_ok = 0;  // verified replies, all phases
  uint64_t failed = 0;    // all phases
  uint64_t window_ok = 0;  // measured phases only
  uint64_t window_failed = 0;
};

// Connects with a short retry loop: the server may still be setting up.
int connect_to(uint16_t port, uint64_t deadline_ns) {
  while (true) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if ((err != ECONNREFUSED && err != EINTR) || mono_ns() > deadline_ns) {
      return -1;
    }
    ::usleep(200);
  }
}

uint64_t cpu_ns_of(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

class Client {
 public:
  Client(Kind kind, uint64_t seed, int conns, std::vector<Target> targets)
      : kind_(kind), seed_(seed), targets_(std::move(targets)) {
    for (Target& t : targets_) {
      t.conns.resize(static_cast<size_t>(conns));
      for (size_t c = 0; c < t.conns.size(); ++c) {
        t.conns[c].rng = Rng(seed_ * 31 + c + 1);
      }
    }
    if (kind_ == Kind::kKv) {
      get_reply_.resize(kKeys);
      for (uint64_t k = 0; k < kKeys; ++k) {
        const std::string v = seeded_value(seed_, k);
        get_reply_[k] = "$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
      }
    }
  }

  // Connects to every server in argument order and completes one checked
  // request on each, so a server's first reply is not delayed by bulk
  // work on the servers before it.
  bool start() {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) return false;
    const uint64_t deadline = mono_ns() + kConnectDeadlineNs;
    for (size_t t = 0; t < targets_.size(); ++t) {
      for (size_t c = 0; c < targets_[t].conns.size(); ++c) {
        if (!open_conn(t, c, deadline)) return false;
      }
      active_ = t;
      if (kind_ == Kind::kKv) {
        next_set_ = 0;
        send_set(0);
      } else {
        send_steady(0);
      }
      if (!drain()) return false;
    }
    return true;
  }

  // kv: SET every key on every server, spread over its connections.
  bool load_keys() {
    if (kind_ != Kind::kKv) return true;
    for (size_t t = 0; t < targets_.size(); ++t) {
      active_ = t;
      next_set_ = 1;  // key 0 was set by start()
      for (size_t c = 0; c < targets_[t].conns.size(); ++c) send_set(c);
      while (any_busy()) {
        if (!poll_once([this](size_t c) {
              if (next_set_ < kKeys) send_set(c);
            })) {
          return false;
        }
      }
    }
    return true;
  }

  // Warm-up on each server, then round(seconds / phase_s) measured phases
  // on each, taking turns. The order flips every round, so phase j of one
  // server is always adjacent in time to phase j of the others.
  bool measure(double warmup_s, double seconds, double phase_s) {
    for (size_t t = 0; t < targets_.size(); ++t) {
      if (!phase(t, warmup_s, false)) return false;
    }
    const long rounds = std::max(1L, std::lround(seconds / phase_s));
    for (long r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < targets_.size(); ++i) {
        const size_t t = r % 2 == 0 ? i : targets_.size() - 1 - i;
        if (!phase(t, phase_s, true)) return false;
      }
    }
    return true;
  }

  bool write_all_spans() const {
    for (const Target& t : targets_) {
      if (!t.spans_path.empty() &&
          !write_spans(t.spans_path, "request", t.spans)) {
        return false;
      }
    }
    return true;
  }

  void report() const {
    for (size_t i = 0; i < targets_.size(); ++i) {
      const Target& t = targets_[i];
      for (const PhaseStat& p : t.phases) {
        std::printf("phase target=%zu ops=%llu ns=%llu cpu_ns=%llu "
                    "p50_ns=%llu p99_ns=%llu\n",
                    i, static_cast<unsigned long long>(p.ops),
                    static_cast<unsigned long long>(p.ns),
                    static_cast<unsigned long long>(p.cpu_ns),
                    static_cast<unsigned long long>(p.p50_ns),
                    static_cast<unsigned long long>(p.p99_ns));
      }
      std::printf(
          "result target=%zu ops=%llu attempted=%llu failed=%llu "
          "warmup_failed=%llu verify_failed=0 first_reply_ns=%llu "
          "total_ops=%llu\n",
          i, static_cast<unsigned long long>(t.window_ok),
          static_cast<unsigned long long>(t.window_ok + t.window_failed),
          static_cast<unsigned long long>(t.window_failed),
          static_cast<unsigned long long>(t.failed - t.window_failed),
          static_cast<unsigned long long>(t.first_reply_ns),
          static_cast<unsigned long long>(t.total_ok));
    }
  }

 private:
  bool open_conn(size_t t, size_t c, uint64_t deadline) {
    Conn& conn = targets_[t].conns[c];
    conn.fd = connect_to(targets_[t].port, deadline);
    if (conn.fd < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = (static_cast<uint64_t>(t) << 32) | c;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn.fd, &ev) == 0;
  }

  bool any_busy() const {
    for (const Conn& c : targets_[active_].conns) {
      if (c.busy) return true;
    }
    return false;
  }

  bool drain() {
    while (any_busy()) {
      if (!poll_once([](size_t) {})) return false;
    }
    return true;
  }

  // Loads server `t` alone for `seconds`, then lets its outstanding
  // requests complete. A measured phase adds its duration (drain
  // included), its replies and the server's CPU time to the target.
  bool phase(size_t t, double seconds, bool measured) {
    Target& target = targets_[t];
    active_ = t;
    measured_ = measured;
    const uint64_t cpu0 = measured ? cpu_ns_of(target.cpu_clock) : 0;
    const uint64_t start = mono_ns();
    phase_end_ = start + static_cast<uint64_t>(seconds * 1e9);
    for (size_t c = 0; c < target.conns.size(); ++c) send_steady(c);
    while (any_busy()) {
      if (!poll_once([this](size_t c) {
            if (mono_ns() < phase_end_) send_steady(c);
          })) {
        return false;
      }
    }
    if (measured) {
      PhaseStat p;
      p.ns = mono_ns() - start;
      p.cpu_ns = cpu_ns_of(target.cpu_clock) - cpu0;
      p.ops = target.latencies.size();
      p.p50_ns = percentile(target.latencies, 0.50);
      p.p99_ns = percentile(target.latencies, 0.99);
      target.latencies.clear();
      target.phases.push_back(p);
    }
    measured_ = false;
    return true;
  }

  void send(size_t c, const std::string& request, const std::string* expect) {
    Conn& conn = targets_[active_].conns[c];
    conn.expect = expect;
    conn.inbox.clear();
    conn.sent_ns = mono_ns();
    conn.busy = true;
    ++conn.seq;
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n =
          ::send(conn.fd, request.data() + off, request.size() - off,
                 MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;  // the reply read sees the broken connection
      }
    }
  }

  void send_set(size_t c) {
    const uint64_t k = next_set_++;
    request_ = "SET k" + std::to_string(k) + " " + seeded_value(seed_, k) +
               "\r\n";
    send(c, request_, &ok_reply_);
  }

  void send_steady(size_t c) {
    Conn& conn = targets_[active_].conns[c];
    if (kind_ == Kind::kKv) {
      const uint64_t k = conn.rng.below(kKeys);
      request_ = "GET k" + std::to_string(k) + "\r\n";
      send(c, request_, &get_reply_[k]);
    } else {
      request_ = "GET /p" + std::to_string(conn.rng.below(1u << 20)) +
                 " HTTP/1.1\r\nHost: bench\r\n\r\n";
      send(c, request_, &http_reply_);
    }
  }

  // Waits for readable connections; completes, checks and records each
  // reply of the active server, then calls `next(c)` to issue that
  // connection's next request.
  template <typename Next>
  bool poll_once(Next next) {
    epoll_event events[16];
    const int n = ::epoll_wait(epfd_, events, 16, 100);
    if (n < 0) return errno == EINTR;
    for (int i = 0; i < n; ++i) {
      const size_t t = events[i].data.u64 >> 32;
      const size_t c = events[i].data.u64 & 0xffffffffu;
      Conn& conn = targets_[t].conns[c];
      if (t != active_ || !conn.busy) {
        // Bytes or a close on a connection with nothing outstanding.
        if (!fail(t, c)) return false;
        continue;
      }
      char buf[4096];
      const ssize_t got = ::read(conn.fd, buf, sizeof(buf));
      if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      bool ok = got > 0;
      if (ok) {
        conn.inbox.append(buf, static_cast<size_t>(got));
        const std::string& expect = *conn.expect;
        if (conn.inbox.size() < expect.size()) {
          if (expect.compare(0, conn.inbox.size(), conn.inbox) == 0) continue;
          ok = false;
        } else {
          ok = conn.inbox == expect;
        }
      }
      if (ok) {
        complete(t, c);
      } else if (!fail(t, c)) {
        return false;
      }
      next(c);
    }
    return true;
  }

  void complete(size_t t, size_t c) {
    Target& target = targets_[t];
    Conn& conn = target.conns[c];
    const uint64_t now = mono_ns();
    conn.busy = false;
    ++target.total_ok;
    if (target.first_reply_ns == 0) target.first_reply_ns = now;
    if (!measured_) return;
    ++target.window_ok;
    target.latencies.push_back(now - conn.sent_ns);
    if (!target.spans_path.empty()) {
      target.spans.push_back({(static_cast<uint64_t>(c) << 48) | conn.seq,
                              conn.sent_ns, now});
    }
  }

  // Counts a failed request and reopens the connection.
  bool fail(size_t t, size_t c) {
    Target& target = targets_[t];
    Conn& conn = target.conns[c];
    const bool counts = measured_ && t == active_;
    conn.busy = false;
    ++target.failed;
    if (counts) ++target.window_failed;
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    while (!open_conn(t, c, mono_ns() + 1'000'000'000ull)) {
      ++target.failed;  // refused reconnect
      if (counts) ++target.window_failed;
      if (target.failed > kMaxFailures) return false;
    }
    return target.failed <= kMaxFailures;
  }

  Kind kind_;
  uint64_t seed_;
  std::vector<Target> targets_;
  int epfd_ = -1;
  size_t active_ = 0;
  bool measured_ = false;
  uint64_t phase_end_ = 0;
  std::vector<std::string> get_reply_;
  const std::string ok_reply_ = "+OK\r\n";
  const std::string http_reply_ = kHttpReply;
  std::string request_;
  uint64_t next_set_ = 0;
};

}  // namespace
}  // namespace k23bench

int main(int argc, char** argv) {
  using namespace k23bench;
  if (argc < 8) {
    std::fprintf(stderr,
                 "usage: k23bench_client kv|http SEED SECONDS WARMUP "
                 "PHASE_MS CONNS PORT:PID[:SPANS] ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode != "kv" && mode != "http") return 2;
  std::vector<Target> targets;
  for (int i = 7; i < argc; ++i) {
    Target t;
    char* rest = nullptr;
    t.port = static_cast<uint16_t>(std::strtoul(argv[i], &rest, 10));
    if (*rest != ':') return 2;
    const pid_t pid = static_cast<pid_t>(std::strtol(rest + 1, &rest, 10));
    if (*rest == ':') t.spans_path = rest + 1;
    if (::clock_getcpuclockid(pid, &t.cpu_clock) != 0) {
      std::fprintf(stderr, "client: no CPU clock for pid %d\n", pid);
      return 1;
    }
    if (!t.spans_path.empty()) t.spans.reserve(1 << 20);
    targets.push_back(std::move(t));
  }
  Client client(mode == "kv" ? Kind::kKv : Kind::kHttp,
                std::strtoull(argv[2], nullptr, 10), std::atoi(argv[6]),
                std::move(targets));
  if (!client.start()) {
    std::fprintf(stderr, "client: cannot reach every server\n");
    return 1;
  }
  if (!client.load_keys() ||
      !client.measure(std::atof(argv[4]), std::atof(argv[3]),
                      std::atof(argv[5]) / 1e3)) {
    std::fprintf(stderr, "client: load failed\n");
    return 1;
  }
  if (!client.write_all_spans()) {
    std::fprintf(stderr, "client: cannot write spans\n");
    return 1;
  }
  client.report();
  return 0;
}
