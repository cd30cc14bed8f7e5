// k23bench_target — the program the benchmark runs, natively and under
// `k23_run run`. Every mode is built on the public src/workloads API.
//
//   k23bench_target kv PORT
//       mini_kv, 1 I/O thread, empty store (the client SETs its keys)
//   k23bench_target http PORT LOG
//       mini_http, 1 inline worker, 0 KB body, one unbuffered access-log
//       line per request appended to LOG (O_APPEND)
//   k23bench_target db DIR SEED [SPANS]
//       MiniDb transaction driver: seeded transactions of 8 point reads and
//       2 writes each, checkpoint every kCheckpointEvery transactions, every
//       read checked against a shadow map, and after the run the database is
//       reopened and every key checked again. Phases are started by commands
//       on stdin (see run_db), so native and interposed drivers can take
//       turns. SPANS (traced runs) receives one span per measured
//       transaction.
//
// Servers print "pid=N" when main starts and stop cleanly on SIGTERM, so
// exit-time duties (the batch flush-on-exit barrier, K23_STATS) run. Every
// mode prints "vmhwm_kb=N" (peak RSS) last.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "workloads/mini_db.h"
#include "workloads/mini_http.h"
#include "workloads/mini_kv.h"

namespace k23bench {
namespace {

std::atomic<bool> g_stop{false};

void on_sigterm(int) { g_stop.store(true, std::memory_order_relaxed); }

void install_sigterm() {
  struct sigaction sa {};
  sa.sa_handler = &on_sigterm;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
}

long vmhwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atol(line + 6);
  }
  std::fclose(f);
  return kb;
}

void print_exit() {
  std::printf("vmhwm_kb=%ld\n", vmhwm_kb());
  std::fflush(stdout);
}

int run_kv(uint16_t port) {
  install_sigterm();
  std::printf("pid=%d\n", static_cast<int>(::getpid()));
  std::fflush(stdout);
  k23::MiniKvOptions options;
  options.port = port;
  options.io_threads = 1;
  options.preload_keys = 0;
  options.stop = &g_stop;
  k23::Status st = k23::run_kv_server_inline(options);
  if (!st.is_ok()) std::fprintf(stderr, "kv: %s\n", st.message().c_str());
  print_exit();
  return st.is_ok() ? 0 : 1;
}

int run_http(uint16_t port, const char* log_path) {
  install_sigterm();
  std::printf("pid=%d\n", static_cast<int>(::getpid()));
  std::fflush(stdout);
  k23::MiniHttpOptions options;
  options.port = port;
  options.body_size = 0;
  options.workers = 1;
  options.stop = &g_stop;
  options.access_log_path = log_path;
  options.access_log_unbuffered = true;
  k23::Status st = k23::run_http_server_inline(options);
  if (!st.is_ok()) std::fprintf(stderr, "http: %s\n", st.message().c_str());
  print_exit();
  return st.is_ok() ? 0 : 1;
}

// ---- db-txn --------------------------------------------------------------

constexpr uint64_t kKeys = 512;
constexpr int kReadsPerTxn = 8;
constexpr int kWritesPerTxn = 2;
constexpr uint64_t kCheckpointEvery = 1024;

std::string key_name(uint64_t i) { return "acct:" + std::to_string(i); }

struct DbDriver {
  uint64_t seed;
  std::unique_ptr<k23::MiniDb> db;
  std::vector<std::string> shadow;
  std::vector<uint64_t> versions;
  Rng rng;
  uint64_t txns = 0;
  uint64_t failed = 0;

  explicit DbDriver(uint64_t s)
      : seed(s), shadow(kKeys), versions(kKeys, 0), rng(s ^ 0xdb) {}

  // One transaction; false when any read or write failed or a read
  // returned bytes other than the shadow map's.
  bool txn() {
    bool ok = db->begin().is_ok();
    for (int r = 0; r < kReadsPerTxn && ok; ++r) {
      const uint64_t k = rng.below(kKeys);
      auto value = db->get(key_name(k));
      ok = value.is_ok() && value.value() == shadow[k];
    }
    for (int w = 0; w < kWritesPerTxn && ok; ++w) {
      const uint64_t k = rng.below(kKeys);
      std::string value = seeded_value(seed, k, ++versions[k]);
      ok = db->put(key_name(k), value).is_ok();
      shadow[k] = std::move(value);
    }
    ok = db->commit().is_ok() && ok;
    if (++txns % kCheckpointEvery == 0) ok = db->checkpoint().is_ok() && ok;
    return ok;
  }
};

// Measured transactions of all phases. Latency and span times are taken
// with the time-stamp counter, so timing adds no syscalls; each phase
// converts counter ticks to ns with its own clock readings.
struct DbWindow {
  struct Phase {
    size_t first_span;
    uint64_t t0;
    uint64_t tk0;
    double ns_per_tick;
  };
  std::vector<uint64_t> lat_ticks;  // of the current phase
  std::vector<Span> spans;          // start/end in ticks until converted
  std::vector<Phase> phases;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok = 0;
};

uint64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Runs transactions for `ms` milliseconds; the deadline is polled every
// 16 transactions. A measured phase adds to `w` and answers with its
// numbers; a warm-up phase answers with a bare "ok".
void db_phase(DbDriver& d, double ms, DbWindow* w, bool traced) {
  const uint64_t cpu0 = w != nullptr ? process_cpu_ns() : 0;
  const uint64_t t0 = mono_ns();
  const uint64_t tk0 = ticks();
  const uint64_t deadline = t0 + static_cast<uint64_t>(ms * 1e6);
  const size_t first_span = w != nullptr ? w->spans.size() : 0;
  uint64_t t1 = t0;
  do {
    for (int i = 0; i < 16; ++i) {
      const uint64_t a = ticks();
      const bool ok = d.txn();
      const uint64_t b = ticks();
      if (w == nullptr) {
        d.failed += ok ? 0 : 1;
        continue;
      }
      ++w->attempted;
      if (!ok) {
        ++w->failed;
        continue;
      }
      w->lat_ticks.push_back(b - a);
      if (traced) w->spans.push_back({d.txns, a, b});
    }
    t1 = mono_ns();
  } while (t1 < deadline);
  if (w == nullptr) {
    std::printf("ok\n");
    return;
  }
  const uint64_t cpu_ns = process_cpu_ns() - cpu0;
  const double ns_per_tick = static_cast<double>(t1 - t0) /
                             static_cast<double>(ticks() - tk0);
  w->phases.push_back({first_span, t0, tk0, ns_per_tick});
  const uint64_t ops = w->lat_ticks.size();
  w->ok += ops;
  const auto to_ns = [&](uint64_t t) {
    return static_cast<unsigned long long>(static_cast<double>(t) *
                                           ns_per_tick);
  };
  std::printf("ok ops=%llu ns=%llu cpu_ns=%llu p50_ns=%llu p99_ns=%llu\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(t1 - t0),
              static_cast<unsigned long long>(cpu_ns),
              to_ns(percentile(w->lat_ticks, 0.50)),
              to_ns(percentile(w->lat_ticks, 0.99)));
  w->lat_ticks.clear();
}

// Loads the seeded key set, prints "ready pid=N first_reply_ns=T", then
// serves commands from stdin:
//   warm MS   transactions for MS milliseconds, not measured; answers "ok"
//   run MS    a measured phase of MS milliseconds; answers "ok" with the
//             phase's transactions, duration, CPU time, p50 and p99
//   end       check every key after reopening, print the result, exit
int run_db(const std::string& dir, uint64_t seed, const char* spans_path) {
  k23::MiniDbOptions options;
  options.directory = dir;
  // The benchmark keeps its files inside its own checkout, usually on a
  // real disk: a per-commit fdatasync would measure the disk, not the
  // syscall path (see README.md). Checkpoints still fdatasync.
  options.synchronous_normal = false;
  auto opened = k23::MiniDb::open(options);
  if (!opened.is_ok()) {
    std::fprintf(stderr, "db: open: %s\n", opened.message().c_str());
    return 1;
  }
  DbDriver d(seed);
  d.db.reset(opened.value());

  // Load the seeded key set in one transaction; its commit is the
  // workload's first verified result (the end of set-up).
  bool ok = d.db->begin().is_ok();
  for (uint64_t k = 0; k < kKeys && ok; ++k) {
    d.shadow[k] = seeded_value(seed, k);
    ok = d.db->put(key_name(k), d.shadow[k]).is_ok();
  }
  ok = d.db->commit().is_ok() && ok;
  const uint64_t first_commit_ns = mono_ns();
  if (!ok) {
    std::fprintf(stderr, "db: loading the key set failed\n");
    return 1;
  }
  std::printf("ready pid=%d first_reply_ns=%llu\n",
              static_cast<int>(::getpid()),
              static_cast<unsigned long long>(first_commit_ns));
  std::fflush(stdout);

  DbWindow w;
  w.lat_ticks.reserve(1 << 16);
  if (spans_path != nullptr) w.spans.reserve(1 << 20);
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "warm ", 5) == 0) {
      db_phase(d, std::atof(line + 5), nullptr, false);
    } else if (std::strncmp(line, "run ", 4) == 0) {
      db_phase(d, std::atof(line + 4), &w, spans_path != nullptr);
    } else {
      break;
    }
    std::fflush(stdout);
  }

  // End-of-run check: reopen and compare every key with the shadow map.
  d.db.reset();
  uint64_t verify_failed = 0;
  auto reopened = k23::MiniDb::open(options);
  if (!reopened.is_ok()) {
    verify_failed = kKeys;
  } else {
    std::unique_ptr<k23::MiniDb> db(reopened.value());
    for (uint64_t k = 0; k < kKeys; ++k) {
      auto value = db->get(key_name(k));
      if (!value.is_ok() || value.value() != d.shadow[k]) ++verify_failed;
    }
  }

  if (spans_path != nullptr) {
    for (size_t p = 0; p < w.phases.size(); ++p) {
      const DbWindow::Phase& ph = w.phases[p];
      const size_t end =
          p + 1 < w.phases.size() ? w.phases[p + 1].first_span : w.spans.size();
      for (size_t i = ph.first_span; i < end; ++i) {
        Span& span = w.spans[i];
        span.start_ns = ph.t0 + static_cast<uint64_t>(
            static_cast<double>(span.start_ns - ph.tk0) * ph.ns_per_tick);
        span.end_ns = ph.t0 + static_cast<uint64_t>(
            static_cast<double>(span.end_ns - ph.tk0) * ph.ns_per_tick);
      }
    }
    if (!write_spans(spans_path, "txn", w.spans)) {
      std::fprintf(stderr, "db: cannot write %s\n", spans_path);
    }
  }
  std::printf(
      "result ops=%llu attempted=%llu failed=%llu warmup_failed=%llu "
      "verify_failed=%llu first_reply_ns=%llu total_ops=%llu\n",
      static_cast<unsigned long long>(w.ok),
      static_cast<unsigned long long>(w.attempted),
      static_cast<unsigned long long>(w.failed),
      static_cast<unsigned long long>(d.failed),
      static_cast<unsigned long long>(verify_failed),
      static_cast<unsigned long long>(first_commit_ns),
      static_cast<unsigned long long>(d.txns + 1));
  print_exit();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: k23bench_target kv PORT | http PORT LOG | "
               "db DIR SEED [SPANS]\n");
  return 2;
}

}  // namespace
}  // namespace k23bench

int main(int argc, char** argv) {
  using namespace k23bench;
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  if (mode == "kv" && argc == 3) {
    return run_kv(static_cast<uint16_t>(std::atoi(argv[2])));
  }
  if (mode == "http" && argc == 4) {
    return run_http(static_cast<uint16_t>(std::atoi(argv[2])), argv[3]);
  }
  if (mode == "db" && (argc == 4 || argc == 5)) {
    return run_db(argv[2], std::strtoull(argv[3], nullptr, 10),
                  argc == 5 ? argv[4] : nullptr);
  }
  return usage();
}
