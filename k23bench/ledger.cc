// k23bench_ledger — the per-layer cost ledger of the benchmark's traced
// run. Each measurement times calls into one layer's public entry points
// (the span around a timed loop is the layer's self time) and reports a
// median over repetitions.
//
//   k23bench_ledger DIR
//
// Prints "metric NAME VALUE" and "span NAME START_NS END_NS COUNT" lines;
// DIR receives a scratch file for the batch rows (removed afterwards).
//
// Child 1 (armed through the public API, K23Interposer::init):
//   arch.raw_ns            raw syscall 500 (no kernel work: the entry floor)
//   batch.native_write_ns  a 64-byte write(2) to an O_APPEND file
//   interpose.stats_record_ns   SyscallStats::record, one thread
//   interpose.stats_record_mops.*  record() on nproc threads released at a
//                          barrier, kReps runs: median, min, max
//   k23.init_ledger_ms     K23Interposer::init with a one-site log
//   trampoline.entry_ns    rewritten site -> empty chain -> kernel, minus
//                          the same call through Dispatcher::execute
//   interpose.chain_ns.*   Dispatcher::on_syscall minus Dispatcher::execute
//                          for syscall 500 (no entry serves it), with the
//                          empty chain and with each workload's chain:
//                          kv-get and db-txn run {accel}, http-log runs
//                          {batch, accel} (K23_BATCH=on)
//   accel.*_ns             Accel::hook serving getpid / clock_gettime
//   batch.absorb_ns, batch.flush_ns  Batch::hook absorbing a log line, and
//                          Batch::flush_all draining kAbsorbPerFlush lines
// Child 2 (SudSession::arm, no rewriting):
//   sud.entry_ns           SIGSYS round trip of a trapped syscall, minus the
//                          same call through the allowlisted gadget
#include <fcntl.h>
#include <sys/syscall.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "accel/accel.h"
#include "batch/batch.h"
#include "common.h"
#include "interpose/dispatch.h"
#include "interpose/stats.h"
#include "k23/degradation.h"
#include "k23/k23.h"
#include "k23/offline_log.h"
#include "procmaps/procmaps.h"
#include "sud/sud_session.h"

// A labelled syscall-500 loop: measured raw, then rewritten once K23 is
// armed with a log naming k23bench_site, or trapped once SUD is armed.
asm(R"(
    .text
    .globl  k23bench_loop
    .globl  k23bench_site
    .type   k23bench_loop, @function
k23bench_loop:
1:  mov     $500, %eax
k23bench_site:
    syscall
    dec     %rdi
    jnz     1b
    ret
    .size   k23bench_loop, . - k23bench_loop
)");

extern "C" {
long k23bench_loop(long iters);
extern char k23bench_site[];
}

namespace k23bench {
namespace {

constexpr int kReps = 7;
constexpr long kIters = 100000;
constexpr long kSudBlock = 200;
constexpr int kAbsorbPerFlush = 32;
constexpr int kFlushCycles = 400;

// Output is collected in memory and written once, after every layer has
// been shut down again, so the report itself is not part of a measurement.
struct Out {
  std::string text;
  void metric(const char* name, double value) {
    char line[160];
    std::snprintf(line, sizeof(line), "metric %s %.4f\n", name, value);
    text += line;
  }
  void span(const char* name, uint64_t start, uint64_t end, uint64_t count) {
    char line[200];
    std::snprintf(line, sizeof(line), "span %s %llu %llu %llu\n", name,
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(end),
                  static_cast<unsigned long long>(count));
    text += line;
  }
  void flush(int fd) {
    size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median ns per call of `body(iters)` over kReps runs, one span per run.
template <typename Body>
double ns_per_call(Out& out, const char* span, long iters, Body body) {
  std::vector<double> runs;
  body(iters / 10 + 1);  // warm caches and branch predictors
  for (int r = 0; r < kReps; ++r) {
    const uint64_t start = mono_ns();
    body(iters);
    const uint64_t end = mono_ns();
    out.span(span, start, end, static_cast<uint64_t>(iters));
    runs.push_back(static_cast<double>(end - start) /
                   static_cast<double>(iters));
  }
  return median(runs);
}

// Median over kBlocks of (a - b) ns per call, timing `a` and `b` in
// alternating blocks of `block` calls so drift in the kernel entry cost,
// which both include, cancels. One span covers all blocks.
template <typename A, typename B>
double interleaved_diff(Out& out, const char* span, long block, A a, B b) {
  constexpr int kBlocks = 101;
  a(block);
  b(block);
  std::vector<double> diffs;
  const uint64_t start = mono_ns();
  for (int i = 0; i < kBlocks; ++i) {
    const uint64_t t0 = mono_ns();
    a(block);
    const uint64_t t1 = mono_ns();
    b(block);
    const uint64_t t2 = mono_ns();
    diffs.push_back((static_cast<double>(t1 - t0) -
                     static_cast<double>(t2 - t1)) /
                    static_cast<double>(block));
  }
  out.span(span, start, mono_ns(), 2ull * block * kBlocks);
  return median(diffs);
}

// The raw reference once a mechanism is armed: syscall 500 through the
// dispatcher's allowlisted thunk, no hook.
void execute_500(long n) {
  for (long i = 0; i < n; ++i) {
    k23::SyscallArgs args;
    args.nr = 500;
    (void)k23::Dispatcher::execute(args, 0);
  }
}

// Dispatcher::on_syscall minus Dispatcher::execute for syscall 500, which
// no chain entry serves.
double dispatch_minus_execute(Out& out, const char* span) {
  k23::HookContext ctx;
  ctx.path = k23::EntryPath::kRewritten;
  k23::Dispatcher& d = k23::Dispatcher::instance();
  return interleaved_diff(
      out, span, 2000,
      [&](long n) {
        for (long i = 0; i < n; ++i) {
          k23::SyscallArgs args;
          args.nr = 500;
          (void)d.on_syscall(args, ctx);
        }
      },
      &execute_500);
}

// SyscallStats::record on `threads` threads released together at a
// barrier; returns Mops/s for one run.
double record_mops(int threads, uint64_t per_thread) {
  k23::SyscallStats stats;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < per_thread; ++i) {
        stats.record(39 + (t & 3), k23::EntryPath::kRewritten);
      }
    });
  }
  while (ready.load() != threads) {
  }
  const uint64_t start = mono_ns();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const uint64_t end = mono_ns();
  return static_cast<double>(threads) * static_cast<double>(per_thread) /
         (static_cast<double>(end - start) / 1e3);
}

int k23_child(int fd, const std::string& dir) {
  Out out;
  const double raw = ns_per_call(out, "arch.raw_syscall", kIters,
                                 [](long n) { (void)k23bench_loop(n); });
  out.metric("arch.raw_ns", raw);

  // Everything that needs no arming runs before K23 is up: afterwards any
  // syscall from an unlogged site (thread creation, libc write) would
  // take the SUD path and no longer be the plain cost.
  const std::string path = dir + "/ledger-batch.log";
  const int log_fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_TRUNC, 0644);
  if (log_fd < 0) return 10;
  const std::string line = std::string(63, 'x') + "\n";
  uint64_t expected_bytes = 0;
  const double native_write =
      ns_per_call(out, "write(2)", kIters / 10, [&](long n) {
        for (long i = 0; i < n; ++i) {
          if (::write(log_fd, line.data(), line.size()) ==
              static_cast<ssize_t>(line.size())) {
            expected_bytes += line.size();
          }
        }
      });
  out.metric("batch.native_write_ns", native_write);

  {
    k23::SyscallStats stats;
    out.metric("interpose.stats_record_ns",
               ns_per_call(out, "SyscallStats::record", kIters * 10,
                           [&](long n) {
                             for (long i = 0; i < n; ++i) {
                               stats.record(39, k23::EntryPath::kRewritten);
                             }
                           }));
  }
  const int threads =
      std::max(1, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
  std::vector<double> mops;
  for (int r = 0; r < kReps; ++r) {
    const uint64_t start = mono_ns();
    mops.push_back(record_mops(threads, 2000000));
    out.span("SyscallStats::record.threads", start, mono_ns(),
             2000000ull * static_cast<uint64_t>(threads));
  }
  out.metric("interpose.stats_record_mops.median", median(mops));
  out.metric("interpose.stats_record_mops.min",
             *std::min_element(mops.begin(), mops.end()));
  out.metric("interpose.stats_record_mops.max",
             *std::max_element(mops.begin(), mops.end()));

  auto maps = k23::ProcessMaps::snapshot();
  if (!maps.is_ok()) return 11;
  k23::OfflineLog log;
  if (!log.add_address(maps.value(),
                       reinterpret_cast<uint64_t>(&k23bench_site))) {
    return 12;
  }
  const uint64_t init_start = mono_ns();
  auto report = k23::K23Interposer::init(log, k23::K23Interposer::Options{});
  const uint64_t init_end = mono_ns();
  out.span("K23Interposer::init", init_start, init_end, 1);
  if (!report.is_ok() || report.value().rewritten_sites != 1 ||
      report.value().degradation.tier != k23::CoverageTier::kRewriteAndSud) {
    return 13;
  }
  out.metric("k23.init_ledger_ms",
             static_cast<double>(init_end - init_start) / 1e6);

  out.metric("trampoline.entry_ns",
             interleaved_diff(out, "trampoline.rewritten", 2000,
                              [](long n) { (void)k23bench_loop(n); },
                              &execute_500));

  out.metric("interpose.chain_ns.empty",
             dispatch_minus_execute(out, "Dispatcher::on_syscall.empty"));

  if (!k23::Accel::init(k23::AccelConfig{}).is_ok()) return 14;
  out.metric("interpose.chain_ns.kv-get",
             dispatch_minus_execute(out, "Dispatcher::on_syscall.kv-get"));
  out.metric("interpose.chain_ns.db-txn",
             dispatch_minus_execute(out, "Dispatcher::on_syscall.db-txn"));
  k23::HookContext ctx;
  ctx.path = k23::EntryPath::kRewritten;
  bool accel_ok = true;
  out.metric("accel.getpid_ns",
             ns_per_call(out, "Accel::hook.getpid", kIters, [&](long n) {
               for (long i = 0; i < n; ++i) {
                 k23::SyscallArgs args;
                 args.nr = SYS_getpid;
                 accel_ok &= k23::Accel::hook(nullptr, args, ctx).accelerated;
               }
             }));
  timespec ts{};
  out.metric("accel.clock_gettime_ns",
             ns_per_call(out, "Accel::hook.clock_gettime", kIters,
                         [&](long n) {
                           for (long i = 0; i < n; ++i) {
                             k23::SyscallArgs args;
                             args.nr = SYS_clock_gettime;
                             args.rdi = CLOCK_MONOTONIC;
                             args.rsi = reinterpret_cast<long>(&ts);
                             accel_ok &= k23::Accel::hook(nullptr, args, ctx)
                                             .accelerated;
                           }
                         }));
  if (!accel_ok) return 15;

  k23::BatchConfig batch;
  batch.enabled = true;
  if (!k23::Batch::init(batch).is_ok()) return 16;
  out.metric("interpose.chain_ns.http-log",
             dispatch_minus_execute(out, "Dispatcher::on_syscall.http-log"));

  // Absorb kAbsorbPerFlush lines, then drain them with one flush_all —
  // the shape http-log's access log takes under K23_BATCH=on.
  std::vector<double> absorb_runs;
  std::vector<double> flush_runs;
  bool batch_ok = true;
  for (int r = 0; r < kReps; ++r) {
    uint64_t absorb_ns = 0;
    uint64_t flush_ns = 0;
    const uint64_t start = mono_ns();
    for (int c = 0; c < kFlushCycles; ++c) {
      const uint64_t a = mono_ns();
      for (int i = 0; i < kAbsorbPerFlush; ++i) {
        k23::SyscallArgs args;
        args.nr = SYS_write;
        args.rdi = log_fd;
        args.rsi = reinterpret_cast<long>(line.data());
        args.rdx = static_cast<long>(line.size());
        const k23::HookResult res = k23::Batch::hook(nullptr, args, ctx);
        batch_ok &= res.batched &&
                    res.value == static_cast<long>(line.size());
      }
      const uint64_t b = mono_ns();
      k23::Batch::flush_all();
      const uint64_t e = mono_ns();
      absorb_ns += b - a;
      flush_ns += e - b;
      expected_bytes += kAbsorbPerFlush * line.size();
    }
    out.span("Batch::hook+flush_all", start, mono_ns(),
             static_cast<uint64_t>(kFlushCycles) * kAbsorbPerFlush);
    absorb_runs.push_back(static_cast<double>(absorb_ns) /
                          (kFlushCycles * kAbsorbPerFlush));
    flush_runs.push_back(static_cast<double>(flush_ns) / kFlushCycles);
  }
  out.metric("batch.absorb_ns", median(absorb_runs));
  out.metric("batch.flush_ns", median(flush_runs));
  k23::Batch::shutdown();
  k23::Accel::shutdown();
  if (!batch_ok) return 17;

  // Output check: every absorbed byte reached the file.
  struct stat st {};
  if (::fstat(log_fd, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) != expected_bytes) {
    return 18;
  }
  ::close(log_fd);
  ::unlink(path.c_str());
  out.flush(fd);
  return 0;
}

int sud_child(int fd) {
  Out out;
  const uint64_t arm_start = mono_ns();
  if (!k23::SudSession::arm().is_ok()) return 20;
  const uint64_t arm_end = mono_ns();
  out.span("SudSession::arm", arm_start, arm_end, 1);
  (void)k23bench_loop(1);
  out.span("SudSession.first_trap", arm_end, mono_ns(), 1);
  const uint64_t traps_before = k23::SudSession::trap_count();
  const double trapped = interleaved_diff(
      out, "sud.trapped", kSudBlock, [](long n) { (void)k23bench_loop(n); },
      [](long n) {
        for (long i = 0; i < n; ++i) {
          (void)k23::SudSession::gadget_syscall(500);
        }
      });
  if (k23::SudSession::trap_count() - traps_before < kSudBlock * 100) {
    return 21;
  }
  out.metric("sud.entry_ns", trapped);
  out.flush(fd);
  return 0;
}

// Runs `child` in a forked process (arming is irreversible) and copies
// what it reports to stdout. Returns false when the child failed.
template <typename Child>
bool run_child(const char* name, Child child) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::close(fds[0]);
    ::_exit(child(fds[1]));
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "k23bench_ledger: %s child failed (%s %d)\n", name,
                 WIFEXITED(status) ? "exit" : "signal",
                 WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status));
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), stdout);
  return true;
}

}  // namespace
}  // namespace k23bench

int main(int argc, char** argv) {
  using namespace k23bench;
  if (argc != 2) {
    std::fprintf(stderr, "usage: k23bench_ledger DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  const bool ok = run_child("k23", [&](int fd) { return k23_child(fd, dir); }) &&
                  run_child("sud", [](int fd) { return sud_child(fd); });
  return ok ? 0 : 1;
}
