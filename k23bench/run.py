#!/usr/bin/env python3
"""End-to-end benchmark of K23 deployed under k23_run.

    python3 k23bench/run.py --workload kv-get|http-log|db-txn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the runtime and the
benchmark's programs (k23bench/CMakeLists.txt) under .bench_build/. Each
run profiles the workload once with `k23_run stats --offline` (untimed),
then runs ROUNDS rounds. A round starts the program natively and under
`k23_run run --log=...` with default settings, and loads them in turn, in
phases of PHASE_MS, so host drift hits both alike. --seconds is split
evenly over the rounds and programs. Every reply, read and log line is
checked. The last line of stdout is the JSON result: the end-to-end
metrics, or with --trace 1 the per-layer ledger (see README.md).
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGETS = ["k23_run", "k23_preload", "k23bench_target", "k23bench_client",
           "k23bench_ledger"]

WORKLOADS = ("kv-get", "http-log", "db-txn")
ROUNDS = 10              # fresh native + K23 processes per run
PHASE_MS = 100           # the programs of a round take turns this long
WARMUP_MS = 200          # per program and round, before measuring
PROFILE_MS = 500         # load during the untimed offline profiling pass
SUD_SHARE_BOUND = 0.01   # above this after set-up, K23 is not on its tier
TIMEOUT_S = 60


class BenchError(Exception):
    pass


class Degraded(BenchError):
    pass


def log(msg):
    print(msg, flush=True)


def med(values):
    return statistics.median(values) if values else 0.0


# ---- build -------------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else Path.cwd() / base) / "k23bench"


def build(out):
    """Configures and builds the benchmark package; returns binary paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no K23 sources at {ROOT / 'src'}; run from a "
                         "full checkout")
    tmp = out / "tmp"   # compiler scratch stays inside the checkout too
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / "build.log", "w") as f:
        for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", str(out), "-j", jobs, "--target",
                     *TARGETS]):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env).returncode:
                raise BenchError(f"build failed, see {out / 'build.log'}")
    bins = {
        "k23_run": out / "k23" / "k23" / "k23_run",
        "target": out / "k23bench_target",
        "client": out / "k23bench_client",
        "ledger": out / "k23bench_ledger",
    }
    for path in bins.values():
        if not path.is_file():
            raise BenchError(f"missing build output {path}")
    return bins


# ---- processes ---------------------------------------------------------------

def cpu_split():
    """Disjoint CPU sets: (programs under test, load client)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    half = len(cpus) // 2
    return cpus[half:], cpus[:half]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def base_env():
    """The environment without K23 settings (native programs and client)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("K23_")}


LIVE = []


class Proc:
    """A child in its own process group. Reader threads collect its output
    lines, each stderr line with its arrival time."""

    def __init__(self, argv, cpus, env):
        self.t0 = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [str(a) for a in argv], env=env, start_new_session=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        LIVE.append(self)
        self.stdout = []
        self.stderr = []   # (monotonic ns, line)
        self._cond = threading.Condition()
        self._threads = [
            threading.Thread(target=self._pump, args=(pipe, stamped), daemon=True)
            for pipe, stamped in ((self.proc.stdout, False),
                                  (self.proc.stderr, True))]
        for t in self._threads:
            t.start()

    def _pump(self, pipe, stamped):
        for raw in pipe:
            line = raw.decode(errors="replace")
            with self._cond:
                if stamped:
                    self.stderr.append((time.monotonic_ns(), line))
                else:
                    self.stdout.append(line)
                    self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def line(self, index, timeout=TIMEOUT_S):
        """Stdout line number `index`, once it arrives."""
        with self._cond:
            self._cond.wait_for(lambda: len(self.stdout) > index
                                or self.proc.poll() is not None, timeout)
            if len(self.stdout) > index:
                return self.stdout[index]
        raise BenchError(f"no output line {index} from the program: "
                         f"{self.err_text()[-1500:]}")

    def send(self, text):
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def command(self, text):
        """Sends one command line; returns its "ok ..." reply."""
        n = len(self.stdout)
        self.send(text)
        reply = self.line(n)
        if not reply.startswith("ok"):
            raise BenchError(f"unexpected reply to {text!r}: {reply!r}")
        return reply

    def wait(self, timeout=TIMEOUT_S):
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.proc.args[0]} did not exit in {timeout:.0f} s")
        for t in self._threads:
            t.join(timeout=5)
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass

    def err_text(self):
        return "".join(line for _, line in self.stderr)


def stop_all():
    for p in LIVE:
        p.kill()


def parse_fields(line):
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", line)}


# ---- K23's own reports -------------------------------------------------------

TIME_CALLS = ("clock_gettime", "gettimeofday", "time", "getcpu")


def parse_k23_stats(text):
    """The K23_STATS exit report of an interposed process, or None."""
    m = re.search(r"k23 stats: (\d+) syscalls interposed", text)
    if not m:
        return None
    stats = {"total": int(m.group(1)), "rewritten": 0, "sud": 0,
             "accel_time": 0, "accel_other": 0, "batched": 0, "flushes": 0,
             "promoted": 0}
    in_accel = False
    for line in text[m.end():].splitlines():
        if line.startswith("    "):
            name, _, count = line.strip().rpartition(" ")
            if in_accel:
                key = "accel_time" if name.strip() in TIME_CALLS else "accel_other"
                stats[key] += int(count)
            continue
        in_accel = bool(re.match(r"\s+accelerated\s+\d+", line))
        if mm := re.match(r"\s+via rewritten\s+(\d+)", line):
            stats["rewritten"] = int(mm.group(1))
        elif mm := re.match(r"\s+via sud-fallback\s+(\d+)", line):
            stats["sud"] = int(mm.group(1))
        elif mm := re.match(r"\s+batched\s+(\d+) writes into (\d+) flushes", line):
            stats["batched"], stats["flushes"] = int(mm.group(1)), int(mm.group(2))
        elif mm := re.match(r"\s+promotion: \d+ sud hits, (\d+) promoted", line):
            stats["promoted"] = int(mm.group(1))
    return stats


def degradation(text, stats):
    """Why a K23 process is below the rewrite+SUD tier, or None."""
    if "running degraded" in text:
        return "libk23_preload reported 'running degraded'"
    if stats is None:
        return "no K23_STATS report: libk23_preload did not come up"
    share = stats["sud"] / max(1, stats["total"])
    if share > SUD_SHARE_BOUND:
        return f"sud_share {share:.4f} above {SUD_SHARE_BOUND}"
    return None


def setup_marks(proc, first_reply_ns):
    """Set-up steps of a traced K23 process, from its time-stamped debug
    lines: spawn, ptracer handoff, K23 online, first verified result."""
    marks, info = {"spawn": proc.t0}, {}
    for t, line in proc.stderr:
        if "ptracer handoff:" in line and "handoff" not in marks:
            marks["handoff"] = t
            if m := re.search(r"(\d+) startup syscalls", line):
                info["ptracer_syscalls"] = int(m.group(1))
        elif "K23 online" in line and "online" not in marks:
            marks["online"] = t
            if m := re.search(r"(\d+) sites rewritten", line):
                info["sites_rewritten"] = int(m.group(1))
    marks["first_reply"] = first_reply_ns
    return marks, info


# ---- one round ---------------------------------------------------------------

class Slice:
    """One program of one round: how it was started, its results, checks."""

    def __init__(self, mode, index):
        self.mode = mode          # profile | native | k23 | k23-traced
        self.index = index
        self.proc = None
        self.pid = None
        self.port = None
        self.access_log = None
        self.db_dir = None
        self.spans = None
        self.result = {}
        self.phases = []      # per measured phase: ops, ns, cpu_ns, p50/p99
        self.vmhwm_kb = 0
        self.stats = None
        self.check_failed = 0
        self.marks = None

    @property
    def k23(self):
        return self.mode != "native"

    @property
    def setup_s(self):
        return (self.result["first_reply_ns"] - self.proc.t0) / 1e9

    def tputs(self):
        return [p["ops"] / (p["ns"] / 1e9) for p in self.phases]

    def cpus(self):
        return [p["cpu_ns"] / 1e3 / max(1, p["ops"]) for p in self.phases]

    def p50s(self):
        return [p["p50_ns"] / 1e3 for p in self.phases]

    def p99s(self):
        return [p["p99_ns"] / 1e3 for p in self.phases]


class Runner:
    def __init__(self, args, bins, run_dir):
        self.args = args
        self.bins = bins
        self.run_dir = run_dir
        self.server_cpus, self.client_cpus = cpu_split()
        self.offline_log = run_dir / "k23.log"
        self.capabilities = "unknown"

    def spawn(self, mode, index):
        """Starts the workload's program; returns once it is ready."""
        wl = self.args.workload
        s = Slice(mode, index)
        tag = f"{mode}-{index}"
        if mode == "k23-traced":
            s.spans = self.run_dir / f"{tag}.spans"
        target = self.bins["target"]
        if wl == "kv-get":
            s.port = free_port()
            argv = [target, "kv", s.port]
        elif wl == "http-log":
            s.port = free_port()
            s.access_log = self.run_dir / f"access-{tag}.log"
            argv = [target, "http", s.port, s.access_log]
        else:
            s.db_dir = self.run_dir / f"db-{tag}"
            s.db_dir.mkdir()
            argv = [target, "db", s.db_dir, self.args.seed]
            argv += [s.spans] if s.spans else []
        env = base_env()
        if mode != "native":
            env = dict(os.environ, K23_STATS="1")
            if mode == "k23-traced":
                env["K23_LOG_LEVEL"] = "0"   # set-up steps from debug lines
            if wl == "http-log":
                env["K23_BATCH"] = "on"
            sub = ["stats", "--offline"] if mode == "profile" else ["run"]
            argv = [self.bins["k23_run"], *sub, f"--log={self.offline_log}",
                    "--", *argv]
        s.proc = Proc(argv, self.server_cpus, env)
        ready = parse_fields(s.proc.line(0))
        if "pid" not in ready:
            raise BenchError(f"{wl} did not start: {s.proc.err_text()[-1500:]}")
        s.pid = ready["pid"]
        return s

    def round(self, index, modes, seconds):
        """Runs the programs of `modes` for `seconds` of measured load each."""
        slices = []
        try:
            for mode in modes:   # native first, so K23 set-up runs alone
                slices.append(self.spawn(mode, index))
            order = list(reversed(slices))   # newest first: prompt first reply
            if self.args.workload == "db-txn":
                self.drive_db(order, seconds)
            else:
                self.drive_client(order, seconds)
            for s in slices:
                self.finish(s)
        finally:
            for s in slices:
                s.proc.kill()
        return slices

    def drive_client(self, order, seconds):
        kind = "kv" if self.args.workload == "kv-get" else "http"
        targets = [f"{s.port}:{s.pid}" + (f":{s.spans}" if s.spans else "")
                   for s in order]
        client = Proc([self.bins["client"], kind, self.args.seed, seconds,
                       WARMUP_MS / 1e3, PHASE_MS, min(4, os.cpu_count() or 1),
                       *targets], self.client_cpus, base_env())
        if client.wait(TIMEOUT_S + 4 * seconds) != 0:
            raise BenchError(f"client failed: {client.err_text()[-1500:]}")
        for line in client.stdout:
            fields = parse_fields(line)
            if line.startswith("phase "):
                order[fields["target"]].phases.append(fields)
            elif line.startswith("result "):
                order[fields["target"]].result = fields
        for s in order:
            try:
                os.kill(s.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass   # finish() reports how it ended

    def drive_db(self, order, seconds):
        """The drivers take turns like the client's servers do."""
        for s in order:
            s.proc.command(f"warm {WARMUP_MS}")
        for r in range(max(1, round(seconds * 1e3 / PHASE_MS))):
            for s in (order if r % 2 == 0 else reversed(order)):
                s.phases.append(parse_fields(s.proc.command(f"run {PHASE_MS}")))
        for s in order:
            s.proc.send("end")

    def finish(self, s):
        """Waits for a program's exit and runs the end-of-run checks."""
        if s.proc.wait() != 0:
            raise BenchError(f"{s.mode} program failed: {s.proc.err_text()[-1500:]}")
        for line in s.proc.stdout:
            if line.startswith("result ") and self.args.workload == "db-txn":
                s.result = parse_fields(line)
            elif line.startswith("vmhwm_kb="):
                s.vmhwm_kb = int(line.split("=")[1])
        if "ops" not in s.result:
            raise BenchError(f"no result for the {s.mode} program")
        s.check_failed = s.result["warmup_failed"] + s.result["verify_failed"]
        if s.access_log:
            # Flush-on-exit barrier: one access-log line per served request.
            with open(s.access_log, "rb") as f:
                lines = sum(1 for _ in f)
            s.check_failed += abs(lines - s.result["total_ops"])
            s.access_log.unlink()
        if s.db_dir:
            shutil.rmtree(s.db_dir, ignore_errors=True)
        text = s.proc.err_text()
        if s.mode == "profile":
            if m := re.search(r"capabilities:.*", text):
                self.capabilities = m.group(0)
        elif s.k23:
            s.stats = parse_k23_stats(text)
            if why := degradation(text, s.stats):
                raise Degraded(why)
            if s.mode == "k23-traced":
                s.marks = setup_marks(s.proc, s.result["first_reply_ns"])

    def profile(self):
        """Untimed offline pass: records the syscall sites into the log."""
        self.round(0, ["profile"], PROFILE_MS / 1e3)
        if not self.offline_log.is_file():
            raise BenchError("the offline profiling pass wrote no log")


# ---- metrics -----------------------------------------------------------------

def run_rounds(runner, seconds, traced, slices):
    """Appends each round's programs to `slices` as the round completes."""
    modes = ["native", "k23"] + (["k23-traced"] if traced else [])
    per_program = seconds / (ROUNDS * len(modes))
    for r in range(ROUNDS):
        for s in runner.round(r, modes, per_program):
            slices.append(s)
            extra = ""
            if s.k23:
                extra = (f"  setup {s.setup_s:.4f} s  rss {s.vmhwm_kb / 1024:.2f} MB"
                         f"  sud_share {s.stats['sud'] / max(1, s.stats['total']):.6f}")
            log(f"round {r + 1} {s.mode:10s} {med(s.tputs()):11.1f} ops/s  "
                f"p50 {med(s.p50s()):8.2f} us  p99 {med(s.p99s()):8.2f} us  "
                f"cpu {med(s.cpus()):7.3f} us/op  ops {s.result['ops']}  "
                f"failed {s.result['failed']}  checks_failed {s.check_failed}"
                f"{extra}")


def pooled(programs, values):
    """All phases of `programs`, one value each."""
    return [v for s in programs for v in values(s)]


def phase_ratios(a, b, values=Slice.tputs):
    """Phase-by-phase ratios a/b of one per-phase value; phase j of both
    programs of a round ran next to each other in time."""
    return [x / y for sa, sb in zip(a, b)
            for x, y in zip(values(sa), values(sb))]


# The end-to-end metrics in the JSON result (BENCHMARK.json). The K23/native
# ratios of adjacent phases cancel host drift, which moves the absolute
# values of a run by up to a third within minutes on a shared virtual
# machine; the absolute values are printed beside them.
GATED = ("relative_throughput", "relative_latency_p50", "relative_latency_p99",
         "relative_cpu_per_op", "setup_s", "peak_rss_mb")


def end_to_end(slices):
    """Medians over all measured phases of the run's K23 programs (one per
    round), which a host stall in a few phases does not move."""
    k23 = [s for s in slices if s.mode == "k23"]
    native = [s for s in slices if s.mode == "native"]
    phases = sum(len(s.phases) for s in k23)
    ops = sum(s.result["ops"] for s in k23)
    note = f"median of {phases} phases of {PHASE_MS} ms, {ops} operations"
    pairs = f"K23/native, median of {phases} adjacent phase pairs"
    return {
        "throughput_ops_s": (med(pooled(k23, Slice.tputs)), "ops/s", note),
        "relative_throughput": (med(phase_ratios(k23, native)), "ratio", pairs),
        "latency_p50_us": (med(pooled(k23, Slice.p50s)), "us", note),
        "relative_latency_p50": (med(phase_ratios(k23, native, Slice.p50s)),
                                 "ratio", pairs),
        "latency_p99_us": (med(pooled(k23, Slice.p99s)), "us", note),
        "relative_latency_p99": (med(phase_ratios(k23, native, Slice.p99s)),
                                 "ratio", pairs),
        "setup_s": (med([s.setup_s for s in k23]), "s",
                    f"median of {len(k23)} set-ups"),
        "cpu_us_per_op": (med(pooled(k23, Slice.cpus)), "us",
                          "interposed process, all threads; " + note),
        "relative_cpu_per_op": (med(phase_ratios(k23, native, Slice.cpus)),
                                "ratio", pairs),
        "peak_rss_mb": (statistics.fmean([s.vmhwm_kb / 1024 for s in k23]), "MB",
                        f"VmHWM at exit, mean of {len(k23)} programs"),
    }


def per_layer(workload, slices, ledger):
    k23 = [s for s in slices if s.mode == "k23"]
    traced = [s for s in slices if s.mode == "k23-traced"]
    native = [s for s in slices if s.mode == "native"]
    interposed = k23 + traced

    def per_op(key):
        return med([s.stats[key] / max(1, s.result["total_ops"])
                    for s in interposed])

    def share(count):
        return med([count(s.stats) / max(1, s.stats["total"]) for s in interposed])

    marks = [s.marks for s in traced]
    m = {
        "ptracer.window_ms": (med([(mk["handoff"] - mk["spawn"]) / 1e6
                                   for mk, _ in marks if "handoff" in mk]), "ms"),
        "ptracer.syscalls": (med([i.get("ptracer_syscalls", 0) for _, i in marks]),
                             "count"),
        "k23.init_ms": (med([(mk["online"] - mk["handoff"]) / 1e6 for mk, _ in marks
                             if "online" in mk and "handoff" in mk]), "ms"),
        "k23.sites_rewritten": (med([i.get("sites_rewritten", 0) for _, i in marks]),
                                "count"),
        "k23.promotions": (med([s.stats["promoted"] for s in interposed]), "count"),
        "k23.sud_share": (share(lambda st: st["sud"]), "ratio"),
        "interpose.calls_per_op.rewritten": (per_op("rewritten"), "count"),
        "interpose.calls_per_op.sud-fallback": (per_op("sud"), "count"),
        "accel.share": (share(lambda st: st["accel_time"] + st["accel_other"]),
                        "ratio"),
        "batch.coalescing": (med([s.stats["batched"] / s.stats["flushes"]
                                  if s.stats["flushes"] else 0.0
                                  for s in interposed]), "ratio"),
        "batch.flushes_per_op": (per_op("flushes"), "count"),
    }
    for name, value in ledger.items():
        m[name] = (value, "ms" if name.endswith("_ms") else
                   "Mops/s" if "mops" in name else "ns")

    # The ledger: count per operation x unit cost, summed over layers.
    chain = ledger[f"interpose.chain_ns.{workload}"] - ledger["interpose.chain_ns.empty"]
    raw = ledger["arch.raw_ns"]
    explained_ns = (
        per_op("rewritten") * (ledger["trampoline.entry_ns"] + chain)
        + per_op("sud") * (ledger["sud.entry_ns"] + chain)
        + per_op("accel_time") * (ledger["accel.clock_gettime_ns"] - raw)
        + per_op("accel_other") * (ledger["accel.getpid_ns"] - raw)
        + per_op("batched") * (ledger["batch.absorb_ns"]
                               - ledger["batch.native_write_ns"])
        + per_op("flushes") * ledger["batch.flush_ns"])
    native_cpu = med(pooled(native, Slice.cpus))
    k23_cpu = med(pooled(k23, Slice.cpus))
    explained = explained_ns / 1e3
    m["ledger.native_cpu_us_per_op"] = (native_cpu, "us")
    m["ledger.k23_cpu_us_per_op"] = (k23_cpu, "us")
    m["ledger.explained_us_per_op"] = (explained, "us")
    m["ledger.unexplained_us_per_op"] = (k23_cpu - native_cpu - explained, "us")
    m["trace.overhead_pct"] = (
        (1 - med(phase_ratios(traced, k23))) * 100, "%")
    return m


def run_ledger(runner):
    p = Proc([runner.bins["ledger"], runner.run_dir], runner.server_cpus,
             base_env())
    if p.wait(120) != 0:
        raise BenchError(f"ledger harness failed: {p.err_text()[-1500:]}")
    values, spans = {}, []
    for line in p.stdout:
        parts = line.split()
        if parts[:1] == ["metric"]:
            values[parts[1]] = float(parts[2])
        elif parts[:1] == ["span"]:
            spans.append(parts[1:])
    return values, spans


def write_trace(runner, slices, ledger_spans):
    """Spans of the traced run, one per line: name id parent start_ns end_ns.

    Request or transaction spans come from the client or driver (one file
    per traced program, merged here); set-up spans share their round's id;
    ledger spans carry their call count in place of a parent."""
    path = runner.run_dir / f"trace-{runner.args.workload}.spans"
    with open(path, "w") as out:
        out.write("# name id parent start_ns end_ns\n")
        for s in slices:
            if s.mode != "k23-traced":
                continue
            rid = f"round{s.index}"
            marks, _ = s.marks
            out.write(f"setup {rid} - {marks['spawn']} {marks['first_reply']}\n")
            prev = "spawn"
            for name in ("handoff", "online", "first_reply"):
                if name in marks:
                    out.write(f"setup.{name} {rid} setup {marks[prev]} {marks[name]}\n")
                    prev = name
            if s.spans.is_file():
                with open(s.spans) as f:
                    for line in f:
                        name, sid, start, end = line.split()
                        out.write(f"{name} {rid}.{sid} {rid} {start} {end}\n")
                s.spans.unlink()
        for name, start, end, count in ledger_spans:
            out.write(f"ledger.{name} - calls={count} {start} {end}\n")
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        bins = build(build_dir())
    except BenchError as e:
        print(f"k23bench: {e}", file=sys.stderr)
        return 2
    run_dir = build_dir() / f"run-{args.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args, bins, run_dir)
    log(f"k23bench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} nproc={os.cpu_count()} "
        f"program_cpus={runner.server_cpus} client_cpus={runner.client_cpus}")

    failed_reason = None
    slices = []
    try:
        runner.profile()
        log(f"k23bench: k23_run {runner.capabilities}")
        caps = runner.capabilities.split()
        if "+sud" not in caps or "+mmap_va0" not in caps:
            raise Degraded(f"host lacks the rewrite+SUD tier: {runner.capabilities}")
        ledger, ledger_spans = run_ledger(runner) if args.trace else ({}, [])
        run_rounds(runner, args.seconds, bool(args.trace), slices)
    except Degraded as e:
        failed_reason = str(e)
    except BenchError as e:
        print(f"k23bench: {e}", file=sys.stderr)
        return 1
    finally:
        stop_all()

    attempted = sum(s.result["attempted"] for s in slices) or 1
    failed = sum(s.result["failed"] + s.check_failed for s in slices)
    if failed_reason:
        log(f"k23bench: FAILED RUN, K23 below the rewrite+SUD tier: {failed_reason}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1

    e2e = end_to_end(slices)
    for name, (value, unit, note) in e2e.items():
        log(f"{name:22s} {value:14.4f} {unit:6s} ({note})")
    log(f"{'error_rate':22s} {failed / attempted:14.6f} {'ratio':6s} "
        f"({failed} failed of {attempted} attempted, output checks included)")
    metrics = {n: {"value": v, "unit": u} for n, (v, u, _) in e2e.items()
               if n in GATED}
    if args.trace:
        layers = per_layer(args.workload, slices, ledger)
        for name, (value, unit) in layers.items():
            log(f"{name:38s} {value:14.4f} {unit}")
        lo = ledger["interpose.stats_record_mops.min"]
        hi = ledger["interpose.stats_record_mops.max"]
        if hi > 3 * lo:
            log(f"k23bench: finding: SyscallStats::record on {os.cpu_count()} "
                f"threads is bimodal ({lo:.1f} to {hi:.1f} Mops/s)")
        log(f"k23bench: trace written to {write_trace(runner, slices, ledger_spans)}")
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layers.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_all()
