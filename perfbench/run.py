#!/usr/bin/env python3
"""genasmx benchmark: one seeded workload per run, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library and the shipped tools from source, plus the
benchmark's helpers) into .bench_build/; later runs only re-check the
build. Inputs come from pb_gen with the given seed; the programs under
test only see the generated FASTA/FASTQ. See perfbench/README.md for the
workloads, metrics, checks and reference figures.

--trace 0 prints every end-to-end metric, --trace 1 every per-layer
metric (plus DIR/trace.json and DIR/self_time.tsv). The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
failed check exits non-zero without printing it.
"""

import argparse
import glob
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
NPROC = os.cpu_count() or 1

# One repeat-rich reference for every workload: 15% of it is copies of
# 3 kb segments at 2% divergence, so reads carry secondary candidates.
# Reads are PacBio-CLR-like (~10% error).
REFERENCE = {"genome": 8_000_000, "contigs": 8}

# Per workload: the read set, the mapping flow, and the mapd request mix.
# "serves" marks the workload whose user runs genasmx_mapd rather than
# genasmx_map: its setup ends at the first PING reply and its peak RSS is
# mapd's.
# fixed_rate (requests/s) is about 35% of what mapd sustained on the
# reference host (4-core avx512 KVM guest, see README); the traced run
# measures latency there. The ladder rates are fixed too, from some 60%
# of that capacity; each step lasts step_seconds (rate x step_seconds
# requests), long enough for a backlog that grows at a few tens of
# percent over capacity to reach p99_limit_ms, and must keep its p99
# within that limit.
WORKLOADS = {
    "long_full": {
        "reads": 240, "length": (10_000, 10_000),
        "primary_only": False, "request_reads": (1, 1),
        "fixed_rate": 90.0,
        "ladder": [260.0, 300.0, 345.0, 395.0, 455.0, 525.0],
        "step_seconds": 2.0, "p99_limit_ms": 400.0,
        "truth_floor": 0.97,
    },
    "serve_open_loop": {
        "reads": 1500, "length": (1_000, 5_000),
        "primary_only": True, "request_reads": (1, 8),
        "fixed_rate": 200.0,
        "ladder": [390.0, 435.0, 485.0, 540.0, 600.0, 665.0, 740.0, 820.0],
        "step_seconds": 1.0, "p99_limit_ms": 250.0,
        "truth_floor": 0.97, "serves": True,
    },
}
FIXED_REQUESTS = 1000
WARMUP_REQUESTS = 200
SETUP_REPEATS = 5
SWEEPS = 3
STEAL_RETRY = 0.05  # steal share above which a missed step is rerun
STEAL_RETRIES = 2  # reruns of one step at most
RETRY_BUDGET = 4  # reruns in a run at most, so its length stays bounded
RUN_LIMIT_S = 170  # every run ends well inside 180 s, build excluded


class Deadline:
    """Caps each child's wait so the whole run stays inside RUN_LIMIT_S."""

    def __init__(self):
        self.end = None

    def start(self):
        self.end = time.perf_counter() + RUN_LIMIT_S

    def left(self, cap):
        if self.end is None:
            return cap
        return max(1.0, min(cap, self.end - time.perf_counter()))


deadline = Deadline()


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def note(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build

def build():
    """Configure once, then an incremental build; returns the bin dir."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=600)
        if r.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise CheckFailed("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC)],
                       stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    if r.returncode != 0:
        raise CheckFailed("build failed")
    return os.path.abspath(BUILD)


def host_fingerprint(bins):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    isa = subprocess.run([os.path.join(bins, "pb_gen"), "--isa"],
                         capture_output=True, text=True,
                         timeout=60).stdout.strip()
    compiler, build_type = "unknown", "unknown"
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = text.split('CMAKE_CXX_COMPILER_ID "', 1)[1].split('"', 1)[0]
        ver = text.split('CMAKE_CXX_COMPILER_VERSION "', 1)[1].split('"')[0]
        compiler = "%s %s" % (cid, ver)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {"nproc": NPROC, "cpu": model, "isa": isa,
            "compiler": compiler, "build_type": build_type}


# ------------------------------------------------------------- processes

def spawn(cmd, cwd=None, stdout=subprocess.DEVNULL):
    """Start a program with stderr kept in a file for error messages."""
    err = tempfile.TemporaryFile(dir=BUILD)
    p = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=err)
    p.err_file = err
    return p


def reap(p, timeout=170):
    """Wait for `p` (killing it after `timeout` s, or when the run's time
    is up); returns its peak RSS in bytes, as the OS accounts it for that
    one child."""
    timer = threading.Timer(deadline.left(timeout), p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.err_file.seek(0)
    err = p.err_file.read().decode(errors="replace").strip()
    p.err_file.close()
    if p.returncode != 0:
        raise CheckFailed("%s exited %d: %s" % (
            os.path.basename(p.args[0]), p.returncode, err[-400:]))
    return usage.ru_maxrss * 1024


def cpu_seconds():
    """(busy, stolen) CPU seconds of the whole machine since boot, summed
    over its CPUs, from /proc/stat; (0, 0) where it cannot be read.
    Stolen time is time a virtual CPU had work but its hypervisor ran
    another guest."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0.0, 0.0
    if len(v) < 8:
        return 0.0, 0.0
    tick = os.sysconf("SC_CLK_TCK")
    # user nice system idle iowait irq softirq steal
    return (v[0] + v[1] + v[2] + v[5] + v[6]) / tick, v[7] / tick


def steal_share(busy, steal):
    """Share of the machine's running time its hypervisor took away."""
    return steal / (busy + steal) if busy > 0 and steal > 0 else 0.0


def run_timed(cmd, cwd=None):
    """Run to completion; returns (wall seconds, peak RSS bytes, the
    machine's (busy, stolen) CPU seconds meanwhile)."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    peak = reap(spawn(cmd, cwd))
    wall = time.perf_counter() - t0
    c1 = cpu_seconds()
    return wall, peak, (c1[0] - c0[0], c1[1] - c0[1])


def ping(sock_path, timeout=30.0):
    """PING mapd until it answers."""
    t0 = time.perf_counter()
    while True:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(5.0)
                s.connect(sock_path)
                s.sendall(b"PING\n")
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = s.recv(256)
                    if not chunk:
                        break
                    reply += chunk
                if reply.startswith(b"OK"):
                    return
        except OSError:
            pass
        if time.perf_counter() - t0 > timeout:
            raise CheckFailed("mapd did not answer PING")
        time.sleep(0.002)


class Mapd:
    """genasmx_mapd on a Unix socket in the work dir; stop() drains it."""

    def __init__(self, bins, work, wl):
        self.sock = os.path.join(work, "mapd.sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        cmd = [os.path.join(bins, "genasmx", "genasmx_mapd"),
               "--index", os.path.join(work, "ref.gxi"),
               "--unix", "mapd.sock",
               # Raised from the default 64 so that every request of a
               # run fits: shedding under overload would make the failed
               # count depend on timing. Overload shows as latency, and
               # the ladder measures where it crosses the limit.
               "--max-queue", "1000000"]
        if wl["primary_only"]:
            cmd.append("--primary-only")
        t0 = time.perf_counter()
        self.proc = spawn(cmd, cwd=work)
        try:
            # A relative path keeps the socket name short of sun_path's
            # limit however deep the checkout is.
            ping(os.path.relpath(self.sock))
            self.ready_s = time.perf_counter() - t0
        except CheckFailed:
            self.proc.kill()
            try:
                reap(self.proc)
            except CheckFailed as e:
                raise CheckFailed("mapd did not answer PING (%s)" % e)
            raise

    def stop(self):
        """SIGTERM drains mapd; returns its peak RSS."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return reap(self.proc, timeout=60)
        except CheckFailed as e:
            raise CheckFailed("mapd did not drain on SIGTERM (%s)" % e)


# ---------------------------------------------------------------- phases

def generate(bins, work, wl, seed):
    lo, hi = wl["length"]
    run_timed([os.path.join(bins, "pb_gen"), "--seed", str(seed),
               "--out", work, "--genome", str(REFERENCE["genome"]),
               "--contigs", str(REFERENCE["contigs"]),
               "--reads", str(wl["reads"]), "--min-length", str(lo),
               "--max-length", str(hi)])
    with open(os.path.join(work, "reads.fq")) as f:
        first = "".join(f.readline() for _ in range(4))
    with open(os.path.join(work, "first.fq"), "w") as f:
        f.write(first)


def build_index(bins, work):
    return run_timed([os.path.join(bins, "genasmx", "genasmx_index"),
                      "--ref", os.path.join(work, "ref.fa"),
                      "--out", os.path.join(work, "ref.gxi")])[0]


def map_cmd(bins, work, wl, reads, out, threads=None):
    cmd = [os.path.join(bins, "genasmx", "genasmx_map"),
           "--index", os.path.join(work, "ref.gxi"),
           "--reads", os.path.join(work, reads), "--out", out]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if wl["primary_only"]:
        cmd.append("--primary-only")
    return cmd


def setup_seconds(bins, work, wl):
    """Reference FASTA to first read accepted, median of several."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = build_index(bins, work)
        if wl.get("serves"):
            mapd = Mapd(bins, work, wl)
            t += mapd.ready_s
            mapd.stop()
        else:
            t += run_timed(map_cmd(bins, work, wl, "first.fq",
                                   os.path.join(work, "first.paf")))[0]
        times.append(t)
    return statistics.median(times)


class Batch:
    """Whole passes of genasmx_map over the read set at one --threads.
    Every pass must reproduce the first pass's PAF byte for byte. Each
    pass is followed by a one-read run at the same --threads, whose wall
    time (process start, verified index open, thread pool) is the
    per-process fixed cost that rate() takes off a pass. A pass's time is
    its wall time less the share of the machine's running time the
    hypervisor stole meanwhile, so other guests on a shared host lower
    the figure less."""

    def __init__(self, bins, work, wl, threads, tag):
        self.out = os.path.join(work, "%s.paf" % tag)
        self.cmd = map_cmd(bins, work, wl, "reads.fq", self.out, threads)
        self.fixed_cmd = map_cmd(bins, work, wl, "first.fq",
                                 os.path.join(work, tag + ".first.paf"),
                                 threads)
        self.reads = wl["reads"]
        self.passes = []  # (wall, steal share, fixed cost)
        self.rss, self.paf = [], None

    def rate(self, unstolen=True):
        """Steady-state reads/s: the median pass minus the median fixed
        cost (with unstolen=False, from wall time alone)."""
        return self.reads / (
            statistics.median(w * (1 - s) if unstolen else w
                              for w, s, _ in self.passes)
            - statistics.median(f for _, _, f in self.passes))

    def run(self, budget):
        """Passes while they fit in `budget` seconds (at least one): a
        pass starts only if half of it would end inside the budget."""
        t_end = time.perf_counter() + budget
        while True:
            wall, peak, cpu = run_timed(self.cmd)
            self.passes.append((wall, steal_share(*cpu),
                                run_timed(self.fixed_cmd)[0]))
            self.rss.append(peak)
            with open(self.out, "rb") as f:
                paf = f.read()
            if self.paf is None:
                self.paf = paf
            elif paf != self.paf:
                raise CheckFailed("genasmx_map output changed between passes")
            if time.perf_counter() + wall / 2 >= t_end:
                return


def read_openloop_log(path):
    reqs = []
    with open(path) as f:
        for line in f:
            p = line.split()
            reqs.append({"start": int(p[1]), "count": int(p[2]),
                         "due": int(p[3]) / 1000.0,
                         "sent": int(p[4]) / 1000.0,
                         "done": int(p[5]) / 1000.0, "status": p[6],
                         "crc": int(p[8]), "bytes": int(p[9])})
    return reqs


def percentile(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def open_loop(bins, work, wl, seed, rate, requests, tag):
    """`requests` requests at `rate` per second from pb_openloop; returns
    their stats (phase_stats) and the requests."""
    cmd = [os.path.join(bins, "pb_openloop"), "--unix", "mapd.sock",
           "--reads", "reads.fq", "--seed", str(seed),
           "--connections", str(NPROC), "--rate", "%g" % rate,
           "--requests", str(requests),
           "--min-reads", str(wl["request_reads"][0]),
           "--max-reads", str(wl["request_reads"][1]),
           "--log", tag + ".log"]
    _, _, cpu = run_timed(cmd, cwd=work)
    reqs = read_openloop_log(os.path.join(work, tag + ".log"))
    return dict(phase_stats(reqs), busy=cpu[0], steal=cpu[1]), reqs


def phase_stats(reqs):
    lat = [r["done"] - r["due"] for r in reqs if r["status"] == "OK"]
    failed = sum(r["status"] != "OK" for r in reqs)
    due = [r["due"] for r in reqs]
    span_s = (max(due) - min(due)) / 1000.0
    reads = sum(r["count"] for r in reqs)
    return {
        "requests": len(reqs), "failed": failed,
        "offered_reads_per_s": reads / span_s if span_s > 0 else 0.0,
        "p50": percentile(lat, 0.50) if lat else math.inf,
        # A failed request misses any limit.
        "p99": percentile(lat, 0.99) if lat and not failed else math.inf,
        "late_p99": percentile([r["sent"] - r["due"] for r in reqs], 0.99),
    }


def sweep(bins, work, wl, seed, tag, retries_left):
    """One pass up the ladder; returns each step's stats, every request
    sent and the reruns left. Step i, rerun r runs on schedule
    seed + 10 i + r. A step that misses the limit while the hypervisor
    stole more than STEAL_RETRY of the machine's running time is run
    again on a new schedule, up to STEAL_RETRIES times and while
    `retries_left` lasts: a miss then says more about the host than about
    mapd. The sweep stops after two steps in a row that miss the limit,
    so one step hit by a slow spell does not end it."""
    limit = wl["p99_limit_ms"]
    steps, served, misses = [], [], 0
    for i, rate in enumerate(wl["ladder"]):
        for retry in range(STEAL_RETRIES + 1):
            st, reqs = open_loop(
                bins, work, wl, seed + 10 * i + retry, rate,
                round(rate * wl["step_seconds"]),
                "%s.step%d.%d" % (tag, i + 1, retry))
            served += reqs
            st["retries"] = retry
            if st["p99"] <= limit or retries_left == 0 or \
                    steal_share(st["busy"], st["steal"]) <= STEAL_RETRY:
                break
            retries_left -= 1
        steps.append(st)
        misses = misses + 1 if st["p99"] > limit else 0
        if misses == 2:
            break
    return steps, served, retries_left


def max_rate(steps, rates, limit):
    """Highest ladder rate (`rates[i]` reads/s for step i) whose p99 meets
    the limit, and the steps that figure rests on. Toward the next
    (failing) step, the crossing is placed by log-linear interpolation of
    p99, so the figure moves smoothly instead of jumping a whole step when
    the limit falls between two rates."""
    passing = [i for i, s in enumerate(steps) if s["p99"] <= limit]
    if not passing:
        return rates[0] * min(1.0, limit / steps[0]["p99"]), [0]
    i = passing[-1]
    if i + 1 == len(steps) or not math.isfinite(steps[i + 1]["p99"]):
        return rates[i], [i]
    frac = (math.log(limit) - math.log(steps[i]["p99"])) / (
        math.log(steps[i + 1]["p99"]) - math.log(steps[i]["p99"]))
    return rates[i] + frac * (rates[i + 1] - rates[i]), [i, i + 1]


def unstolen_max_rate(steps, rates, limit):
    """max_rate() over 1 - the steal share of the machine's running time
    during the steps it rests on: mapd's capacity shrinks by the share of
    time the hypervisor takes away."""
    rate, used = max_rate(steps, rates, limit)
    return rate / (1 - steal_share(sum(steps[i]["busy"] for i in used),
                                   sum(steps[i]["steal"] for i in used)))


def check_quality(paf, ref, reads, wl):
    quality = check.check_paf(paf, ref, reads)
    floor = wl["truth_floor"] * len(reads)
    if quality["reads_on_truth"] < floor:
        raise CheckFailed("reads_on_truth %d below the floor %.0f" % (
            quality["reads_on_truth"], floor))
    if quality["no_cigar"]:
        raise CheckFailed("%d primary records without a CIGAR"
                          % quality["no_cigar"])
    return quality


# ------------------------------------------------------------- workloads

def run_end_to_end(bins, work, name, wl, seed, seconds):
    """Setup; then, with mapd up: a warm-up at the fixed rate and SWEEPS
    ladder sweeps, with a stretch of batch passes before, between and
    after them. A stretch is two rounds of (default-thread passes,
    one-thread passes) of genasmx_map while mapd idles. Interleaving the
    two thread counts spreads both over the same stretch of time, so a
    slow spell of a shared host hits both alike; alternating stretches
    and sweeps keeps one slow spell from covering every pass or every
    sweep."""
    deadline.start()
    setup_s = setup_seconds(bins, work, wl)
    ref = check.read_fasta(os.path.join(work, "ref.fa"))
    reads = check.read_fastq(os.path.join(work, "reads.fq"))
    full = Batch(bins, work, wl, None, "map")
    one = Batch(bins, work, wl, 1, "map1t")
    mapd = Mapd(bins, work, wl)
    try:
        _, served = open_loop(bins, work, wl, seed + 1, wl["fixed_rate"],
                              WARMUP_REQUESTS, "warm")
        sweeps, retries_left = [], RETRY_BUDGET
        stretches = SWEEPS + 1
        for k in range(stretches):
            for _ in range(2):
                full.run(0.15 * seconds / stretches)
                one.run(0.2 * seconds / stretches)
            if k + 1 == stretches:
                break
            steps, reqs, retries_left = sweep(
                bins, work, wl, 1000 * seed + 100 * k, "sweep%d" % (k + 1),
                retries_left)
            sweeps.append(steps)
            served += reqs
    finally:
        mapd_rss = mapd.stop()
    if one.paf != full.paf:
        raise CheckFailed("PAF at --threads 1 differs from the default")
    quality = check_quality(full.paf, ref, reads, wl)
    checked = check.check_replies(served, reads,
                                  check.lines_by_read(full.paf))

    limit = wl["p99_limit_ms"]
    # A step's place on the ladder is its nominal read rate: request rate
    # times the mean request size. The read rate a 1 s Poisson sample
    # actually offers varies by several percent from seed to seed.
    lo, hi = wl["request_reads"]
    rates = [r * (lo + hi) / 2 for r in wl["ladder"]]
    log("workload %s seed %d: %d reads, %d PAF records" % (
        name, seed, len(reads), quality["records"]))
    log("  setup %.3fs; fixed cost per process %.1f ms" % (
        setup_s, 1000 * statistics.median(
            f for b in (full, one) for _, _, f in b.passes)))
    for b, label in ((full, "default threads"), (one, "1 thread")):
        log("  batch %s: %d passes, %.1f reads/s (%.1f before taking off "
            "steal); pass walls %s; steal %s" % (
                label, len(b.passes), b.rate(), b.rate(False),
                " ".join("%.3f" % w for w, _, _ in b.passes),
                " ".join("%.1f%%" % (100 * s) for _, s, _ in b.passes)))
    for k, steps in enumerate(sweeps):
        for i, s in enumerate(steps):
            log("  mapd sweep%d step%d %5d requests %8.1f reads/s (offered "
                "%8.1f)  p50 %7.2f ms  p99 %8.2f ms  failed %d  send "
                "lateness p99 %.2f ms  steal %.1f%%  retries %d%s" % (
                    k + 1, i + 1, s["requests"], rates[i],
                    s["offered_reads_per_s"], s["p50"], s["p99"],
                    s["failed"], s["late_p99"],
                    100 * steal_share(s["busy"], s["steal"]), s["retries"],
                    "" if s["p99"] <= limit else "  > limit"))
        log("  mapd sweep%d max rate %.1f reads/s (%.1f before taking off "
            "steal)" % (k + 1, unstolen_max_rate(steps, rates, limit),
                        max_rate(steps, rates, limit)[0]))
    log("  replies checked against the batch PAF: %d" % checked)

    peak = mapd_rss if wl.get("serves") else \
        statistics.median(full.rss)
    passes = len(full.passes) + len(one.passes)
    attempted = (len(reads) * passes
                 + len(served))
    failed = sum(q["status"] != "OK" for q in served)
    metrics = {
        "setup_s": (setup_s, "s"),
        "map_reads_per_s": (full.rate(), "reads/s"),
        "map_1t_reads_per_s": (one.rate(), "reads/s"),
        "peak_rss_bytes": (peak, "bytes"),
        "reads_on_truth": (quality["reads_on_truth"], "reads"),
        "alignment_cost_per_kb": (quality["alignment_cost_per_kb"],
                                  "edits/kb"),
        # The best sweep: a slow spell of the host can only lower one.
        "serve_max_rate_reads_per_s": (
            max(unstolen_max_rate(steps, rates, limit)
                for steps in sweeps), "reads/s"),
    }
    return attempted, failed, metrics


def run_traced(bins, work, name, wl, seed, seconds):
    deadline.start()
    build_index(bins, work)
    ref = check.read_fasta(os.path.join(work, "ref.fa"))
    reads = check.read_fastq(os.path.join(work, "reads.fq"))
    full = Batch(bins, work, wl, None, "map")
    full.run(0)
    check_quality(full.paf, ref, reads, wl)

    lo, hi = wl["request_reads"]
    group = max(1, round(8 * (lo + hi) / 2))  # mapd coalesces 8 requests
    cmd = [os.path.join(bins, "pb_layers"),
           "--ref", os.path.join(work, "ref.fa"),
           "--reads", os.path.join(work, "reads.fq"), "--work", work,
           "--probe-seconds", "%g" % (seconds / 30.0),
           "--group-reads", str(group), "--request-reads", "%d:%d" % (lo, hi),
           "--seed", str(seed)]
    if wl["primary_only"]:
        cmd.append("--primary-only")
    with open(os.path.join(work, "layers.json"), "w+") as out:
        reap(spawn(cmd, stdout=out))
        out.seek(0)
        layers = json.loads(out.read().strip().splitlines()[-1])
    with open(os.path.join(work, "inprocess.paf"), "rb") as f:
        if f.read() != full.paf:
            raise CheckFailed("in-process pipeline PAF differs from "
                              "genasmx_map's")

    # The fixed-rate phase: latency and the client's lateness.
    mapd = Mapd(bins, work, wl)
    try:
        _, warm = open_loop(bins, work, wl, seed + 1, wl["fixed_rate"],
                            WARMUP_REQUESTS, "warm")
        fx, fixed = open_loop(bins, work, wl, seed, wl["fixed_rate"],
                              FIXED_REQUESTS, "fixed")
    finally:
        mapd.stop()
    check.check_replies(warm + fixed, reads, check.lines_by_read(full.paf))
    layers["server.fixed_rate_p50_ms"] = fx["p50"]
    layers["server.fixed_rate_p99_ms"] = fx["p99"]
    layers["client.send_lateness_ms_p99"] = fx["late_p99"]

    log("workload %s seed %d (traced): spans in %s, self time per span:" % (
        name, seed, os.path.join(work, "trace.json")))
    with open(os.path.join(work, "self_time.tsv")) as f:
        for line in f:
            log("  " + line.rstrip("\n").replace("\t", "  "))
    attempted = len(reads) + len(warm) + len(fixed)
    failed = sum(q["status"] != "OK" for q in warm + fixed)
    units = {}
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        for m in json.load(f)["per_layer"]:
            units[m["name"]] = m["unit"]
    missing = [n for n in units if n not in layers]
    if missing:
        raise CheckFailed("per-layer metrics not measured: %s" % missing)
    return attempted, failed, {n: (layers[n], u) for n, u in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    try:
        check.self_test()
        bins = build()
        host = host_fingerprint(bins)
        log("host: " + json.dumps(host))
        work = os.path.abspath(os.path.join(
            BUILD, "work", "%s-%d-%d" % (args.workload, args.seed,
                                         args.trace)))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        generate(bins, work, wl, args.seed)
        runner = run_traced if args.trace else run_end_to_end
        attempted, failed, metrics = runner(bins, work, args.workload, wl,
                                            args.seed, args.seconds)
    except (CheckFailed, ValueError, AssertionError, OSError) as e:
        note("benchmark failed: %s" % e)
        return 1
    for k, (v, u) in metrics.items():
        log("  %-34s %16.6g %s" % (k, v, u))
    log("operations: %d attempted, %d failed" % (attempted, failed))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
