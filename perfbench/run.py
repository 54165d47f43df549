#!/usr/bin/env python3
"""perfbench — the repository benchmark for the `dse` / `dse-serve` engine.

    python3 perfbench/run.py --workload sweep-synth --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # every workload, both modes
    python3 perfbench/run.py --selftest                            # tiny sizes + check self-test

Builds `dse`, `dse-serve` and the traced replay (`perfbench/replay`) from
the checkout, runs one workload and prints a human-readable report followed
by one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json
(tracing off, measured for `--seconds`); with `--trace 1` they are its
per-layer metrics, from a separate traced replay plus the program's own
metrics snapshots. See perfbench/README.md for every definition.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench_run"
WORKLOADS = ("sweep-synth", "detect-uav", "frontier-synth", "serve-store")
# Counters whose values depend on thread interleaving; reported, labelled,
# never compared across runs.
SCHEDULING_DEPENDENT = (
    "rt-dse.memo.problem_runs_per_key",
    "rt-dse.memo.alloc_runs_per_key",
    "rt-dse.engine.backpressure_ms",
)
# Hard cap on one invocation, well inside the 180 s a run may take.
MAX_RUN_S = 120.0


class BenchError(Exception):
    """The benchmark could not run (no sources, build failure, a crash)."""


def nproc():
    return len(os.sched_getaffinity(0))


def derive_seed(workload, seed, k):
    """The engine seed of repetition `k` of a run: a pure function of the
    benchmark seed, so the same seed always gives the same inputs."""
    digest = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ----------------------------------------------------------------------------
# Workload inputs


def sweep_args(workload, size, engine_seed):
    """`dse sweep` flags of one batch sweep (also the replay's spec line)."""
    tiny = size == "tiny"
    if workload == "sweep-synth":
        args = ["--cores", "2" if tiny else "2,4,8",
                "--util-steps", "3" if tiny else "20",
                "--allocators", "hydra,singlecore,nphydra",
                "--period-policy", "fixed,adapt,joint",
                "--trials", "1" if tiny else "10"]
    elif workload == "detect-uav":
        args = ["--workload", "uav", "--eval", "detection",
                "--horizon", "20" if tiny else "500",
                "--attacks", "10" if tiny else "400",
                "--cores", "2" if tiny else "2,4,8",
                "--allocators", "hydra,singlecore,nphydra",
                "--period-policy", "fixed",
                "--trials", "1" if tiny else "30"]
    elif workload == "frontier-synth":
        points = 16 if tiny else 160
        utils = ",".join(f"{0.05 + 0.9 * i / (points - 1):.6f}" for i in range(points))
        args = ["--explore", "frontier", "--refine-budget", "2" if tiny else "8",
                "--utils", utils,
                "--cores", "2" if tiny else "2,4,8",
                "--allocators", "hydra,singlecore,nphydra",
                "--period-policy", "fixed,adapt",
                "--trials", "1" if tiny else "10"]
    else:
        raise ValueError(workload)
    return args + ["--seed", str(engine_seed)]


def expected_records(args):
    """Scenario count of an exhaustive sweep (None for frontier plans)."""
    if "--explore" in args:
        return None
    value = dict(zip(args[::2], args[1::2]))
    count = 1
    for key in ("--cores", "--allocators", "--period-policy"):
        count *= len(value[key].split(","))
    if value.get("--workload") != "uav":
        count *= int(value["--util-steps"])
    return count * int(value["--trials"])


def serve_job(size, engine_seed):
    """One `dse-serve` job: ~700 scenarios over all three period policies."""
    tiny = size == "tiny"
    return {"cores": [2] if tiny else [2, 4, 8],
            "util_steps": 3 if tiny else 13,
            "allocators": ["hydra", "singlecore", "nphydra"],
            "period_policies": ["fixed", "adapt", "joint"],
            "trials": 1 if tiny else 2,
            "seed": engine_seed}


def job_as_sweep_args(job):
    return ["--cores", ",".join(map(str, job["cores"])),
            "--util-steps", str(job["util_steps"]),
            "--allocators", ",".join(job["allocators"]),
            "--period-policy", ",".join(job["period_policies"]),
            "--trials", str(job["trials"]),
            "--seed", str(job["seed"])]


# ----------------------------------------------------------------------------
# Build and provenance


class Bins:
    def __init__(self, target):
        release = target / "release"
        self.dse = release / "dse"
        self.serve = release / "dse-serve"
        self.replay = release / "perfbench-replay"


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "rt-dse").is_dir():
        raise BenchError(f"no workspace sources under {ROOT}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "rt-dse", "-p", "rt-dse-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH_DIR / "replay" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return Bins(target)


def provenance(seed):
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = r.stdout.strip() or None
    # A checkout without git metadata is identified by a digest of the
    # sources the benchmark builds.
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    sources += sorted((ROOT / "crates").rglob("*.rs")) + sorted((ROOT / "crates").rglob("Cargo.toml"))
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"sha": sha, "source_digest": digest.hexdigest()[:16], "nproc": nproc(),
            "profile": "release", "seed": seed}


# ----------------------------------------------------------------------------
# Running `dse sweep` and checking its outputs


# One timed `dse sweep` process.
Launch = collections.namedtuple("Launch", "out wall_s cpu_s rss_mb")


def vmhwm_mb(pid):
    """Peak resident set of a live process (VmHWM), in MiB; 0 once it is
    gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_sweep(bins, args, out, threads, extra=()):
    """Runs `dse sweep` into a fresh `out`. Wall time ends when the process
    exits, i.e. after every output file is closed; CPU time comes from
    `wait4`. Peak RSS is VmHWM, read every 2 ms while the process runs:
    `wait4`'s `ru_maxrss` also counts the memory of the benchmark process
    the child was forked from."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(bins.dse), "sweep", *args, "--threads", str(threads),
           "--out", str(out), "--quiet", *extra]
    with open(out.parent / f"{out.name}.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        exited = os.pidfd_open(proc.pid)
        rss = 0.0
        try:
            while not select.select([exited], [], [], 0.002)[0]:
                rss = max(rss, vmhwm_mb(proc.pid))
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if proc.returncode != 0:
        raise BenchError(f"dse sweep failed ({proc.returncode}): {' '.join(cmd)}\n{stderr}")
    return Launch(out, wall, usage.ru_utime + usage.ru_stime, rss)


def sweep_setup(bins, args, out, threads):
    """One set-up sample of `dse sweep`: `sweep.jsonl` is made a named pipe,
    so the program stops in `open()` at the point where argument parsing
    and grid expansion (for frontier, Phase A planning) are done and it is
    ready to emit its first record. It is then killed.
    Returns `(cpu_s, wall_s)`: its user + system CPU (`wait4`) and launch
    until the stop was seen."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    os.mkfifo(out / "sweep.jsonl")
    cmd = [str(bins.dse), "sweep", *args, "--threads", str(threads), "--out", str(out), "--quiet"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wchan = Path(f"/proc/{proc.pid}/wchan")
    try:
        # The kernel names the wait of an open FIFO end without a partner.
        while wchan.read_text() != "wait_for_partner":
            if proc.poll() is not None or time.perf_counter() - t0 > 60:
                raise BenchError(f"dse sweep never opened its output FIFO: {' '.join(cmd)}")
            time.sleep(1e-4)
        wall = time.perf_counter() - t0
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, wall


# `host_calibration()` on the host the benchmark was built on (2-vCPU
# x86-64 VM) while its neighbours were quiet: `setup_s` is set-up time at
# that speed.
CALIBRATION_REF_S = 2.24e-3


def host_calibration():
    """On-CPU time of two fixed tasks that share no code with the program,
    as their geometric mean: launching `true` (exec, mapping and page
    faults; user + system CPU from `wait4`) and a pure-Python loop
    (`thread_time`). On a shared host the neighbours' load changed the
    on-CPU time of a set-up launch by up to 70 % within minutes, and these
    two tasks moved with it."""
    proc = subprocess.Popen(["true"])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    t0 = time.thread_time()
    x = 0
    for i in range(100_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return math.sqrt((usage.ru_utime + usage.ru_stime) * (time.thread_time() - t0))


def take_setups(samples, launch, seconds, at_least=0):
    """Appends set-up samples `(cpu_s, wall_s, calibration_s)` for
    `seconds`, and until there are `at_least`; each `launch()` directly
    follows its own host calibration. A run interleaves them with its
    timed work in a 1:4 ratio, so that slow drift of the host's speed
    reaches both alike."""
    end = time.perf_counter() + seconds
    while len(samples) < at_least or (time.perf_counter() < end and len(samples) < 400):
        calibration = host_calibration()
        samples.append((*launch(), calibration))


def setup_metrics(samples):
    """`setup_s` is on-CPU set-up time at the reference host speed: the
    median over samples of set-up CPU ÷ the calibration taken just before
    it, times `CALIBRATION_REF_S`. On-CPU time leaves out waiting for a
    CPU, which a shared host hands out unevenly; the calibration takes out
    the neighbours' slowing of the CPU itself, which moved the raw
    ten-run medians by up to 35 % between two sets of the same code."""
    return {"setup_s": (CALIBRATION_REF_S * median([c / k for c, _, k in samples]), "s"),
            "setup_cpu_s": (median([c for c, _, _ in samples]), "s"),
            "setup_wall_s": (median([w for _, w, _ in samples]), "s"),
            "host_calibration_s": (median([k for _, _, k in samples]), "s")}


def setup_samples(samples):
    """The raw set-up samples, by name, for `result.json`."""
    return {"setup_cpu_s": [c for c, _, _ in samples],
            "setup_wall_s": [w for _, w, _ in samples],
            "host_calibration_s": [k for _, _, k in samples]}


OUTPUT_FILES = ("sweep_summary.csv", "sweep_frontier.csv")


def compare_outputs(ref, got, artifacts=OUTPUT_FILES):
    """Checks a run's outputs against the reference run's, byte for byte.

    Every scenario record is one operation: it fails when its JSONL line or
    CSV row is missing or differs (an extra record fails too). Each of
    `artifacts` the reference has is one more operation. Returns
    `(attempted, failed)`."""
    def lines(path):
        return path.read_bytes().split(b"\n") if path.exists() else []

    ref_j, got_j = lines(ref / "sweep.jsonl"), lines(got / "sweep.jsonl")
    ref_c, got_c = lines(ref / "sweep.csv"), lines(got / "sweep.csv")
    records = max(len(ref_j), len(got_j)) - 1  # the text ends with a newline
    failed = 0
    for i in range(max(records, 0)):
        same_j = i < len(ref_j) and i < len(got_j) and ref_j[i] == got_j[i]
        same_c = i + 1 < len(ref_c) and i + 1 < len(got_c) and ref_c[i + 1] == got_c[i + 1]
        failed += not (same_j and same_c)
    attempted = max(records, 0)
    for name in artifacts:
        if (ref / name).exists():
            attempted += 1
            failed += not (got / name).exists() or (ref / name).read_bytes() != (got / name).read_bytes()
    return attempted, failed


# ----------------------------------------------------------------------------
# Batch workloads


def batch_timed(bins, workload, seed, seconds, size, work, log):
    """The end-to-end measurement: repetitions, each on fresh inputs, of a
    1-thread run (the byte reference) and an `nproc`-thread run, in
    alternating order, each followed by set-up samples (1-thread
    launches, each on its own spec), until `seconds` have passed. With one
    CPU the 1-thread and `nproc`-thread runs are the same run.

    Set-up is timed at 1 thread: at `nproc` threads the on-CPU time of the
    frontier's Phase A also counts executor threads waiting for work, which
    moved by up to 40 % with the host's scheduling."""
    threads = nproc()
    warm = run_sweep(bins, sweep_args(workload, size, derive_seed(workload, seed, -1)),
                     work / "warmup", 1)
    log(f"warm-up: {warm.wall_s:.3f} s (untimed)")
    setups = []

    def setup_launch():
        args = sweep_args(workload, size, derive_seed(f"{workload}/setup", seed, len(setups)))
        return sweep_setup(bins, args, work / "setup", 1)

    one, many = [], []
    attempted = failed = 0
    started = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - started < seconds:
        if time.perf_counter() - started > MAX_RUN_S:
            break
        rep_started = time.perf_counter()
        args = sweep_args(workload, size, derive_seed(workload, seed, k))
        order = sorted({1, threads}, reverse=k % 2 == 1)
        runs = {t: run_sweep(bins, args, work / f"rep{k}_t{t}", t) for t in order}
        ref, par = runs[1], runs[threads]
        expected = expected_records(args)
        produced = (ref.out / "sweep.jsonl").read_bytes().count(b"\n")
        if expected is not None and produced != expected:
            attempted, failed = attempted + expected, failed + abs(expected - produced)
        a, f = compare_outputs(ref.out, par.out)
        attempted, failed = attempted + a, failed + f
        one.append(ref)
        many.append(par)
        for run in runs.values():
            shutil.rmtree(run.out)
        k += 1
        take_setups(setups, setup_launch, (time.perf_counter() - rep_started) / 4)
    take_setups(setups, setup_launch, 0, at_least=20)
    walls = [r.wall_s for r in many]
    metrics = {
        **setup_metrics(setups),
        "wall_s": (median(walls), "s"),
        "cpu_s": (median([r.cpu_s for r in many]), "s"),
        "peak_rss_mb": (median([r.rss_mb for r in many]), "MiB"),
        # Each pair ran back to back, so its ratio cancels slow host drift.
        "thread_speedup": (median([a.wall_s / b.wall_s for a, b in zip(one, many)]), "x"),
    }
    inputs = {"sweep": sweep_args(workload, size, "<per-repetition>"), "repetitions": k,
              "records_per_sweep": expected_records(sweep_args(workload, size, 0)),
              "threads": sorted({1, threads}),
              "samples": {"wall_s_1t": [r.wall_s for r in one], "wall_s": walls,
                          "cpu_s": [r.cpu_s for r in many],
                          **setup_samples(setups)}}
    return metrics, attempted, failed, [], inputs


def runs_per_key(snap, unique_problems, unique_allocs):
    c = snap["counters"]
    return (c.get("memo.problem_misses", 0) / max(unique_problems, 1),
            c.get("memo.allocation_misses", 0) / max(unique_allocs, 1))


def run_replay(bins, spec_lines, work):
    specs = work / "replay_specs.txt"
    specs.write_text("".join(" ".join(line) + "\n" for line in spec_lines))
    out = work / "replay"
    shutil.rmtree(out, ignore_errors=True)
    trace = work / "replay_trace.json"
    r = subprocess.run([str(bins.replay), "--specs", str(specs), "--out", str(out),
                        "--trace-out", str(trace)], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError(f"replay failed: {r.stderr}")
    return json.loads(r.stdout), out, trace


def layer_metrics(rep, engine_wall_1t_ms):
    """Per-layer metrics from the replay's span totals. Self times are
    exclusive (span minus child spans), so the 1-thread engine wall time
    splits into their sum plus the engine's own overhead."""
    spans = rep["spans"]

    def span(name):
        return spans.get(name, {"calls": 0, "ok": 0, "total_ms": 0.0, "self_ms": 0.0})

    def ratio(name):
        s = span(name)
        return s["ok"] / s["calls"] if s["calls"] else 0.0

    m = {}
    for name in ("taskgen.generate", "rt-core.eq1", "rt-partition.partition",
                 "core.alloc.hydra", "core.alloc.singlecore", "core.alloc.nphydra",
                 "core.period.adapt", "core.period.joint", "rt-sim.simulate"):
        m[f"{name}.calls"] = (span(name)["calls"], "count")
        m[f"{name}.self_ms"] = (span(name)["self_ms"], "ms")
    m["rt-core.eq1.pass_ratio"] = (ratio("rt-core.eq1"), "ratio")
    m["rt-partition.partition.ok_ratio"] = (ratio("rt-partition.partition"), "ratio")
    for kind in ("hydra", "singlecore", "nphydra"):
        m[f"core.alloc.{kind}.ok_ratio"] = (ratio(f"core.alloc.{kind}"), "ratio")
    m["rt-dse.sink.records"] = (rep["records"], "count")
    m["rt-dse.sink.bytes"] = (rep["sink_bytes"], "B")
    m["rt-dse.sink.self_ms"] = (span("rt-dse.sink")["self_ms"], "ms")
    m["rt-dse.checkpoint.saves"] = (rep["checkpoint_saves"], "count")
    m["rt-dse.checkpoint.self_ms"] = (span("rt-dse.checkpoint")["self_ms"], "ms")
    layered = sum(s["self_ms"] for name, s in spans.items()
                  if name not in ("scenario", "frontier.plan"))
    m["rt-dse.engine.wall_1t_ms"] = (engine_wall_1t_ms, "ms")
    m["rt-dse.engine.overhead_ms"] = (engine_wall_1t_ms - layered, "ms")
    m["frontier.plan_ms"] = (span("frontier.plan")["total_ms"], "ms")
    m["frontier.probe_evals"] = (rep["probe_evals"], "count")
    m["frontier.emitted"] = (rep["emitted"], "count")
    m["frontier.evals"] = (rep["probe_evals"] + rep["emitted"], "count")
    # `FrontierRunner::plan` evaluates the Phase A probes through the
    # engine's own executor; the replay evaluates them again, traced, in
    # Phase B. The plan is left out of the replay wall so that the probes
    # count once and the ratio compares traced work with untraced work.
    replay_wall = rep["wall_ms"] - span("frontier.plan")["total_ms"]
    m["trace.replay_wall_ms"] = (replay_wall, "ms")
    m["trace.overhead_ratio"] = (replay_wall / engine_wall_1t_ms if engine_wall_1t_ms else 0.0,
                                 "ratio")
    return m


def batch_traced(bins, workload, seed, size, work, log):
    """The traced run: untraced 1-thread timings, metrics snapshots at
    `nproc` and at 1 thread, then the single-threaded replay."""
    threads = nproc()
    args = sweep_args(workload, size, derive_seed(workload, seed, 0))
    ref = run_sweep(bins, args, work / "ref", 1)
    attempted = failed = 0
    walls = []
    for i in range(3):
        run = run_sweep(bins, args, work / f"t1_{i}", 1)
        walls.append(run.wall_s)
        a, f = compare_outputs(ref.out, run.out)
        attempted, failed = attempted + a, failed + f
    wall_1t_ms = median(walls) * 1e3
    snaps = {}
    for t in sorted({threads, 1}, reverse=True):
        run = run_sweep(bins, args, work / f"m{t}", t, ("--metrics-out", str(work / f"metrics_t{t}.json")))
        snaps[t] = json.loads((work / f"metrics_t{t}.json").read_text())
        a, f = compare_outputs(ref.out, run.out)
        attempted, failed = attempted + a, failed + f
    rep, replay_out, trace = run_replay(bins, [args], work)
    log(f"replay: {rep['wall_ms']:.1f} ms traced vs {wall_1t_ms:.1f} ms untraced 1-thread engine; trace in {trace}")

    problems = []
    # The replay writes the records and the summary, not the frontier CSV.
    a, mismatched = compare_outputs(ref.out, replay_out / "0", ("sweep_summary.csv",))
    attempted, failed = attempted + a, failed + mismatched
    if mismatched:
        problems.append(f"replay outputs differ from the engine's on {mismatched} record(s) or file(s)")

    m = layer_metrics(rep, wall_1t_ms)
    pk, ak = runs_per_key(snaps[threads], rep["unique_problems"], rep["unique_allocations"])
    pk1, ak1 = runs_per_key(snaps[1], rep["unique_problems"], rep["unique_allocations"])
    if pk1 != 1.0 or ak1 != 1.0:
        problems.append(f"1-thread runs per key must be exactly 1.0, got problem {pk1} / allocation {ak1}")
    c = snaps[threads]["counters"]
    lanes = snaps[threads]["histograms"].get("batch.lanes_filled", {})
    m.update({
        "rt-dse.memo.problem_runs_per_key": (pk, "ratio"),
        "rt-dse.memo.alloc_runs_per_key": (ak, "ratio"),
        "rt-dse.memo.problem_runs_per_key_1t": (pk1, "ratio"),
        "rt-dse.memo.alloc_runs_per_key_1t": (ak1, "ratio"),
        "rt-dse.engine.backpressure_ms": (c.get("sweep.backpressure_wait_ns", 0) / 1e6, "ms"),
        "rt-core.batch.lanes_mean": (lanes.get("mean") or 0.0, "lanes"),
        "rt-core.batch.scalar_fallbacks": (c.get("batch.scalar_fallbacks", 0), "count"),
        "rt-dse.store.hits": (c.get("memo.store_hits", 0), "count"),
        "rt-dse.store.misses": (c.get("memo.store_misses", 0), "count"),
        "rt-dse.store.bytes_on_disk": (0, "B"),
        "rt-dse-serve.headers_ms_p50": (0.0, "ms"),
        "rt-dse-serve.stream_ms_p50": (0.0, "ms"),
    })
    inputs = {"sweep": args, "records": rep["records"], "threads": sorted({1, threads}),
              "unique_problems": rep["unique_problems"],
              "unique_allocations": rep["unique_allocations"]}
    return m, attempted, failed, problems, inputs


# ----------------------------------------------------------------------------
# Serve workload


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http(port, method, path, body=b""):
    """A one-shot request (the server closes every connection); returns
    `(status, body)`."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
        s.sendall(f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {len(body)}\r\n"
                  f"Connection: close\r\n\r\n".encode() + body)
        data = b""
        while chunk := s.recv(65536):
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    status = head.split(b" ", 2)
    return int(status[1]) if len(status) > 1 and status[1].isdigit() else 0, payload


class Server:
    """A `dse-serve` process; `ready_s` is launch until `/healthz` answers."""

    def __init__(self, bins, store):
        self.port = free_port()
        self.log = open(store.parent / f"{store.name}.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(bins.serve), "--addr", f"127.0.0.1:{self.port}", "--workers", "2",
             "--threads-per-job", "1", "--store", str(store)],
            stdout=subprocess.DEVNULL, stderr=self.log)
        while True:
            try:
                if http(self.port, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise BenchError(f"dse-serve exited with {self.proc.returncode} before /healthz answered")
            if time.perf_counter() - t0 > 30:
                self.stop()
                raise BenchError("dse-serve did not answer /healthz within 30 s")
            time.sleep(1e-4)
        self.ready_s = time.perf_counter() - t0

    def stop(self, drain=True):
        """Drains (or kills) and stops the server; returns its user + system
        CPU."""
        try:
            if drain:
                http(self.port, "POST", "/v1/shutdown")
            else:
                self.proc.kill()
        except OSError:
            pass
        deadline = time.perf_counter() + 60
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        return usage.ru_utime + usage.ru_stime


class Job:
    """One POST /v1/sweep, timed from the request being sent. A job that
    cannot be read to its terminal chunk stays `ok = False`."""

    def __init__(self, port, job, warm):
        self.warm = warm
        self.ok = False
        self.payload = b""
        self.headers_ms = self.first_ms = self.done_ms = None
        try:
            self._post(port, json.dumps(job).encode())
        except (OSError, ValueError):
            self.ok = False

    def _post(self, port, body):
        with socket.create_connection(("127.0.0.1", port), timeout=120) as s:
            reader = s.makefile("rb")
            t0 = time.perf_counter()
            s.sendall(b"POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
                      b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body) + body)
            status = reader.readline().split(b" ", 2)
            chunked = False
            while (line := reader.readline()) not in (b"\r\n", b""):
                chunked |= line.lower().startswith(b"transfer-encoding: chunked")
            self.headers_ms = (time.perf_counter() - t0) * 1e3
            if len(status) < 2 or status[1] != b"200" or not chunked:
                return
            parts = []
            while True:
                size_line = reader.readline()
                if not size_line:
                    return  # truncated: no terminal chunk
                size = int(size_line.split(b";")[0], 16)
                if size == 0:
                    reader.readline()
                    break
                parts.append(reader.read(size))
                reader.read(2)
                if self.first_ms is None:
                    self.first_ms = (time.perf_counter() - t0) * 1e3
            self.done_ms = (time.perf_counter() - t0) * 1e3
            self.payload = b"".join(parts)
            self.ok = self.first_ms is not None


def serve_round(port, jobs):
    """One closed-loop round: each client posts its cold job, then repeats it
    warm. Returns `(wall_s, [(cold, warm) per client])`."""
    results = [None] * len(jobs)

    def client(i):
        cold = Job(port, jobs[i], warm=False)
        results[i] = (cold, Job(port, jobs[i], warm=True))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(jobs))]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, results


def check_pairs(pairs, references):
    """A job fails on a non-200 status, a truncated stream, or bytes that
    differ from its reference: a warm job from its cold twin, a client's
    first cold job from `dse sweep` on the same spec."""
    attempted = failed = 0
    for i, (cold, warm) in enumerate(pairs):
        ref = references.get(i)
        attempted += 2
        failed += not cold.ok or (ref is not None and cold.payload != ref)
        failed += not warm.ok or warm.payload != cold.payload
    return attempted, failed


def serve_references(bins, jobs, work):
    """`dse sweep` on each job's spec: `(JSONL bytes, output dir)` per job."""
    refs = {}
    for i, job in enumerate(jobs):
        run = run_sweep(bins, job_as_sweep_args(job), work / f"ref{i}", 1)
        refs[i] = ((run.out / "sweep.jsonl").read_bytes(), run.out)
    return refs


def serve_setup(bins, store):
    """One set-up sample of `dse-serve`: a server launched on `store`,
    probed until `/healthz` answers, and killed. Returns `(cpu_s, wall_s)`:
    its user + system CPU (`wait4`; the server is idle once it has
    answered) and launch until `/healthz` answered."""
    server = Server(bins, store)
    return server.stop(drain=False), server.ready_s


def serve_timed(bins, seed, seconds, size, work, log):
    clients = nproc()
    counter = iter(range(10**9))

    def fresh_jobs(n):
        return [serve_job(size, derive_seed("serve-store", seed, next(counter))) for _ in range(n)]

    first = fresh_jobs(clients)
    refs = {i: data for i, (data, _) in serve_references(bins, first, work).items()}
    # Set-up samples share one store, created by an untimed first launch.
    setups = []
    serve_setup(bins, work / "setup_store")

    def setup_launch():
        return serve_setup(bins, work / "setup_store")

    server = Server(bins, work / "store")
    attempted = failed = 0
    rounds = {clients: [], 1: []}
    started = time.perf_counter()
    try:
        jobs = first
        r = 0
        while r < 2 or time.perf_counter() - started < seconds:
            if time.perf_counter() - started > MAX_RUN_S:
                break
            round_started = time.perf_counter()
            width = clients if r % 2 == 0 else 1
            jobs = jobs if r == 0 else fresh_jobs(width)
            wall, pairs = serve_round(server.port, jobs)
            a, f = check_pairs(pairs, refs if r == 0 else {})
            attempted, failed = attempted + a, failed + f
            rounds[width].append((wall, pairs))
            r += 1
            take_setups(setups, setup_launch, (time.perf_counter() - round_started) / 4)
        take_setups(setups, setup_launch, 0, at_least=20)
        rss = vmhwm_mb(server.proc.pid)
    finally:
        cpu = server.stop()

    many = rounds[clients]
    jobs_many = [j for _, pairs in many for pair in pairs for j in pair if j.ok]
    walls = [w for w, _ in many]

    def rate(rs):
        return sum(2 * len(p) for _, p in rs) / sum(w for w, _ in rs)

    metrics = {
        **setup_metrics(setups),
        "wall_s": (median(walls), "s"),
        "cpu_s": (cpu / sum(2 * len(p) for rs in rounds.values() for _, p in rs), "s"),
        "peak_rss_mb": (rss, "MiB"),
        # Rounds alternate widths; each adjacent pair's rate ratio cancels
        # slow host drift.
        "thread_speedup": (median([clients * one_wall / many_wall for (many_wall, _), (one_wall, _)
                                   in zip(rounds[clients], rounds[1])]), "x"),
        "job_p50_ms": (median([j.done_ms for j in jobs_many]), "ms"),
        "job_p90_ms": (p90([j.done_ms for j in jobs_many]), "ms"),
        "warm_job_p50_ms": (median([j.done_ms for j in jobs_many if j.warm]), "ms"),
        "first_record_p50_ms": (median([j.first_ms for j in jobs_many]), "ms"),
        "jobs_per_s": (rate(many), "1/s"),
    }
    log(f"serve: {sum(map(len, rounds.values()))} rounds ({len(many)} at {clients} client(s)), "
        f"{len(jobs_many)} timed jobs, {len(setups)} set-up samples")
    inputs = {"job": serve_job(size, "<fresh per cold job>"), "clients": [clients, 1],
              "samples": {"job_ms": [j.done_ms for j in jobs_many],
                          "warm_job_ms": [j.done_ms for j in jobs_many if j.warm],
                          "first_record_ms": [j.first_ms for j in jobs_many],
                          "wall_s": walls, **setup_samples(setups)},
              "workers": 2, "threads_per_job": 1, "rounds": len(many) + len(rounds[1]),
              "scenarios_per_job": expected_records(job_as_sweep_args(serve_job(size, 0)))}
    return metrics, attempted, failed, [], inputs


def serve_traced(bins, seed, size, work, log):
    """Sequential 1-client jobs (checked against `dse sweep`, replayed, and
    the base of the memo and overhead accounting), then `nproc`-client
    rounds for the client-side phases and the store counters."""
    clients = nproc()
    jobs = [serve_job(size, derive_seed("serve-store", seed, k)) for k in range(4 * clients)]
    seq, rounds = jobs[:clients], jobs[clients:]
    refs = serve_references(bins, seq, work)
    server = Server(bins, work / "store")
    attempted = failed = 0
    timed = []
    cold_ms = []
    try:
        for i, job in enumerate(seq):
            _, pairs = serve_round(server.port, [job])
            a, f = check_pairs(pairs, {0: refs[i][0]})
            attempted, failed = attempted + a, failed + f
            cold_ms.append(pairs[0][0].done_ms or 0.0)
        seq_snap = json.loads(http(server.port, "GET", "/metrics")[1])
        for r in range(0, len(rounds), clients):
            _, pairs = serve_round(server.port, rounds[r:r + clients])
            a, f = check_pairs(pairs, {})
            attempted, failed = attempted + a, failed + f
            timed += [j for pair in pairs for j in pair if j.ok]
        snap = json.loads(http(server.port, "GET", "/metrics")[1])
    finally:
        server.stop()
    store_bytes = sum(p.stat().st_size for p in (work / "store").rglob("*") if p.is_file())

    rep, replay_out, trace = run_replay(bins, [job_as_sweep_args(j) for j in seq], work)
    problems = []
    mismatched = 0
    for k in range(len(seq)):
        a, f = compare_outputs(refs[k][1], replay_out / str(k), ("sweep_summary.csv",))
        attempted, mismatched = attempted + a, mismatched + f
    failed += mismatched
    if mismatched:
        problems.append(f"replay outputs differ from the engine's on {mismatched} record(s) or file(s)")

    m = layer_metrics(rep, sum(cold_ms))
    # Each job owns a fresh memo and books its misses there, a warm job's
    # store-answered lookups included: one run per key means the misses of
    # the sequential cold/warm pairs are exactly twice the replay's keys.
    pk, ak = runs_per_key(seq_snap, 2 * rep["unique_problems"], 2 * rep["unique_allocations"])
    if pk != 1.0 or ak != 1.0:
        problems.append(f"1-thread runs per key must be exactly 1.0, got problem {pk} / allocation {ak}")
    c = snap["counters"]
    lanes = snap["histograms"].get("batch.lanes_filled", {})
    m.update({
        "rt-dse.memo.problem_runs_per_key": (pk, "ratio"),
        "rt-dse.memo.alloc_runs_per_key": (ak, "ratio"),
        "rt-dse.memo.problem_runs_per_key_1t": (pk, "ratio"),
        "rt-dse.memo.alloc_runs_per_key_1t": (ak, "ratio"),
        "rt-dse.engine.backpressure_ms": (c.get("sweep.backpressure_wait_ns", 0) / 1e6, "ms"),
        "rt-core.batch.lanes_mean": (lanes.get("mean") or 0.0, "lanes"),
        "rt-core.batch.scalar_fallbacks": (c.get("batch.scalar_fallbacks", 0), "count"),
        "rt-dse.store.hits": (c.get("memo.store_hits", 0), "count"),
        "rt-dse.store.misses": (c.get("memo.store_misses", 0), "count"),
        "rt-dse.store.bytes_on_disk": (store_bytes, "B"),
        "rt-dse-serve.headers_ms_p50": (median([j.headers_ms for j in timed]), "ms"),
        "rt-dse-serve.stream_ms_p50": (median([j.done_ms - j.first_ms for j in timed]), "ms"),
    })
    log(f"replay of {len(seq)} job spec(s): {rep['wall_ms']:.1f} ms; trace in {trace}")
    inputs = {"jobs": len(jobs) * 2, "clients": [1, clients], "workers": 2, "threads_per_job": 1,
              "job": serve_job(size, "<per job>")}
    return m, attempted, failed, problems, inputs


# ----------------------------------------------------------------------------
# Entry point


def run_workload(bins, workload, seed, seconds, trace, size, log):
    work = WORK_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "serve-store":
        result = (serve_traced(bins, seed, size, work, log) if trace
                  else serve_timed(bins, seed, seconds, size, work, log))
    elif trace:
        result = batch_traced(bins, workload, seed, size, work, log)
    else:
        result = batch_timed(bins, workload, seed, seconds, size, work, log)
    measured, attempted, failed, problems, inputs = result
    # Keep the small JSON artifacts (snapshots, trace); drop sweep outputs,
    # logs and the serve store, which grow by hundreds of MB per run.
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.suffix != ".json":
            path.unlink()
    # BENCHMARK.json decides which measurements are gated metrics; the rest
    # are reported as informational.
    declared = declared_metrics()[trace]
    wrong = [n for n, unit in declared.items() if measured.get(n, (0, None))[1] != unit]
    wrong += [n for n, (value, _) in measured.items()
              if isinstance(value, bool) or not isinstance(value, (int, float))]
    if wrong:
        raise BenchError(f"{workload}: metrics not measured as a number with their unit: {wrong}")
    return {"workload": workload, "trace": trace,
            "metrics": {n: measured[n] for n in declared},
            "info": {n: v for n, v in measured.items() if n not in declared},
            "attempted": attempted, "failed": failed, "problems": problems, "inputs": inputs,
            "work": work}


def declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def report(result, prov):
    """The human-readable report; every row carries the provenance."""
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"# perfbench {result['workload']} trace={result['trace']} seed={prov['seed']} "
          f"sha={prov['sha'] or '-'} source={prov['source_digest']} nproc={prov['nproc']} "
          f"profile={prov['profile']}")
    sizes = {k: v for k, v in result["inputs"].items() if k != "samples"}
    samples = {k: len(v) for k, v in result["inputs"].get("samples", {}).items()}
    print(f"# inputs {json.dumps(sizes)} samples {json.dumps(samples)}")
    for gated, metrics in ((True, result["metrics"]), (False, result["info"])):
        for name, (value, unit) in metrics.items():
            label = "" if gated else "  [informational, not gated]"
            label += "  [scheduling-dependent]" if name in SCHEDULING_DEPENDENT else ""
            print(f"{name:40s} {value:>16.6f} {unit}{label}")
    print(f"{'failed_share':40s} {share:>16.6f} ratio  ({result['failed']} of "
          f"{result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    rows = [dict(prov, workload=result["workload"], trace=result["trace"], metric=name,
                 value=value, unit=unit, gated=name in result["metrics"],
                 scheduling_dependent=name in SCHEDULING_DEPENDENT, inputs=result["inputs"])
            for name, (value, unit) in {**result["metrics"], **result["info"]}.items()]
    (result["work"] / "result.json").write_text(json.dumps(rows, indent=1) + "\n")


def final_line(results, key=lambda r, name: name):
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    metrics = {key(r, name): {"value": value, "unit": unit}
               for r in results for name, (value, unit) in r["metrics"].items()}
    return json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                       "metrics": metrics})


def selftest(bins, log):
    """Tiny sizes: every workload in both modes reports every declared
    metric with its unit (`run_workload` refuses otherwise) and no failed
    operation, on every CPU and again pinned to one CPU (where the 1-thread
    and `nproc`-thread runs coincide); a corrupted reference copy and a
    corrupted warm payload are both caught."""
    errors = []
    cpus = os.sched_getaffinity(0)
    try:
        for pinned in (False, True):
            if pinned:
                os.sched_setaffinity(0, {min(cpus)})
            for workload in WORKLOADS:
                for trace in (0, 1):
                    r = run_workload(bins, workload, 1, 0.5, trace, "tiny", log)
                    label = f"{workload} trace={trace} nproc={nproc()}"
                    if r["failed"] or r["problems"] or not r["attempted"]:
                        errors.append(f"{label}: {r['failed']} of {r['attempted']} failed; "
                                      f"{r['problems']}")
                    log(f"selftest {label}: {len(r['metrics'])} metrics, "
                        f"{r['attempted']} operations checked")
    finally:
        os.sched_setaffinity(0, cpus)
    work = WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args = sweep_args("sweep-synth", "tiny", 7)
    ref = run_sweep(bins, args, work / "ref", 1)
    corrupt = work / "corrupt"
    shutil.copytree(ref.out, corrupt)
    data = bytearray((corrupt / "sweep.jsonl").read_bytes())
    data[len(data) // 2] ^= 0x01
    (corrupt / "sweep.jsonl").write_bytes(bytes(data))
    attempted, failed = compare_outputs(ref.out, corrupt)
    if not failed:
        errors.append("a corrupted JSONL copy was not detected (failed_share stayed 0)")
    log(f"selftest corrupted copy: failed_share {failed}/{attempted}")

    class Fake:
        ok, payload = True, b"{}\n"

    bad = Fake()
    bad.payload = b"{}\r"
    if check_pairs([(Fake(), bad)], {})[1] == 0:
        errors.append("a corrupted warm payload was not detected")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not opts.selftest and not opts.workload:
        parser.error("--workload or --selftest is required")

    def log(message):
        print(f"[perfbench] {message}", file=sys.stderr, flush=True)

    try:
        bins = build()
        if opts.selftest:
            errors = selftest(bins, log)
            for e in errors:
                print(f"selftest FAILED: {e}")
            print("selftest passed" if not errors else "selftest failed")
            return 1 if errors else 0
        prov = provenance(opts.seed)
        if opts.workload == "all":
            results = [run_workload(bins, w, opts.seed, opts.seconds, t, "full", log)
                       for t in (0, 1) for w in WORKLOADS]
            for r in results:
                report(r, prov)
            print(final_line(results, key=lambda r, name: f"{r['workload']}/{name}"))
            return 0
        result = run_workload(bins, opts.workload, opts.seed, opts.seconds, opts.trace, "full", log)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    report(result, prov)
    print(final_line([result]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
