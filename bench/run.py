"""Benchmark of hbepp-link: one seeded workload per process.

Run from the repository root:

    python3 bench/run.py --workload passive-sweep --seed 1 --seconds 25 --trace 0

Workloads are listed in ``workloads.py`` and ``BENCHMARK.json``. Each runs as
a closed loop with one client: the next operation starts when the previous
one returns, until ``--seconds`` have passed. Every operation's output is
checked; a raised error or a failed check counts as a failed operation.

Timings are scaled to a reference host speed (see ``host_speed_ns``); the
provenance line keeps the unscaled figures.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
package's public functions (see ``spans.py``), reports the per-layer
metrics and writes the spans to ``.bench_out/``. The last line of stdout is
the result as JSON; the line before it holds the run's provenance.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from spans import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh processes, spread through the run, timed from spawn to first op ready.
SETUP_PROBES = 10
#: op_tail_ms is the latency at the highest percentile, up to TAIL_MAX_PCT,
#: with at least TAIL_BEYOND samples above it. Past p99 the point-queries
#: tail is set by interrupts and collector pauses and spread 23% between runs.
TAIL_BEYOND = 10
TAIL_MAX_PCT = 99.0
#: Deferred (untimed, slow) checks made after the loop.
MAX_DEFERRED = 4
#: The host's speed is measured again after this much op time.
CALIBRATE_EVERY_NS = 100_000_000
#: Iterations of the host-speed loop, and its time on an uncontended core of
#: the host the benchmark was tuned on (Intel Xeon, 2 vCPU, Python 3.11.7).
REFERENCE_LOOPS = 10_000
REFERENCE_NS = 1_750_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import ``hbepp_link`` from this checkout's ``src/``; (module, seconds)."""
    if not (SRC / "hbepp_link" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'hbepp_link'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hbepp_link
    import hbepp_link.cli
    import hbepp_link.config

    elapsed = time.perf_counter() - start
    if Path(hbepp_link.__file__).resolve().parent != SRC / "hbepp_link":
        raise SystemExit(f"bench: imported hbepp_link from {hbepp_link.__file__}")
    return hbepp_link, elapsed


def git_head() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info(nproc: int) -> dict:
    """BLAS name, version and thread count, capped at ``nproc``."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is None:
                    continue
                threads = get()
                if threads > nproc:
                    getattr(lib, f"{prefix}_set_num_threads{suffix}")(nproc)
                    info["capped_from"] = threads
                    threads = get()
                info["threads"] = threads
                return info
    return info


def host_speed_ns() -> int:
    """Time of a fixed pure-Python float loop, fastest of three.

    On shared hosts the speed of the same call swings by up to 1.8x over
    seconds to minutes, from load outside this process, and unscaled run
    figures spread by 12-40% between runs. Each op's latency is multiplied
    by REFERENCE_NS over this time, measured next to it, which cuts that
    spread by two to five times. The loop is part of the benchmark, so it
    stays the same while the program changes.
    """
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        acc = 0.0
        for i in range(REFERENCE_LOOPS):
            acc += math.cos(i * 1e-3) * 0.5 + (i % 7) / (i + 1.0)
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_loop(stream, seconds: float, tracer: Tracer | None = None, probe=None) -> dict:
    """Closed loop over ``stream`` for ``seconds``; latencies and checks.

    The host speed is measured before the first op and after every
    CALIBRATE_EVERY_NS of op time; each op is scaled by the mean of the two
    measurements around it. ``probe``, if given, is called SETUP_PROBES
    times at even intervals, between ops and outside their timing, and its
    result is scaled by the host speed measured around it.
    """
    latencies = []
    untimed = []
    scaled = []
    failed = 0
    failures = []
    deferred = []
    probes = []
    kinds: Counter[str] = Counter()
    speeds = [host_speed_ns()]
    window_start = 0
    window_ns = 0
    paused = 0.0
    begin = time.perf_counter()
    index = 0
    while True:
        if tracer is not None:
            tracer.op = index
        op = next(stream)
        start = time.perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            end = time.perf_counter_ns()
            reason = f"{type(exc).__name__}: {exc}"
        else:
            end = time.perf_counter_ns()
            reason = op.check(result)
        if op.timed:
            latencies.append(end - start)
            window_ns += end - start
        else:
            untimed.append(end - start)
        kinds[op.kind] += 1
        if reason is not None:
            failed += 1
            failures.append(f"op {index} ({op.kind}): {reason}")
        elif op.deferred is not None and len(deferred) < MAX_DEFERRED:
            deferred.append((index, op))
        index += 1
        elapsed = time.perf_counter() - begin - paused
        done = elapsed >= seconds and bool(latencies)
        if done or window_ns >= CALIBRATE_EVERY_NS:
            speeds.append(host_speed_ns())
            factor = 2 * REFERENCE_NS / (speeds[-2] + speeds[-1])
            scaled += [lat * factor for lat in latencies[window_start:]]
            window_start, window_ns = len(latencies), 0
        if probe is not None and len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            pause = time.perf_counter()
            probes.append(probe())
            paused += time.perf_counter() - pause
        if done:
            break
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return {
        "attempted": index,
        "latencies_ns": latencies,
        "untimed_ns": untimed,
        "scaled_ns": scaled,
        "host_speed_ns": speeds,
        "failed": failed,
        "failures": failures,
        "deferred": deferred,
        "probes": probes,
        "kinds": dict(kinds),
    }


def repeated_input_share(stream, ops: int) -> dict[str, float]:
    """Per input, the share of the first ``ops`` ops whose value occurred
    earlier in the run. Regenerates the inputs rather than keeping them, so
    they do not count towards the run's peak memory."""
    seen: defaultdict[str, set] = defaultdict(set)
    repeats: Counter[str] = Counter()
    for _ in range(ops):
        for key, value in next(stream).inputs.items():
            repeats[key] += value in seen[key]
            seen[key].add(value)
    return {key: repeats[key] / ops for key in seen}


def run_deferred(loop: dict) -> None:
    """Slow checks of sampled ops, outside every timed region."""
    for index, op in loop["deferred"]:
        try:
            reason = op.deferred()
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            loop["failed"] += 1
            loop["failures"].append(f"op {index} ({op.kind}, deferred): {reason}")
    loop["deferred_checked"] = len(loop["deferred"])


def tail(latencies_ns: list[float]) -> tuple[float, float]:
    """(latency, percentile) for op_tail_ms; the max below 11 samples."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    k = min(n - TAIL_BEYOND - 1, math.ceil(n * TAIL_MAX_PCT / 100) - 1)
    k = max(k, 0) if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def setup_probe(args) -> tuple[float, float]:
    """Spawn-to-first-op-ready time of a fresh benchmark process,
    (unscaled, scaled) in seconds."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setup-probe",
    ]
    before = host_speed_ns()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed, elapsed * 2 * REFERENCE_NS / (before + host_speed_ns())


def rate(latencies_ns: list[float]) -> float:
    return len(latencies_ns) / (sum(latencies_ns) * 1e-9)


def overhead_ratio(hb, args, traced: dict) -> float:
    """Scaled ops/s traced over untraced.

    The untraced run repeats the start of the same stream for a third of
    the run's seconds; its checks run again but are not counted.
    """
    untraced = run_loop(WORKLOADS[args.workload](hb, args.seed), args.seconds / 3)
    return rate(traced["scaled_ns"]) / rate(untraced["scaled_ns"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    hb, import_s = import_package()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    stream = WORKLOADS[args.workload](hb, args.seed)
    if args.setup_probe:
        next(stream)
        print("ready", flush=True)
        return 0

    nproc = os.cpu_count() or 1
    blas = blas_info(nproc)
    probe = None if tracer is not None else (lambda: setup_probe(args))
    wall = time.perf_counter()
    loop = run_loop(stream, args.seconds, tracer, probe)
    wall = time.perf_counter() - wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    run_deferred(loop)

    latencies = loop["latencies_ns"]
    attempted = loop["attempted"]
    failed = loop["failed"]
    scaled = loop["scaled_ns"]
    tail_ns, tail_pct = tail(scaled)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_head": git_head(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "blas": blas,
        "list_size": attempted,
        "op_kinds": loop["kinds"],
        "repeated_input_share": repeated_input_share(
            WORKLOADS[args.workload](hb, args.seed), attempted
        ),
        "fail_ratio": failed / attempted,
        "failures": loop["failures"][:10],
        "deferred_checked": loop["deferred_checked"],
        "wall_s": wall,
        "busy_s": sum(latencies) * 1e-9,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": len(scaled) - round(tail_pct * len(scaled) / 100),
        "untimed_ops_ms": [lat * 1e-6 for lat in loop["untimed_ns"]],
        "host_speed_ns": {
            "reference": REFERENCE_NS,
            "median": statistics.median(loop["host_speed_ns"]),
            "min": min(loop["host_speed_ns"]),
            "max": max(loop["host_speed_ns"]),
        },
        "unscaled": {
            "ops_per_s": rate(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e-6,
            "op_tail_ms": tail(latencies)[0] * 1e-6,
        },
    }

    if tracer is None:
        provenance["setup_probes_s"] = [p[1] for p in loop["probes"]]
        provenance["unscaled"]["setup_s"] = statistics.median(p[0] for p in loop["probes"])
        values = {
            "setup_s": statistics.median(p[1] for p in loop["probes"]),
            "ops_per_s": rate(scaled),
            "op_p50_ms": statistics.median(scaled) * 1e-6,
            "op_tail_ms": tail_ns * 1e-6,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        ratio = overhead_ratio(hb, args, loop)
        values = layer_metrics(tracer, attempted, import_s, ratio)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(path), {"provenance": provenance, "metrics": metrics})
        provenance["trace_file"] = str(path.relative_to(ROOT))

    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
