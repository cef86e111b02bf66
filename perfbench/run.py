"""Benchmark of the ghzstab CLI subcommands, end to end and per layer.

Run from the repository root (the program is imported from ``src/``):

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 28 --trace 0

Each workload is a closed loop: one caller in this process makes one call at
a time through ``ghzstab.cli.main(argv)`` (or, for mixed states, the library),
on JSON inputs generated from ``--seed``, and checks every output. With
``--trace 0`` it repeats passes over the workload's mix for ``--seconds`` and
reports the end-to-end metrics; call timings are scaled to the reference
host speed by the probe in ``hostspeed.py``. With ``--trace 1`` it runs the first
``TRACE_PASSES`` passes twice, untraced and traced, and reports the per-layer
metrics, so that counts repeat exactly for a seed. The last line of stdout
is the JSON result; the lines before it are the environment and a report.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from checks import CheckFailed
from hostspeed import REFERENCE_PROBE_S, Probe
from spans import Recorder, layer_metrics, tracing
from workloads import WORKLOADS, Call, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(".bench_build", "perfbench")
SETUP_SAMPLES = 9
TRACE_PASSES = 2
PROBE_WINDOW = 4  # a call is scaled by the median of the 2*4+1 probes around it
PROGRAM_MODULES = ("cli", "angles", "linalg", "certify")


@dataclass
class Record:
    label: str
    seconds: float
    error: str | None
    shots: int
    scaled: float = 0.0  # seconds at the reference host speed (hostspeed.py)


class Program:
    """The ghzstab modules the benchmark calls, imported from ./src."""

    def __init__(self):
        src = os.path.join(os.getcwd(), "src")
        if not os.path.isfile(os.path.join(src, "ghzstab", "cli.py")):
            raise SystemExit("perfbench: no src/ghzstab here; run from the repository root")
        sys.path.insert(0, src)
        for name in PROGRAM_MODULES:
            setattr(self, name, importlib.import_module(f"ghzstab.{name}"))
        if not os.path.abspath(self.cli.__file__).startswith(src):
            raise SystemExit(f"perfbench: imported {self.cli.__file__}, not {src}")


def _outcome(call: Call, result, stdout: str, stderr: str) -> str | None:
    """None when the call succeeded and its output passes its check."""
    try:
        if call.argv is not None:
            if result != 0:
                return f"exit {result}: {stderr.strip()[:300]}"
            result = json.loads(stdout)
        call.check(result)
    except CheckFailed as exc:
        return f"check failed: {exc}"
    except Exception:  # a malformed output must count as a failed call
        return "check raised: " + traceback.format_exc(limit=2)
    return None


def write_inputs(call: Call) -> None:
    for name, obj in call.files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def execute(call: Call, program: Program, rec: Recorder | None = None) -> Record:
    write_inputs(call)
    out, err = io.StringIO(), io.StringIO()
    if call.argv is not None:
        def thunk():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return program.cli.main(call.argv)
    else:
        thunk = call.library(program)
    if rec is not None:
        rec.call += 1
        rec.path = call.path
    start = time.perf_counter()
    try:
        result, error = thunk(), None
    except (Exception, SystemExit):  # SystemExit: argparse rejected argv
        result, error = None, "raised: " + traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if error is None:
        error = _outcome(call, result, out.getvalue(), err.getvalue())
    if error is not None:
        print(f"perfbench: {call.label}: {error}", file=sys.stderr)
    return Record(call.label, elapsed, error, call.shots)


def setup_sample(call: Call) -> tuple[float | None, str | None]:
    """One fresh interpreter: seconds from spawn to the end of the warm-up
    call, and the reason it failed, if it did."""
    write_inputs(call)  # passes reuse the file names of the warm-up slot
    # the child reads the same monotonic clock when its warm-up ends
    env = dict(os.environ, PERFBENCH_SPAWNED_AT=repr(time.monotonic()))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "warmup.py"), *call.argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    try:
        report = json.loads(stdout)
        seconds, rc, out = report["setup_s"], report["rc"], report["stdout"]
    except (json.JSONDecodeError, KeyError):
        return None, f"warm-up process failed: {stderr.strip()[-300:]}"
    return seconds, _outcome(call, rc, out, stderr)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kernels = sys.modules.get("ghzstab._kernels")  # the kernel lane, if the program has one
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "numba_imports": getattr(kernels, "HAVE_NUMBA", None),
        "use_numba": getattr(kernels, "USE_NUMBA", None),
    }


def quantile_block(records: list[Record], q: float) -> str:
    """The call at quantile q of the sorted scaled latencies, and the sorted
    positions that calls of its size (command and n) occupy around it."""
    order = sorted(records, key=lambda r: r.scaled)
    pos = round(q * (len(order) - 1))
    size = order[pos].label.rsplit(" ", 1)[0]
    lo = hi = pos
    while lo > 0 and order[lo - 1].label.startswith(size + " "):
        lo -= 1
    while hi + 1 < len(order) and order[hi + 1].label.startswith(size + " "):
        hi += 1
    return f"{order[pos].label!r} at {pos}; calls of {size!r} span {lo}..{hi} of {len(order)}"


def report(records: list[Record]) -> None:
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r.scaled)
    for label, secs in sorted(by_label.items(), key=lambda kv: statistics.median(kv[1])):
        print(
            f"class {label:34s} calls {len(secs):4d} ref_ms min {1e3 * min(secs):8.2f} "
            f"median {1e3 * statistics.median(secs):8.2f} max {1e3 * max(secs):8.2f}"
        )
    print("p50 " + quantile_block(records, 0.5))
    print("p90 " + quantile_block(records, 0.9))


def scale(passes: list[list[Record]], probes: list[float]) -> None:
    """Set each call's scaled time from the probes timed around it."""
    records = [r for batch in passes for r in batch]
    for i, r in enumerate(records):
        near = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        r.scaled = r.seconds * REFERENCE_PROBE_S / statistics.median(near)


def timings(passes: list[list[Record]], attr: str) -> tuple[float, float, float]:
    """calls_per_s, latency_p50_ms and latency_p90_ms from the raw or the
    scaled time of each call."""
    lat = [getattr(r, attr) for batch in passes for r in batch]
    # every pass makes the same mix, so a typical pass takes the per-slot
    # median over passes; bursts of load from elsewhere on the host fall out
    typical_pass = sum(statistics.median(slot) for slot in zip(*(
        [getattr(r, attr) for r in batch] for batch in passes
    )))
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return len(passes[0]) / typical_pass, 1e3 * statistics.median(lat), 1e3 * p90


def end_to_end(workload: Workload, program: Program, seed: int, seconds: float):
    setup_call = workload.warmup(seed, WORKDIR)
    setup_runs: list[tuple[float | None, str | None]] = []
    warm = execute(setup_call, program)
    probe = Probe()
    probes: list[float] = []
    passes: list[list[Record]] = []
    pass_s: list[float] = []
    # passes run until the next one would end after --seconds of measuring;
    # one set-up sample follows each pass, outside the measured time, so the
    # samples spread over the run instead of sharing one spell of the host.
    # The host-speed probe runs after every call, outside the call's time.
    while not passes or sum(pass_s) + statistics.median(pass_s) <= seconds:
        start = time.perf_counter()
        batch = []
        for c in workload.calls(seed, len(passes), WORKDIR):
            batch.append(execute(c, program))
            probes.append(probe.time())
        passes.append(batch)
        pass_s.append(time.perf_counter() - start)
        if len(setup_runs) < SETUP_SAMPLES:
            setup_runs.append(setup_sample(setup_call))
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(setup_sample(setup_call))
    setup = [value for value, _ in setup_runs if value is not None]
    if not setup:
        raise SystemExit("perfbench: no warm-up process completed")
    setup_errors = [error for _, error in setup_runs if error is not None]
    for error in setup_errors:
        print(f"perfbench: set-up {setup_call.label}: {error}", file=sys.stderr)
    scale(passes, probes)
    records = [r for batch in passes for r in batch]
    failed = sum(r.error is not None for r in records)
    shots = sum(r.shots for r in records)
    report(records)
    calls_per_s, p50, p90 = timings(passes, "scaled")
    raw = timings(passes, "seconds")
    print(
        f"passes {len(passes)} measured_s {sum(pass_s):.2f} calls {len(records)} "
        f"beyond_p90 {sum(1e3 * r.scaled > p90 for r in records)} failed {failed} "
        f"error_rate {failed / len(records)} "
        f"shots_per_s {shots / sum(r.seconds for r in records if r.shots) if shots else 'n/a'}"
    )
    print(
        f"probe median_ms {1e3 * statistics.median(probes):.4f} reference_ms "
        f"{1e3 * REFERENCE_PROBE_S} unscaled calls_per_s {raw[0]:.4f} "
        f"latency_p50_ms {raw[1]:.3f} latency_p90_ms {raw[2]:.3f}"
    )
    metrics = {
        "calls_per_s": (calls_per_s, "1/ref_s"),
        "latency_p50_ms": (p50, "ref_ms"),
        "latency_p90_ms": (p90, "ref_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    failed += len(setup_errors) + (warm.error is not None)
    return len(records) + SETUP_SAMPLES + 1, failed, metrics


def per_layer(workload: Workload, program: Program, seed: int):
    rec = Recorder()
    traced = untraced = 0.0
    records: list[Record] = []
    missing: list[str] = []
    records.append(execute(workload.warmup(seed, WORKDIR), program))
    calls = [c for index in range(TRACE_PASSES) for c in workload.calls(seed, index, WORKDIR)]
    for k, call in enumerate(calls):
        # each call runs untraced and traced back to back, in alternating
        # order, so load from elsewhere on the host hits both alike
        for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_run:
                with tracing(rec) as missing:
                    records.append(execute(call, program, rec))
                traced += records[-1].seconds
            else:
                records.append(execute(call, program))
                untraced += records[-1].seconds
    metrics = layer_metrics(rec, traced, untraced, len(calls))
    unseen = [name for name in workload.expect if name not in rec.names]
    if missing:
        print("not found in this program: " + ", ".join(missing))
    if unseen:
        raise SystemExit(
            f"perfbench: expected spans recorded no calls on {workload.name}: "
            + ", ".join(unseen)
        )
    path = os.path.join(WORKDIR, f"spans_{workload.name}_{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": rec.names, "spans": rec.spans, "counts": rec.counts}, fh)
    print(f"spans written to {path}")
    failed = sum(r.error is not None for r in records)
    return len(records), failed, metrics


def declared_metrics(trace: bool) -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    program = Program()
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        attempted, failed, metrics = per_layer(workload, program, args.seed)
    else:
        attempted, failed, metrics = end_to_end(workload, program, args.seed, args.seconds)
    declared = declared_metrics(bool(args.trace))
    if sorted(declared) != sorted(metrics):
        raise SystemExit(
            "perfbench: BENCHMARK.json and the measured metrics differ: "
            f"{sorted(set(declared) ^ set(metrics))}"
        )
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
