"""Span recorder for the traced run, wrapped around the program's functions
from outside the program.

Each target function is replaced at every binding site in the loaded
``ghzstab`` modules (a ``from``-import makes a second binding, e.g.
``ghzstab.cli.solve_common_eigenspace``), and restored afterwards. A span
is ``[name, start, end, parent span, call id]``; spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

COMPLEX_BYTES = np.dtype(np.complex128).itemsize


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.call = 0
        self.path = ""  # classify path of the current call's input

    def open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self.call])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


# counters, computed from arguments and results so they are exact counts


def _members(rec, args, result):
    rec.counts["classify.members"] += len(result)
    rec.counts[f"classify.path.{rec.path}"] += 1


def _oracle_bytes(rec, args, result):
    a = args[0]
    dim = a.dim if hasattr(a, "dim") else np.shape(a)[0]
    rec.counts["solve.oracle_bytes"] += 2 * dim * dim * COMPLEX_BYTES


def _full_bytes(rec, args, result):
    rec.counts["observables.full_bytes"] += (1 << (2 * len(args[0]))) * COMPLEX_BYTES


def _rows(rec, args, result):
    rec.counts["kernels.collapse_rounds.rows"] += np.shape(args[3])[0]


def _shots(rec, args, result):
    rec.counts["certify.shots"] += result.shots


# (module, attribute, span name, counter); names mapping to one span are
# the same layer reached through another name
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_load_json", "cli.parse", None),
    ("cli", "parse_angle_file", "cli.parse", None),
    ("cli", "parse_state_file", "cli.parse", None),
    ("cli", "_emit", "cli.emit", None),
    ("classify", "classify", "classify.classify", None),
    ("classify", "sign_pattern_set", "classify.sign_pattern_set", _members),
    ("solve", "solve_common_eigenspace", "solve.solve_common_eigenspace", None),
    ("solve", "even_parity_block", "solve.even_parity_block", None),
    ("solve", "sector_dimensions", "solve.sector_dimensions", None),
    ("solve", "brute_force_eigenspace", "solve.brute_force_eigenspace", _oracle_bytes),
    ("solve", "purity_security_check", "solve.purity_security_check", None),
    ("solve", "trig_parity_identity_residuals", "solve.trig_parity_identity_residuals", None),
    ("solve", "character_sum_check", "solve.character_sum_check", None),
    ("construct", "stabilizing_pair_for", "construct.stabilizing_pair_for", None),
    ("construct", "ghz_from_pattern", "construct.ghz_from_pattern", None),
    ("certify", "run_certification", "certify.run_certification", _shots),
    ("observables", "product_observable", "observables.product_observable", None),
    ("linalg", "kron_all", "observables.full", _full_bytes),
    ("linalg", "null_space", "linalg.null_space", None),
    ("linalg", "apply_locals", "linalg.apply_locals", None),
    ("linalg", "subspace_distance", "linalg.subspace_distance", None),
    ("_kernels", "even_block", "kernels.even_block", None),
    ("_kernels", "signed_sums_f8", "kernels.signed_sums", None),
    ("_kernels", "signed_sums_i8", "kernels.signed_sums", None),
    ("_kernels", "collapse_rounds", "kernels.collapse_rounds", _rows),
    ("_kernels", "collapse_rounds_numpy", "kernels.collapse_rounds", _rows),
    ("_kernels", "parity_product_sums", "kernels.parity_product_sums", None),
    ("_kernels", "character_sums", "kernels.character_sums", None),
)


def _wrap(fn, name: str, rec: Recorder, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


@contextmanager
def tracing(rec: Recorder):
    """Wrap every target at every binding site; yields the targets that do
    not exist in this version of the program."""
    wrappers, missing = {}, []
    for module, attr, name, counter in TARGETS:
        fn = getattr(sys.modules.get(f"ghzstab.{module}"), attr, None)
        if fn is None:
            missing.append(f"ghzstab.{module}.{attr}")
        elif id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, _wrap(fn, name, rec, counter))
    restore = []
    modules = [m for k, m in sys.modules.items() if k == "ghzstab" or k.startswith("ghzstab.")]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((mod, key, value))
                setattr(mod, key, hit[1])
    try:
        yield missing
    finally:
        for mod, key, value in restore:
            setattr(mod, key, value)


def span_stats(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds (spans nested in a span of the
    same name are not counted twice) and self seconds (minus child spans)."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for idx, (nid, start, end, parent, _) in enumerate(spans):
        st = stats[rec.names[nid]]
        st["calls"] += 1
        st["self_s"] += end - start - child[idx]
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][3]
        if parent < 0:
            st["s"] += end - start
    return stats


def under(rec: Recorder, name: str, ancestor: str) -> float:
    """Busy seconds of spans ``name`` that run inside a span ``ancestor``."""
    nid = rec.names.index(name) if name in rec.names else -1
    aid = rec.names.index(ancestor) if ancestor in rec.names else -2
    total = 0.0
    for nid_, start, end, parent, _ in rec.spans:
        if nid_ != nid:
            continue
        while parent >= 0 and rec.spans[parent][0] != aid:
            parent = rec.spans[parent][3]
        if parent >= 0:
            total += end - start
    return total


def layer_metrics(rec: Recorder, traced_s: float, untraced_s: float, calls: int) -> dict:
    """Every per-layer metric of BENCHMARK.json, as (value, unit)."""
    stats = span_stats(rec)

    def st(name, key):
        return stats[name][key] if name in stats else 0

    out = {}
    for name, key, unit in (
        ("cli.main", "calls", "count"), ("cli.parse", "s", "s"), ("cli.emit", "s", "s"),
        ("cli.main", "self_s", "s"),
        ("classify.classify", "calls", "count"), ("classify.classify", "s", "s"),
        ("classify.sign_pattern_set", "s", "s"),
        ("solve.solve_common_eigenspace", "calls", "count"),
        ("solve.solve_common_eigenspace", "s", "s"),
        ("solve.solve_common_eigenspace", "self_s", "s"),
        ("solve.even_parity_block", "s", "s"),
        ("solve.sector_dimensions", "calls", "count"), ("solve.sector_dimensions", "s", "s"),
        ("solve.brute_force_eigenspace", "calls", "count"),
        ("solve.brute_force_eigenspace", "s", "s"),
        ("solve.purity_security_check", "s", "s"),
        ("solve.trig_parity_identity_residuals", "s", "s"),
        ("solve.character_sum_check", "s", "s"),
        ("construct.stabilizing_pair_for", "calls", "count"),
        ("construct.stabilizing_pair_for", "s", "s"),
        ("construct.stabilizing_pair_for", "self_s", "s"),
        ("construct.ghz_from_pattern", "calls", "count"),
        ("certify.run_certification", "calls", "count"),
        ("certify.run_certification", "s", "s"),
        ("certify.run_certification", "self_s", "s"),
        ("observables.product_observable", "calls", "count"),
        ("linalg.null_space", "calls", "count"), ("linalg.null_space", "s", "s"),
        ("linalg.apply_locals", "calls", "count"), ("linalg.apply_locals", "s", "s"),
        ("linalg.subspace_distance", "s", "s"),
        ("kernels.even_block", "s", "s"), ("kernels.signed_sums", "s", "s"),
        ("kernels.collapse_rounds", "s", "s"), ("kernels.parity_product_sums", "s", "s"),
        ("kernels.character_sums", "s", "s"),
    ):
        out[f"{name}.{key}"] = (st(name, key), unit)
    for name in (
        "classify.members", "classify.path.int64", "classify.path.bigint",
        "classify.path.float", "solve.oracle_bytes", "observables.full_bytes",
        "kernels.collapse_rounds.rows", "certify.shots",
    ):
        out[name] = (rec.counts.get(name, 0), "count")
    out["observables.full_builds"] = (st("observables.full", "calls"), "count")
    cert_s = st("certify.run_certification", "s")
    out["certify.shots_per_s"] = (rec.counts["certify.shots"] / cert_s if cert_s else 0.0, "1/s")
    out["solve.sector_dimensions.share"] = (st("solve.sector_dimensions", "s") / traced_s, "ratio")
    out["solve.sector_oracle.share"] = (
        under(rec, "solve.brute_force_eigenspace", "solve.sector_dimensions") / traced_s,
        "ratio",
    )
    out["trace.spans"] = (len(rec.spans), "count")
    out["trace.overhead_ms"] = (1e3 * (traced_s - untraced_s) / calls, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    return out
