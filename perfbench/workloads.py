"""Workload mixes: which calls one pass makes, on which generated inputs.

A run repeats passes over a workload's fixed mix until its time is up, so
every run makes the same share of each kind of call. Pass ``k`` of seed
``s`` always gets the same inputs. The counts per slot are chosen so that
p50 and p90 each fall well inside a block of calls of one size and kind,
never on a boundary between two sizes (see ``README.md``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks
import inputs

CERT_SHOTS = 1000
MIXTURE_SHOTS = 1000
WARMUP_PASS = 1 << 32


@dataclass(frozen=True)
class Slot:
    """One call per pass. ``kinds`` rotate with the pass index; ``q`` is the
    denominator of the rational kinds."""

    command: str
    n: int
    kinds: tuple[str, ...]
    q: int = 13


@dataclass
class Call:
    label: str
    check: Callable[[object], None]
    files: dict[str, dict]
    argv: list[str] | None = None  # a CLI call, run through ghzstab.cli.main
    library: Callable | None = None  # (program) -> zero-argument callable
    shots: int = 0
    path: str = ""  # classify path the input selects: int64, bigint or float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]
    expect: tuple[str, ...]  # spans a traced run must see at least once

    def _call(self, seed: int, index: int, k: int, workdir: str) -> Call:
        slot = self.slots[k]
        rng = np.random.default_rng([seed % (1 << 63), zlib.crc32(self.name.encode()), index, k])
        kind = slot.kinds[index % len(slot.kinds)]
        return CALL_MAKERS[slot.command](slot, kind, rng, f"{workdir}/c{k}")

    def calls(self, seed: int, index: int, workdir: str) -> list[Call]:
        return [self._call(seed, index, k, workdir) for k in range(len(self.slots))]

    def warmup(self, seed: int, workdir: str) -> Call:
        """A call like the first of every pass, on inputs no pass uses."""
        return self._call(seed, WARMUP_PASS, 0, workdir)


def _path(d: inputs.Directions) -> str:
    if not d.exact:
        return "float"
    return "int64" if sum(abs(v) for v in d.nums) < (1 << 60) else "bigint"


def _angle_call(slot, kind, rng, prefix, check, extra=()) -> Call:
    d = inputs.directions(kind, slot.n, rng, slot.q)
    return Call(
        label=f"{slot.command} n={slot.n} {kind}",
        check=partial(check, d),
        files={f"{prefix}_angles.json": d.angle_file()},
        argv=[slot.command, f"{prefix}_angles.json", *extra],
        path=_path(d),
    )


def classify_call(slot, kind, rng, prefix) -> Call:
    return _angle_call(slot, kind, rng, prefix, checks.check_classify)


def solve_call(slot, kind, rng, prefix) -> Call:
    return _angle_call(slot, kind, rng, prefix, checks.check_solve)


def verify_call(slot, kind, rng, prefix) -> Call:
    seed = str(int(rng.integers(0, 1 << 31)))
    return _angle_call(slot, kind, rng, prefix, checks.check_verify, ("--seed", seed))


def construct_call(slot, kind, rng, prefix) -> Call:
    n = slot.n
    call = Call(label=f"construct n={n} {kind}", check=None, files={}, argv=["construct", str(n)])
    if kind == "ghz":
        target = inputs.ghz(n)
    else:
        mats = inputs.haar_unitaries(n, rng)
        target = inputs.apply_locals(mats, inputs.ghz(n))
        call.files[f"{prefix}_unitaries.json"] = inputs.unitaries_file(mats)
        call.argv += ["--unitaries", f"{prefix}_unitaries.json"]
    call.check = partial(checks.check_construct, n, target, kind == "ghz")
    return call


def certify_call(slot, kind, rng, prefix) -> Call:
    """The stabilized GHZ-class state of a resonant list must pass; a random
    product state must fail."""
    d = inputs.resonant(slot.n, rng, slot.q)
    if kind == "stabilized":
        amps = inputs.ghz_class_state(d, d.planted)
    else:
        amps = inputs.product_state(d, rng).amplitudes
    seed = str(int(rng.integers(0, 1 << 31)))
    return Call(
        label=f"certify n={slot.n} {kind}",
        check=partial(checks.check_certify, kind == "stabilized", CERT_SHOTS),
        files={
            f"{prefix}_angles.json": d.angle_file(),
            f"{prefix}_state.json": inputs.state_file(amps),
        },
        argv=[
            "certify", f"{prefix}_angles.json", "--state", f"{prefix}_state.json",
            "--shots", str(CERT_SHOTS), "--seed", seed,
        ],
        shots=CERT_SHOTS,
    )


def mixture_call(slot, kind, rng, prefix) -> Call:
    """Library run_certification on an even mixture of the stabilized state
    and a product state (the CLI takes only pure states)."""
    d = inputs.resonant(slot.n, rng, slot.q)
    stabilized = inputs.ghz_class_state(d, d.planted)
    product = inputs.product_state(d, rng)
    seed = int(rng.integers(0, 1 << 31))

    def prepare(program):
        angles, linalg, certify = program.angles, program.linalg, program.certify
        dl = angles.DirectionList.of(
            [angles.Angle.exact(p, d.q) for p in d.nums],
            [angles.Angle.radians(p) for p in d.phis],
        )
        mix = certify.Ensemble(
            states=(
                linalg.StateVector(d.n, stabilized),
                linalg.StateVector(d.n, product.amplitudes),
            ),
            weights=(0.5, 0.5),
            sampling=kind,
        )
        cfg = certify.CertificationConfig(shots=MIXTURE_SHOTS, seed=seed)
        return lambda: program.certify.run_certification(mix, dl, cfg)

    return Call(
        label=f"run_certification n={slot.n} mixture",
        check=partial(
            checks.check_mixture,
            0.5 + 0.5 * product.expect_a,
            0.5 + 0.5 * product.expect_b,
        ),
        files={},
        library=prepare,
        shots=MIXTURE_SHOTS,
    )


CALL_MAKERS = {
    "classify": classify_call,
    "solve": solve_call,
    "verify": verify_call,
    "construct": construct_call,
    "certify": certify_call,
    "mixture": mixture_call,
}


def block(command: str, n: int, kinds, count: int = 1, q: int = 13) -> list[Slot]:
    """``count`` slots of one size; slot j starts its kind rotation at j so a
    block of len(kinds) slots runs every kind once per pass."""
    kinds = tuple(kinds)
    return [
        Slot(command, n, kinds[j % len(kinds):] + kinds[:j % len(kinds)], q)
        for j in range(count)
    ]


ALL = inputs.KINDS
NON_UNIFORM = ("resonant", "resonant-rad", "degenerate")
CLI_SPANS = ("cli.main", "cli.parse", "cli.emit")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve_mix",
            "CLI solve on uniform, resonant and degenerate lists, exact and radian, "
            "n=4-9: the production solve path, where sector_dimensions' oracles dominate",
            tuple(
                block("solve", 4, ALL, 4) + block("solve", 5, ALL, 4)
                + block("solve", 6, ALL, 8) + block("solve", 7, ALL, 4)
                + block("solve", 8, ALL, 4) + block("solve", 9, ALL, 1)
            ),
            CLI_SPANS + (
                "classify.classify", "solve.solve_common_eigenspace",
                "solve.sector_dimensions",
            ),
        ),
        Workload(
            "classify_wide",
            "CLI classify at n=14-20 on uniform, resonant and degenerate lists with 0 to ~17k "
            "members: pattern enumeration and member building; no dense matrix is built",
            tuple(
                block("classify", 14, ("uniform",)) + block("classify", 16, ("uniform",))
                + block("classify", 18, ("uniform",)) + block("classify", 20, ("uniform",))
                + block("classify", 14, ("resonant-rad",), q=29)
                + block("classify", 16, ("resonant-rad",), q=29)
                + block("classify", 18, ("resonant-rad",), q=29)
                + block("classify", 14, ("resonant",), q=29)
                + block("classify", 14, ("degenerate",), 8, q=9)
                + block("classify", 16, ("resonant",), 2, q=17)
                + block("classify", 20, ("resonant-rad",), q=31)
                + block("classify", 16, ("degenerate",), 5, q=9)
                + block("classify", 20, ("resonant",), q=31)
            ),
            CLI_SPANS + ("classify.classify", "classify.sign_pattern_set"),
        ),
        Workload(
            "certify_protocol",
            "CLI construct n=4-8 and CLI certify n=4-10 (stabilized passes, product "
            "fails) plus a library mixed-state run: per-shot sequential collapse",
            tuple(
                [s for n in range(4, 8) for s in block("construct", n, ("ghz", "unitaries"), 3)]
                + block("construct", 8, ("ghz", "unitaries"), 2)
                + block("certify", 4, ("stabilized", "product"), 8)
                + [s for n in range(5, 10) for s in block("certify", n, ("stabilized", "product"))]
                + block("mixture", 6, ("random",))
                + block("certify", 10, ("stabilized", "product"), 8)
            ),
            CLI_SPANS + ("construct.stabilizing_pair_for", "certify.run_certification"),
        ),
        Workload(
            "verify_audit",
            "CLI verify on the solve_mix kinds at n=4-8: the audit layer (purity draws, "
            "trig identities, character sums) and the oracle run as an audit",
            tuple(
                block("verify", 4, ALL, 4) + block("verify", 5, ALL, 4)
                + block("verify", 6, ("uniform",)) + block("verify", 6, NON_UNIFORM, 21)
                + block("verify", 7, ("uniform",), 2) + block("verify", 7, NON_UNIFORM, 8)
                + block("verify", 8, ALL, 2)
            ),
            CLI_SPANS + (
                "solve.solve_common_eigenspace", "solve.sector_dimensions",
                "solve.brute_force_eigenspace", "solve.purity_security_check",
                "solve.trig_parity_identity_residuals", "solve.character_sum_check",
                "linalg.subspace_distance",
            ),
        ),
    )
}
