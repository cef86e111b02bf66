"""Command-line front end: classify, solve, construct, certify, verify.

Inputs and outputs are JSON. Angle files look like

    {"n": 2,
     "angles": [{"theta": {"pi_num": 1, "pi_den": 2}, "phi": {"rad": 0.0}},
                {"theta": {"pi_num": 1, "pi_den": 2}, "phi": {"rad": 0.0}}],
     "tol": 1e-9, "mode": "exact"}

Exit codes: 0 success, 2 malformed input, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .angles import Angle, DirectionList
from .bitstrings import bit_labels
from .certify import CertificationConfig, run_certification
from .classify import ClassificationReport, classify
from .construct import GHZSpec, stabilizing_pair_for
from .errors import GhzstabError, InternalConsistencyError
from .linalg import (
    DEFAULT_TOL,
    MAX_PARTIES,
    StateVector,
    check_dense,
    subspace_distance,
)
from .solve import (
    character_sum_check,
    purity_security_check,
    sector_dimensions,
    sector_oracle_bases,
    solve_common_eigenspace,
    trig_parity_identity_residuals,
)

AMPLITUDE_CUTOFF = 1e-12
MAX_RADIANS = 4 * math.pi


class InputError(GhzstabError):
    """Malformed or invalid JSON input."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value, what: str) -> float:
    """A JSON number (not a bool) that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond the float range: name its size
        digits = len(str(abs(value)))
        raise InputError(f"{what} must be finite, got an integer of {digits} digits")
    if not math.isfinite(out):
        raise InputError(f"{what} must be finite, got {value!r}")
    return out


def _tol(value) -> float:
    tol = _finite(value, "tol")
    if tol <= 0:
        raise InputError(f"tol must be positive, got {value!r}")
    return tol


def _parse_angle(obj, what: str) -> Angle:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object, got {type(obj).__name__}")
    if "pi_num" in obj or "pi_den" in obj:
        num, den = obj.get("pi_num"), obj.get("pi_den", 1)
        if not _is_int(num) or not _is_int(den):
            raise InputError(f"{what}: pi_num and pi_den must be integers")
        if den <= 0:
            raise InputError(f"{what}: pi_den must be positive, got {den}")
        if abs(num) > 4 * den:
            raise InputError(f"{what}: |pi_num| must be at most 4*pi_den")
        return Angle.exact(num, den)
    if "rad" in obj:
        rad = _finite(obj["rad"], f"{what}.rad")
        if abs(rad) > MAX_RADIANS:
            raise InputError(f"{what}: |rad| must be at most 4*pi, got {rad!r}")
        return Angle.radians(rad)
    raise InputError(f"{what} needs either pi_num/pi_den or rad")


def parse_angle_file(data) -> tuple[DirectionList, float, str | None]:
    if not isinstance(data, dict):
        raise InputError("top-level JSON must be an object")
    n = data.get("n")
    angles = data.get("angles")
    if not _is_int(n) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    if not isinstance(angles, list) or len(angles) != n:
        raise InputError(f"angles must be a list of length n={n}")
    thetas, phis = [], []
    for k, rec in enumerate(angles):
        if not isinstance(rec, dict):
            raise InputError(f"angles[{k}] must be an object")
        thetas.append(_parse_angle(rec.get("theta"), f"angles[{k}].theta"))
        phis.append(_parse_angle(rec.get("phi", {"rad": 0.0}), f"angles[{k}].phi"))
    tol = _tol(data.get("tol", DEFAULT_TOL))
    mode = data.get("mode")
    if mode not in (None, "exact", "approx"):
        raise InputError(f"mode must be exact or approx, got {mode!r}")
    return DirectionList.of(thetas, phis), tol, mode


def parse_state_file(data) -> StateVector:
    if not isinstance(data, dict):
        raise InputError("state file must be a JSON object")
    n = data.get("n")
    amps = data.get("amplitudes")
    if not _is_int(n) or not 1 <= n <= MAX_PARTIES:
        raise InputError(f"state n must be an integer in 1..{MAX_PARTIES}, got {n!r}")
    if not isinstance(amps, list) or not amps:
        raise InputError("state amplitudes must be a non-empty list")
    vec = np.zeros(1 << n, dtype=np.complex128)
    bulk = _bulk_amplitudes(amps, n)
    if bulk is None:
        _record_amplitudes(amps, n, vec)  # raises on the first bad record
    else:
        pos, values = bulk
        # part by part, as complex(re, im) does: re + 1j*im turns -0.0 into 0.0
        vec.real[pos] = values[: pos.size]
        vec.imag[pos] = values[pos.size :]
    # scaled to a largest real or imaginary part of 1 first, so the norm
    # neither overflows nor underflows
    parts = vec.view(np.float64)
    scale = np.abs(parts).max()
    if scale == 0.0:
        raise InputError("state vector has zero norm")
    parts /= scale
    return StateVector(n, vec / np.linalg.norm(vec))


def _bulk_amplitudes(amps: list, n: int):
    """The records' indices, and their re parts followed by their im parts as
    float64, when every record is valid; None otherwise."""
    if set(map(type, amps)) != {dict}:
        return None
    idx = [rec.get("index") for rec in amps]
    parts = [rec.get("re", 0.0) for rec in amps] + [rec.get("im", 0.0) for rec in amps]
    # exact types, so a bool is neither an index nor a part
    if set(map(type, idx)) != {int} or not set(map(type, parts)) <= {int, float}:
        return None
    if min(idx) < 0 or max(idx) >= 1 << n:
        return None
    pos = np.array(idx)
    if np.bincount(pos).max() > 1:
        return None
    try:
        values = np.array(parts, dtype=np.float64)
    except OverflowError:  # an integer part beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    return pos, values


def _record_amplitudes(amps: list, n: int, vec: np.ndarray) -> None:
    """Check the records one by one, raising on the first bad one, and store
    their amplitudes in vec."""
    seen = set()
    for k, rec in enumerate(amps):
        if not isinstance(rec, dict) or "index" not in rec:
            raise InputError(f"amplitudes[{k}] must be an object with index")
        idx = rec["index"]
        if not _is_int(idx) or not 0 <= idx < (1 << n):
            raise InputError(f"amplitudes[{k}].index out of range")
        if idx in seen:
            raise InputError(f"amplitudes[{k}] repeats index {idx}")
        seen.add(idx)
        vec[idx] = complex(
            _finite(rec.get("re", 0.0), f"amplitudes[{k}].re"),
            _finite(rec.get("im", 0.0), f"amplitudes[{k}].im"),
        )


def _unitary(rows, what: str) -> list[list[complex]]:
    """A 2x2 matrix given as two rows of two [re, im] pairs of numbers."""

    def pair(x) -> bool:
        return isinstance(x, list) and len(x) == 2

    if not (pair(rows) and all(pair(row) and all(map(pair, row)) for row in rows)):
        raise InputError(f"{what} must be a 2x2 matrix of [re, im] pairs")
    return [
        [
            complex(
                _finite(re, f"{what}[{i}][{j}].re"), _finite(im, f"{what}[{i}][{j}].im")
            )
            for j, (re, im) in enumerate(row)
        ]
        for i, row in enumerate(rows)
    ]


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InputError(f"invalid JSON in {path}: {exc}")


def sparse_amplitudes(amps: np.ndarray, n: int) -> list[dict]:
    idx = np.nonzero(np.abs(amps) > AMPLITUDE_CUTOFF)[0]
    vals = amps[idx]
    return [
        {"index": i, "label": label, "re": re, "im": im}
        for i, label, re, im in zip(
            idx.tolist(), bit_labels(idx, n), vals.real.tolist(), vals.imag.tolist()
        )
    ]


def classification_fields(report: ClassificationReport) -> dict:
    return {
        "case": report.case.value,
        "m_set": bit_labels(report.patterns.bits, report.patterns.n),
        "mode": report.mode,
        "tol": report.tol,
        "warnings": list(report.warnings),
    }


def angle_schema(d: DirectionList) -> dict:
    angles = []
    for t, p in zip(d.thetas, d.phis):
        rec = {}
        for key, a in (("theta", t), ("phi", p)):
            if a.is_exact:
                rec[key] = {"pi_num": a.numerator, "pi_den": a.denominator}
            else:
                rec[key] = {"rad": a.to_radians()}
        angles.append(rec)
    return {"n": d.n_parties, "angles": angles}


def observable_angles(obs) -> DirectionList:
    """Recover (theta, phi) per party from the Bloch vector of each local
    factor."""
    thetas, phis = [], []
    for m in obs.mats:
        vz = float(m[0, 0].real)
        vx = float(m[1, 0].real)
        vy = float(m[1, 0].imag)
        theta = float(np.arctan2(np.hypot(vx, vy), vz))
        phi = float(np.arctan2(vy, vx)) if np.hypot(vx, vy) > 1e-14 else 0.0
        thetas.append(Angle.radians(theta))
        phis.append(Angle.radians(phi))
    return DirectionList.of(thetas, phis)


def _emit(obj, pretty: bool) -> None:
    # json.dumps without indent runs the C encoder in one shot
    text = json.dumps(obj, indent=2 if pretty else None, sort_keys=True)
    sys.stdout.write(text + "\n")


def _angle_args(args) -> tuple[DirectionList, float]:
    """The angle file's directions in its mode, and its tol; --tol and
    --mode win."""
    d, tol, mode = parse_angle_file(_load_json(args.input))
    if args.tol is not None:
        tol = _tol(args.tol)
    return d.in_mode(getattr(args, "mode", None) or mode), tol


def cmd_classify(args) -> dict:
    d, tol = _angle_args(args)
    return classification_fields(classify(d, tol))


def cmd_solve(args) -> dict:
    d, tol = _angle_args(args)
    report = solve_common_eigenspace(d, tol)
    out = classification_fields(report.classification)
    out["dimension"] = report.dimension
    out["states"] = [
        sparse_amplitudes(report.basis[:, k], d.n_parties)
        for k in range(report.dimension)
    ]
    out["residuals"] = report.residual
    out["sector_dims"] = list(sector_dimensions(d, tol))
    return out


def cmd_construct(args) -> dict:
    n = args.n
    check_dense(n)  # before building n local unitaries
    if args.unitaries is not None:
        data = _load_json(args.unitaries)
        if not isinstance(data, dict) or not isinstance(data.get("unitaries"), list):
            raise InputError("unitaries file must be {n, unitaries: [...]}")
        if "n" in data and data["n"] != n:
            raise InputError(f"unitaries file n {data['n']!r} != n {n}")
        if len(data["unitaries"]) != n:
            raise InputError(f"unitaries count {len(data['unitaries'])} != n {n}")
        spec = GHZSpec.from_matrices(
            [_unitary(u, f"unitaries[{k}]") for k, u in enumerate(data["unitaries"])]
        )
    else:
        spec = GHZSpec.identity(n)
    pair = stabilizing_pair_for(spec)
    return {
        "case": "UniqueGHZ",
        "n": n,
        "pair": {
            "a": angle_schema(observable_angles(pair.a)),
            "b": angle_schema(observable_angles(pair.b)),
        },
        "canonical_angles": angle_schema(pair.directions),
        "target_state": sparse_amplitudes(pair.target.amplitudes, n),
        "residuals": pair.residual,
        "warnings": [],
    }


def cmd_certify(args) -> dict:
    if args.input == args.state == "-":
        raise InputError("only one of the angle file and --state can be '-' (stdin)")
    d, _, _ = parse_angle_file(_load_json(args.input))
    state = parse_state_file(_load_json(args.state))
    cfg = CertificationConfig(
        shots=args.shots,
        a_fraction=args.a_fraction,
        seed=args.seed,
        pass_threshold=args.threshold,
    )
    rep = run_certification(state, d, cfg)

    def defined(x: float) -> float | None:
        # a mean over 0 rounds, or a stderr over fewer than 2, is NaN, which
        # JSON cannot carry
        return None if math.isnan(x) else x

    return {
        "mean_a": defined(rep.mean_a),
        "mean_b": defined(rep.mean_b),
        "count_a": rep.count_a,
        "count_b": rep.count_b,
        "stderr_a": defined(rep.stderr_a),
        "stderr_b": defined(rep.stderr_b),
        "pass": rep.passed,
        "threshold": rep.threshold,
        "shots": rep.shots,
        "seed": rep.seed,
    }


def cmd_verify(args) -> dict:
    d, tol = _angle_args(args)
    for flag, value, low in (
        ("--trials", args.trials, 1),
        ("--env-dim", args.env_dim, 1),
        ("--seed", args.seed, 0),
    ):
        if value < low:
            raise InputError(f"{flag} must be >= {low}, got {value}")
    block = (1 << d.n_parties) * args.env_dim * args.trials
    if block > 1 << MAX_PARTIES:
        raise InputError(
            f"purity block 2^{d.n_parties} * env_dim {args.env_dim} * trials "
            f"{args.trials} = {block} amplitudes exceeds 2^{MAX_PARTIES}"
        )
    report = solve_common_eigenspace(d, tol)
    bases = sector_oracle_bases(d, tol)
    oracle = bases[0]
    if oracle.shape[1] != report.dimension:
        raise InternalConsistencyError(
            f"oracle dim {oracle.shape[1]} != solver dim {report.dimension}"
        )
    sector_dims = sector_dimensions(d, tol)
    oracle_sector_dims = tuple(b.shape[1] for b in bases)
    if sector_dims != oracle_sector_dims:
        raise InternalConsistencyError(
            f"sector dims {list(sector_dims)} != oracle sector dims "
            f"{list(oracle_sector_dims)}"
        )
    odd_res, even_res = trig_parity_identity_residuals(d)
    purity = purity_security_check(
        report, d, env_dim=max(args.env_dim, report.dimension),
        trials=args.trials, seed=args.seed,
    )
    return {
        "case": report.classification.case.value,
        "solver_dimension": report.dimension,
        "oracle_dimension": oracle.shape[1],
        "subspace_distance": subspace_distance(report.basis, oracle),
        "sector_dims": list(sector_dims),
        "identity_residuals": {"odd": odd_res, "even": even_res},
        "character_sum_deviation": character_sum_check(
            d.n_parties, seed=args.seed
        ),
        "purity": {
            "projector_dim": purity.projector_dim,
            "empty": purity.empty,
            "max_entropy": purity.max_entropy,
            "reduced_state_fidelity": purity.reduced_state_fidelity,
        },
    }


@functools.cache  # each parse fills a fresh namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ghzstab",
        description="Two-observable stabilization of N-qubit GHZ states.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True):
        p.add_argument(
            "input", nargs="?", default="-",
            help="angle JSON file ('-' for stdin, the default)",
        )
        p.add_argument("--tol", type=float, default=None)
        if with_mode:
            p.add_argument("--mode", choices=["exact", "approx"], default=None)
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("classify", help="classify the direction list")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="solve for the common +1 eigenspace")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "construct", help="build a uniquely-stabilizing pair for a GHZ state"
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--unitaries", default=None,
        help="optional JSON file of per-party 2x2 unitaries",
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", help="simulate the two-setting certification")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.999)
    p.add_argument("--a-fraction", type=float, default=0.5)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "verify", help="cross-check solver, oracle, identities, and purity"
    )
    common(p, with_mode=False)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--env-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except GhzstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(result, args.pretty)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
