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
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .angles import Angle, DirectionList
from .bitstrings import bit_labels, bit_labels_json
from .certify import CertificationConfig, run_certification
from .classify import ClassificationReport, classify
from .construct import GHZSpec, stabilizing_pair_for
from .errors import GhzstabError, InternalConsistencyError, shown
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
        raise InputError(f"{what} must be a number, got {shown(value)}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise InputError(f"{what} must be finite, got {shown(value)}")
    return out


def _tol(value) -> float:
    tol = _finite(value, "tol")
    if tol <= 0:
        raise InputError(f"tol must be positive, got {shown(value)}")
    return tol


def _parse_angle(obj, what: str) -> Angle:
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object, got {type(obj).__name__}")
    if "pi_num" in obj or "pi_den" in obj:
        num, den = obj.get("pi_num"), obj.get("pi_den", 1)
        if not _is_int(num) or not _is_int(den):
            raise InputError(f"{what}: pi_num and pi_den must be integers")
        if den <= 0:
            raise InputError(f"{what}: pi_den must be positive, got {shown(den)}")
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
        raise InputError(f"n must be a positive integer, got {shown(n)}")
    if not isinstance(angles, list) or len(angles) != n:
        raise InputError(f"angles must be a list of length n={shown(n)}")
    thetas, phis = [], []
    for k, rec in enumerate(angles):
        if not isinstance(rec, dict):
            raise InputError(f"angles[{k}] must be an object")
        thetas.append(_parse_angle(rec.get("theta"), f"angles[{k}].theta"))
        phis.append(_parse_angle(rec.get("phi", {"rad": 0.0}), f"angles[{k}].phi"))
    tol = _tol(data.get("tol", DEFAULT_TOL))
    mode = data.get("mode")
    if mode not in (None, "exact", "approx"):
        raise InputError(f"mode must be exact or approx, got {shown(mode)}")
    return DirectionList.of(thetas, phis), tol, mode


def parse_state_file(data) -> StateVector:
    if not isinstance(data, dict):
        raise InputError("state file must be a JSON object")
    n = data.get("n")
    amps = data.get("amplitudes")
    if not _is_int(n) or not 1 <= n <= MAX_PARTIES:
        raise InputError(
            f"state n must be an integer in 1..{MAX_PARTIES}, got {shown(n)}"
        )
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
    except RecursionError:  # arrays or objects nested past the decoder's depth
        raise InputError(f"invalid JSON in {path}: nested too deeply")


@dataclass(frozen=True)
class JsonText:
    """A value already written as JSON text, which _emit splices in as it
    stands."""

    text: str


_RECORD = '{"im": %r, "index": %d, "label": "%s", "re": %r}'
# _JSON.encode(o) is json.dumps(o, sort_keys=True), without a new encoder per call
_JSON = json.JSONEncoder(sort_keys=True)


def amplitude_json(amps: np.ndarray) -> str:
    """The JSON text of a state's amplitude list, or of the lists of the
    columns of a (2^n, k) basis of states, as json.dumps with sort_keys
    writes them: one {"im", "index", "label", "re"} record per amplitude above
    AMPLITUDE_CUTOFF, in index order.

    Each distinct record, keyed by its index and the exact bits of re and im
    (so 0.0 and -0.0 stay apart), is formatted once: the solver's states
    repeat the same records up to sign."""
    cols = amps.reshape(amps.shape[0], -1)
    n = cols.shape[0].bit_length() - 1
    col, idx = np.nonzero(np.abs(cols.T) > AMPLITUDE_CUTOFF)  # column by column
    vals = cols[idx, col]
    where = range(idx.size)
    if cols.shape[1] > 1:  # one state's records are distinct, one per index
        keys = np.column_stack(
            [idx, vals.real.view(np.int64), vals.imag.view(np.int64)]
        ).view(np.dtype((np.void, 24)))  # one 24-byte key per entry
        _, first, where = np.unique(
            keys.ravel(), return_index=True, return_inverse=True
        )
        idx, vals, where = idx[first], vals[first], where.tolist()
    records = [
        _RECORD % rec
        for rec in zip(
            vals.imag.tolist(), idx.tolist(), bit_labels(idx, n), vals.real.tolist()
        )
    ]
    pieces = [records[k] for k in where]
    counts = np.bincount(col, minlength=cols.shape[1]).tolist()
    ends = list(itertools.accumulate(counts))
    lists = ["[" + ", ".join(pieces[a:b]) + "]" for a, b in zip([0] + ends, ends)]
    return lists[0] if amps.ndim == 1 else "[" + ", ".join(lists) + "]"


def classification_fields(report: ClassificationReport) -> dict:
    return {
        "case": report.case.value,
        "m_set": JsonText(bit_labels_json(report.patterns.bits, report.patterns.n)),
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


def _emit(obj: dict, pretty: bool) -> None:
    """obj as json.dumps(obj, sort_keys=True) writes it, with each JsonText
    value spliced in as its text; --pretty re-renders that text with indent 2."""
    # without indent, the C encoder writes the other keys, each run in one call
    if not any(isinstance(value, JsonText) for value in obj.values()):
        text = _JSON.encode(obj)
    else:
        pieces = []
        for spliced, items in itertools.groupby(
            sorted(obj.items()), key=lambda item: isinstance(item[1], JsonText)
        ):
            if spliced:
                pieces += [f"{_JSON.encode(k)}: {v.text}" for k, v in items]
            else:
                pieces.append(_JSON.encode(dict(items))[1:-1])
        text = "{%s}" % ", ".join(pieces)
    if pretty:  # every float round-trips through its repr
        text = json.dumps(json.loads(text), indent=2, sort_keys=True)
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
    out["states"] = JsonText(amplitude_json(report.basis))
    out["residuals"] = report.residual
    out["sector_dims"] = list(sector_dimensions(d, report.classification))
    return out


def cmd_construct(args) -> dict:
    n = args.n
    check_dense(n)  # before building n local unitaries
    if args.unitaries is not None:
        data = _load_json(args.unitaries)
        if not isinstance(data, dict) or not isinstance(data.get("unitaries"), list):
            raise InputError("unitaries file must be {n, unitaries: [...]}")
        if "n" in data and data["n"] != n:
            raise InputError(f"unitaries file n {shown(data['n'])} != n {shown(n)}")
        if len(data["unitaries"]) != n:
            raise InputError(
                f"unitaries count {len(data['unitaries'])} != n {shown(n)}"
            )
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
        "target_state": JsonText(amplitude_json(pair.target.amplitudes)),
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
            raise InputError(f"{flag} must be >= {low}, got {shown(value)}")
    report = solve_common_eigenspace(d, tol)
    # first after the solver: an oversized purification or trial count exits
    # 2 before the oracle runs
    purity = purity_security_check(
        report, env_dim=max(args.env_dim, report.dimension),
        trials=args.trials, seed=args.seed,
    )
    bases = sector_oracle_bases(d, tol)
    # the (+,+) entries are the solver's and the oracle's dimensions
    sector_dims = sector_dimensions(d, report.classification)
    oracle_sector_dims = tuple(b.shape[1] for b in bases)
    if sector_dims != oracle_sector_dims:
        raise InternalConsistencyError(
            f"sector dims {list(sector_dims)} != oracle sector dims "
            f"{list(oracle_sector_dims)}"
        )
    odd_res, even_res = trig_parity_identity_residuals(d)
    return {
        "case": report.classification.case.value,
        "solver_dimension": report.dimension,
        "oracle_dimension": bases[0].shape[1],
        "subspace_distance": subspace_distance(report.basis, bases[0]),
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


def _named(check, action, value):
    """check(action, value), with value's repr in a refusal replaced by
    shown(value)."""
    try:
        return check(action, value)
    except argparse.ArgumentError as exc:
        if shown(value) == repr(value):
            raise
        message = exc.message.replace(repr(value), shown(value), 1)
        raise argparse.ArgumentError(action, message) from None


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with an over-long argument that it refuses (a
    typed value, a choice, a subcommand name or unrecognized arguments)
    named by its size (errors.shown) in argparse's own wording."""

    def _get_value(self, action, arg_string):
        return _named(super()._get_value, action, arg_string)

    def _check_value(self, action, value):
        return _named(super()._check_value, action, value)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            text = " ".join(extra)  # argparse prints these unquoted
            if shown(text) != repr(text):
                text = shown(text)
            self.error(f"unrecognized arguments: {text}")
        return args


@functools.cache  # each parse fills a fresh namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
            p.add_argument("--mode", choices=("exact", "approx"), default=None)
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
