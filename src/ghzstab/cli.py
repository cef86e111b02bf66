"""Command-line front end: classify, solve, construct, certify, verify.

Inputs and outputs are JSON. An input file is an object with a positive
integer "n" and one list, whose key names the file's form. An angle file
(the input of every command but construct, judged by its own "tol" and
"mode") has "angles", one direction per party:

    {"n": 2,
     "angles": [{"theta": {"pi_num": 1, "pi_den": 2}, "phi": {"rad": 0.0}},
                {"theta": {"pi_num": 1, "pi_den": 2}, "phi": {"rad": 0.0}}],
     "tol": 1e-9, "mode": "exact"}

A state file (certify --state) has "amplitudes", {"index", "re", "im"}
records of a state of at most MAX_PARTIES parties. A unitaries file
(construct --unitaries) has "unitaries", one 2x2 matrix of [re, im] pairs
per party, and construct's n as its "n".

COMMANDS declares each subcommand's arguments once. A plain argv (the
subcommand, at most its positional, then distinct options spelled in full,
each with its one value) is read straight off that table; argparse, built
from the same table and imported only then, reads every other argv, and
alone prints help and words a refusal of the command line.

Exit codes: 0 success, 1 stdout closed before the output was written (a
pipe whose reader quit, as in `ghzstab classify big.json | head`; nothing
is printed), 2 malformed input, 3 internal consistency failure.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .angles import Angle, DirectionList
from .bitstrings import bit_labels, bit_labels_json
from .certify import CertificationConfig, run_certification
from .classify import ClassificationReport, classify, signed_sum_error
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
    PURITY_ENV_DIM,
    character_sum_check,
    purity_security_check,
    sector_oracle_bases,
    solve_common_eigenspace,
    trig_parity_identity_residuals,
)

if TYPE_CHECKING:
    import argparse

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
        # rad is a finite float already: Angle.radians would check it again
        return Angle(pi_multiple=None, raw_radians=rad)
    raise InputError(f"{what} needs either pi_num/pi_den or rad")


def _n_and_list(data, key: str, n_name: str) -> tuple[int, list]:
    """The "n" and the list under key of a {"n", key: [...]} file: the checks
    every input form shares. n_name is how the errors name the "n"."""
    if not isinstance(data, dict) or not isinstance(data.get(key), list):
        raise InputError(f'expected a JSON object {{"n": ..., "{key}": [...]}}')
    n = data.get("n")
    if not _is_int(n) or n < 1:
        raise InputError(f"{n_name} must be a positive integer, got {shown(n)}")
    return n, data[key]


def parse_angle_file(data) -> tuple[DirectionList, float]:
    """The angle file's directions in its "mode", and its "tol"."""
    n, angles = _n_and_list(data, "angles", "n")
    if len(angles) != n:
        raise InputError(f"angles must be a list of length n={shown(n)}")
    thetas, phis = [], []
    for k, rec in enumerate(angles):
        if not isinstance(rec, dict):
            raise InputError(f"angles[{k}] must be an object")
        thetas.append(_parse_angle(rec.get("theta"), f"angles[{k}].theta"))
        phis.append(_parse_angle(rec.get("phi", {"rad": 0.0}), f"angles[{k}].phi"))
    raw = data.get("tol", DEFAULT_TOL)
    tol = _finite(raw, "tol")
    if tol <= 0:
        raise InputError(f"tol must be positive, got {shown(raw)}")
    return DirectionList.of(thetas, phis).in_mode(data.get("mode")), tol


def parse_state_file(data) -> StateVector:
    n, amps = _n_and_list(data, "amplitudes", "state n")
    if n > MAX_PARTIES:  # before the 2^n vector is allocated
        raise InputError(f"state n {shown(n)} exceeds the cap of {MAX_PARTIES} parties")
    if not amps:
        raise InputError("state amplitudes must be a non-empty list")
    bulk = _bulk_amplitudes(amps, n)
    if bulk is None:
        _raise_first_bad_record(amps, n)
    pos, values = bulk
    vec = np.zeros(1 << n, dtype=np.complex128)
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


def _raise_first_bad_record(amps: list, n: int) -> None:
    """Raise the error of the first bad record, checking them one by one."""
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
        _finite(rec.get("re", 0.0), f"amplitudes[{k}].re")
        _finite(rec.get("im", 0.0), f"amplitudes[{k}].im")
    raise InternalConsistencyError("the bulk state check rejected valid records")


def parse_unitaries_file(data, n: int) -> np.ndarray:
    """The (n, 2, 2) local unitaries of a unitaries file for n parties."""
    file_n, mats = _n_and_list(data, "unitaries", "unitaries file n")
    if file_n != n:
        raise InputError(f"unitaries file n {shown(file_n)} != n {shown(n)}")
    if len(mats) != n:
        raise InputError(f"unitaries count {len(mats)} != n {shown(n)}")
    units = [_unitary(u, f"unitaries[{k}]") for k, u in enumerate(mats)]
    return np.array(units, dtype=np.complex128)


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
    except OSError as exc:  # a directory, or a file we may not read
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InputError(f"invalid JSON in {path}: {exc}")
    except RecursionError:  # arrays or objects nested past the decoder's depth
        raise InputError(f"invalid JSON in {path}: nested too deeply")


@dataclass(frozen=True)
class JsonText:
    """A value written as JSON text in pieces, which _emit writes as they
    come: the text is rendered while it is written."""

    pieces: Iterable[str]


_SIGNS = ("", "-")
# basis entries read at a time by amplitude_json (4 MiB of complex values)
BLOCK_ENTRIES = 1 << 18
# _JSON.encode(o) is json.dumps(o, sort_keys=True), without a new encoder per call
_JSON = json.JSONEncoder(sort_keys=True)


def amplitude_json(amps: np.ndarray) -> Iterator[str]:
    """The JSON text of a state's amplitude list, or of the lists of the
    columns of a (2^n, k) basis of states, as json.dumps with sort_keys
    writes them: one {"im", "index", "label", "re"} record per amplitude above
    AMPLITUDE_CUTOFF, in index order. It comes in pieces: one list's text,
    or '[', each column's list with ', ' between them, and ']'.

    One state's records are formatted directly. A basis of several states
    takes its records from a table (_basis_lists): the solver's states
    repeat column 0's records up to sign."""
    cols = amps.reshape(amps.shape[0], -1)
    n = cols.shape[0].bit_length() - 1
    if cols.shape[1] > 1:
        lists = _basis_lists(cols, n)
    else:  # zero or one state, whose records are distinct, one per index
        lists = []
        for col in cols.T:
            (idx,) = np.nonzero(np.abs(col) > AMPLITUDE_CUTOFF)
            lists.append(_list_text(_records(col[idx], idx, n)))
    if amps.ndim == 1:
        yield from lists
        return
    yield "["
    for k, text in enumerate(lists):
        if k:
            yield ", "
        yield text
    yield "]"


def _list_text(records: list[str]) -> str:
    return "[" + ", ".join(records) + "]"


def _records(vals: np.ndarray, idx: np.ndarray, n: int) -> list[str]:
    """The record of each value vals[k] at index idx[k]."""
    return [
        f'{{"im": {im!r}, "index": {index}, "label": "{label}", "re": {re!r}}}'
        for im, index, label, re in zip(
            vals.imag.tolist(), idx.tolist(), bit_labels(idx, n), vals.real.tolist()
        )
    ]


def _basis_lists(cols: np.ndarray, n: int) -> Iterator[str]:
    """Each column's list text, for a basis of two or more columns, read in
    blocks of about BLOCK_ENTRIES entries.

    An entry at index j whose real and imaginary magnitudes are column 0's
    at j takes the record of table slot 4 j + 2 [re signbit] + [im signbit],
    one of j's four sign variants of column 0's record, chosen by the
    entry's own sign bits (so -0.0 stays -0.0); each slot is formatted once,
    when first met. Any other entry is formatted on its own."""
    mag_re = np.abs(cols[:, 0].real)
    mag_im = np.abs(cols[:, 0].imag)
    rank = np.full(4 * cols.shape[0], -1)  # slot -> its record's place in table
    table: list[str] = []
    step = max(1, BLOCK_ENTRIES // cols.shape[0])
    for start in range(0, cols.shape[1], step):
        block = cols[:, start : start + step]
        col, idx = np.nonzero(np.abs(block.T) > AMPLITUDE_CUTOFF)  # column by column
        vals = block[idx, col]
        shared = (np.abs(vals.real) == mag_re[idx]) & (np.abs(vals.imag) == mag_im[idx])
        slot = 4 * idx + 2 * np.signbit(vals.real) + np.signbit(vals.imag)
        fresh = np.zeros(rank.size, dtype=bool)
        fresh[slot[shared]] = True
        new = np.flatnonzero(fresh & (rank < 0))
        rank[new] = np.arange(len(table), len(table) + new.size)
        table += _signed_records(new, mag_re, mag_im, n)
        where = rank[slot]
        lookup = table
        own = np.flatnonzero(~shared)
        if own.size:
            where[own] = np.arange(len(table), len(table) + own.size)
            lookup = table + _records(vals[own], idx[own], n)
        pieces = list(map(lookup.__getitem__, where.tolist()))
        ends = itertools.accumulate(np.bincount(col, minlength=block.shape[1]).tolist())
        begin = 0
        for end in ends:
            yield _list_text(pieces[begin:end])
            begin = end


def _signed_records(slots: np.ndarray, mag_re, mag_im, n: int) -> list[str]:
    """The record of each ascending slot 4 j + 2 s_re + s_im: index j with
    the magnitudes mag_re[j] and mag_im[j], negated where s is 1. Each
    index's magnitudes go through repr once for all of its slots here."""
    j = slots >> 2
    first = np.ones(j.size, dtype=bool)
    first[1:] = j[1:] != j[:-1]
    distinct = j[first]
    res = list(map(repr, mag_re[distinct].tolist()))
    ims = list(map(repr, mag_im[distinct].tolist()))
    labels = bit_labels(distinct, n)
    # an f-string, as in _records, formats these str and int parts about
    # twice as fast as % would
    return [
        f'{{"im": {_SIGNS[s & 1]}{ims[k]}, "index": {index}, '
        f'"label": "{labels[k]}", "re": {_SIGNS[s >> 1]}{res[k]}}}'
        for s, k, index in zip(
            (slots & 3).tolist(), (np.cumsum(first) - 1).tolist(), j.tolist()
        )
    ]


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
                frac = a.pi_multiple
                rec[key] = {"pi_num": frac.numerator, "pi_den": frac.denominator}
            else:
                rec[key] = {"rad": a.to_radians()}
        angles.append(rec)
    return {"n": d.n_parties, "angles": angles}


def bloch_schema(obs) -> dict:
    """angle_schema of the radian (theta, phi) per party read off the Bloch
    vector of each local factor; phi is 0.0 where the vector is within
    1e-14 of the z axis."""
    vz, v = obs.mats[:, 0, 0].real, obs.mats[:, 1, 0]
    r = np.hypot(v.real, v.imag)
    thetas = np.arctan2(r, vz).tolist()
    phis = np.where(r > 1e-14, np.arctan2(v.imag, v.real), 0.0).tolist()
    angles = [{"theta": {"rad": t}, "phi": {"rad": p}} for t, p in zip(thetas, phis)]
    return {"n": len(thetas), "angles": angles}


def _pieces(obj: dict) -> Iterator[str]:
    """The pieces of json.dumps(obj, sort_keys=True) and a newline, with each
    JsonText value's pieces written as they come."""
    yield "{"
    for k, (key, value) in enumerate(sorted(obj.items())):
        yield f"{', ' if k else ''}{_JSON.encode(key)}: "
        if isinstance(value, JsonText):
            yield from value.pieces
        else:
            yield _JSON.encode(value)
    yield "}\n"


def _emit(obj: dict, pretty: bool) -> None:
    """Write obj to stdout as json.dumps(obj, sort_keys=True) writes it: piece
    by piece when it has a JsonText value, in one encode otherwise; --pretty
    joins the pieces and re-renders them with indent 2."""
    if pretty:  # every float round-trips through its repr
        doc = json.loads("".join(_pieces(obj)))
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif any(isinstance(value, JsonText) for value in obj.values()):
        sys.stdout.writelines(_pieces(obj))
    else:
        sys.stdout.write(_JSON.encode(obj) + "\n")


def cmd_classify(args) -> dict:
    d, tol = parse_angle_file(_load_json(args.input))
    return classification_fields(classify(d, tol))


def cmd_solve(args) -> dict:
    d, tol = parse_angle_file(_load_json(args.input))
    report = solve_common_eigenspace(d, tol)
    out = classification_fields(report.classification)
    out["dimension"] = report.dimension
    out["states"] = JsonText(amplitude_json(report.basis))
    out["residuals"] = report.residual
    out["sector_dims"] = list(report.sector_dims)
    return out


def cmd_construct(args) -> dict:
    n = args.n
    check_dense(n)  # before building n local unitaries
    if args.unitaries is not None:
        spec = GHZSpec(n, parse_unitaries_file(_load_json(args.unitaries), n))
    else:
        spec = GHZSpec.identity(n)
    pair = stabilizing_pair_for(spec)
    return {
        "case": "UniqueGHZ",
        "n": n,
        "pair": {
            "a": bloch_schema(pair.a),
            "b": bloch_schema(pair.b),
        },
        "canonical_angles": angle_schema(pair.directions),
        "target_state": JsonText(amplitude_json(pair.target.amplitudes)),
        "residuals": pair.residual,
        "warnings": [],
    }


def cmd_certify(args) -> dict:
    if args.input == args.state == "-":
        raise InputError("only one of the angle file and --state can be '-' (stdin)")
    d, _ = parse_angle_file(_load_json(args.input))
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
        "threshold": cfg.pass_threshold,
        "shots": cfg.shots,
        "seed": cfg.seed,
    }


def cmd_verify(args) -> dict:
    d, tol = parse_angle_file(_load_json(args.input))
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {shown(args.seed)}")
    # exact lists are decided without tol, and their oracle cuts at the gap
    if not d.all_exact:
        bound = signed_sum_error(d.theta_radians())
        if tol < bound:
            raise InputError(
                f"tol {shown(tol)} is below {bound:.1e}, "
                "the float error of this list's signed sums"
            )
    report = solve_common_eigenspace(d, tol)
    purity = purity_security_check(
        report, env_dim=max(PURITY_ENV_DIM, report.dimension), seed=args.seed
    )
    bases = sector_oracle_bases(d, tol)
    # the (+,+) entries are the solver's and the oracle's dimensions
    sector_dims = report.sector_dims
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
            "projector_dim": report.dimension,
            "empty": report.dimension == 0,
            "max_entropy": float(purity.entropies.max(initial=0.0)),
            "reduced_state_fidelity": purity.reduced_state_fidelity,
        },
    }


@dataclass(frozen=True)
class Arg:
    """One argument of a subcommand: its positional (no leading dashes) or
    an --option. A flag is an option that takes no value and is True when
    given; any other argument's value converts with type."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    flag: bool = False
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Command:
    func: Callable[[SimpleNamespace | argparse.Namespace], dict]
    help: str
    positional: Arg
    options: tuple[Arg, ...]


_INPUT = Arg("input", default="-", help="angle JSON file ('-' for stdin, the default)")
_PRETTY = Arg("--pretty", default=False, flag=True)
_SEED = Arg("--seed", type=int, default=0)

# every subcommand's arguments, in usage order: build_parser adds these to
# argparse, and _plain_namespace reads a plain argv off them
COMMANDS = {
    "classify": Command(cmd_classify, "classify the direction list", _INPUT, (_PRETTY,)),
    "solve": Command(
        cmd_solve, "solve for the common +1 eigenspace", _INPUT, (_PRETTY,)
    ),
    "construct": Command(
        cmd_construct,
        "build a uniquely-stabilizing pair for a GHZ state",
        Arg("n", type=int, required=True),
        (
            Arg("--unitaries", help="optional JSON file of per-party 2x2 unitaries"),
            _PRETTY,
        ),
    ),
    "certify": Command(
        cmd_certify,
        "simulate the two-setting certification",
        _INPUT,
        (
            _PRETTY,
            Arg("--state", required=True, help="state JSON file"),
            Arg("--shots", type=int, default=10_000),
            _SEED,
            Arg("--threshold", type=float, default=0.999),
            Arg("--a-fraction", type=float, default=0.5),
        ),
    ),
    "verify": Command(
        cmd_verify, "cross-check solver, oracle, identities, and purity", _INPUT,
        (_PRETTY, _SEED),
    ),
}


@functools.cache  # each parse fills a fresh namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for COMMANDS, with an over-long argument that it
    refuses (a typed value, a choice, a subcommand name or unrecognized
    arguments) named by its size (errors.shown) in argparse's own wording.
    argparse is imported here, since a plain argv never needs it."""
    import argparse

    def named(check, action, value):
        """check(action, value), with value's repr in a refusal replaced by
        shown(value)."""
        try:
            return check(action, value)
        except argparse.ArgumentError as exc:
            if shown(value) == repr(value):
                raise
            message = exc.message.replace(repr(value), shown(value), 1)
            raise argparse.ArgumentError(action, message) from None

    class Parser(argparse.ArgumentParser):
        def _get_value(self, action, arg_string):
            return named(super()._get_value, action, arg_string)

        def _check_value(self, action, value):
            return named(super()._check_value, action, value)

        def parse_args(self, args=None, namespace=None):
            args, extra = self.parse_known_args(args, namespace)
            if extra:
                text = " ".join(extra)  # argparse prints these unquoted
                if shown(text) != repr(text):
                    text = shown(text)
                self.error(f"unrecognized arguments: {text}")
            return args

    ap = Parser(
        prog="ghzstab",
        description="Two-observable stabilization of N-qubit GHZ states.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in (command.positional, *command.options):
            kwargs = {"default": arg.default, "help": arg.help}
            if arg.flag:
                kwargs["action"] = "store_true"
            else:
                kwargs["type"] = arg.type
            if arg.name.startswith("-"):
                kwargs["required"] = arg.required
            elif not arg.required:
                kwargs["nargs"] = "?"
            p.add_argument(arg.name, **kwargs)
        p.set_defaults(func=command.func)
    return ap


def _plain_namespace(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives when argv is
    plain, read off COMMANDS; None for any other argv.

    A plain argv is a subcommand; at most its positional value, which is
    '-' or does not start with '-'; then distinct options spelled as in
    COMMANDS, each followed by one value that does not start with '-' (a
    flag by none). Every value converts with its type, and every required
    argument is given. argparse reads such an argv the same way; every
    other argv (abbreviations, --opt=value, '--', -h, repeated options,
    dash-led values, failed conversions) is argparse's to read or refuse."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    rest = argv[1:]
    given = {}  # argument name -> its value's token (True for a flag)
    if rest and (rest[0] == "-" or not rest[0].startswith("-")):
        given[command.positional.name] = rest.pop(0)
    options = {arg.name: arg for arg in command.options}
    while rest:
        arg = options.get(rest.pop(0))
        if arg is None or arg.name in given:
            return None
        if arg.flag:
            given[arg.name] = True
        elif not rest or rest[0].startswith("-"):
            return None
        else:
            given[arg.name] = rest.pop(0)
    values = {"command": argv[0], "func": command.func}
    for arg in (command.positional, *command.options):
        if arg.name in given:
            token = given[arg.name]
            try:
                values[arg.dest] = token if arg.flag else arg.type(token)
            except ValueError:
                return None
        elif arg.required:
            return None
        else:
            values[arg.dest] = arg.default
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_namespace(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except GhzstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(result, args.pretty)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull so the
        # interpreter's final flush stays quiet, and exit 1 as Python does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
