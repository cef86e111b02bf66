import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ghzstab import StateVector
from ghzstab.certify import Ensemble
from ghzstab import cli
from ghzstab.cli import (
    COMMANDS,
    InputError,
    JsonText,
    _emit,
    amplitude_json,
    main,
    parse_state_file,
)
from ghzstab.errors import DomainError
from ghzstab.solve import solve_common_eigenspace
from reference import parse_state_records
from sampling import radians, rationals

EPR_INPUT = {
    "n": 2,
    "angles": [
        {"theta": {"pi_num": 1, "pi_den": 2}, "phi": {"rad": 0.0}},
        {"theta": {"pi_num": 1, "pi_den": 2}, "phi": {"rad": 0.0}},
    ],
}

MISMATCH_INPUT = {
    "n": 2,
    "angles": [
        {"theta": {"pi_num": 1, "pi_den": 2}, "phi": {"rad": 0.0}},
        {"theta": {"pi_num": 1, "pi_den": 3}, "phi": {"rad": 0.0}},
    ],
}


def run_cli(args, tmp_path, capsys, payload=None):
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        args = args + [str(path)]
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse(out):
    return json.loads(out)


REPORT_KEYS = {
    "case", "m_set", "mode", "tol", "warnings", "dimension", "states",
    "residuals", "sector_dims",
}


def validate_solve_schema(doc):
    assert set(doc) == REPORT_KEYS
    assert isinstance(doc["case"], str)
    assert isinstance(doc["m_set"], list)
    assert all(isinstance(s, str) and set(s) <= {"0", "1"} for s in doc["m_set"])
    assert isinstance(doc["dimension"], int)
    assert isinstance(doc["states"], list) and len(doc["states"]) == doc["dimension"]
    for state in doc["states"]:
        for rec in state:
            assert set(rec) == {"index", "label", "re", "im"}
            assert isinstance(rec["index"], int)
    assert isinstance(doc["residuals"], float)
    assert isinstance(doc["sector_dims"], list) and len(doc["sector_dims"]) == 4
    assert isinstance(doc["warnings"], list)


def test_classify_epr(tmp_path, capsys):
    code, out, err = run_cli(["classify"], tmp_path, capsys, EPR_INPUT)
    assert code == 0
    doc = parse(out)
    assert doc["case"] == "UniqueGHZ"
    assert doc["m_set"] == ["01"]
    assert doc["mode"] == "exact"


def test_solve_no_eigenstate(tmp_path, capsys):
    code, out, _ = run_cli(["solve"], tmp_path, capsys, MISMATCH_INPUT)
    assert code == 0
    doc = parse(out)
    assert doc["case"] == "NoCommonEigenstate"
    assert doc["dimension"] == 0
    assert doc["states"] == []
    assert doc["sector_dims"] == [0, 0, 0, 0]
    validate_solve_schema(doc)


def test_solve_epr_states(tmp_path, capsys):
    code, out, _ = run_cli(["solve"], tmp_path, capsys, EPR_INPUT)
    assert code == 0
    doc = parse(out)
    validate_solve_schema(doc)
    assert doc["dimension"] == 1
    recs = {r["index"]: r for r in doc["states"][0]}
    assert set(recs) == {0, 3}
    assert recs[0]["label"] == "00" and recs[3]["label"] == "11"
    amp0 = complex(recs[0]["re"], recs[0]["im"])
    amp3 = complex(recs[3]["re"], recs[3]["im"])
    # equal amplitudes of modulus 1/sqrt(2), up to a global phase
    assert abs(abs(amp0) - 1 / math.sqrt(2)) <= 1e-10
    assert abs(amp0 - amp3) <= 1e-10


def test_solve_json_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(["solve"], tmp_path, capsys, EPR_INPUT)
    doc = parse(out)
    assert json.loads(json.dumps(doc)) == doc


def test_stdin_input(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EPR_INPUT)))
    code = main(["classify"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse(out)["case"] == "UniqueGHZ"


def test_malformed_json_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    # past the decoder's depth json.load raises RecursionError, for every
    # file a command reads and for stdin
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    angles = tmp_path / "angles.json"
    angles.write_text(json.dumps(EPR_INPUT))
    bad, good = str(nested), str(angles)
    for argv, path in (
        (["classify", bad], bad),
        (["solve", bad], bad),
        (["verify", bad], bad),
        (["certify", bad, "--state", good], bad),
        (["certify", good, "--state", bad], bad),
        (["construct", "2", "--unitaries", bad], bad),
        (["classify"], "-"),
        (["certify", good, "--state", "-"], "-"),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(nested.read_text()))
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid JSON in {path}: nested too deeply\n"
        assert not captured.out


def _one_party(theta, **extra):
    return {"n": 1, "angles": [{"theta": theta}], **extra}


def test_schema_violations_exit_2(tmp_path, capsys):
    two_huge = {"theta": {"rad": 1e300}}
    wrong_form = 'expected a JSON object {"n": ..., "angles": [...]}'
    integers = "angles[0].theta: pi_num and pi_den must be integers"
    bounded = "|pi_num| must be at most 4*pi_den"
    bad_inputs = [
        ({"n": 2, "angles": [{"theta": {"rad": 0.0}, "phi": {"rad": 0.0}}]},
         "angles must be a list of length n=2"),
        ({"n": "two", "angles": []}, "n must be a positive integer, got 'two'"),
        ({"n": 1, "angles": [{"theta": {"pi_num": 1, "pi_den": 0}, "phi": {"rad": 0}}]},
         "angles[0].theta: pi_den must be positive, got 0"),
        ({"n": 1, "angles": [{"phi": {"rad": 0.0}}]},
         "angles[0].theta must be an object, got NoneType"),
        ({"n": 1, "angles": [{"theta": {"pi_num": 1.5, "pi_den": 2}}]}, integers),
        (_one_party({"rad": math.nan}), "angles[0].theta.rad must be finite, got nan"),
        (_one_party({"rad": math.inf}), "angles[0].theta.rad must be finite, got inf"),
        (_one_party({"rad": 0.5}, tol=math.inf), "tol must be finite, got inf"),
        (_one_party({"rad": 0.5}, tol=math.nan), "tol must be finite, got nan"),
        (_one_party({"rad": 0.5}, tol=0), "tol must be positive, got 0"),
        (_one_party({"rad": 0.5}, tol=-1e-9), "tol must be positive, got -1e-09"),
        (_one_party({"pi_num": True}), integers),
        (_one_party({"pi_num": 1, "pi_den": True}), integers),
        ({"n": True, "angles": [{"theta": {"pi_num": 1}}]},
         "n must be a positive integer, got True"),
        ({"n": 2, "angles": [two_huge, two_huge]},
         "angles[0].theta: |rad| must be at most 4*pi, got 1e+300"),
        (_one_party({"rad": 4 * math.pi + 1e-6}),
         "angles[0].theta: |rad| must be at most 4*pi, got 12.566371614359172"),
        ({"n": 1, "angles": [{"theta": {"rad": 0.5}, "phi": {"rad": -13.0}}]},
         "angles[0].phi: |rad| must be at most 4*pi, got -13.0"),
        # exact angles are bounded like radian ones: |pi_num| <= 4 * pi_den
        (_one_party({"pi_num": 10**20 + 1}), f"angles[0].theta: {bounded}"),
        (_one_party({"pi_num": 2000000001, "pi_den": 3}),
         f"angles[0].theta: {bounded}"),
        (_one_party({"pi_num": 10**400}), f"angles[0].theta: {bounded}"),
        (_one_party({"pi_num": -9, "pi_den": 2}), f"angles[0].theta: {bounded}"),
        ({"n": 1, "angles": [{"theta": {"pi_num": 1}, "phi": {"pi_num": 5}}]},
         f"angles[0].phi: {bounded}"),
        (_one_party({"deg": 90}), "angles[0].theta needs either pi_num/pi_den or rad"),
        ({"n": 2, "angles": [{"theta": {"rad": 0.5}}, 3]},
         "angles[1] must be an object"),
        # not an object, or an object of another form
        ([EPR_INPUT], wrong_form),
        ({"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}, wrong_form),
        ({"n": 1, "angles": {"0": {"theta": {"rad": 0.5}}}}, wrong_form),
    ]
    # beyond Python's int conversion limit json.load raises ValueError
    too_long = '{"n": 1, "angles": [{"theta": {"pi_num": 1%s}}]}' % ("0" * 5000)
    for command in ("classify", "solve", "verify"):
        for payload, message in bad_inputs:
            code, out, err = run_cli([command], tmp_path, capsys, payload)
            assert code == 2, (command, payload)
            assert err == f"error: {message}\n" and not out, (command, payload)
        code, out, err = run_cli([command], tmp_path, capsys, too_long)
        assert code == 2 and err.startswith("error: invalid JSON in ") and not out


def test_overflowing_integers_are_named_by_size(tmp_path, capsys):
    # an integer beyond the float range gets its digit count, not its digits
    big = "1" + "0" * 400
    for text, message in (
        ('{"n": 1, "angles": [{"theta": {"rad": 0.5}}], "tol": %s}' % big,
         "tol must be finite, got an integer of 401 digits"),
        ('{"n": 1, "angles": [{"theta": {"rad": %s}}]}' % big,
         "angles[0].theta.rad must be finite, got an integer of 401 digits"),
        ('{"n": 1, "angles": [{"theta": {"rad": 0.5}, "phi": {"rad": -%s}}]}' % big,
         "angles[0].phi.rad must be finite, got an integer of 401 digits"),
    ):
        code, out, err = run_cli(["classify"], tmp_path, capsys, text)
        assert code == 2 and err == f"error: {message}\n" and not out, text


def test_out_of_range_integers_are_named_by_size(tmp_path, capsys):
    # an integer past 64 bits is named by its size in every one-line error
    big = "1" + "0" * 400
    epr = json.dumps(EPR_INPUT)
    one = '{"n": 1, "angles": [{"theta": %s}]%s}'
    state = '{"n": 1, "amplitudes": [{"index": 0, "re": 1}]}'
    eye2 = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"
    for argv, files, message in (
        (["classify", "a"], {"a": '{"n": -%s, "angles": []}' % big},
         "n must be a positive integer, got an integer of 401 digits"),
        (["classify", "a"], {"a": '{"n": %s, "angles": []}' % big},
         "angles must be a list of length n=an integer of 401 digits"),
        (["classify", "a"], {"a": one % ('{"pi_num": 1, "pi_den": -%s}' % big, "")},
         "angles[0].theta: pi_den must be positive, got an integer of 401 digits"),
        (["classify", "a"], {"a": one % ('{"rad": 0.5}', ', "tol": -1' + "0" * 300)},
         "tol must be positive, got an integer of 301 digits"),
        (["verify", "a"],
         {"a": one % ('{"pi_num": 1, "pi_den": 1%s}' % ("0" * 30), "")},
         "common theta denominator an integer of 31 digits is too large for the "
         "float oracle (cut 7.9e-31 < 1e-12)"),
        (["certify", "a", "--state", "s"],
         {"a": epr, "s": '{"n": %s, "amplitudes": []}' % big},
         "state n an integer of 401 digits exceeds the cap of 24 parties"),
        (["certify", "a", "--state", "s", "--shots", big],
         {"a": one % ('{"rad": 0.5}', ""), "s": state},
         "shots must be in 1..2^63-1, got an integer of 401 digits"),
        (["certify", "a", "--state", "s", "--seed=-" + big],
         {"a": one % ('{"rad": 0.5}', ""), "s": state},
         "seed must be >= 0, got an integer of 401 digits"),
        (["construct", "2", "--unitaries", "u"],
         {"u": '{"n": %s, "unitaries": []}' % big},
         "unitaries file n an integer of 401 digits != n 2"),
        (["construct", "--unitaries", "u", "--", "-" + big],
         {"u": '{"n": 2, "unitaries": [%s, %s]}' % (eye2, eye2)},
         "unitaries file n 2 != n an integer of 401 digits"),
        (["construct", big], {},
         "an integer of 401 digits parties exceed the dense cap of 12"),
        (["construct", "--", "-" + big], {},
         "need at least 2 parties, got an integer of 401 digits"),
        (["verify", "a", "--seed=-" + big], {"a": epr},
         "--seed must be >= 0, got an integer of 401 digits"),
    ):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert main(argv) == 2, message
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out


def test_long_values_are_named_by_size(tmp_path, capsys):
    # a string, list or dict whose repr would pass 64 characters is named by
    # its type and size in every one-line error; a shorter one keeps its repr
    long, many = json.dumps("x" * 3000), json.dumps(list(range(2000)))
    one = '{"n": 1, "angles": [{"theta": %s}]%s}'
    state = '{"n": 2, "amplitudes": [{"index": 0, "re": %s}]}'
    for argv, files, message in (
        (["classify", "a"], {"a": '{"n": %s, "angles": []}' % long},
         "n must be a positive integer, got a string of 3000 characters"),
        (["classify", "a"], {"a": one % ('{"rad": 0.5}', ', "mode": %s' % long)},
         "mode must be exact or approx, got a string of 3000 characters"),
        (["classify", "a"], {"a": one % ('{"rad": 0.5}', ', "tol": %s' % long)},
         "tol must be a number, got a string of 3000 characters"),
        (["classify", "a"], {"a": one % ('{"rad": %s}' % long, "")},
         "angles[0].theta.rad must be a number, got a string of 3000 characters"),
        (["classify", "a"], {"a": one % ('{"rad": %s}' % many, "")},
         "angles[0].theta.rad must be a number, got a list of 2000 items"),
        (["classify", "a"], {"a": one % ('{"rad": [[%s]]}' % long, "")},
         "angles[0].theta.rad must be a number, got a list of 1 item"),
        (["classify", "a"], {"a": one % ('{"rad": {"k": %s}}' % many, "")},
         "angles[0].theta.rad must be a number, got a dict of 1 item"),
        (["classify", "a"], {"a": one % ('{"rad": [%s]}' % ("1" + "0" * 30), "")},
         "angles[0].theta.rad must be a number, got a list of 1 item"),
        # nested within the decoder's depth, but far past any room for a repr
        (["classify", "a"], {"a": '{"n": %s1%s, "angles": []}' % ("[" * 900, "]" * 900)},
         "n must be a positive integer, got a list of 1 item"),
        (["certify", "a", "--state", "s"], {"a": json.dumps(EPR_INPUT), "s": state % long},
         "amplitudes[0].re must be a number, got a string of 3000 characters"),
        (["construct", "2", "--unitaries", "u"], {"u": '{"n": %s, "unitaries": []}' % many},
         "unitaries file n must be a positive integer, got a list of 2000 items"),
        # up to 64 characters, the repr itself
        (["classify", "a"], {"a": one % ('{"rad": %s}' % json.dumps("x" * 62), "")},
         "angles[0].theta.rad must be a number, got '%s'" % ("x" * 62)),
        (["classify", "a"], {"a": one % ('{"rad": {"k": [1, "y", null]}}', "")},
         "angles[0].theta.rad must be a number, got {'k': [1, 'y', None]}"),
    ):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert main(argv) == 2, message
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out
    # the library's own checks of the same values
    for build, message in (
        (lambda: rationals([(1, 2)]).in_mode("x" * 3000),
         "mode must be exact or approx, got a string of 3000 characters"),
        (lambda: Ensemble((StateVector.ghz(2),), (1.0,), sampling=["c"] * 2000),
         "unknown sampling a list of 2000 items"),
    ):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message


V = object()  # where the refused value goes in an argv


def test_over_long_arguments_are_named_by_size(capsys):
    # argparse quotes a refused argument whole; each typed argument names an
    # over-long one by its size, in argparse's usage and wording otherwise
    long = "x" * 3000
    for argv, value in (
        (["construct", V], "1" + "0" * 5000),
        (["certify", "--state", "s", "--shots", V], long),
        (["certify", "--state", "s", "--seed", V], long),
        (["certify", "--state", "s", "--threshold", V], long),
        (["certify", "--state", "s", "--a-fraction", V], long),
        (["verify", "--seed", V], long),
    ):
        errs = []
        for arg in ("x", value):
            with pytest.raises(SystemExit) as exc:
                main([arg if a is V else a for a in argv])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and not captured.out
            errs.append(captured.err)
        assert errs[0].count("'x'") == 1, errs[0]
        named = f"a string of {len(value)} characters"
        assert errs[1] == errs[0].replace("'x'", named), argv


def test_over_long_commands_and_extra_arguments_are_named_by_size(capsys):
    # argparse quotes a refused subcommand, and lists unrecognized arguments,
    # whole; an over-long one is named by its size, in argparse's usage and
    # wording otherwise. Each short value prints as given ("'x'", "--x")
    long = "x" * 3000
    for argv, short, printed, value in (
        ([V], "x", "'x'", long),
        (["classify", V], "--x", "--x", "--" + long),
        (["solve", "angles.json", V], "--x", "--x", long),
        (["verify", "--seed", "2", V], "--x", "--x", "-" + long),
    ):
        errs = []
        for arg in (short, value):
            with pytest.raises(SystemExit) as exc:
                main([arg if a is V else a for a in argv])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and not captured.out
            errs.append(captured.err)
        assert errs[0].count(printed) == 1, errs[0]
        named = f"a string of {len(value)} characters"
        assert errs[1] == errs[0].replace(printed, named), argv
    # tol and mode come from the angle file alone, and verify's purity audit
    # has fixed sizes: their old options are extra arguments
    for command, flag in (
        ("classify", "--tol"), ("classify", "--mode"),
        ("solve", "--tol"), ("solve", "--mode"),
        ("verify", "--tol"), ("verify", "--trials"), ("verify", "--env-dim"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}=1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and not captured.out
        assert captured.err.endswith(f"error: unrecognized arguments: {flag}=1\n")


def test_missing_file_exits_2(capsys):
    assert main(["classify", "/nonexistent/angles.json"]) == 2


def test_unreadable_paths_exit_2(tmp_path, capsys):
    # each file argument: a directory, or a missing path, exits 2 with one line
    angles = tmp_path / "angles.json"
    angles.write_text(json.dumps(EPR_INPUT))
    missing = tmp_path / "missing.json"
    for path, message in ((tmp_path, "cannot read %s: Is a directory"),
                          (missing, "no such file: %s")):
        for argv in (
            ["classify", str(path)],
            ["certify", str(angles), "--state", str(path)],
            ["construct", "2", "--unitaries", str(path)],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: {message % path}\n", argv
            assert not captured.out


def test_internal_consistency_exits_3(tmp_path, capsys, monkeypatch):
    from ghzstab.errors import InternalConsistencyError

    def boom(*args, **kwargs):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr("ghzstab.cli.solve_common_eigenspace", boom)
    code, _, err = run_cli(["solve"], tmp_path, capsys, EPR_INPUT)
    assert code == 3
    assert "internal consistency" in err


def test_verify_exits_3_when_sector_oracle_disagrees(tmp_path, capsys, monkeypatch):
    # one oracle column dropped from the last sector, or from the (+,+)
    # sector, whose entries are the solver's and the oracle's dimensions:
    # one comparison covers both
    import ghzstab.cli

    oracle = ghzstab.cli.sector_oracle_bases
    for sector in (3, 0):

        def one_column_dropped(d, tol):
            bases = list(oracle(d, tol))
            bases[sector] = bases[sector][:, 1:]
            return tuple(bases)

        monkeypatch.setattr("ghzstab.cli.sector_oracle_bases", one_column_dropped)
        code, out, err = run_cli(["verify"], tmp_path, capsys, EPR_INPUT)
        assert code == 3
        assert not out
        dims = [1, 1, 1, 1]
        dims[sector] = 0
        assert err == (
            "internal consistency error: sector dims [1, 1, 1, 1] != oracle "
            f"sector dims {dims}\n"
        )


# the two lists of ROADMAP item 7, where the flipped list's score ties tol
# in classify but not in the oracle; verify still exits 3 on both
SCORE_TIES = (
    (
        {"n": 1, "angles": [{"theta": {"rad": 2 * math.pi / 3}}], "tol": 0.5},
        [0, 1, 1, 0],
        [0, 0, 0, 0],
    ),
    (
        {
            "n": 4,
            "angles": [
                {"theta": {"pi_num": 10, "pi_den": 5}, "phi": {"pi_num": 7, "pi_den": 2}},
                {"theta": {"rad": 4.1887902047863905}, "phi": {"rad": 5.235987755982989}},
                {"theta": {"pi_num": -4, "pi_den": 1}, "phi": {"pi_num": -1, "pi_den": 2}},
                {"theta": {"rad": 6.806784082777885}, "phi": {"rad": -7.330382858376184}},
            ],
            "tol": 0.7071067811865476,
        },
        [0, 8, 8, 0],
        [1, 8, 8, 1],
    ),
)


@pytest.mark.parametrize("payload, dims, oracle_dims", SCORE_TIES, ids=["n1", "n4"])
def test_score_ties_keep_their_sector_dims(payload, dims, oracle_dims, tmp_path, capsys):
    code, out, err = run_cli(["solve"], tmp_path, capsys, payload)
    assert code == 0, err
    assert parse(out)["sector_dims"] == dims
    code, out, err = run_cli(["verify"], tmp_path, capsys, payload)
    assert code == 3 and not out
    assert err == (
        f"internal consistency error: sector dims {dims} != oracle sector dims "
        f"{oracle_dims}\n"
    )


def test_verify_runs_the_oracle_once(tmp_path, capsys, monkeypatch):
    # one run gives all four sign sectors, and its (+,+) basis is also the
    # solver's cross-check; every module binding the oracle gets the
    # counting wrapper
    from ghzstab.observables import brute_force_eigenspace as oracle

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return oracle(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ghzstab") and getattr(
            module, "brute_force_eigenspace", None
        ) is oracle:
            monkeypatch.setattr(module, "brute_force_eigenspace", counted)
    code, _, err = run_cli(["verify"], tmp_path, capsys, EPR_INPUT)
    assert code == 0, err
    assert len(calls) == 1


def test_verify_solves_once(tmp_path, capsys, monkeypatch):
    # the purity audit reuses the solver's report; every module binding the
    # solver gets the counting wrapper
    from ghzstab.solve import solve_common_eigenspace as solver

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solver(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ghzstab") and getattr(
            module, "solve_common_eigenspace", None
        ) is solver:
            monkeypatch.setattr(module, "solve_common_eigenspace", counted)
    code, _, err = run_cli(["verify"], tmp_path, capsys, EPR_INPUT)
    assert code == 0, err
    assert len(calls) == 1


def test_verify_bounds_only_what_it_draws():
    # canonical_angles(6) has one common eigenstate, so 32769 trials draw
    # 32769 * 1 * 8 coefficients, far below the cap: the bound counts what
    # is drawn, not 2^n amplitudes per trial (2^6 * 8 * 32769 > 2^24)
    from ghzstab.construct import canonical_angles
    from ghzstab.solve import purity_security_check, solve_common_eigenspace

    solved = solve_common_eigenspace(canonical_angles(6))
    assert solved.dimension == 1
    report = purity_security_check(solved, trials=32769)
    assert len(report.entropies) == 32769


def test_verify_draws_a_large_eigenspace_in_batches(tmp_path, capsys):
    # all ten thetas 0: d = 512, so env_dim = 512 and the 20 trials hold
    # 20 * 512 * 512 coefficients, five batches of 2^20; each draw, 2^18
    # coefficients, is read four at a time
    code, out, err = run_cli(
        ["verify"], tmp_path, capsys,
        {"n": 10, "angles": [{"theta": {"rad": 0.0}, "phi": {"rad": 0.0}}] * 10},
    )
    assert code == 0, err
    doc = parse(out)
    assert doc["solver_dimension"] == doc["oracle_dimension"] == 512
    assert doc["purity"]["projector_dim"] == 512


def test_verify_builds_no_dense_operator(tmp_path, capsys, monkeypatch):
    # the oracle works matrix-free: no 2^n x 2^n operator is built anywhere
    # in verify, at every module binding kron_all
    from ghzstab.cli import angle_schema
    from ghzstab.construct import canonical_angles
    from ghzstab.linalg import kron_all
    from ghzstab.solve import sector_oracle_bases

    def refuse(*args, **kwargs):
        raise AssertionError("kron_all called")

    for name, module in list(sys.modules.items()):
        if name.startswith("ghzstab") and getattr(module, "kron_all", None) is kron_all:
            monkeypatch.setattr(module, "kron_all", refuse)
    d = canonical_angles(8)
    # with theta_1 flipped to 7 pi/8, 35 patterns vanish: (+,-) and (-,+)
    assert [b.shape[1] for b in sector_oracle_bases(d)] == [1, 35, 35, 1]
    code, out, err = run_cli(["verify"], tmp_path, capsys, angle_schema(d))
    assert code == 0, err
    assert parse(out)["oracle_dimension"] == 1


def test_production_commands_run_no_oracle(tmp_path, capsys, monkeypatch):
    # classify, solve, construct and certify answer by the theorem: none of
    # them runs the brute-force oracle or builds a dense operator
    from ghzstab.cli import angle_schema
    from ghzstab.construct import GHZSpec, canonical_angles
    from ghzstab.linalg import kron_all
    from ghzstab.observables import brute_force_eigenspace

    # no package module but linalg can build a dense operator at all
    binders = {
        name for name, module in sys.modules.items()
        if name.startswith("ghzstab") and getattr(module, "kron_all", None) is kron_all
    }
    assert binders == {"ghzstab.linalg"}
    for fn in (brute_force_eigenspace, kron_all):
        def refuse(*args, _name=fn.__name__, **kwargs):
            raise AssertionError(f"{_name} called")

        for name, module in list(sys.modules.items()):
            if name.startswith("ghzstab") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, refuse)
    angles = angle_schema(canonical_angles(8))
    for command in ("classify", "solve"):
        code, _, err = run_cli([command], tmp_path, capsys, angles)
        assert code == 0, (command, err)
    code, out, err = run_cli(["construct", "8"], tmp_path, capsys)
    assert code == 0, err
    doc = parse(out)
    mats = GHZSpec.random(8, np.random.default_rng(5)).local_unitaries
    upath = tmp_path / "unitaries.json"
    upath.write_text(json.dumps({
        "n": 8,
        "unitaries": [[[[c.real, c.imag] for c in row] for row in m] for m in mats],
    }))
    code, _, err = run_cli(
        ["construct", "8", "--unitaries", str(upath)], tmp_path, capsys
    )
    assert code == 0, err
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"n": 8, "amplitudes": doc["target_state"]}))
    code, out, err = run_cli(
        ["certify", "--state", str(spath)], tmp_path, capsys, doc["pair"]["a"]
    )
    assert code == 0, err
    assert parse(out)["pass"] is True


def _exact_input(*thetas, **extra):
    angles = [{"theta": dict(zip(("pi_num", "pi_den"), t))} for t in thetas]
    return {"n": len(thetas), "angles": angles, **extra}


def test_verify_oracle_counts_exact_lists_by_the_exact_rule(tmp_path, capsys):
    # classify ignores tol on exact lists; the oracle used to cut with it
    # and reported e.g. "oracle dim 3 != solver dim 1" on the EPR input, or,
    # at a tiny tol, "sector dims [1, 1, 1, 1] != oracle sector dims
    # [1, 0, 0, 1]" on the pi/2, pi/2 list
    pi_halves = _exact_input((1, 2), (1, 2), tol=1e-30)
    # the (+,-) and (-,+) sectors count 2 pi / 3 + pi / 3 - pi / 3 = 0 after
    # the theta_1 flip, which a float flip misses at this tol
    pi_thirds = _exact_input((1, 3), (1, 3), (1, 3), tol=1e-300)
    for payload, dim in (
        (_exact_input((1, 2), (0,), tol=0.9), 0),
        (dict(EPR_INPUT, tol=1), 1),
        (pi_halves, 1),
        (_exact_input((1, 3), (0,), tol=0.6), 0),
        (_exact_input((1, 10**10), (0,)), 0),
        (pi_thirds, 0),
    ):
        code, out, err = run_cli(["verify"], tmp_path, capsys, payload)
        assert code == 0, (payload, err)
        doc = parse(out)
        assert doc["solver_dimension"] == doc["oracle_dimension"] == dim
        if payload is pi_halves:
            assert doc["sector_dims"] == [1, 1, 1, 1]
        if payload is pi_thirds:
            assert doc["sector_dims"] == [0, 1, 1, 0]


def test_verify_rejects_denominators_beyond_the_oracle(tmp_path, capsys):
    # sums 1e-15 pi apart are closer than the float oracle can separate
    payload = _exact_input((1, 10**15), (0,))
    code, out, err = run_cli(["verify"], tmp_path, capsys, payload)
    assert code == 2
    assert not out and str(10**15) in err
    code, _, err = run_cli(["classify"], tmp_path, capsys, payload)
    assert code == 0, err


def test_exact_angle_bound(tmp_path, capsys):
    # out of bound these exited 3 (the float angle lost its value mod 2 pi)
    # or with an OverflowError; at the bound they are accepted
    for command, payload in (
        ("solve", _exact_input((10**20 + 1,), (1,))),
        ("verify", _exact_input((2000000001, 3), (2, 3), (2, 3))),
        ("solve", _exact_input((10**400,))),
    ):
        code, out, err = run_cli([command], tmp_path, capsys, payload)
        assert code == 2, (command, err)
        assert "pi_num" in err and not out
    code, out, _ = run_cli(["solve"], tmp_path, capsys, _exact_input((4,), (-8, 2)))
    assert code == 0
    assert parse(out)["dimension"] == 2  # both thetas are multiples of 2 pi


def test_user_tol_admits_near_resonant_states(tmp_path, capsys):
    # patterns scoring |sin(S/2)| = 5e-7 are members at tol 1e-6; their
    # states miss stabilization by 1e-6, which the limit must allow
    payload = {
        "n": 2,
        "angles": [{"theta": {"rad": math.pi}}, {"theta": {"rad": math.pi + 1e-6}}],
        "tol": 1e-6,
    }
    code, out, _ = run_cli(["solve"], tmp_path, capsys, payload)
    assert code == 0
    doc = parse(out)
    validate_solve_schema(doc)
    assert doc["dimension"] == 2
    assert doc["m_set"] == ["00", "01"]
    code, out, _ = run_cli(["verify"], tmp_path, capsys, payload)
    assert code == 0
    doc = parse(out)
    assert doc["solver_dimension"] == doc["oracle_dimension"] == 2


def test_verify_honours_the_file_mode(tmp_path, capsys):
    # approx: pi/10^8 scores 1.6e-8 <= tol, so both patterns vanish for
    # solve and verify alike (verify ignored the mode and found none)
    approx = {
        "n": 2,
        "angles": [{"theta": {"pi_num": 1, "pi_den": 100000000}},
                   {"theta": {"pi_num": 0}}],
        "tol": 1e-6,
        "mode": "approx",
    }
    code, out, err = run_cli(["solve"], tmp_path, capsys, approx)
    assert code == 0, err
    assert parse(out)["case"] == "Degenerate" and parse(out)["dimension"] == 2
    code, out, err = run_cli(["verify"], tmp_path, capsys, approx)
    assert code == 0, err
    doc = parse(out)
    assert doc["case"] == "Degenerate"
    assert doc["solver_dimension"] == doc["oracle_dimension"] == 2
    # exact mode with radian thetas is rejected by every angle command
    exact = _radians_input(0.3, 0.3, mode="exact")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}))
    for command in (["classify"], ["solve"], ["verify"],
                    ["certify", "--state", str(state)]):
        code, out, err = run_cli(command, tmp_path, capsys, exact)
        assert code == 2, command
        assert "exact mode" in err and not out


def _radians_input(*thetas, **extra):
    angles = [{"theta": {"rad": t}} for t in thetas]
    return {"n": len(thetas), "angles": angles, **extra}


def test_verify_oracle_counts_with_classify_rule(tmp_path, capsys):
    # scores just above tol: the relative singular-value cut admitted them
    # (oracle dim 2 != solver dim 0, and 2 != 1), the classify rule does not
    for payload, dim in (
        (_radians_input(math.pi, math.pi + 2.4e-9), 0),
        (_radians_input(0.3, 1.1, 2.0, tol=0.5), 1),
    ):
        code, out, err = run_cli(["verify"], tmp_path, capsys, payload)
        assert code == 0, err
        doc = parse(out)
        assert doc["solver_dimension"] == doc["oracle_dimension"] == dim


def test_verify_accepts_tol_of_one_and_above(tmp_path, capsys):
    # at tol >= 1 every pattern counts in every sector; the oracle's cut once
    # sat at the largest singular value, where float noise dropped a block
    # and verify exited 3 with oracle sector dims [2, 2, 1, 2]
    angles = [
        {"theta": {"rad": 5.799863360473465}, "phi": {"rad": 1.7055807331938575}},
        {"theta": {"rad": 0.483321946706122}, "phi": {"rad": 5.527011327741266}},
    ]
    for tol in (1.0, 5.0):
        code, out, err = run_cli(
            ["verify"], tmp_path, capsys,
            {"n": 2, "angles": angles, "tol": tol},
        )
        assert code == 0, (tol, err)
        doc = parse(out)
        assert doc["solver_dimension"] == doc["oracle_dimension"] == 2
        assert doc["sector_dims"] == [2, 2, 2, 2]


TINY_TOL_INPUT = {
    "n": 2,
    "angles": [
        {"theta": {"rad": 0.0}, "phi": {"rad": math.pi}},
        {"theta": {"rad": math.pi}},
    ],
}
BOUND_MESSAGE = "the float error of this list's signed sums"


def test_verify_refuses_a_tol_below_float_resolution(tmp_path, capsys):
    # below the signed sums' float error the oracle's singular values are
    # noise: this list exited 3 with "sector dims [0, 1, 1, 0] != oracle
    # sector dims [0, 0, 0, 0]" at tol 1e-300 and 1e-20, and with oracle
    # sector dims [0, 2, 2, 0] at 1e-16
    for tol in (1e-300, 1e-20, 1e-16):
        code, out, err = run_cli(
            ["verify"], tmp_path, capsys,
            dict(TINY_TOL_INPUT, tol=tol),
        )
        assert code == 2, (tol, err)
        assert not out
        assert err == f"error: tol {tol!r} is below 1.7e-13, {BOUND_MESSAGE}\n"
    code, out, err = run_cli(
        ["verify"], tmp_path, capsys, dict(TINY_TOL_INPUT, tol=1e-12)
    )
    assert code == 0, err
    assert parse(out)["sector_dims"] == [0, 2, 2, 0]
    # an exact list is decided without tol, so no tol is too small for it
    code, out, err = run_cli(
        ["verify"], tmp_path, capsys,
        _exact_input((0,), (1,), tol=1e-300),
    )
    assert code == 0, err


EDGE_RADIANS = st.integers(-24, 24).map(lambda k: k * math.pi / 6)


@st.composite
def edge_radian_files(draw):
    """Radian lists of multiples of pi/6 up to 4 pi, and a tol from far
    below the signed sums' float error to well above it."""
    n = draw(st.integers(1, 5))
    angles = [
        {"theta": {"rad": draw(EDGE_RADIANS)}, "phi": {"rad": draw(EDGE_RADIANS)}}
        for _ in range(n)
    ]
    tol = draw(st.sampled_from(
        [1e-300, 1e-20, 1e-16, 1e-15, 1e-13, 1e-12, 1e-9, 1e-6]
    ))
    return {"n": n, "angles": angles, "tol": tol}


@settings(max_examples=100, deadline=None)
@given(edge_radian_files())
def test_verify_never_exits_3_on_edge_radian_lists(payload):
    # sums of multiples of pi/6 land on 2 pi Z up to float noise, which is
    # where the solver and the oracle disagreed below float resolution
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify"])
    assert code in (0, 2), (payload, err.getvalue())
    if code == 2:
        assert not out.getvalue()
        assert err.getvalue().startswith(f"error: tol {payload['tol']!r} is below ")
        assert err.getvalue().endswith(f", {BOUND_MESSAGE}\n"), err.getvalue()


def test_construct_identity(tmp_path, capsys):
    code, out, _ = run_cli(["construct", "2"], tmp_path, capsys)
    assert code == 0
    doc = parse(out)
    assert doc["case"] == "UniqueGHZ"
    assert set(doc["pair"]) == {"a", "b"}
    assert doc["pair"]["a"]["n"] == 2 and len(doc["pair"]["a"]["angles"]) == 2
    recs = {r["index"]: complex(r["re"], r["im"]) for r in doc["target_state"]}
    assert set(recs) == {0, 3}
    assert abs(recs[0] - 1 / math.sqrt(2)) <= 1e-9
    assert doc["residuals"] <= 1e-9


def test_construct_pair_angles_reproduce_observables(tmp_path, capsys):
    # the emitted angle schemas rebuild the same local observables
    from ghzstab.cli import parse_angle_file
    from ghzstab.construct import GHZSpec, stabilizing_pair_for
    from ghzstab.linalg import kron_all
    from ghzstab.observables import product_observable

    code, out, _ = run_cli(["construct", "3"], tmp_path, capsys)
    doc = parse(out)
    pair = stabilizing_pair_for(GHZSpec.identity(3))
    for key, obs in (("a", pair.a), ("b", pair.b)):
        d, _ = parse_angle_file(doc["pair"][key])
        rebuilt = product_observable(d)
        assert np.max(np.abs(kron_all(rebuilt.mats) - kron_all(obs.mats))) <= 1e-9


def test_construct_pair_radians_are_the_scalar_read_out(tmp_path, capsys, rng):
    # the vectorized Bloch read-out writes the bits of the party-by-party
    # one: identity specs, Haar unitaries, and unitaries D_l H (D_l
    # diagonal), which make pair.b diagonal: its factors sit at the poles,
    # theta 0 or pi, and phi is written as 0.0
    from ghzstab.construct import GHZSpec, stabilizing_pair_for
    from reference import HADAMARD, scalar_bloch_schema

    for n in range(2, 11):
        phases = np.exp(1j * rng.uniform(-4, 4, (n, 2)))
        diagonal = phases[:, :, None] * HADAMARD
        for spec in (GHZSpec.identity(n), GHZSpec.random(n, rng), GHZSpec(n, diagonal)):
            pair = stabilizing_pair_for(spec)
            upath = tmp_path / "unitaries.json"
            u = spec.local_unitaries
            upath.write_text(json.dumps(
                {"n": n, "unitaries": np.stack([u.real, u.imag], axis=-1).tolist()}
            ))
            code, out, _ = run_cli(
                ["construct", str(n), "--unitaries", str(upath)], tmp_path, capsys
            )
            doc = parse(out)
            for key, obs in (("a", pair.a), ("b", pair.b)):
                want = json.dumps(scalar_bloch_schema(obs), sort_keys=True)
                # json writes each float's repr, which tells -0.0 from 0.0
                assert json.dumps(doc["pair"][key], sort_keys=True) == want, (n, key)
            if spec.local_unitaries is diagonal:
                for rec in doc["pair"]["b"]["angles"]:
                    assert min(rec["theta"]["rad"], math.pi - rec["theta"]["rad"]) <= 1e-14
                    assert repr(rec["phi"]["rad"]) == "0.0", rec
            # a Haar target's records render as json.dumps writes them
            text = out[out.index('"target_state": ') + len('"target_state": '):]
            records = doc["target_state"]
            assert text.startswith(json.dumps(records) + ", "), n


def test_construct_with_unitaries(tmp_path, capsys):
    h = 1 / math.sqrt(2)
    unitaries = {
        "n": 2,
        "unitaries": [
            [[[h, 0], [h, 0]], [[h, 0], [-h, 0]]],
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        ],
    }
    upath = tmp_path / "unitaries.json"
    upath.write_text(json.dumps(unitaries))
    code = main(["construct", "2", "--unitaries", str(upath)])
    assert code == 0


def test_construct_checks_the_unitaries_count_first(tmp_path, capsys):
    eye2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    for n, data, message in (
        ("2", {"n": 2, "unitaries": [eye2]}, "unitaries count 1 != n 2"),
        # every file form gives its "n"
        ("2", {"unitaries": [eye2]},
         "unitaries file n must be a positive integer, got None"),
        ("3", {"n": 5, "unitaries": [eye2] * 3}, "unitaries file n 5 != n 3"),
        ("2", {"n": 5, "unitaries": [eye2] * 3}, "unitaries file n 5 != n 2"),
        # True == 1, so a bool n matched construct 1
        ("1", {"n": True, "unitaries": [eye2]},
         "unitaries file n must be a positive integer, got True"),
        # not an object, or an object of another form
        ("2", [eye2, eye2], 'expected a JSON object {"n": ..., "unitaries": [...]}'),
        ("2", EPR_INPUT, 'expected a JSON object {"n": ..., "unitaries": [...]}'),
    ):
        upath = tmp_path / "unitaries.json"
        upath.write_text(json.dumps(data))
        assert main(["construct", n, "--unitaries", str(upath)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out


def test_construct_unitaries_errors_are_exact(tmp_path, capsys):
    # each entry is exactly an [re, im] pair of finite numbers, bools excluded
    eye2 = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"
    bad_entries = (
        ("[[[true, 0], [0, 0]], [[0, 0], [1, 0]]]",
         "unitaries[0][0][0].re must be a number, got True"),
        ("[[[1, 0], [0, false]], [[0, 0], [1, 0]]]",
         "unitaries[0][0][1].im must be a number, got False"),
        ("[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]",
         "unitaries[0][0][0].re must be finite, got nan"),
        ("[[[1, 0], [0, 0]], [[0, Infinity], [1, 0]]]",
         "unitaries[0][1][0].im must be finite, got inf"),
        ("[[[1, 0], [0, 0]], [[0, 0], [-Infinity, 0]]]",
         "unitaries[0][1][1].re must be finite, got -inf"),
        ("[[[1, 0], [0, -1%s]], [[0, 0], [1, 0]]]" % ("0" * 400),
         "unitaries[0][0][1].im must be finite, got an integer of 401 digits"),
        # finite, but the unitarity product would overflow
        ("[[[1e200, 0], [1e200, 0]], [[1e200, 0], [-1e200, 0]]]",
         "matrix is not unitary (entry of modulus 1.000e+200)"),
        ('[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]',
         "unitaries[0][0][0].re must be a number, got '1'"),
        ('[[{"re": 1}, [0, 0]], [[0, 0], [1, 0]]]',
         "unitaries[0] must be a 2x2 matrix of [re, im] pairs"),
        ("[[[1, 0, 5], [0, 0]], [[0, 0], [1, 0]]]",
         "unitaries[0] must be a 2x2 matrix of [re, im] pairs"),
        # every entry of modulus at most 1, but not unitary
        ("[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]",
         "matrix is not unitary (defect 1.000e+00)"),
    )
    rows = [("2", first, message) for first, message in bad_entries] + [
        # the file's n is an integer, as a state file's is: 2.0 was accepted
        ("2.0", eye2, "unitaries file n must be a positive integer, got 2.0"),
        ("true", eye2, "unitaries file n must be a positive integer, got True"),
        # not worded as an inequality, as if the values differed
        ('"2"', eye2, "unitaries file n must be a positive integer, got '2'"),
        ("null", eye2, "unitaries file n must be a positive integer, got None"),
    ]
    for n, first, message in rows:
        upath = tmp_path / "unitaries.json"
        upath.write_text(f'{{"n": {n}, "unitaries": [{first}, {eye2}]}}')
        assert main(["construct", "2", "--unitaries", str(upath)]) == 2, first
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out


def per_entry(amps):
    """The amplitude records of one state, built entry by entry."""
    n = amps.size.bit_length() - 1
    return [
        {
            "index": int(idx),
            "label": format(int(idx), f"0{n}b"),
            "re": float(amps[idx].real),
            "im": float(amps[idx].imag),
        }
        for idx in np.nonzero(np.abs(amps) > 1e-12)[0]
    ]


def test_amplitude_json_matches_per_entry_records(rng):
    one_hot = np.zeros(8, dtype=np.complex128)
    one_hot[5] = -1j
    dense = rng.normal(size=64) + 1j * rng.normal(size=64)
    dense[::3] = 0.0
    dense[1] = -0.0 + 0.5j
    for amps in (
        np.array([1.0, 0.0], dtype=np.complex128),
        np.array([0.0, -0.0 - 1j], dtype=np.complex128),
        one_hot,
        dense,
    ):
        # the text carries the signed zeros
        text = "".join(amplitude_json(amps))
        assert text == json.dumps(per_entry(amps), sort_keys=True)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def split_documents(draw):
    """A dict of JSON values, and the same dict with some values replaced by
    JsonText pieces that join to their json.dumps text, empty pieces among
    them."""
    obj = draw(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=5))
    spliced = {}
    for key, value in obj.items():
        if draw(st.booleans()):
            text = json.dumps(value, sort_keys=True)
            cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=6)))
            bounds = [0] + cuts + [len(text)]
            value = JsonText(iter([text[a:b] for a, b in zip(bounds, bounds[1:])]))
        spliced[key] = value
    return obj, spliced, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(split_documents())
def test_emit_writes_json_dumps_piece_by_piece(case):
    obj, spliced, pretty = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(spliced, pretty)
    if pretty:
        assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        assert out.getvalue() == json.dumps(obj, sort_keys=True) + "\n"


@st.composite
def amplitude_bases(draw):
    """(2^n, k) bases whose parts include signed zeros and moduli just below
    and just above the 1e-12 cut, with columns repeated and negated, so that
    records repeat across columns."""
    n = draw(st.integers(1, 5))
    cut = [0.0, -0.0, 9.99999e-13, 1e-12, -1e-12, 1.0000001e-12, 0.5, -0.5]
    part = st.sampled_from(cut) | st.floats(-2.0, 2.0)
    column = st.lists(part, min_size=2 << n, max_size=2 << n)  # re, im pairs
    columns = draw(st.lists(column, max_size=4))
    for _ in range(draw(st.integers(0, 3)) if columns else 0):
        picked = columns[draw(st.integers(0, len(columns) - 1))]
        columns.append([-x for x in picked] if draw(st.booleans()) else picked)
    parts = np.array(columns, dtype=np.float64).reshape(len(columns), 1 << n, 2)
    # part by part: re + 1j * im would turn -0.0 into 0.0
    return np.ascontiguousarray(parts.transpose(1, 0, 2)).view(np.complex128)[..., 0]


@settings(max_examples=200, deadline=None)
@given(amplitude_bases())
def test_amplitude_json_matches_per_entry_records_on_bases(basis):
    expected = [per_entry(basis[:, k]) for k in range(basis.shape[1])]
    assert "".join(amplitude_json(basis)) == json.dumps(expected, sort_keys=True)


def _zero_theta_basis(n, q, exact):
    """The solver's basis for n thetas 0 and every phi q pi / 2: every
    pattern vanishes, and each part is +-c or a signed zero."""
    if exact:
        d = rationals([(0, 1)] * n, [(q, 2)] * n)
    else:
        d = radians([0.0] * n, [q * math.pi / 2] * n)
    return solve_common_eigenspace(d).basis


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "radian"])
@pytest.mark.parametrize("q", range(4))
def test_amplitude_json_matches_per_entry_records_on_solver_bases(q, exact):
    # a column's records are column 0's up to sign, but where a part is
    # zero its sign bit need not flip with the other part's: negating
    # column 0's record would print -0.0 for some 0.0
    for n in range(1, 10):
        basis = _zero_theta_basis(n, q, exact)
        expected = [per_entry(basis[:, k]) for k in range(basis.shape[1])]
        assert "".join(amplitude_json(basis)) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize(
    "block", [1 << 18, 16, 1], ids=["one-block", "4-columns", "1-column"]
)
def test_amplitude_json_formats_entries_off_column_0_on_their_own(block, monkeypatch):
    # column 2 shares no magnitude with column 0, and column 3 has an entry
    # where column 0 is zero; in small blocks the table and its ranks carry
    # over from block to block
    monkeypatch.setattr("ghzstab.cli.BLOCK_ENTRIES", block)
    basis = _zero_theta_basis(4, 1, True)[:, :6].copy()
    basis[:, 2] *= np.exp(0.3j)
    basis[1, 3] = -0.0 + 0.25j
    basis[0, 4] = -basis[0, 4].conjugate()
    expected = [per_entry(basis[:, k]) for k in range(basis.shape[1])]
    assert "".join(amplitude_json(basis)) == json.dumps(expected, sort_keys=True)
    for q in range(4):
        basis = _zero_theta_basis(5, q, False)
        expected = [per_entry(basis[:, k]) for k in range(basis.shape[1])]
        assert "".join(amplitude_json(basis)) == json.dumps(expected, sort_keys=True)


def test_amplitude_json_of_a_basis_with_no_columns():
    for n in (1, 3):
        assert "".join(amplitude_json(np.zeros((1 << n, 0), dtype=np.complex128))) == "[]"


def test_construct_rejects_parties_above_dense_cap(capsys):
    # rejected before the 2^n target state is built
    for n in ("13", "14", "15", "64", str(10**12)):
        assert main(["construct", n]) == 2, n
        captured = capsys.readouterr()
        assert "error" in captured.err and not captured.out


def test_construct_rejects_nonunitary(tmp_path, capsys):
    eye2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    for first in (
        [[[2, 0], [0, 0]], [[0, 0], [2, 0]]],  # 2x2, not unitary
        [[[1 if r == c else 0, 0] for c in range(3)] for r in range(3)],  # 3x3
        [[[1, 0], [0, 0]]],  # 1x2
        [[[1 if r == c else 0, 0] for c in range(4)] for r in range(4)],  # 4x4
    ):
        upath = tmp_path / "unitaries.json"
        upath.write_text(json.dumps({"n": 2, "unitaries": [first, eye2]}))
        assert main(["construct", "2", "--unitaries", str(upath)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out


def test_certify_epr(tmp_path, capsys):
    state = {
        "n": 2,
        "amplitudes": [
            {"index": 0, "re": 1 / math.sqrt(2)},
            {"index": 3, "re": 1 / math.sqrt(2)},
        ],
    }
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    code = main(
        ["certify", str(ipath), "--state", str(spath), "--shots", "2000",
         "--seed", "7"]
    )
    out = capsys.readouterr().out
    doc = parse(out)
    assert code == 0
    assert doc["mean_a"] == 1.0 and doc["mean_b"] == 1.0
    assert doc["pass"] is True
    assert doc["count_a"] + doc["count_b"] == 2000


def test_certify_passes_on_the_solved_state_of_constructs_angles(tmp_path, capsys):
    # certify's second setting is Z^N, so it certifies construct's target in
    # the frame of the canonical angles: the solver's state for those angles
    for n in (3, 4, 5, 6):
        code, out, _ = run_cli(["construct", str(n)], tmp_path, capsys)
        assert code == 0
        apath = tmp_path / "angles.json"
        apath.write_text(json.dumps(parse(out)["canonical_angles"]))
        code, out, _ = run_cli(["solve", str(apath)], tmp_path, capsys)
        assert code == 0
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps({"n": n, "amplitudes": parse(out)["states"][0]}))
        code, out, _ = run_cli(
            ["certify", str(apath), "--state", str(spath)], tmp_path, capsys
        )
        doc = parse(out)
        assert code == 0 and doc["pass"] is True, n
        assert doc["mean_a"] == doc["mean_b"] == 1.0, n


BAD_STATE_FILES = (
    # (state file text, the exact stderr line after "error: ")
    ('{"n": 2, "amplitudes": [{"index": 1.0, "re": 1.0}]}',
     "amplitudes[0].index out of range"),
    ('{"n": 2, "amplitudes": [{"index": 0, "re": false}]}',
     "amplitudes[0].re must be a number, got False"),
    ('{"n": 2, "amplitudes": [{"index": 0, "re": 1' + "0" * 400 + "}]}",
     "amplitudes[0].re must be finite, got an integer of 401 digits"),
    ('{"n": 2, "amplitudes": [{"index": 0, "re": NaN}]}',
     "amplitudes[0].re must be finite, got nan"),
    ('{"n": 2, "amplitudes": [{"index": 0, "im": Infinity}]}',
     "amplitudes[0].im must be finite, got inf"),
    ('{"n": 2, "amplitudes": [{"index": 0, "re": 1.0}, {"index": -1, "re": 1.0}]}',
     "amplitudes[1].index out of range"),
    ('{"n": 2, "amplitudes": [{"index": 4, "re": 1.0}]}',
     "amplitudes[0].index out of range"),
    ('{"n": 2, "amplitudes": [{"index": 0, "re": 1.0}, [3, 1.0]]}',
     "amplitudes[1] must be an object with index"),
    ('{"n": 2, "amplitudes": [{"index": 0, "re": 1.0}, {"re": 1.0}]}',
     "amplitudes[1] must be an object with index"),
    # several faults: the first bad record names the error, and within a
    # record the index is checked before re, and re before im
    ('{"n": 2, "amplitudes": [{"index": 0, "im": "x"}, 7]}',
     "amplitudes[0].im must be a number, got 'x'"),
    ('{"n": 2, "amplitudes": [{"index": 1, "re": 1.0}, '
     '{"index": 2, "re": true, "im": NaN}, {"index": 9}, {"index": 1}]}',
     "amplitudes[1].re must be a number, got True"),
    ('{"n": 2, "amplitudes": []}', "state amplitudes must be a non-empty list"),
    ('{"n": 0, "amplitudes": [{"index": 0, "re": 1.0}]}',
     "state n must be a positive integer, got 0"),
    ('{"n": 2.0, "amplitudes": [{"index": 0, "re": 1.0}]}',
     "state n must be a positive integer, got 2.0"),
    # not an object, or an object of another form
    ('[{"index": 0, "re": 1.0}]',
     'expected a JSON object {"n": ..., "amplitudes": [...]}'),
    (json.dumps(EPR_INPUT), 'expected a JSON object {"n": ..., "amplitudes": [...]}'),
)


def assert_state_files_rejected(tmp_path, capsys, cases):
    """Each state file exits 2 with exactly its stderr line and no stdout."""
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    spath = tmp_path / "state.json"
    for text, message in cases:
        spath.write_text(text)
        assert main(["certify", str(ipath), "--state", str(spath)]) == 2, text
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out, text


def test_certify_rejects_bad_amplitudes(tmp_path, capsys):
    assert_state_files_rejected(tmp_path, capsys, (
        ('{"n": 2, "amplitudes": [{"index": 0, "re": [1]}]}',
         "amplitudes[0].re must be a number, got [1]"),
        ('{"n": 2, "amplitudes": [{"index": true, "re": 1.0}]}',
         "amplitudes[0].index out of range"),
        ('{"n": 2, "amplitudes": [{"index": 0, "im": "nan"}]}',
         "amplitudes[0].im must be a number, got 'nan'"),
        # above the party cap: rejected before 2^n amplitudes are allocated
        ('{"n": 64, "amplitudes": [{"index": 0, "re": 1.0}]}',
         "state n 64 exceeds the cap of 24 parties"),
    ))


def test_certify_rejects_a_repeated_index(tmp_path, capsys):
    # a later record overwrote an earlier one: this certified |11> and exited 0
    assert_state_files_rejected(tmp_path, capsys, (
        ('{"n": 2, "amplitudes": [{"index": 0, "re": 0.7}, {"index": 3, "re": 0.7}, '
         '{"index": 0, "re": 0.0}]}',
         "amplitudes[2] repeats index 0"),
    ))


def test_certify_state_file_errors_are_exact(tmp_path, capsys):
    assert_state_files_rejected(tmp_path, capsys, BAD_STATE_FILES)


# int and float parts, with -0.0, subnormals and parts near the float limit
STATE_PARTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
         -1.7976931348623157e308, 2**1023, -(2**1023)]
    ),
)


# one bad value of a field: of the wrong type, or beyond the float range
BAD_FIELDS = [True, False, None, "1", [], [1.0], {}, {"re": 1.0}, 10**400,
              math.nan, math.inf, -math.inf]


@st.composite
def state_files(draw):
    """State files: a sparse subset of the indices in shuffled order, each
    record with or without its re and im keys. Some draws carry one bad
    field, index or record, and are returned with bad=True."""
    n = draw(st.integers(1, 6))
    indices = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, unique=True))
    records = []
    for index in indices:
        rec = {"index": index}
        for key in draw(st.sets(st.sampled_from(["re", "im"]))):
            rec[key] = draw(STATE_PARTS)
        records.append(rec)
    flaw = draw(st.sampled_from(
        [None, "re", "im", "index", "negative", "range", "repeat", "record", "no index"]
    ))
    k = draw(st.integers(0, len(records) - 1))
    if flaw in ("re", "im", "index"):
        records[k][flaw] = draw(st.sampled_from(BAD_FIELDS))
    elif flaw in ("negative", "range"):
        records[k]["index"] = -1 if flaw == "negative" else draw(
            st.sampled_from([1 << n, 1 << 63, 1 << 64])
        )
    elif flaw == "repeat":
        records.insert(draw(st.integers(0, len(records))), {"index": indices[k]})
    elif flaw == "record":
        records[k] = draw(st.sampled_from([None, 0, 1.5, "x", [], [indices[k], 1.0]]))
    elif flaw == "no index":
        del records[k]["index"]
    # through the JSON text, as a state file reaches the parser
    return json.loads(json.dumps({"n": n, "amplitudes": records})), flaw is not None


@settings(max_examples=400, deadline=None)
@given(state_files())
def test_bulk_state_parser_matches_per_record_reference(drawn):
    data, bad = drawn
    if bad:
        # the record check words the error; the bulk check never rejects a
        # file that the record check passes
        with pytest.raises(InputError):
            parse_state_file(data)
        return
    parts = [rec.get(k, 0) for rec in data["amplitudes"] for k in ("re", "im")]
    assume(any(parts))
    got = parse_state_file(data).amplitudes.view(np.float64)
    want = parse_state_records(data).view(np.float64)
    # bit for bit: equality on floats would let -0.0 stand for 0.0
    assert got.tobytes() == want.tobytes()


def test_certify_rejects_stdin_for_both_inputs(monkeypatch, capsys):
    # the angle file consumed stdin, and the state file then read it empty
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(EPR_INPUT)))
    assert main(["certify", "-", "--state", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: only one of the angle file and --state can be '-' (stdin)\n"
    )
    assert not captured.out and sys.stdin.read() == json.dumps(EPR_INPUT)


def test_certify_rejects_shots_outside_int64(tmp_path, capsys):
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}))
    for shots in ("0", str(2**63), str(10**20)):
        code = main(["certify", str(ipath), "--state", str(spath), "--shots", shots])
        assert code == 2, shots
        captured = capsys.readouterr()
        assert "shots" in captured.err and not captured.out


def test_certify_shot_count_is_not_allocated(tmp_path, capsys):
    # counts are binomial draws, so 10^12 shots cost no more than 10^3
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}))
    shots = 10**12
    code = main(["certify", str(ipath), "--state", str(spath), "--shots", str(shots)])
    doc = parse(capsys.readouterr().out)
    assert code == 0
    assert doc["count_a"] + doc["count_b"] == doc["shots"] == shots
    assert doc["mean_b"] == 1.0 and abs(doc["mean_a"]) <= 1e-4


def test_certify_echoes_its_flags(tmp_path, capsys):
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}))
    code = main(["certify", str(ipath), "--state", str(spath),
                 "--threshold", "0.5", "--seed", "3", "--shots", "7"])
    assert code == 0
    doc = parse(capsys.readouterr().out)
    assert (doc["threshold"], doc["seed"], doc["shots"]) == (0.5, 3, 7)
    assert type(doc["seed"]) is type(doc["shots"]) is int


def test_certify_seed_determinism(tmp_path, capsys):
    state = {"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps(state))
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    args = ["certify", str(ipath), "--state", str(spath), "--shots", "500",
            "--seed", "99"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_negative_seed_exits_two(tmp_path, capsys):
    # the seed reached np.random.default_rng, whose ValueError escaped main
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}))
    for args in (
        ["certify", str(ipath), "--state", str(spath), "--seed", "-1"],
        ["verify", str(ipath), "--seed", "-1"],
    ):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert "seed must be >= 0, got -1" in captured.err and not captured.out


def test_state_file_norm_neither_overflows_nor_underflows(tmp_path, capsys):
    # 1e308 overflowed the norm to inf and certified the zero vector; 1e-200
    # underflowed it and exited 2 as "zero norm"
    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    spath = tmp_path / "state.json"
    for amp in (1e308, -1.5e308, 1e-200, 5e-324):
        spath.write_text(json.dumps({"n": 2, "amplitudes": [
            {"index": 0, "re": amp, "im": amp}, {"index": 3, "re": amp, "im": amp},
        ]}))
        assert main(["certify", str(ipath), "--state", str(spath)]) == 0, amp
        doc = parse(capsys.readouterr().out)
        assert doc["mean_a"] == doc["mean_b"] == 1.0 and doc["pass"] is True, amp
    spath.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 1, "re": 0.0}]}))
    assert main(["certify", str(ipath), "--state", str(spath)]) == 2
    assert "zero norm" in capsys.readouterr().err


def test_certify_prints_strict_json(tmp_path, capsys):
    # a mean over no rounds and a stderr over fewer than two are undefined;
    # they printed as NaN, which is not JSON, and now print as null
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    ipath = tmp_path / "angles.json"
    ipath.write_text(json.dumps(EPR_INPUT))
    spath = tmp_path / "state.json"
    spath.write_text(json.dumps({"n": 2, "amplitudes": [{"index": 0, "re": 1.0}]}))
    seen = set()
    for shots in (1, 2, 3):
        for seed in range(8):
            assert main(["certify", str(ipath), "--state", str(spath),
                         "--shots", str(shots), "--seed", str(seed)]) == 0
            doc = json.loads(capsys.readouterr().out, parse_constant=reject)
            for s in ("a", "b"):
                count = doc[f"count_{s}"]
                assert (doc[f"mean_{s}"] is None) == (count == 0)
                assert (doc[f"stderr_{s}"] is None) == (count < 2)
                seen.add(count)
    assert {0, 1, 2} <= seen


def test_verify_epr(tmp_path, capsys):
    code, out, _ = run_cli(["verify"], tmp_path, capsys, EPR_INPUT)
    assert code == 0
    doc = parse(out)
    assert doc["solver_dimension"] == doc["oracle_dimension"] == 1
    assert doc["subspace_distance"] <= 1e-7
    assert doc["sector_dims"] == [1, 1, 1, 1]
    assert doc["identity_residuals"]["odd"] <= 1e-10
    assert doc["character_sum_deviation"] == 0.0
    assert doc["purity"]["max_entropy"] <= 1e-8


def test_verify_reports_a_unique_state_entropy_as_zero(tmp_path, capsys):
    # every purification of a one-dimensional projector is a product state:
    # each draw's one Schmidt weight is exactly 1, so its entropy is 0.0 (not
    # -0.0, nor the 6.4e-16 that a weight of 1 - 4.4e-16 gave) and its
    # fidelity 1.0
    code, out, _ = run_cli(["verify"], tmp_path, capsys, EPR_INPUT)
    assert code == 0
    assert '"max_entropy": 0.0,' in out and "-0.0" not in out
    assert parse(out)["purity"]["reduced_state_fidelity"] == 1.0


def test_verify_takes_no_svd(tmp_path, capsys, monkeypatch):
    # the purity audit reads Gram eigenvalues, subspace_distance the top
    # eigenvalue of the residual's Gram, and the oracle one eigh of the
    # flipped block; on seven thetas 0 the projector and the environment are
    # both 64, so every draw's Gram is square
    def refused(*args, **kwargs):
        raise AssertionError("verify called svd")

    # np.linalg.norm(x, 2) calls the svd of numpy's private module
    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "svd", refused)
    zeros = {"n": 7, "angles": [{"theta": {"pi_num": 0, "pi_den": 1}}] * 7}
    code, out, err = run_cli(["verify"], tmp_path, capsys, zeros)
    assert code == 0, err
    doc = parse(out)
    assert doc["case"] == "Degenerate" and doc["sector_dims"] == [64, 0, 0, 64]
    assert doc["purity"]["projector_dim"] == 64
    assert 0 < doc["purity"]["max_entropy"] <= 6
    assert doc["subspace_distance"] <= 1e-10


def test_pretty_flag(tmp_path, capsys):
    code, out, _ = run_cli(["classify", "--pretty"], tmp_path, capsys, EPR_INPUT)
    assert code == 0
    assert "\n  " in out


def test_pretty_output_is_the_compact_output_indented(tmp_path, capsys):
    # a degenerate n=5 list: sixteen states that repeat their records, and
    # sixteen members; solve and classify splice pre-written JSON values in,
    # and construct, certify and verify write none; one shot leaves a mean
    # and both standard errors undefined (null)
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({
        "n": 5,
        "angles": [{"theta": {"pi_num": 0, "pi_den": 1}, "phi": {"rad": 0.1 * k}}
                   for k in range(5)],
    }))
    epr = tmp_path / "epr.json"
    epr.write_text(json.dumps(EPR_INPUT))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(
        {"n": 2, "amplitudes": [{"index": 0, "re": 1.0}, {"index": 3, "re": 1.0}]}
    ))
    docs = {}
    for args in (["solve", str(degenerate)], ["classify", str(degenerate)],
                 ["construct", "5"], ["certify", str(epr), "--state", str(state)],
                 ["certify", str(epr), "--state", str(state), "--shots", "1"],
                 ["verify", str(degenerate)], ["verify", str(epr), "--seed", "3"]):
        outs = []
        for extra in ([], ["--pretty"]):
            assert main(args + extra) == 0, args
            captured = capsys.readouterr()
            assert not captured.err, args
            outs.append(captured.out)
        compact, pretty = outs
        doc = docs[args[0]] = json.loads(compact)
        assert compact == json.dumps(doc, sort_keys=True) + "\n", args
        assert pretty == json.dumps(doc, indent=2, sort_keys=True) + "\n", args
    assert len(docs["solve"]["states"]) == len(docs["classify"]["m_set"]) == 16


def test_classify_writes_many_members_as_json_dumps_does(tmp_path, capsys):
    # sixteen thetas 0: every one of the 2^15 patterns with m_1 = 0 vanishes
    zeros = _exact_input(*[(0,)] * 16)
    code, out, err = run_cli(["classify"], tmp_path, capsys, zeros)
    assert code == 0 and not err
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True) + "\n"
    assert doc["m_set"] == [format(m, "016b") for m in range(1 << 15)]
    code, pretty, _ = run_cli(["classify", "--pretty"], tmp_path, capsys, zeros)
    assert code == 0 and json.loads(pretty) == doc


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    # options before the positional: argparse reads this argv
    assert run_cli(["classify", "--pre"], tmp_path, capsys, EPR_INPUT)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, _ = run_cli(["classify", "--pre"], tmp_path, capsys, EPR_INPUT)
    assert code == 0 and parse(out)["m_set"] == ["01"]
    assert not built


def test_plain_argvs_skip_argparse(tmp_path, capsys, monkeypatch):
    # a subcommand, its positional, then options spelled in full with their
    # values: read off COMMANDS, with argparse never parsing
    epr = tmp_path / "epr.json"
    epr.write_text(json.dumps(EPR_INPUT))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(
        {"n": 2, "amplitudes": [{"index": 0, "re": 1.0}, {"index": 3, "re": 1.0}]}
    ))
    units = tmp_path / "units.json"
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    units.write_text(json.dumps({"n": 2, "unitaries": [identity, identity]}))

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in (
        ["classify", str(epr)],
        ["solve", str(epr), "--pretty"],
        ["construct", "2", "--unitaries", str(units), "--pretty"],
        ["certify", str(epr), "--state", str(state), "--shots", "100", "--seed", "3",
         "--threshold", "0.5", "--a-fraction", "0.25", "--pretty"],
        ["verify", str(epr), "--seed", "7"],
    ):
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.out and not captured.err, argv


_OPTION_NAMES = sorted({arg.name for c in COMMANDS.values() for arg in c.options})
# values that convert, values that argparse refuses, and dash-led ones
_ARG_VALUES = ["x.json", "5", " 7 ", "-5", "-1.5", "0.25", "1e3", "nan", "1_0",
               "abc", "", "-", "-x", "--x", "-h", "--pretty"]
_ARGV_TOKENS = st.sampled_from([
    *COMMANDS, "cl", "bogus", *_OPTION_NAMES,
    *{name[:k] for name in _OPTION_NAMES for k in (3, 4, 5)},  # "--sho", "--s"
    *(f"{name}=1" for name in _OPTION_NAMES), "--pretty=",
    "--", "-h", "--help", "--bogus", *_ARG_VALUES,
])


@st.composite
def argvs(draw):
    """Argvs of every shape: free strings of the tokens above, and plain
    ones (a subcommand, its positional or not, then its required options
    and some others in any order, each with a value that converts) with
    one token maybe added, replaced or repeated."""
    if not draw(st.integers(0, 3)):
        return draw(st.lists(_ARGV_TOKENS, max_size=8))
    name = draw(st.sampled_from(list(COMMANDS)))
    command = COMMANDS[name]

    def value(arg):
        return draw(st.sampled_from(["3", " 7 ", "1_0"] if arg.type else ["x.json", ""]))

    argv = [name]
    if command.positional.required or draw(st.booleans()):
        argv.append(value(command.positional))
    for arg in draw(st.permutations(command.options)):
        if arg.required or draw(st.booleans()):
            argv += [arg.name] if arg.flag else [arg.name, value(arg)]
    k = draw(st.integers(1, len(argv)))
    edit = draw(st.sampled_from(["none", "add", "replace", "repeat"]))
    if edit == "add" or edit == "replace" and k == len(argv):
        argv.insert(k, draw(_ARGV_TOKENS))
    elif edit == "replace":
        argv[k] = draw(_ARGV_TOKENS)
    elif edit == "repeat":
        arg = draw(st.sampled_from(command.options))
        argv[k:k] = [arg.name] if arg.flag else [arg.name, draw(_ARGV_TOKENS)]
    return argv


def _outcome(call, capsys):
    """call()'s result, or ("exit", code) if it exits, and its stdout and
    stderr."""
    try:
        result = call()
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
@example(argv=["classify", "-x"])
@example(argv=["construct", "-5"])
@example(argv=["certify", "--state", "-x"])
@example(argv=["verify", "--seed", "x", "--seed", "3"])
@example(argv=["certify", "a.json", "--sta", "s.json"])
@example(argv=["verify", "--seed=3"])
@example(argv=["classify", "--", "x.json"])
@example(argv=["solve", "-h"])
def test_main_reads_every_argv_as_argparse_does(capsys, argv):
    # each subcommand records the namespace it is given: main's must be
    # argparse's, or main must exit as argparse does, with its exact text
    seen = []

    def record(args):
        seen.append(args)
        return {}

    def fields(ns):
        return sorted((key, repr(value)) for key, value in vars(ns).items())

    table = {name: dataclasses.replace(c, func=record) for name, c in COMMANDS.items()}
    with mock.patch.dict(COMMANDS, table):
        cli.build_parser.cache_clear()
        try:
            expected = _outcome(lambda: cli.build_parser().parse_args(argv), capsys)
            got = _outcome(lambda: main(argv), capsys)
        finally:
            cli.build_parser.cache_clear()
    namespace, out, err = expected
    if isinstance(namespace, argparse.Namespace):
        assert got == (0, "{}\n", "") and out == err == "", (argv, got)
        assert [fields(ns) for ns in seen] == [fields(namespace)], argv
    else:
        assert got == expected and not seen, argv


def _cli_env():
    # the child imports the package under test, which pytest may have found
    # through its own pythonpath setting rather than PYTHONPATH
    import ghzstab

    src = str(pathlib.Path(ghzstab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}


def test_entry_point_subprocess(tmp_path):
    path = tmp_path / "angles.json"
    path.write_text(json.dumps(EPR_INPUT))
    proc = subprocess.run(
        [sys.executable, "-m", "ghzstab", "classify", str(path)],
        capture_output=True, text=True, timeout=120, env=_cli_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "UniqueGHZ"


def test_closed_stdout_exits_1_quietly(tmp_path):
    # 18 thetas 0 give 2^17 members, 2.9 MB of text, far past a pipe's
    # buffer: the write meets the closed pipe, and the rest goes to
    # os.devnull with nothing on stderr
    path = tmp_path / "zeros18.json"
    path.write_text(json.dumps({"n": 18, "angles": [{"theta": {"pi_num": 0, "pi_den": 1}}] * 18}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ghzstab", "classify", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
