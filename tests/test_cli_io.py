"""Spectrum file formats, JSON emission, complex literals, CLI subcommands."""

import argparse
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhspec import (
    ComplexMultiset,
    DomainError,
    ParseError,
    RealMultiset,
    Spectrum,
    SpectralError,
    ZeroWindow,
    algebra_residual,
    zero_line,
)
from lhspec import cli_io
from lhspec.cli_io import (
    _load_zero_data,
    build_parser,
    dumps,
    format_complex,
    load_spectrum,
    parse_complex,
    parse_spectrum,
    run_cli,
    serialize_spectrum,
)

from helpers import LOOSE, spectrum_csv_reference, zero_data_reference

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

TWO_PI = 2.0 * math.pi

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ---------------------------------------------------------------------------
# golden CLI transcripts: byte-exact stdout and exit codes

GOLDEN_CASES = [
    ("classify.json", 0, ["classify", str(DATA / "boost_rot.json")]),
    ("decompose.json", 0, ["decompose", str(DATA / "algebra_elem.json")]),
    ("zeta.json", 0, ["zeta", str(DATA / "small.csv"), "--s", "3+0.5i", "--tau", "1", "--maxm", "20"]),
    ("psi.json", 0, ["psi", str(DATA / "small.csv"), "--s", "3+0i", "--maxm", "20"]),
    ("zeros.json", 0, ["zeros", str(DATA / "small.csv"), "--maxm", "1", "--imbound", "7"]),
    ("recover_spectrum.json", 0, ["recover", str(DATA / "small.json")]),
    (
        "recover_zeros.json",
        0,
        ["recover", str(DATA / "zeros_small.json"), "--kind", "zeros", "--imbound", "10", "--maxm", "0"],
    ),
    ("compare.json", 0, ["compare", str(DATA / "small.csv"), str(DATA / "small.json")]),
    ("err_not_group.json", 1, ["classify", str(DATA / "not_group.json")]),
    ("err_bad_header.json", 2, ["zeta", str(DATA / "bad_header.csv"), "--s", "3+0i"]),
]


@pytest.mark.parametrize("name,code,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_golden(name, code, argv, capsys):
    # data paths inside argv are absolute while the goldens were recorded with
    # repo-relative ones; both parse to the same files, so stdout is identical
    assert run_cli(argv) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "name, respell, extra",
    [
        ("zeta.json", str, ["--format", "csv"]),
        ("classify.json", lambda text: json.dumps(sum(json.loads(text), [])), []),
    ],
    ids=["csv_format_override", "flat_matrix"],
)
def test_cli_golden_of_a_respelled_input(name, respell, extra, tmp_path, capsys):
    # a golden case's input rewritten into a file named .json: the CSV parses
    # only through --format, the 4x4 matrix becomes a flat list of 16 numbers
    _, code, argv = next(c for c in GOLDEN_CASES if c[0] == name)
    path = tmp_path / "input.json"
    path.write_text(respell(Path(argv[1]).read_text()))
    assert run_cli([argv[0], str(path), *argv[2:], *extra]) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


MAIN_CASES = [
    c for c in GOLDEN_CASES if c[0] in ("classify.json", "err_not_group.json", "err_bad_header.json")
]


@pytest.mark.parametrize("name,code,argv", MAIN_CASES, ids=[c[0] for c in MAIN_CASES])
def test_main_process_golden(name, code, argv):
    # the installed entry point, main(), and python -m lhspec, each in a fresh
    # interpreter: stdout, exit code, no stderr
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    for entry in (["-c", "from lhspec.cli_io import main; main()"], ["-m", "lhspec"]):
        cmd = [sys.executable, *entry, *argv]
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (code, (GOLDEN / name).read_text(), "")


def test_classify_output_semantics(capsys):
    run_cli(["classify", str(DATA / "boost_rot.json")])
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == pytest.approx(2.0, abs=1e-12)
    assert out["holonomy"] == pytest.approx(1.0, abs=1e-12)


def test_decompose_output_semantics(capsys):
    run_cli(["decompose", str(DATA / "algebra_elem.json")])
    out = json.loads(capsys.readouterr().out)
    assert out["algebra_residual"] == 0.0
    assert out["iwasawa"]["alpha"] == pytest.approx(0.7)
    assert out["iwasawa"]["n_params"] == pytest.approx({"a": 0.25, "b": -0.5})
    k = np.asarray(out["cartan"]["k"])
    p = np.asarray(out["cartan"]["p"])
    assert np.allclose(k, -k.T) and np.allclose(p, p.T)


def test_zeros_output_annihilates(capsys):
    run_cli(["zeros", str(DATA / "small.csv"), "--maxm", "1", "--imbound", "7"])
    out = json.loads(capsys.readouterr().out)
    assert out["window"] == {"max_m": 1, "im_bound": 7}
    assert all(row["multiplicity"] >= 1 for row in out["zeros"])
    ims = [row["im"] for row in out["zeros"]]
    assert max(abs(v) for v in ims) <= 7


def test_compare_reports_exact(capsys):
    run_cli(["compare", str(DATA / "small.csv"), str(DATA / "small.json")])
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "EXACT" and out["residual"] == 0.0


def test_compare_detects_mismatch(tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("length,holonomy,multiplicity\n1,1.0,1\n2,1,2\n")
    assert run_cli(["compare", str(DATA / "small.csv"), str(other)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "FAILED"
    assert out["witness"] is not None


ZEROS_SMALL = str(DATA / "zeros_small.json")
SMALL_CSV, SMALL_JSON = str(DATA / "small.csv"), str(DATA / "small.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", SMALL_JSON, "--tol", "nan"],
        ["recover", SMALL_JSON, "--tol", "-1"],
        ["recover", ZEROS_SMALL, "--kind", "zeros", "--imbound", "10", "--tol", "nan"],
        ["compare", SMALL_CSV, SMALL_JSON, "--tol", "nan"],
        ["compare", SMALL_CSV, SMALL_JSON, "--tol", "-1"],
        ["zeros", SMALL_CSV, "--imbound", "inf"],
        ["recover", SMALL_JSON, "--imbound", "inf"],
        ["recover", ZEROS_SMALL, "--kind", "zeros", "--imbound", "inf"],
        ["compare", SMALL_CSV, SMALL_JSON, "--imbound", "inf"],
    ],
    ids=[
        "recover_tol_nan",
        "recover_tol_negative",
        "recover_zeros_tol_nan",
        "compare_tol_nan",
        "compare_tol_negative",
        "zeros_imbound_inf",
        "recover_imbound_inf",
        "recover_zeros_imbound_inf",
        "compare_imbound_inf",
    ],
)
def test_cli_rejects_non_finite_parameters(argv, capsys):
    assert run_cli(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "domain_error"


def test_recover_self_inverse_holonomy(tmp_path, capsys):
    path = tmp_path / "pi.csv"
    path.write_text("length,holonomy,multiplicity\n3.0,3.141592653589793,1\n")
    assert run_cli(["recover", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "EXACT"
    assert out["recovered_ratios"] == [{"value": math.pi / 3.0, "multiplicity": 1}]


def test_recover_zeros_requires_imbound(capsys):
    code = run_cli(["recover", str(DATA / "zeros_small.json"), "--kind", "zeros"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "domain_error"
    assert "imbound" in out["error"]["message"]


def test_cli_missing_file(capsys):
    assert run_cli(["classify", str(DATA / "nope.json")]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["code"] == "parse_error"


def test_cli_bad_complex_literal(capsys):
    assert run_cli(["zeta", str(DATA / "small.csv"), "--s", "3+2j"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("command", ["zeta", "psi"])
def test_cli_complex_literal_past_the_float_range(command, capsys):
    assert run_cli([command, str(DATA / "small.csv"), "--s=1e400"]) == 2
    out = json.loads(capsys.readouterr().out)  # one document
    assert out["error"]["code"] == "parse_error"


USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["zeta", str(DATA / "small.csv")], "the following arguments are required: --s"),
    (["recover", str(DATA / "small.csv"), "--tau", "5"], "unrecognized arguments: --tau 5"),
    (["zeros", str(DATA / "small.csv"), "--maxm", "x"], "argument --maxm: invalid int value: 'x'"),
    # a literal that starts with "-" and is no plain number is read as an option: --s=-800+0.3i
    (["zeta", str(DATA / "small.csv"), "--s", "-800+0.3i"], "argument --s: expected one argument"),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=["no_command", "no_s", "tau", "maxm", "dash_s"]
)
def test_cli_usage_error_prints_one_parse_error(argv, message, capsys):
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": {"code": "parse_error", "message": message}}
    assert err.startswith("usage: lhspec")


@pytest.mark.parametrize("command", ["classify", "decompose"])
@pytest.mark.parametrize(
    "body",
    ["{", "[1, 2, 3]", '[["a", 1]]', "[[1, 2], [3]]", '{"m": 1}', "[1" + "0" * 400 + "]"],
    ids=["bad_json", "wrong_shape", "non_numeric", "ragged", "object", "huge_int"],
)
def test_cli_matrix_parse_errors(command, body, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(body)
    assert run_cli([command, str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("entry", ["2e154", "1e230", "Infinity"])
def test_classify_matrix_past_the_float_range_is_not_in_group(entry, tmp_path, capsys):
    # the entries square past the float range, or are not finite, so the
    # residual of g^T J g = J is too: one not_in_group document, with no
    # traceback and no warning
    path = tmp_path / "g.json"
    path.write_text(f"[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, {entry}], [0, 0, 0, 1]]")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["classify", str(path)])
    out, err = capsys.readouterr()
    assert (code, err, caught) == (1, "", [])
    assert json.loads(out)["error"]["code"] == "not_in_group"


def test_classify_improper_matrix_is_not_in_group(tmp_path, capsys):
    # det g = -1: g^T J g = J and g44 >= 1 hold, so only the sign of det g tells
    c, s = math.cosh(20.0), math.sinh(20.0)
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, s], [0, 0, s, c]]))
    assert run_cli(["classify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"]["code"] == "not_in_group"


@pytest.mark.parametrize("command", ["zeta", "psi", "zeros"])
def test_cli_tol_only_where_read(command, capsys):
    argv = [command, str(DATA / "small.csv"), "--tol", "1"]
    if command != "zeros":
        argv += ["--s", "3+0i"]
    assert run_cli(argv) == 2
    capsys.readouterr()


def test_decompose_tol_is_the_membership_tolerance_of_the_parts(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(LOOSE))
    assert run_cli(["decompose", str(path), "--tol", "1e-6"]) == 0
    out = json.loads(capsys.readouterr().out)
    for split, names in (("cartan", ("k", "p")), ("iwasawa", ("k", "a_p", "n"))):
        parts = [np.array(out[split][name]) for name in names]
        assert np.max(np.abs(sum(parts) - np.array(LOOSE))) <= 1e-12
        assert max(algebra_residual(part) for part in parts) <= 1e-6
    assert run_cli(["decompose", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "not_in_algebra",
        "message": "A^T J + J A residual 1.000e-09 exceeds tolerance 1.0e-12",
    }


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_decompose_tol_must_be_finite_and_nonnegative(tol, capsys):
    assert run_cli(["decompose", str(DATA / "algebra_elem.json"), "--tol", tol]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "domain_error" and "tolerance must be finite" in err["message"]


def test_cli_recover_has_no_tau(capsys):
    # recover always peels the tau = 0 and tau = 1 zero lines, so --tau is no option
    assert run_cli(["recover", str(DATA / "small.csv"), "--tau", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "length, holonomy, rule",
    [
        ("inf", "0.5", "class length must be positive, got inf"),
        ("2", "nan", "holonomy must lie in [0, 2*pi), got nan"),
        ("2", "inf", "holonomy must lie in [0, 2*pi), got inf"),
        ("2", "-inf", "holonomy must lie in [0, 2*pi), got -inf"),
        ("-1", "7", "class length must be positive, got -1.0"),
    ],
    ids=["length_inf", "holonomy_nan", "holonomy_inf", "holonomy_minus_inf", "reducible_holonomy"],
)
def test_bad_spectrum_row_is_located_domain_error(fmt, length, holonomy, rule, tmp_path, capsys):
    if fmt == "csv":
        path, where = tmp_path / "bad.csv", "line 3"
        path.write_text(f"length,holonomy,multiplicity\n1,0.5,1\n{length},{holonomy},1\n")
    else:
        path, where = tmp_path / "bad.json", "entry 1"
        literal = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
        row = [literal.get(v, v) for v in (length, holonomy)]
        path.write_text(
            '[{"length": 1, "holonomy": 0.5, "multiplicity": 1}, '
            f'{{"length": {row[0]}, "holonomy": {row[1]}, "multiplicity": 1}}]'
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["zeta", str(path), "--s", "3+0i"])
    err = json.loads(capsys.readouterr().out)["error"]
    assert (code, err["code"], err["message"]) == (1, "domain_error", f"{where}: {rule}")
    assert not caught


@pytest.mark.parametrize(
    "rows",
    [
        "2.0,0.5,4611686018427387904\n",
        "2.0,0.5,4611686018427387904\n2.0,1.0,4611686018427387904\n",
    ],
    ids=["one_class", "two_same_length_classes"],
)
def test_recover_huge_multiplicity_ends_in_json(rows, tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("length,holonomy,multiplicity\n" + rows)
    code = run_cli(["recover", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 or (code in (1, 2) and out["error"]["code"] in ("domain_error", "parse_error"))


def test_zeros_total_multiplicity_past_int64_ends_in_json(tmp_path, capsys):
    # each zero of a class of multiplicity 2**62 is listed with it, so two
    # zeros reach the 2**63 total that int64 counts cannot hold
    path = tmp_path / "huge.csv"
    path.write_text("length,holonomy,multiplicity\n2.0,0.5,4611686018427387904\n")
    assert run_cli(["zeros", str(path), "--tau", "0", "--maxm", "0", "--imbound", "1"]) == 0
    assert [z["multiplicity"] for z in json.loads(capsys.readouterr().out)["zeros"]] == [2**62]
    assert run_cli(["zeros", str(path), "--imbound", "10"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "domain_error"
    # 2**60 on each of 9 zeros over two lines, neither of which reaches 2**63 alone
    path.write_text("length,holonomy,multiplicity\n1.0,0.5,1152921504606846976\n")
    args = ["zeros", str(path), "--tau", "0", "--maxm", "1", "--imbound", "10"]
    assert run_cli(args) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "domain_error"


@pytest.mark.parametrize("mult", [2**62, 2**62 + 1, "4.611686018427388e18"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_multiplicity_past_float_precision_reaches_the_count_bound(mult, fmt, tmp_path, capsys):
    # 2**62 + 1 is an integer that no float holds: it must not read as a fraction
    if fmt == "csv":
        path = tmp_path / "huge.csv"
        path.write_text(f"length,holonomy,multiplicity\n1.0,0.5,{mult}\n")
    else:
        path = tmp_path / "huge.json"
        path.write_text(f'[{{"length": 1.0, "holonomy": 0.5, "multiplicity": {mult}}}]')
    code = run_cli(["recover", str(path), "--imbound", "10"])
    out = json.loads(capsys.readouterr().out)
    if fmt == "csv" and isinstance(mult, str):  # no integer literal
        assert code == 2 and out["error"]["code"] == "parse_error"
    else:
        assert code == 1 and out["error"]["code"] == "domain_error"
        assert "2**63" in out["error"]["message"]


@pytest.mark.parametrize("command", ["zeta", "psi"])
def test_evaluate_multiplicity_past_int64_is_domain_error(command, tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("length,holonomy,multiplicity\n2.0,0.5,9223372036854775808\n")
    assert run_cli([command, str(path), "--s", "3+0i"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "domain_error"


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", str(DATA / "small.csv"), "--s", "3+0i", "--maxm", "1000000"],
        ["psi", str(DATA / "small.csv"), "--s", "3+0i", "--tau", "100000000"],
    ],
    ids=["maxm", "tau"],
)
def test_oversized_euler_product_grid_is_domain_error(argv, capsys):
    # refused before any grid array is made: numpy allocations are traced too
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["code"] == "domain_error" and "2**26" in err["message"]
    assert peak < 2**20


def test_zeta_past_the_float_range_is_domain_error(capsys):
    # log zeta = 23760 + 13.7i is exact, but exp of it is past the floats;
    # psi at the same point is a finite sum
    argv = [str(DATA / "small.csv"), "--s=-300+0.3i", "--maxm", "3"]
    assert run_cli(["zeta", *argv]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "domain_error" and "log zeta = (23760+" in err["message"]
    assert run_cli(["psi", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["value"]["re"] == -80


def test_psi_whose_fsum_overflows_is_domain_error(tmp_path, capsys):
    # the every-term fsum of the log-derivative overflows an intermediate sum
    path = tmp_path / "big.csv"
    path.write_text("length,holonomy,multiplicity\n1.7e308,0.5,1\n1.7e308,1.5,1\n1.7e308,2.5,1\n")
    code = run_cli(["psi", str(path), "--s=0+0.3i", "--maxm", "0"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    err = json.loads(captured.out)["error"]
    assert err["code"] == "domain_error" and "past the float range" in err["message"]


@pytest.mark.parametrize("command", ["zeta", "psi"])
def test_overflowing_factor_grid_is_domain_error(command, capsys):
    # at Re(s) = -800 exp(-X) itself overflows, so the psi sum is not finite
    code = run_cli([command, str(DATA / "small.csv"), "--s=-800+0.3i", "--maxm", "3"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert json.loads(captured.out)["error"]["code"] == "domain_error"


def test_compare_cancelling_multiplicities_past_int64_is_domain_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("length,holonomy,multiplicity\n" + "2.0,0.5,4611686018427387904\n" * 2)
    assert run_cli(["compare", str(path), str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "domain_error"


@pytest.mark.parametrize("command", ["zeros", "recover"])
def test_window_past_the_float_range_is_domain_error(command, tmp_path, capsys):
    # im_bound * length overflows to inf, so the window has no integer n-range
    path = tmp_path / "far.csv"
    path.write_text("length,holonomy,multiplicity\n1e308,0.5,1\n")
    assert run_cli([command, str(path), "--imbound", "10"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "domain_error" and "1e+308" in err["message"]


@pytest.mark.parametrize("field", ["length", "holonomy"])
def test_recover_integer_too_large_for_a_float(field, tmp_path, capsys):
    row = {"length": "2", "holonomy": "1", "multiplicity": "1"}
    row[field] = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text("[{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}]")
    assert run_cli(["recover", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "parse_error" and "entry 0" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],
        ["decompose"],
        ["zeros"],
        ["zeta", "--s", "3+0i"],
        ["recover"],
        ["recover", "--kind", "zeros", "--imbound", "5"],
    ],
    ids=["classify", "decompose", "zeros", "zeta", "recover_spectrum", "recover_zeros"],
)
def test_cli_deeply_nested_json(argv, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 6000 + "]" * 6000)
    assert run_cli([argv[0], str(path), *argv[1:]]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "parse_error"


def test_cli_stdin_matrix(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO((DATA / "boost_rot.json").read_text()))
    assert run_cli(["classify", "-"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# complex literals


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", 3 + 0j),
        ("3+0.5i", 3 + 0.5j),
        ("-2.5e-1-1e2i", -0.25 - 100j),
        (".5+.25i", 0.5 + 0.25j),
        ("  2-3i ", 2 - 3j),
        ("+4.0", 4 + 0j),
    ],
)
def test_parse_complex_accepts(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize(
    "text", ["i", "3+", "1+2j", "abc", "", "1 + 2i", "2i", "1+i", "1e400", "-1e400", "3+1e400i"]
)
def test_parse_complex_rejects(text):
    with pytest.raises(ParseError):
        parse_complex(text)


@given(re=finite, im=finite)
def test_complex_literal_roundtrip(re, im):
    z = complex(re, im)
    assert parse_complex(format_complex(z)) == z


# ---------------------------------------------------------------------------
# dumps


def test_dumps_scalars():
    assert dumps(None) == "null"
    assert dumps(True) == "true"
    assert dumps(7) == "7"
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(float("nan")) == "null"
    assert dumps(float("inf")) == "null"
    assert dumps("a\"b") == '"a\\"b"'


def test_dumps_containers_and_arrays():
    out = dumps({"m": np.eye(2), "z": 1 + 2j, "xs": (1, 2)})
    assert out == (
        '{\n  "m": [\n    [\n      1,\n      0\n    ],\n    [\n      0,\n      1\n    ]\n  ],\n'
        '  "z": {\n    "re": 1,\n    "im": 2\n  },\n'
        '  "xs": [\n    1,\n    2\n  ]\n}'
    )
    assert dumps({}) == "{}" and dumps([]) == "[]"


def test_dumps_numpy_scalars():
    assert dumps(np.float64(0.5)) == "0.5"
    assert dumps(np.float32(0.5)) == "0.5"
    assert dumps(np.int64(3)) == "3"


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({1, 2})


@given(finite)
def test_dumps_floats_reload_exactly(x):
    assert json.loads(dumps(x)) == x or (math.isnan(x) and json.loads(dumps(x)) is None)


# each multiset type's entries as the list of records the CLI used to build
RECORDS = {
    RealMultiset: lambda ms: [{"value": v, "multiplicity": m} for v, m in ms],
    ComplexMultiset: lambda ms: [{"re": z.real, "im": z.imag, "multiplicity": m} for z, m in ms],
    Spectrum: lambda ms: [c._asdict() for c in ms],
}
edge_floats = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324])
# a few magnitudes, each with both signs, and NaN with its sign bit set: the
# emitter formats each distinct magnitude once and prefixes the sign
pooled_floats = st.sampled_from([0.1, 2.5, 1e-300, 5e-324, math.inf, math.nan]).flatmap(
    lambda x: st.sampled_from([x, math.copysign(x, -1.0)])
)


@given(
    kind=st.sampled_from(list(RECORDS)),
    indent=st.sampled_from([0, 2, 4]),
    block=st.sampled_from([1, 2, 3, cli_io._BLOCK]),
    rows=st.lists(
        st.tuples(
            edge_floats | pooled_floats | st.floats(width=64),
            edge_floats | pooled_floats,
            st.integers(1, 2**63 - 1),
        ),
        max_size=12,
    ),
)
def test_dumps_multiset_matches_its_records(kind, indent, block, rows):
    # any column values, canonical or not: dumps writes what the arrays hold;
    # blocks of 1-3 records put block edges inside small multisets
    cols = [np.array([r[i] for r in rows], dtype=np.float64) for i in range(len(kind.__slots__))]
    ms = kind._trusted(*cols, np.array([r[2] for r in rows], dtype=np.int64))
    with mock.patch.object(cli_io, "_BLOCK", block):
        assert dumps(ms, indent) == dumps(RECORDS[kind](ms), indent)
        assert dumps({"xs": [ms]}, indent) == dumps({"xs": [RECORDS[kind](ms)]}, indent)
        if kind is Spectrum:
            assert serialize_spectrum(ms, "csv") == spectrum_csv_reference(ms)


@pytest.mark.parametrize("kind", list(RECORDS), ids=lambda k: k.__name__)
def test_dumps_multiset_across_whole_blocks(kind):
    # 2 blocks and 1 record at the real block size, magnitudes repeating with both signs
    n = 2 * cli_io._BLOCK + 1
    rng = np.random.default_rng(18)
    pool = np.array([0.0, 0.5, 1e-300, math.inf, math.nan, *rng.uniform(0.0, 50.0, 40)])
    signs = [rng.choice([-1.0, 1.0], n) for _ in kind.__slots__]
    cols = [pool[rng.integers(0, pool.size, n)] * sign for sign in signs]
    ms = kind._trusted(*cols, rng.integers(1, 2**62, n, dtype=np.int64))
    assert dumps(ms, 2) == dumps(RECORDS[kind](ms), 2)
    if kind is Spectrum:
        assert serialize_spectrum(ms, "csv") == spectrum_csv_reference(ms)


# ---------------------------------------------------------------------------
# the parser


PARSED_DEFAULTS = [
    (["decompose", "m.json"], [("command", "decompose"), ("matrix", "m.json"), ("tol", 1e-12)]),
    (["classify", "m.json"], [("command", "classify"), ("matrix", "m.json")]),
    *[
        (
            [name, "s.csv", "--s", "3+0i"],
            [("command", name), ("spectrum", "s.csv"), ("s", "3+0i"), ("tau", 0), ("maxm", 30)]
            + [("format", None)],
        )
        for name in ("zeta", "psi")
    ],
    (
        ["zeros", "s.csv"],
        [("command", "zeros"), ("spectrum", "s.csv"), ("tau", 0), ("maxm", 30)]
        + [("imbound", None), ("format", None)],
    ),
    (
        ["recover", "s.csv"],
        [("command", "recover"), ("input", "s.csv"), ("maxm", 30), ("imbound", None)]
        + [("tol", 1e-9), ("format", None), ("kind", "spectrum")],
    ),
    (
        ["compare", "a.csv", "b.csv"],
        [("command", "compare"), ("spectrum1", "a.csv"), ("spectrum2", "b.csv"), ("tau", 0)]
        + [("maxm", 30), ("imbound", None), ("tol", 1e-9), ("format", None)],
    ),
]


@pytest.mark.parametrize("argv, parsed", PARSED_DEFAULTS, ids=[a[0] for a, _ in PARSED_DEFAULTS])
def test_parsed_defaults(argv, parsed):
    # each subcommand's arguments, in declaration order, with their defaults
    got = vars(build_parser().parse_args(argv))
    del got["func"]
    got.pop("evaluate", None)
    assert list(got.items()) == parsed


# ---------------------------------------------------------------------------
# spectrum files


def test_parse_csv_basic():
    spec = parse_spectrum("length,holonomy,multiplicity\n1,0.7,1\n2,1,2\n")
    assert [(c.length, c.holonomy, c.multiplicity) for c in spec] == [(1.0, 0.7, 1), (2.0, 1.0, 2)]
    spaced = parse_spectrum("length,holonomy,multiplicity\n\n1,0.7,1\n  \n2,1,2\n\n")
    assert [(c.length, c.holonomy, c.multiplicity) for c in spaced] == [(1.0, 0.7, 1), (2.0, 1.0, 2)]


def test_parse_csv_merges_duplicates():
    spec = parse_spectrum("length,holonomy,multiplicity\n2,1,1\n2,1,3\n")
    assert [(c.length, c.multiplicity) for c in spec] == [(2.0, 4)]


def test_parse_csv_empty_body():
    assert len(parse_spectrum("length,holonomy,multiplicity\n").classes) == 0


def test_parse_csv_header_spacing_tolerated():
    spec = parse_spectrum("length, holonomy, multiplicity\n1,0,1\n")
    assert spec.classes[0].length == 1.0


def test_parse_csv_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_spectrum("nope\n1,2,3\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_spectrum("length,holonomy,multiplicity\n1,0,1\n1,0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_spectrum("length,holonomy,multiplicity\nx,0,1\n")
    with pytest.raises(ParseError, match="multiplicity must be an integer"):
        parse_spectrum("length,holonomy,multiplicity\n1,0,1.5\n")


def test_parse_csv_domain_errors():
    with pytest.raises(DomainError, match="line 2"):
        parse_spectrum("length,holonomy,multiplicity\n-1,0,1\n")
    with pytest.raises(DomainError, match="multiplicity"):
        parse_spectrum("length,holonomy,multiplicity\n1,0,0\n")


def test_parse_json_spectrum():
    text = '[{"length": 1, "holonomy": 0.7, "multiplicity": 2}]'
    spec = parse_spectrum(text, "json")
    assert [(c.length, c.holonomy, c.multiplicity) for c in spec] == [(1.0, 0.7, 2)]


def test_parse_json_errors(tmp_path, capsys):
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_spectrum("{", "json")
    with pytest.raises(ParseError, match="array"):
        parse_spectrum("{}", "json")
    with pytest.raises(ParseError, match="missing keys.*holonomy"):
        parse_spectrum('[{"length": 1, "multiplicity": 1}]', "json")
    with pytest.raises(ParseError, match="unknown spectrum format"):
        parse_spectrum("", "yaml")
    with pytest.raises(ParseError, match="multiplicity must be an integer"):
        parse_spectrum('[{"length": 1, "holonomy": 0, "multiplicity": Infinity}]', "json")
    path = tmp_path / "rows.json"
    path.write_text("[1, 2]")
    assert run_cli(["recover", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "parse_error",
        "message": "entry 0: expected an object",
    }


def test_holonomy_reduced_mod_two_pi():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = parse_spectrum("length,holonomy,multiplicity\n1,7,1\n2,-1,1\n")
    assert len(caught) == 2
    assert spec.classes[0].holonomy == pytest.approx(7 - TWO_PI)
    assert spec.classes[1].holonomy == pytest.approx(TWO_PI - 1)


def test_serialize_parse_roundtrip_both_formats():
    spec = Spectrum([(1.0, 0.1, 1), (math.pi, 0.7, 2), (2.0, 1e-9, 3)])
    for fmt in ("csv", "json"):
        again = parse_spectrum(serialize_spectrum(spec, fmt), fmt)
        assert [(c.length, c.holonomy, c.multiplicity) for c in again] == [
            (c.length, c.holonomy, c.multiplicity) for c in spec
        ]
    with pytest.raises(ParseError, match="unknown spectrum format 'xml'"):
        serialize_spectrum(spec, "xml")


@given(
    st.lists(
        st.tuples(
            st.floats(0.1, 50.0),
            st.floats(0.0, TWO_PI, exclude_max=True),
            st.integers(1, 5),
        ),
        min_size=0,
        max_size=8,
    )
)
def test_serialize_roundtrip_is_exact(rows):
    spec = Spectrum(rows)
    for fmt in ("csv", "json"):
        again = parse_spectrum(serialize_spectrum(spec, fmt), fmt)
        assert [(c.length, c.holonomy, c.multiplicity) for c in again] == [
            (c.length, c.holonomy, c.multiplicity) for c in spec
        ]


def test_load_spectrum_guesses_format_from_extension():
    s1 = load_spectrum(str(DATA / "small.csv"))
    s2 = load_spectrum(str(DATA / "small.json"))
    assert [(c.length, c.holonomy, c.multiplicity) for c in s1] == [
        (c.length, c.holonomy, c.multiplicity) for c in s2
    ]


def test_zero_data_accepts_plain_numbers(tmp_path, capsys):
    path = tmp_path / "z.json"
    path.write_text(
        '{"m0": [0.0, 6.2831853071795862, -6.2831853071795862,'
        " 12.566370614359172, -12.566370614359172]}"
    )
    assert run_cli(["recover", str(path), "--kind", "zeros", "--imbound", "13", "--maxm", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recovered_lengths"] == [{"value": 1.0, "multiplicity": 1}]
    assert "recovered_ratios" not in out


def load_zero_data(text: str) -> dict:
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        return _load_zero_data("-")


@given(
    rows=st.lists(
        st.tuples(st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-12, 2.0]) | finite, st.integers(0, 5)),
        max_size=8,
    )
)
@example(rows=[(1.7976931348623157e308, 0), (-9.9792015476736e291, 0)])  # a gap past the float range
def test_zero_data_lines_are_the_multisets_of_their_rows(rows):
    # values within the default zero tolerance merge, zero multiplicities drop
    body = [{"value": v, "multiplicity": m} for v, m in rows]
    data = load_zero_data(json.dumps({"m0": body, "m1": [v for v, _ in rows]}))
    assert data["m0"] == RealMultiset(rows)
    assert data["m1"] == RealMultiset((v, 1) for v, _ in rows)


def test_zero_data_validation(tmp_path, capsys):
    path = tmp_path / "z.json"
    for body in (
        '{"m1": [1]}',
        "[1,2]",
        '{"m0": 3}',
        '{"m0": ["x"]}',
        '{"m0": [{"mult": 2}]}',
        '{"m0": [{"value": 1, "multiplicity": -1}]}',
        '{"m0": [{"value": 1, "multiplicity": 1.5}]}',
        '{"m0": [{"value": 1, "multiplicity": Infinity}]}',
        '{"m0": [NaN]}',
        '{"m0": [0], "m1": [{"value": -Infinity}]}',
    ):
        path.write_text(body)
        assert run_cli(["recover", str(path), "--kind", "zeros", "--imbound", "5"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "parse_error"


def test_zero_data_value_past_the_float_range_is_parse_error(tmp_path, capsys):
    huge = "1" + "0" * 400  # a JSON integer that no float holds
    path = tmp_path / "z.json"
    for body, where in (
        (f'{{"m0": [{huge}]}}', '"m0" entry 0'),
        (f'{{"m0": [0.0], "m1": [1.0, {{"value": -{huge}, "multiplicity": 2}}]}}', '"m1" entry 1'),
    ):
        path.write_text(body)
        assert run_cli(["recover", str(path), "--kind", "zeros", "--imbound", "5"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "parse_error" and err["message"].startswith(f"{where}: ")


# rows of every JSON kind a zero line can hold, valid or not
json_scalars = (
    st.floats(width=64)
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([10**400, -(10**400), 2**63, 0, -0.0, math.nan, math.inf, -math.inf])
    | st.sampled_from(["1.5", " 2 ", "-0", "nan", "Infinity", "-inf", "1e400", "0x10", "", "3"])
    | st.booleans()
    | st.none()
)
zero_rows = json_scalars | st.lists(st.integers(0, 3), max_size=2) | st.fixed_dictionaries(
    {}, optional={"value": json_scalars, "multiplicity": json_scalars, "other": st.just(1)}
)


def load_outcome(load, data):
    try:
        return "value", {k: list(ms) for k, ms in load(data).items()}
    except SpectralError as exc:
        return type(exc), str(exc)


@given(
    m0=st.lists(zero_rows, max_size=5),
    m1=st.none() | st.lists(zero_rows, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_zero_data_rows_check_as_before(m0, m1):
    # the loader reads every row as the reference does (same multisets, or the
    # same error naming the same row and rule); a value past the float range,
    # which ended in an OverflowError there, is a located parse error here
    data = {"m0": m0} if m1 is None else {"m0": m0, "m1": m1}
    parsed = json.loads(json.dumps(data))
    got = load_outcome(lambda d: load_zero_data(json.dumps(d)), parsed)
    try:
        want = load_outcome(zero_data_reference, parsed)
    except OverflowError:
        assert got[0] is ParseError
        assert re.match(r'"m[01]" entry \d+: int too large to convert to float$', got[1])
        return
    assert got == want


# ---------------------------------------------------------------------------
# one parser per process


def test_run_cli_builds_the_parser_once(monkeypatch, capsys):
    run_cli(["classify", str(DATA / "boost_rot.json")])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(["classify", str(DATA / "boost_rot.json")]) == 0
    assert run_cli(["recover", str(DATA / "small.json"), "--tau", "1"]) == 2  # a usage error
    capsys.readouterr()
    assert built == []


COMMANDS = ("decompose", "classify", "zeta", "psi", "zeros", "recover", "compare")
HELP_ARGV = [[], *([c] for c in COMMANDS)]


def help_text(parse, argv) -> str:
    # what --help prints: argparse writes it to stdout and exits 0
    out = io.StringIO()
    with mock.patch.object(sys, "stdout", out), pytest.raises(SystemExit) as exit_:
        parse([*argv, "--help"])
    assert exit_.value.code == 0
    return out.getvalue()


def test_help_of_the_shared_parser_matches_a_fresh_one(monkeypatch):
    # the help width is read from COLUMNS when help is formatted, not when the
    # parser is built, so one cached parser serves every width
    cases = [(cols, argv) for cols in (40, 80, 200) for argv in HELP_ARGV]
    random.Random(10).shuffle(cases)

    def shared(argv):
        raise SystemExit(run_cli(argv))

    for cols, argv in cases:
        monkeypatch.setenv("COLUMNS", str(cols))
        fresh = build_parser.__wrapped__()
        assert help_text(shared, argv) == help_text(fresh.parse_args, argv), (cols, argv)


# ---------------------------------------------------------------------------
# the run's tolerance reaches every peeling stage


def noisy_zero_data(spec: Spectrum, w: ZeroWindow, noise: float, seed: int) -> dict:
    """The m0 and m1 zero lines of spec, one plain number per point, each nonzero
    point moved by uniform noise in +-noise; 0.0 stays exact (its noisy copy
    would ask for a length near 2*pi/noise)."""
    rng = np.random.default_rng(seed)
    out = {}
    for key, tau in (("m0", 0), ("m1", 1)):
        values = np.array([v for v, m in zero_line(spec, tau, w) for _ in range(m)])
        moved = values != 0.0
        values[moved] += rng.uniform(-noise, noise, int(moved.sum()))
        out[key] = values.tolist()
    return out


def test_recover_zeros_tol_reaches_the_k0_strip(tmp_path, capsys):
    spec = Spectrum([(1.3, 0.7, 1), (2.1, 2.0, 2)])
    w = ZeroWindow(0, 20.0 * math.pi / 1.3)
    path = tmp_path / "z.json"
    path.write_text(json.dumps(noisy_zero_data(spec, w, 1e-7, 0)))
    argv = ["recover", str(path), "--kind", "zeros", "--imbound", repr(w.im_bound), "--tol", "1e-6"]
    assert run_cli(argv) == 0
    out = json.loads(capsys.readouterr().out)
    lengths = [(r["value"], r["multiplicity"]) for r in out["recovered_lengths"]]
    assert [m for _, m in lengths] == [1, 2]
    assert [v for v, _ in lengths] == pytest.approx([1.3, 2.1], abs=1e-6)


# ---------------------------------------------------------------------------
# windows are counted before they are allocated


@pytest.mark.parametrize("command", ["zeros", "recover"])
def test_window_of_2_63_points_is_domain_error(command, tmp_path, capsys):
    # im_bound * length is finite, but its n-range holds about 1e300 points
    path = tmp_path / "far.csv"
    path.write_text("length,holonomy,multiplicity\n1e300,0.5,1\n")
    assert run_cli([command, str(path), "--imbound", "10"]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "domain_error" and "point cap" in err["message"]


@pytest.mark.parametrize(
    "files, argv",
    [
        # a = 2*pi/1e-7 from the smallest zero: 200,000,003 trace points
        (
            {"z.json": '{"m0": [0.0, 1e-7, 3.141592653589793, -3.141592653589793]}'},
            ["recover", "z.json", "--kind", "zeros", "--imbound", "10"],
        ),
        # the default window 20*pi/1e-6 holds 2e10 points of the length 1e3
        (
            {"tiny.csv": "length,holonomy,multiplicity\n1e-6,0.5,1\n1e3,0.7,1\n"},
            ["recover", "tiny.csv"],
        ),
        ({}, ["zeros", str(DATA / "small.csv"), "--imbound", "1e9", "--maxm", "0"]),
        # 5,000,050,001 progressions of one or two points per class
        ({}, ["zeros", str(DATA / "small.csv"), "--imbound", "1", "--maxm", "100000"]),
    ],
    ids=["recover_zeros", "recover_default_window", "zeros", "zeros_progressions"],
)
def test_window_past_the_point_cap_is_domain_error(files, argv, tmp_path, capsys, monkeypatch):
    # refused before any progression is built: numpy allocations are traced too
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["code"] == "domain_error" and "point cap" in err["message"]
    assert peak < 2**20


def test_zeta_reports_the_convergence_warning(capsys):
    # Re(s) = 1 lies outside the half-plane Re(s) > 2 where the product converges
    assert run_cli(["zeta", str(DATA / "small.csv"), "--s", "1+0.5i", "--maxm", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["convergence_warning"] is True
