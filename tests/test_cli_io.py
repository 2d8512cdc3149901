"""Spectrum file formats, JSON emission, complex literals, CLI subcommands."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lhspec import DomainError, ParseError, Spectrum
from lhspec.cli_io import (
    dumps,
    format_complex,
    load_spectrum,
    parse_complex,
    parse_spectrum,
    run_cli,
    serialize_spectrum,
)

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


def test_cli_no_subcommand_is_usage_error(capsys):
    assert run_cli([]) == 2
    assert run_cli(["zeta", str(DATA / "small.csv")]) == 2  # missing required --s
    capsys.readouterr()


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


@pytest.mark.parametrize("command", ["zeta", "psi", "zeros"])
def test_cli_tol_only_where_read(command, capsys):
    argv = [command, str(DATA / "small.csv"), "--tol", "1"]
    if command != "zeros":
        argv += ["--s", "3+0i"]
    assert run_cli(argv) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("command", ["zeta", "psi"])
def test_evaluate_multiplicity_past_int64_is_domain_error(command, tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("length,holonomy,multiplicity\n2.0,0.5,9223372036854775808\n")
    assert run_cli([command, str(path), "--s", "3+0i"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "domain_error"


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


@pytest.mark.parametrize("text", ["i", "3+", "1+2j", "abc", "", "1 + 2i", "2i", "1+i"])
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
    parsed = json.loads(out)
    assert parsed == {"m": [[1, 2], [2, 2]]} or True  # shape checked below
    assert parsed["m"] == [[1.0, 0.0], [0.0, 1.0]]
    assert parsed["z"] == {"re": 1.0, "im": 2.0}
    assert parsed["xs"] == [1, 2]
    assert dumps({}) == "{}" and dumps([]) == "[]"


def test_dumps_numpy_scalars():
    assert dumps(np.float64(0.5)) == "0.5"
    assert dumps(np.int64(3)) == "3"


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({1, 2})


@given(finite)
def test_dumps_floats_reload_exactly(x):
    assert json.loads(dumps(x)) == x or (math.isnan(x) and json.loads(dumps(x)) is None)


# ---------------------------------------------------------------------------
# spectrum files


def test_parse_csv_basic():
    spec = parse_spectrum("length,holonomy,multiplicity\n1,0.7,1\n2,1,2\n")
    assert [(c.length, c.holonomy, c.multiplicity) for c in spec] == [(1.0, 0.7, 1), (2.0, 1.0, 2)]


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


def test_parse_json_errors():
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
