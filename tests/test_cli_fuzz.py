"""A fuzz property of the CLI: every input ends in one JSON document and exit 0, 1 or 2.

Stage 1 covers the subcommands that read one spectrum or one matrix:
``decompose``, ``classify``, ``zeta``, ``psi`` and ``zeros``.  Each
example runs ``run_cli`` in process under a lowered point cap, and must
leave no traceback and no RuntimeWarning; the holonomy-reduction
UserWarning of the spectrum reader is documented and allowed.
"""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lhspec import run_cli, zeros

from helpers import TWO_PI, normal_form, rand_algebra, rand_conjugator

SPECIALS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
MAGNITUDES = st.floats(1e-300, 1e300)
REALS = MAGNITUDES | MAGNITUDES.map(lambda x: -x) | SPECIALS
MULTS = st.integers(-1, 3) | st.sampled_from([2**62, 2**63 - 1, 2**63, 2**64])


def mostly(sane, wild):
    """``sane`` three times in four, else ``wild``."""
    return st.integers(0, 3).flatmap(lambda i: wild if i == 0 else sane)


#: rows of spectra the CLI takes (holonomies past [0, 2*pi) are reduced), or of any reals
ROWS = st.lists(
    mostly(
        st.tuples(st.floats(0.1, 5.0), st.floats(-10.0, 20.0), st.integers(1, 3)),
        st.tuples(st.floats(0.5, 5.0) | REALS, st.floats(0.0, TWO_PI) | REALS, MULTS),
    ),
    max_size=4,
)
S_PARTS = mostly(st.floats(-10.0, 10.0), REALS)
TOLS = st.floats(0.0, 10.0)


def _spectrum_file(rows, fmt: str) -> str:
    if fmt == "csv":
        return "length,holonomy,multiplicity\n" + "".join(f"{a!r},{b!r},{m}\n" for a, b, m in rows)
    return json.dumps([{"length": a, "holonomy": b, "multiplicity": m} for a, b, m in rows])


@st.composite
def matrices(draw, kinds) -> str:
    """A 4x4 matrix as JSON of one of ``kinds``, at times with one entry changed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind in ("group", "improper"):
        a, b = draw(st.floats(1e-3, 60.0)), draw(st.floats(0.0, math.pi))
        m = rand_conjugator(rng) @ normal_form(a, b) @ rand_conjugator(rng)
        if kind == "improper":
            m = np.diag([-1.0, 1.0, 1.0, 1.0]) @ m
    elif kind == "algebra":
        m = rand_algebra(rng, draw(st.floats(1e-3, 1e3)))
    else:
        m = np.array(draw(st.lists(REALS, min_size=16, max_size=16))).reshape(4, 4)
    if draw(st.integers(0, 3)) == 0:
        m[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(REALS)
    return json.dumps(m.tolist())


@st.composite
def invocations(draw) -> tuple[str, str, str, list[str]]:
    """(subcommand, input file text, file suffix, further arguments)."""
    command = draw(st.sampled_from(["decompose", "classify", "zeta", "psi", "zeros"]))
    args: list[str] = []
    if command == "classify":
        return command, draw(matrices(["group", "improper", "raw"])), ".json", args
    if command == "decompose":
        if draw(st.booleans()):
            args += ["--tol", repr(draw(TOLS))]
        return command, draw(matrices(["algebra", "group", "raw"])), ".json", args
    fmt = draw(st.sampled_from(["csv", "json"]))
    if draw(st.integers(0, 3)) == 0:
        args += ["--format", draw(st.sampled_from(["csv", "json"]))]
    args += ["--tau", str(draw(st.integers(0, 2))), "--maxm", str(draw(st.integers(0, 3)))]
    if command == "zeros":
        if draw(st.booleans()):
            args.append(f"--imbound={draw(MAGNITUDES | REALS)!r}")  # = lets a value start with -
    else:
        re, im = draw(S_PARTS), draw(S_PARTS)
        args.append(f"--s={re!r}{'-' if math.copysign(1.0, im) < 0 else '+'}{abs(im)!r}i")
    if draw(st.integers(0, 9)) == 0:  # a --tol that none of these three reads: a usage error
        args += ["--tol", repr(draw(TOLS))]
    return command, _spectrum_file(draw(ROWS), fmt), "." + fmt, args


def _boost(x: str) -> str:
    return f"[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, {x}], [0, 0, 0, 1]]"


C20, S20 = math.cosh(20.0), math.sinh(20.0)
IMPROPER = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, C20, S20], [0, 0, S20, C20]]  # det -1
# lengths past the 1e300 of MAGNITUDES: fsum of every psi term overflows an intermediate sum
BIG = _spectrum_file([(1.7e308, 0.5, 1), (1.7e308, 1.5, 1), (1.7e308, 2.5, 1)], "csv")


@given(invocations())
@example(("classify", _boost("2e154"), ".json", []))
@example(("classify", _boost("Infinity"), ".json", []))
@example(("classify", _boost("1e230"), ".json", []))
@example(("classify", json.dumps(IMPROPER), ".json", []))
@example(("psi", BIG, ".csv", ["--s=0+0.3i", "--maxm", "0"]))
@settings(max_examples=600, deadline=None)
def test_cli_ends_in_one_json_document(invocation):
    command, text, suffix, args = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(text)
        with (
            warnings.catch_warnings(record=True) as caught,
            redirect_stdout(out),
            redirect_stderr(err),
            mock.patch.object(zeros, "_POINT_CAP", 2**14),
        ):
            warnings.simplefilter("always")
            code = run_cli([command, str(path), *args])
    event(f"{command} exit {code}")
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue())  # exactly one document: trailing data fails to parse
    assert ("error" in doc) == (code != 0)
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
