"""One rule per scalar argument: whole numbers, lengths, holonomies and tolerances.

Every entry point that takes a count, an index, a length, a holonomy or a
tolerance is driven with whole, fractional, non-finite, numpy and
out-of-range values.  A value the rule accepts must give the same result as
its plain int (or float); any other value must raise the entry point's typed
error with the rule's message, never an error from int() or a truncated
result.
"""

import cmath
import io
import json
import math
import re
import sys
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhspec import (
    ComplexMultiset,
    DomainError,
    LatticePoint,
    LieElement,
    ParseError,
    PrimitiveClass,
    RealMultiset,
    Spectrum,
    SpectralError,
    ZeroWindow,
    class_trace,
    euler_factor,
    factor_exponent,
    inverse_class,
    log_derivative,
    power_class,
    strip_k0,
    xi_lambda,
    zero_line,
    zeta_tau,
)
from lhspec.cli_io import _load_zero_data, parse_spectrum
from lhspec.multisets import multiset_equal
from lhspec.recovery import recover_lengths, recover_ratios, smo_check
from lhspec.zeros import subtract_trace

TWO_PI = 2.0 * math.pi
SPEC = Spectrum([(1.0, 0.5, 1), (1.7, 0.0, 2)])
W = ZeroWindow(0, 12.0)
LINE, LENGTHS = zero_line(SPEC, 0, W), SPEC.lengths()
TWISTED = strip_k0(zero_line(SPEC, 1, W), LENGTHS, W)
TRACE = RealMultiset.from_values(class_trace(1.0, 0.0, (0,), W) * 2)
ROTATION = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def load_zero_data(text: str) -> dict:
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        return _load_zero_data("-")


def csv_row(mult) -> Spectrum:
    return parse_spectrum(f"length,holonomy,multiplicity\n1.0,0.5,{mult}\n")


def json_row(mult) -> Spectrum:
    return parse_spectrum(f'[{{"length": 1.0, "holonomy": 0.5, "multiplicity": {mult}}}]', "json")


class Site(NamedTuple):
    name: str
    call: Callable
    error: type
    low: int | None = None  # the least whole number accepted, for the whole-number rule
    file: str | None = None  # "csv" or "json" when the value is parsed from a file


WHOLE_SITES = [
    Site("spectrum multiplicity", lambda x: Spectrum([(1.0, 0.5, x)]), DomainError, 1),
    Site("power_class power", lambda x: power_class(1.0, 0.5, x), DomainError, 1),
    Site("zeta_tau twist index", lambda x: zeta_tau(SPEC, x, 3.0, 1), DomainError, 0),
    Site("log_derivative truncation", lambda x: log_derivative(SPEC, 0, 3.0, x), DomainError, 0),
    Site("xi_lambda m1", lambda x: xi_lambda(LatticePoint(x, 0), 1e-3, 0.5), DomainError, 0),
    Site(
        "factor_exponent m2",
        lambda x: factor_exponent(1, LatticePoint(0, x), PrimitiveClass(1.0, 0.5), 3.0),
        DomainError,
        0,
    ),
    Site("window max_m", lambda x: class_trace(1.0, 0.5, (1,), ZeroWindow(x, 9.0)), DomainError, 0),
    Site("subtract_trace mult", lambda x: subtract_trace(TRACE, 1, 0, (0,), x, W), ValueError, 0),
    Site("RealMultiset multiplicity", lambda x: RealMultiset([(1.0, x)]), ValueError),
    Site("ComplexMultiset multiplicity", lambda x: ComplexMultiset([(1j, x)]), ValueError),
    Site("subtract wants", lambda x: TRACE.subtract([(0.0, x)], 0.0), ValueError, 0),
    # a parsed multiplicity below 1 is a DomainError of the spectrum rule
    Site("CSV multiplicity", csv_row, ParseError, file="csv"),
    Site("JSON multiplicity", json_row, ParseError, file="json"),
    Site(
        "zero data multiplicity",
        lambda x: load_zero_data(f'{{"m0": [{{"value": 0.0, "multiplicity": {x}}}]}}'),
        ParseError,
        0,
        "json",
    ),
]

LENGTH_SITES = [
    Site("spectrum length", lambda x: Spectrum([(x, 0.5, 1)]), DomainError),
    Site("inverse_class length", lambda x: inverse_class(x, 0.5), DomainError),
    Site("power_class length", lambda x: power_class(x, 0.5, 2), DomainError),
    Site("xi_lambda length", lambda x: xi_lambda(LatticePoint(1, 0), x, 0.5), DomainError),
    Site("class_trace length", lambda x: class_trace(x, 0.5, (1,), W), DomainError),
    Site(
        "factor_exponent length",
        lambda x: factor_exponent(1, LatticePoint(0, 1), PrimitiveClass(x, 0.5), 3.0),
        DomainError,
    ),
    Site(
        "euler_factor length",
        lambda x: euler_factor(1, LatticePoint(1, 0), PrimitiveClass(x, 0.5), 3.0),
        DomainError,
    ),
    Site("window im_bound", lambda x: class_trace(1.0, 0.5, (1,), ZeroWindow(0, x)), DomainError),
]


def csv_holonomy(x) -> Spectrum:
    return parse_spectrum(f"length,holonomy,multiplicity\n1.0,{x},1\n")


def json_holonomy(x) -> Spectrum:
    return parse_spectrum(f'[{{"length": 1.0, "holonomy": {x}, "multiplicity": 1}}]', "json")


HOLONOMY_SITES = [
    Site("power_class holonomy", lambda x: power_class(1.0, x, 3), DomainError),
    Site("inverse_class holonomy", lambda x: inverse_class(1.0, x), DomainError),
    Site("xi_lambda holonomy", lambda x: xi_lambda(LatticePoint(1, 2), 1.0, x), DomainError),
    Site(
        "factor_exponent holonomy",
        lambda x: factor_exponent(1, LatticePoint(0, 1), PrimitiveClass(1.0, x), 3.0),
        DomainError,
    ),
    Site(
        "euler_factor holonomy",
        lambda x: euler_factor(1, LatticePoint(1, 0), PrimitiveClass(1.0, x), 3.0),
        DomainError,
    ),
    # a non-finite holonomy in a file is a DomainError of the spectrum rule
    Site("CSV holonomy", csv_holonomy, DomainError, file="csv"),
    Site("JSON holonomy", json_holonomy, DomainError, file="json"),
]

TOL_SITES = [
    Site("recover_lengths tol", lambda x: recover_lengths(LINE, W, x), DomainError),
    Site("recover_ratios tol", lambda x: recover_ratios(TWISTED, LENGTHS, W, x), DomainError),
    Site("smo_check tol", lambda x: smo_check(SPEC, SPEC, 1, W, x), DomainError),
    Site("Spectrum tol", lambda x: Spectrum([(1.0, 0.5, 1)], x), ValueError),
    Site("RealMultiset tol", lambda x: RealMultiset([(1.0, 1)], x), ValueError),
    Site("ComplexMultiset tol", lambda x: ComplexMultiset([(1j, 1)], x), ValueError),
    Site("subtract tol", lambda x: TRACE.subtract([(0.0, 1)], x), ValueError),
    Site("subtract_trace tol", lambda x: subtract_trace(TRACE, 1, 0, (0,), 2, W, x), ValueError),
    # no length to strip: the tolerance is still checked
    Site("strip_k0 tol", lambda x: strip_k0(LINE, RealMultiset(), W, x), ValueError),
    Site("multiset_equal tol", lambda x: multiset_equal(LINE, LINE, x), ValueError),
    Site("LieElement tol", lambda x: LieElement(ROTATION, x).matrix.tolist(), DomainError),
]

# the special values are drawn half the time, so that each site meets every
# one of them within its examples
special = [1.5, -1, math.nan, math.inf, -math.inf, 2**63]
small = st.integers(-2, 4).flatmap(
    lambda n: st.sampled_from([n, float(n), np.int64(n), np.float64(n), np.float32(n)])
)
whole_values = st.sampled_from(special) | small
file_values = st.sampled_from(special + ["3", "3.0"]) | small
length_values = st.sampled_from(
    [0.5, 2, np.float32(1.5), np.float64(3.0), 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]
)
holonomy_values = st.sampled_from(
    [0.5, 0.0, -0.0, 7.0, -1e-300, -3.0, 1e300, TWO_PI, np.float32(1.5), np.float64(6.5)]
    + [math.nan, math.inf, -math.inf, np.float64(math.nan)]
)
tol_values = st.sampled_from(
    [0.0, 1e-9, 0.25, 1, np.float64(1e-8), -1e-9, math.nan, math.inf, -math.inf]
)


def as_whole(x):
    """The int the whole-number rule reads x as, or None: written apart from the library."""
    if isinstance(x, str):
        return int(x) if re.fullmatch(r"[+-]?\d+", x) else None
    if isinstance(x, (int, np.integer)):
        return int(x)
    return int(x) if math.isfinite(x) and x == math.floor(x) else None


def in_file(x, fmt: str):
    """The text that stands for x in a file, and the value its parser reads back."""
    if fmt == "csv":
        text = x if isinstance(x, str) else str(x)
        return text, text
    text = json.dumps(x.item() if isinstance(x, np.generic) else x)
    return text, json.loads(text)


def outcome(call, x):
    try:
        return "value", call(x)
    except (SpectralError, ValueError, OverflowError) as exc:
        return "error", type(exc)


RULES = {
    "whole": "must be (an|a nonnegative|a positive) integer, got",
    "length": "must be positive, got",
    "holonomy": r"holonomy must lie in \[0, 2\*pi\), got",
    "tol": "tolerance must be finite and nonnegative, got",
}
CASES = (
    [("whole", s) for s in WHOLE_SITES]
    + [("length", s) for s in LENGTH_SITES]
    + [("holonomy", s) for s in HOLONOMY_SITES]
    + [("tol", s) for s in TOL_SITES]
)


@pytest.mark.parametrize("rule, site", CASES, ids=[s.name for _, s in CASES])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_scalar_argument_rules(rule, site, data):
    if rule == "whole":
        x = data.draw(file_values if site.file else whole_values)
        given_x, read = in_file(x, site.file) if site.file else (x, x)
        n = as_whole(read)
        accepted = n is not None and (site.low is None or n >= site.low)
        plain = str(n) if site.file else n
    elif rule == "holonomy":
        # any finite float is an angle, read mod 2*pi
        x = data.draw(holonomy_values)
        given_x, read = in_file(x, site.file) if site.file else (x, x)
        accepted = math.isfinite(float(read))
        plain = in_file(float(read), site.file)[0] if site.file else float(x)
    else:
        given_x = data.draw(length_values if rule == "length" else tol_values)
        v = float(given_x)
        accepted = 0.0 < v < math.inf if rule == "length" else 0.0 <= v < math.inf
        plain = v
    if accepted:
        assert outcome(site.call, given_x) == outcome(site.call, plain)
    else:
        with pytest.raises(site.error, match=RULES[rule]):
            site.call(given_x)


# ---------------------------------------------------------------------------
# results past the float range


def test_xi_lambda_overflow_is_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        xi_lambda(LatticePoint(800, 0), 1.0, 0.5)
    with pytest.raises(DomainError, match="overflows"):
        xi_lambda(LatticePoint(2, 0), 1e308, 0.5)  # (m1 + m2) * a is inf itself
    assert math.isfinite(abs(xi_lambda(LatticePoint(700, 0), 1.0, 0.5)))


def test_phase_overflow_is_domain_error():
    # a finite holonomy whose phase (m1 - m2) * b, or whose exponent's
    # imaginary part, is past the float range
    with pytest.raises(DomainError, match="overflows"):
        xi_lambda(LatticePoint(2, 0), 1.0, 1e308)
    for site in (factor_exponent, euler_factor):
        with pytest.raises(DomainError, match="is not finite"):
            site(1, LatticePoint(1, 0), PrimitiveClass(1.0, 1e308), 3.0)
    assert xi_lambda(LatticePoint(1, 0), 1.0, 1e308) == cmath.exp(complex(1.0, 1e308))
    assert factor_exponent(0, LatticePoint(1, 0), PrimitiveClass(1.0, 1e308), 3.0) == 4 + 1e308j


def test_power_class_overflow_is_domain_error():
    with pytest.raises(DomainError, match="must be positive, got inf"):
        power_class(1e308, 0.5, 2)
    assert power_class(1e308, 0.5, 1).length == 1e308
    # a power past the float range, whose length no float holds
    with pytest.raises(DomainError, match="length of the power must be positive, got inf"):
        power_class(1.0, 0.5, 10**400)


def test_holonomy_reduces_into_its_half_open_range():
    # -1e-300 % 2pi rounds to 2pi, which the rule reads as 0.0
    assert power_class(1.0, -1e-300, 1).holonomy == 0.0
    assert inverse_class(1.0, 1e-300)[1] == 0.0
    assert power_class(1.0, 4.0, 2).holonomy == 8.0 % TWO_PI
    assert inverse_class(1.0, 0.0) == (1.0, 0.0)
