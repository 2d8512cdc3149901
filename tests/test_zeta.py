"""Truncated Euler products: local factors, log-derivative, ratios."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhspec import (
    ConvergenceWarning,
    DivisionByZero,
    DomainError,
    FactorZero,
    LatticePoint,
    PrimitiveClass,
    Spectrum,
    TauIndex,
    Truncation,
    euler_factor,
    factor_exponent,
    log_derivative,
    xi_lambda,
    zeta_ratio,
    zeta_tau,
)

from lhspec.zeta import _exact_sum

from helpers import TWO_PI, grid_sum_reference, rand_spectrum

E3 = math.exp(-3.0)


def brute_zeta(spec, tau_m, s, max_m):
    """Direct double-sum-of-logs oracle, no vectorization, no stabilization."""
    total = 0.0 + 0.0j
    for a, b, mult in spec:
        for k in range(-tau_m, tau_m + 1):
            for m1 in range(max_m + 1):
                for m2 in range(max_m + 1):
                    x = (m1 + m2) * a + s * a + 1j * (k * b + (m1 - m2) * b)
                    total += mult * cmath.log(1.0 - cmath.exp(-x))
    return cmath.exp(total)


def test_xi_lambda_values():
    assert xi_lambda(LatticePoint(0, 0), 1.7, 0.3) == 1.0
    got = xi_lambda(LatticePoint(1, 0), 1.0, math.pi)
    assert abs(got - (-math.e)) < 1e-12
    with pytest.raises(DomainError):
        xi_lambda(LatticePoint(-1, 0), 1.0, 0.0)
    with pytest.raises(DomainError):
        xi_lambda(LatticePoint(0, 0), -1.0, 0.0)


def test_xi_lambda_swap_conjugates(rng):
    for _ in range(20):
        m1, m2 = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, TWO_PI))
        z = xi_lambda(LatticePoint(m1, m2), a, b)
        w = xi_lambda(LatticePoint(m2, m1), a, b)
        assert abs(z - w.conjugate()) < 1e-12 * abs(z)


def test_euler_factor_examples():
    cls = PrimitiveClass(1.0, 0.0, 1)
    assert euler_factor(0, LatticePoint(0, 0), cls, 0.0) == 0.0
    assert abs(euler_factor(0, LatticePoint(0, 0), cls, 3.0) - (1.0 - E3)) < 1e-16
    got = euler_factor(1, LatticePoint(0, 0), PrimitiveClass(1.0, math.pi, 1), 3.0)
    assert abs(got - (1.0 + E3)) < 1e-15


def test_factor_exponent_shape():
    x = factor_exponent(2, LatticePoint(1, 0), PrimitiveClass(0.5, 0.25, 1), 3 + 2j)
    assert x.real == pytest.approx((1 + 3) * 0.5)
    assert x.imag == pytest.approx(2 * 0.25 + 1 * 0.25 + 2 * 0.5)


def test_euler_factor_matches_naive_formula(rng):
    for _ in range(50):
        cls = PrimitiveClass(float(rng.uniform(0.5, 3)), float(rng.uniform(0, TWO_PI)), 1)
        s = complex(rng.uniform(2.1, 5), rng.uniform(-5, 5))
        k = int(rng.integers(-2, 3))
        lp = LatticePoint(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        naive = 1.0 - cmath.exp(-complex(factor_exponent(k, lp, cls, s)))
        assert abs(euler_factor(k, lp, cls, s) - naive) < 1e-14


def test_zeta_empty_spectrum_is_one():
    assert zeta_tau(Spectrum(), TauIndex(2), 4.0 + 1.0j, Truncation(5)) == 1.0 + 0.0j


def test_zeta_single_factor():
    spec = Spectrum([(1.0, 0.0, 1)])
    got = zeta_tau(spec, TauIndex(0), 3.0 + 0.0j, Truncation(0))
    assert abs(got - (1.0 - E3)) < 1e-15


def test_zeta_matches_brute_force_oracle(rng):
    for _ in range(5):
        spec = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=2.0)
        s = complex(rng.uniform(2.5, 4.0), rng.uniform(-2.0, 2.0))
        got = zeta_tau(spec, TauIndex(1), s, Truncation(6))
        want = brute_zeta(spec, 1, s, 6)
        assert abs(got - want) < 1e-10 * abs(want)


def test_zeta_deep_truncation_oracle():
    # single unit-length class: the product over the full 41x41 grid
    spec = Spectrum([(1.0, 0.0, 1)])
    got = zeta_tau(spec, TauIndex(0), 3.0 + 0.0j, Truncation(40))
    log_want = math.fsum(
        math.log1p(-math.exp(-(m1 + m2 + 3.0))) for m1 in range(41) for m2 in range(41)
    )
    assert abs(got - math.exp(log_want)) < 1e-10


def test_zeta_accepts_plain_ints_for_indices():
    spec = Spectrum([(1.0, 0.0, 1)])
    assert zeta_tau(spec, 0, 3.0, 0) == zeta_tau(spec, TauIndex(0), 3.0, Truncation(0))
    with pytest.raises(DomainError):
        zeta_tau(spec, -1, 3.0, 0)
    with pytest.raises(DomainError):
        zeta_tau(spec, 0, 3.0, -2)


def test_zeta_multiplicative_over_disjoint_spectra(rng):
    s = 3.0 + 1.5j
    for _ in range(10):
        s1 = rand_spectrum(rng, max_classes=4, lmin=0.5, lmax=2.0)
        s2 = rand_spectrum(rng, max_classes=4, lmin=2.1, lmax=4.0)
        z1 = zeta_tau(s1, 1, s, 8)
        z2 = zeta_tau(s2, 1, s, 8)
        z12 = zeta_tau(s1.union(s2), 1, s, 8)
        assert abs(z12 - z1 * z2) < 1e-10 * abs(z12)


def test_zeta_conjugate_symmetry_for_inverse_closed_spectra(rng):
    for _ in range(10):
        half = rand_spectrum(rng, max_classes=4, lmin=0.5, lmax=2.0)
        spec = half.union(half.inverse())
        s = complex(rng.uniform(2.5, 4.0), rng.uniform(0.5, 3.0))
        z = zeta_tau(spec, 0, s, 6)
        zbar = zeta_tau(spec, 0, s.conjugate(), 6)
        assert abs(zbar - z.conjugate()) < 1e-10 * abs(z)


def test_zeta_multiplicity_equals_repetition():
    spec2 = Spectrum([(1.0, 0.7, 2)])
    spec11 = Spectrum([(1.0, 0.7, 1)])
    z2 = zeta_tau(spec2, 1, 3.0 + 0.5j, 5)
    z11 = zeta_tau(spec11, 1, 3.0 + 0.5j, 5)
    assert abs(z2 - z11**2) < 1e-12 * abs(z2)


def test_zeta_deterministic_under_class_order():
    classes = [(1.0, 0.7, 1), (2.3, 4.0, 2), (0.8, 2.2, 1)]
    z1 = zeta_tau(Spectrum(classes), 1, 3.1 + 0.4j, 10)
    z2 = zeta_tau(Spectrum(classes[::-1]), 1, 3.1 + 0.4j, 10)
    assert z1 == z2  # bit-identical: canonical order + compensated sums


def test_truncation_tail_shrinks_monotonically():
    # monotone decrease needs real positive factors (b = 0); complex phases
    # make successive truncation rings oscillate in modulus
    spec = Spectrum([(0.5, 0.0, 1), (0.9, 0.0, 2)])
    s = 3.0 + 0.0j
    diffs = []
    for m in (10, 20, 30, 40):
        z_m = zeta_tau(spec, 0, s, m)
        z_m10 = zeta_tau(spec, 0, s, m + 10)
        diffs.append(abs(z_m - z_m10))
    assert diffs == sorted(diffs, reverse=True)
    assert diffs[-1] < 1e-8


def test_truncation_tail_small_at_40_with_phases():
    spec = Spectrum([(0.5, 1.0, 1), (0.9, 2.0, 2)])
    z_40 = zeta_tau(spec, 0, 3.0 + 0.0j, 40)
    z_50 = zeta_tau(spec, 0, 3.0 + 0.0j, 50)
    assert abs(z_40 - z_50) < 1e-8


def test_factor_zero_reported():
    spec = Spectrum([(1.0, 0.0, 1)])
    with pytest.raises(FactorZero), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zeta_tau(spec, 0, 0.0 + 0.0j, 2)


def test_convergence_warning_outside_halfplane():
    spec = Spectrum([(1.0, 0.5, 1)])
    with pytest.warns(ConvergenceWarning):
        zeta_tau(spec, 0, 1.5 + 0.0j, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zeta_tau(spec, 0, 2.0 + 1e-12 + 0.0j, 2)  # inside: no warning


def test_convergence_warning_points_at_caller():
    spec = Spectrum([(1.0, 0.5, 1)])
    for evaluate in (zeta_tau, log_derivative):
        with pytest.warns(ConvergenceWarning) as rec:
            evaluate(spec, 0, 1.5 + 0.0j, 2)
        assert [r.filename for r in rec] == [__file__]
    with pytest.warns(ConvergenceWarning) as rec:
        zeta_ratio(spec, Spectrum(), 0, 1.5 + 0.0j, 2)
    assert [r.filename for r in rec] == [__file__]


def test_log_derivative_empty_and_single():
    assert log_derivative(Spectrum(), 0, 3.0, 5) == 0.0
    got = log_derivative(Spectrum([(1.0, 0.0, 1)]), 0, 3.0, 0)
    assert abs(got - E3 / (1.0 - E3)) < 1e-15


def test_log_derivative_matches_finite_differences(rng):
    spec = rand_spectrum(rng, max_classes=4, lmin=0.5, lmax=1.2)
    h = 1e-5
    for _ in range(10):
        s = complex(rng.uniform(2.5, 5.0), rng.uniform(-2.0, 2.0))
        psi = log_derivative(spec, 1, s, 12)
        fd = (
            cmath.log(zeta_tau(spec, 1, s + h, 12)) - cmath.log(zeta_tau(spec, 1, s - h, 12))
        ) / (2 * h)
        assert abs(fd - psi) < 1e-6 * abs(psi)


def test_zeta_ratio_identity_and_single_factor():
    spec = Spectrum([(1.0, 0.5, 1), (2.0, 1.0, 2)])
    assert zeta_ratio(spec, spec, 0, 3.5 + 1.0j, 10) == 1.0 + 0.0j
    bigger = spec.union(Spectrum([(1.0, 0.0, 1)]))
    got = zeta_ratio(bigger, spec, 0, 3.0 + 0.0j, 0)
    assert abs(got - (1.0 - E3)) < 1e-15


def test_zeta_ratio_matches_naive_quotient(rng):
    s = 3.0 + 2.0j
    for _ in range(10):
        shared = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=2.0)
        s1 = shared.union(rand_spectrum(rng, max_classes=2, lmin=2.1, lmax=3.0))
        s2 = shared.union(rand_spectrum(rng, max_classes=2, lmin=3.1, lmax=4.0))
        got = zeta_ratio(s1, s2, 1, s, 6)
        naive = zeta_tau(s1, 1, s, 6) / zeta_tau(s2, 1, s, 6)
        assert abs(got - naive) < 1e-10 * abs(naive)


def test_zeta_ratio_reciprocity(rng):
    s = 3.2 + 0.7j
    for _ in range(10):
        s1 = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=2.0)
        s2 = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=2.0)
        prod = zeta_ratio(s1, s2, 1, s, 6) * zeta_ratio(s2, s1, 1, s, 6)
        assert abs(prod - 1.0) < 1e-10


def test_zeta_ratio_denominator_zero():
    num = Spectrum([(1.0, 0.5, 1)])
    den = Spectrum([(1.0, 0.0, 1)])
    # s = 0 zeroes the denominator's k=0, (0,0) factor after cancellation
    with pytest.raises(DivisionByZero), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zeta_ratio(num, den, 0, 0.0 + 0.0j, 2)


def test_zeta_ratio_numerator_zero_propagates():
    num = Spectrum([(1.0, 0.0, 1)])
    den = Spectrum([(2.0, 1.0, 1)])
    # s = -1 zeroes the numerator's (m1, m2) = (1, 0) factor exactly while
    # every surviving denominator factor keeps a nonzero phase
    with pytest.raises(FactorZero), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zeta_ratio(num, den, 0, -1.0 + 0.0j, 2)


def test_values_are_finite_on_random_inputs(rng):
    for _ in range(20):
        spec = rand_spectrum(rng, max_classes=5, lmin=0.5, lmax=5.0)
        s = complex(rng.uniform(2.1, 6.0), rng.uniform(-10, 10))
        z = zeta_tau(spec, 2, s, 15)
        assert np.isfinite(z.real) and np.isfinite(z.imag)
        assert abs(z) > 0.0


# ---------------------------------------------------------------------------
# the exact reducer against math.fsum, and the grid sums against the per-grid
# tolist + fsum reducer; repr is compared, so signed zeros count


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError, FactorZero) as exc:
        return type(exc).__name__, str(exc)


def _check_exact_sum(xs):
    assert _outcome(_exact_sum, np.array(xs, dtype=np.float64)) == _outcome(math.fsum, xs)


wide = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300))
subnormal = st.integers(-(2**52), 2**52).map(lambda i: i * 5e-324)


@given(st.lists(st.floats(width=64) | wide | subnormal, max_size=40))
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([5e-324, -5e-324])
@example([1e308, 1e308, -1e308])  # fsum's intermediate OverflowError
@example([math.inf, -math.inf])
@example([math.nan, 1.0])
@example([1e300, 1e-300, -1e300])
@settings(max_examples=400, deadline=None)
def test_exact_sum_matches_fsum(xs):
    _check_exact_sum(xs)


@given(st.lists(wide | subnormal, max_size=30), st.lists(wide, max_size=5))
@settings(max_examples=200, deadline=None)
def test_exact_sum_matches_fsum_on_cancelling_pairs(xs, rest):
    # the pairs cancel exactly, so the total is what ``rest`` leaves
    _check_exact_sum(xs + rest + [-x for x in reversed(xs)])


holonomies = st.sampled_from([0.0, math.pi]) | st.floats(0.0, TWO_PI, exclude_max=True)
class_rows = st.lists(
    st.tuples(st.floats(0.3, 5.0), holonomies, st.integers(1, 3)), min_size=1, max_size=4
)
points = st.sampled_from([0j, -1 + 0j, 2.5 + 0j, 2.05 + 0.5j]) | st.builds(
    complex, st.floats(-1.0, 4.0), st.floats(-6.0, 6.0)
)


# FactorZero names the first zero in (class, k, m1, m2) order: a zero of the
# second class only, the k = -1 zero before the k = 1 one, and a first
# class vanishing at k = 0 only while the second vanishes at every k
@given(class_rows, st.integers(0, 2), points, st.integers(0, 8) | st.just(30))
@example([(1.0, 0.5, 1), (2.0, 0.0, 1)], 0, -1 + 0j, 2)
@example([(1.0, 0.5, 1)], 1, -1 + 0j, 2)
@example([(1.0, 0.5, 1), (2.0, 0.0, 1)], 1, -2 + 0j, 2)
@settings(max_examples=150, deadline=None)
def test_grid_sums_match_fsum_reference(rows, tau_m, s, max_m):
    spec = Spectrum(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        got_log = _outcome(zeta_tau, spec, tau_m, s, max_m)
        got_psi = _outcome(log_derivative, spec, tau_m, s, max_m)
    want_log = _outcome(lambda: complex(np.exp(grid_sum_reference(spec, tau_m, s, max_m, True))))
    want_psi = _outcome(grid_sum_reference, spec, tau_m, s, max_m, False)
    assert (got_log, got_psi) == (want_log, want_psi)
