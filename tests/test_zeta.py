"""Truncated Euler products: local factors, log-derivative, ratios."""

import cmath
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lhspec import (
    ConvergenceWarning,
    DivisionByZero,
    DomainError,
    FactorZero,
    LatticePoint,
    PrimitiveClass,
    Spectrum,
    euler_factor,
    factor_exponent,
    log_derivative,
    xi_lambda,
    zeta_ratio,
    zeta_tau,
)

from lhspec import zeta as zeta_module
from lhspec.zeta import _exact_sum, _grid, _kept_rows, _row_bounds

from helpers import TWO_PI, factor_grids_reference, grid_sum_reference, rand_spectrum

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
    with pytest.raises(DomainError):  # int() would truncate m1 to 1
        xi_lambda(LatticePoint(1.5, 0), 1.0, 0.5)
    for a in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="length must be positive"):
            xi_lambda(LatticePoint(1, 0), a, 0.5)


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
    with pytest.raises(DomainError):  # int() would truncate m1 to 1
        factor_exponent(0, LatticePoint(1.5, 0), PrimitiveClass(0.5, 0.25, 1), 3 + 2j)


def test_euler_factor_matches_naive_formula(rng):
    for _ in range(50):
        cls = PrimitiveClass(float(rng.uniform(0.5, 3)), float(rng.uniform(0, TWO_PI)), 1)
        s = complex(rng.uniform(2.1, 5), rng.uniform(-5, 5))
        k = int(rng.integers(-2, 3))
        lp = LatticePoint(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        naive = 1.0 - cmath.exp(-complex(factor_exponent(k, lp, cls, s)))
        assert abs(euler_factor(k, lp, cls, s) - naive) < 1e-14


def test_zeta_empty_spectrum_is_one():
    assert zeta_tau(Spectrum(), 2, 4.0 + 1.0j, 5) == 1.0 + 0.0j


def test_zeta_single_factor():
    spec = Spectrum([(1.0, 0.0, 1)])
    got = zeta_tau(spec, 0, 3.0 + 0.0j, 0)
    assert abs(got - (1.0 - E3)) < 1e-15


def test_zeta_matches_brute_force_oracle(rng):
    for _ in range(5):
        spec = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=2.0)
        s = complex(rng.uniform(2.5, 4.0), rng.uniform(-2.0, 2.0))
        got = zeta_tau(spec, 1, s, 6)
        want = brute_zeta(spec, 1, s, 6)
        assert abs(got - want) < 1e-10 * abs(want)


def test_zeta_deep_truncation_oracle():
    # single unit-length class: the product over the full 41x41 grid
    spec = Spectrum([(1.0, 0.0, 1)])
    got = zeta_tau(spec, 0, 3.0 + 0.0j, 40)
    log_want = math.fsum(
        math.log1p(-math.exp(-(m1 + m2 + 3.0))) for m1 in range(41) for m2 in range(41)
    )
    assert abs(got - math.exp(log_want)) < 1e-10


def test_zeta_accepts_plain_ints_for_indices():
    spec = Spectrum([(1.0, 0.0, 1)])
    with pytest.raises(DomainError):
        zeta_tau(spec, -1, 3.0, 0)
    with pytest.raises(DomainError):
        zeta_tau(spec, 0, 3.0, -2)
    assert zeta_tau(spec, 1.0, 3.0, 5.0) == zeta_tau(spec, 1, 3.0, 5)
    # int() would compute at tau 1 and truncation 5, or raise ValueError/OverflowError
    for evaluate in (zeta_tau, log_derivative):
        for bad in (1.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="twist index must be a nonnegative integer"):
                evaluate(spec, bad, 3.0, 5)
        for bad in (5.9, math.nan, -math.inf):
            with pytest.raises(DomainError, match="truncation order must be a nonnegative integer"):
                evaluate(spec, 1, 3.0, bad)


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


def test_zeta_ratio_denominator_underflow():
    # the k = 0, (0, 0) factor is about 1e-12, so log zeta is about -27600: exp underflows
    with pytest.raises(DivisionByZero, match="denominator zeta underflowed to 0"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zeta_ratio(Spectrum(), Spectrum([(1.0, 0.0, 1000)]), 0, 1e-12 + 0j, 2)


def test_zeta_past_the_float_range_is_domain_error():
    small = Spectrum([(1.0, 0.7, 1), (2.0, 1.0, 2)])
    s = -300 + 0.3j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DomainError, match=r"log zeta = \(23760\+"):
            zeta_tau(small, 0, s, 3)
        with pytest.raises(DomainError, match="past the float range"):
            zeta_ratio(small, Spectrum([(5.0, 1.0, 1)]), 0, s, 3)
        assert log_derivative(small, 0, s, 3).real == -80.0


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
    except (ArithmeticError, ValueError, FactorZero, DomainError) as exc:
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


def test_scaled_sum_leaves_huge_and_non_finite_terms_to_fsum():
    # the exact sum gives up on a term of 2**969 or more, or one that is not
    # finite, and fsum decides; just below 2**969 it sums
    below = math.nextafter(2.0**969, 0.0)
    assert zeta_module._scaled_sum(np.array([below, 1.0, -below])) == 2**zeta_module._SCALE_BITS
    for bad in (2.0**969, -(2.0**969), math.inf, -math.inf, math.nan):
        assert zeta_module._scaled_sum(np.array([1.0, bad])) is None


# terms at the int64 bounds of the limb finish: the top mantissa at the
# highest exponent below the fsum fallback, one term in every exponent
# bucket, and a total that cancels to zero
TOP = (2**53 - 1) * 2.0**915
BUCKETS = [math.ldexp(2**53 - 1, e) for e in range(-1126, 916)]


@given(
    st.builds(
        lambda x, n, alt: [x, -x if alt else x] * n,
        wide | subnormal,
        st.integers(1, 2**12),
        st.booleans(),
    )
)
@example([TOP] * 2**20)
@example([TOP, -TOP] * 2**19)
@example([-TOP] * 2**20)
@example(BUCKETS)
@example([-x for x in BUCKETS])
@example(BUCKETS + [-x for x in BUCKETS])
@example([TOP] * 2**19 + [-0.0] + [-TOP] * 2**19)
@settings(max_examples=50, deadline=None)
def test_exact_sum_matches_fsum_at_the_limb_bounds(xs):
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
# class vanishing at k = 0 only while the second vanishes at every k.  The
# sums leave rows out at the library's cut, and at a cut of 1 nearly every
# row, which makes them fall back to every term; the result is the same.
@given(
    class_rows,
    st.integers(0, 2),
    points,
    st.integers(0, 8) | st.just(30),
    st.sampled_from([zeta_module._CUT, 1.0]),
)
@example([(1.0, 0.5, 1), (2.0, 0.0, 1)], 0, -1 + 0j, 2, zeta_module._CUT)
@example([(1.0, 0.5, 1)], 1, -1 + 0j, 2, zeta_module._CUT)
@example([(1.0, 0.5, 1), (2.0, 0.0, 1)], 1, -2 + 0j, 2, zeta_module._CUT)
@example([(1.0, 0.0, 1)], 0, 2.225073858507203e-309j, 30, zeta_module._CUT)  # a NaN psi sum
# rows left out: lengths up to 5 at Re(s) = 4, and at Re(s) = 50, where
# every row of the longer class is (a row of largest bound is always kept)
@example([(0.5, 0.7, 1), (5.0, 2.0, 3)], 1, 4 + 0.5j, 30, zeta_module._CUT)
@example([(0.3, 1.0, 2), (5.0, 2.0, 1)], 2, 50 + 1j, 30, zeta_module._CUT)
# rows left out while kept factors vanish: the first zero in C order is the
# first class's at k = 0, although the second class vanishes at k = -1
@example([(5.0, 0.5, 1), (6.0, 0.0, 1)], 1, -2 + 0j, 30, zeta_module._CUT)
# a cut of 1 leaves out every row below the largest bound: the slack
# straddles a rounding boundary and every term is summed
@example([(0.5, 0.7, 1), (5.0, 2.0, 3)], 1, 4 + 0.5j, 30, 1.0)
@example([(1.0, 0.0, 1)], 0, 3 + 0j, 30, 1.0)
@settings(max_examples=150, deadline=None)
def test_grid_sums_match_fsum_reference(rows, tau_m, s, max_m, cut):
    spec = Spectrum(rows)
    with warnings.catch_warnings(), mock.patch.object(zeta_module, "_CUT", cut):
        warnings.simplefilter("ignore", ConvergenceWarning)
        got_log = _outcome(zeta_tau, spec, tau_m, s, max_m)
        got_psi = _outcome(log_derivative, spec, tau_m, s, max_m)
    want_log = _outcome(lambda: complex(np.exp(grid_sum_reference(spec, tau_m, s, max_m, True))))
    want_psi = _outcome(psi_reference, spec, tau_m, s, max_m)
    assert (got_log, got_psi) == (want_log, want_psi)


@pytest.mark.parametrize(
    "rows, s",
    [([(0.5, 0.7, 1), (5.0, 2.0, 3)], 4 + 0.5j), ([(1.0, 0.5, 1)], 3 + 0.25j)],
)
def test_a_cut_of_one_falls_back_to_every_term(rows, s):
    # the certified sums are tried and fail, then every term is summed: the
    # values are those at the library's cut, which certifies them
    spec = Spectrum(rows)
    exact = mock.Mock(wraps=zeta_module._exact_sum)
    with mock.patch.object(zeta_module, "_exact_sum", exact):
        want = [zeta_tau(spec, 1, s, 30), log_derivative(spec, 1, s, 30)]
        assert exact.call_count == 0
        with mock.patch.object(zeta_module, "_CUT", 1.0):
            got = [zeta_tau(spec, 1, s, 30), log_derivative(spec, 1, s, 30)]
        assert exact.call_count >= 2
    assert [repr(v) for v in got] == [repr(v) for v in want]


def test_rows_of_a_class_with_an_infinite_phase_are_kept():
    # Im(s) * 5 overflows, so every sine of the second class is NaN; those
    # rows are far below the cut, but leaving them out would hide the NaN
    spec = Spectrum([(0.3, 0.5, 1), (5.0, 0.5, 1)])
    s = complex(50.0, 1e308)
    with pytest.raises(DomainError, match=r"log zeta = \(nan\+nanj\)"):
        zeta_tau(spec, 1, s, 30)
    with pytest.raises(DomainError, match=r"not finite: \(nan\+nanj\)"):
        log_derivative(spec, 1, s, 30)


def _points(f, classes):
    # the columns of a (k, point) factor array with their classes, as rows of
    # uint64 bits in sorted order, so that gathers in any order compare equal
    cols = np.column_stack((classes.astype(np.uint64), f.T.copy().view(np.uint64)))
    return cols[np.lexsort(cols.T[::-1])]


# a left-out row holds factors 1 + i*y, |y| <= damp, so each of its terms is
# within 8 times its row bound, w * damp**2 (real part) and w * damp
# (imaginary part); the gathered factors are those of the full grid, in
# either block, and the second block holds those of the rows marked near
@given(
    class_rows,
    st.integers(0, 2),
    st.builds(complex, st.floats(-1.0, 60.0), st.floats(-6.0, 6.0)),
    st.integers(0, 40),
)
@example([(0.5, 0.7, 1), (5.0, 2.0, 3)], 1, 4 + 0.5j, 30)
@example([(0.3, 1.0, 2), (5.0, 2.0, 1)], 2, 50 + 1j, 30)
@settings(max_examples=150, deadline=None)
def test_left_out_terms_lie_within_their_bounds(rows, tau_m, s, max_m):
    spec = Spectrum(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        try:
            grid = _grid(spec, tau_m, s, max_m)
            every = grid.every()
        except FactorZero:
            return
    n = np.add.outer(np.arange(max_m + 1), np.arange(max_m + 1))  # m1 + m2
    for weights, terms in (
        (spec._counts, zeta_module._log_terms),
        (spec._counts * spec._lengths, zeta_module._psi_terms),
    ):
        re_bound, im_bound = _row_bounds(grid, weights)
        lead = _kept_rows(grid, im_bound)
        kept = n < lead[:, None, None]  # (class, m1, m2)
        grid_points = every.transpose(1, 0, 2, 3)  # (k, class, m1, m2)
        c = np.nonzero(kept)[0]
        factors, classes, size = grid.factors(lead)
        assert size == factors.shape[1]
        assert np.array_equal(_points(factors, classes), _points(grid_points[:, kept], c))
        near = (np.arange(2 * max_m + 1) % 2 == 1) & (np.arange(2 * max_m + 1) < lead[:, None])
        factors, classes, size = grid.factors(lead, near)
        marked = kept & near[:, n]
        first = kept & ~marked
        assert np.array_equal(
            _points(factors[:, :size], classes[:size]),
            _points(grid_points[:, first], np.nonzero(first)[0]),
        )
        assert np.array_equal(
            _points(factors[:, size:], classes[size:]),
            _points(grid_points[:, marked], np.nonzero(marked)[0]),
        )
        re, im = terms(every.copy(), weights[:, None, None, None])
        left = ~kept[:, None]  # (class, k, m1, m2)
        assert np.all((np.abs(re) <= 8 * re_bound[:, n][:, None]) | ~left)
        assert np.all((np.abs(im) <= 8 * im_bound[:, n][:, None]) | ~left)


def test_kept_rows_hold_every_row_that_fails_a_premise():
    # rows 0-5 of each class: the bound falls below the cut from row 2 on;
    # a row with em != 1.0 or damp > 2**-54 is kept, and so are the rows
    # before it, and a NaN sine keeps every row of its class
    damp = np.array([[2.0**30, 2.0**-40, 2.0**-90, 2.0**-90, 2.0**-90, 2.0**-90]] * 2)
    em = np.ones_like(damp)
    sines = np.zeros((1, 2, 6))
    sines[0, 1, 0] = math.nan
    spec = Spectrum([(1.0, 0.5, 1), (2.0, 0.5, 1)])
    grid = zeta_module._Grid(spec, 3j, 0, 3, damp, em, sines, sines)
    assert _kept_rows(grid, damp).tolist() == [2, 6]
    em[:, 3] = 1.0 - 2.0**-53
    assert _kept_rows(grid, damp).tolist() == [4, 6]
    em[:, 3] = 1.0
    damp[:, 4] = 2.0**-53
    assert _kept_rows(grid, damp).tolist() == [5, 6]


def _value(f, *args):
    # a value as float.hex of both parts, or the typed error
    try:
        v = f(*args)
    except (FactorZero, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return v.real.hex(), v.imag.hex()


# a sweep case whose series certification fails and whose exact logs then
# certify, and one where even slack - err reaches a rounding boundary, so that
# every term is summed as without near rows
RETRIED = (
    [
        (1.9334842853651435, 5.637762460837776, 2),
        (2.124838930937864, 5.376897726851463, 3),
        (3.0207574110098028, 2.3148787573135396, 1),
        (2.584258878829674, 4.9230952469557545, 3),
        (1.6939890619599685, 3.3083917311929265, 2),
        (1.66204417074268, 4.669168878213738, 3),
    ],
    2,
    3.0821422057557246 + 0.699793586354513j,
    32,
)
FELL_BACK = (
    [
        (0.9857095949595849, 1.589662482685131, 2),
        (4.852966644911794, 3.4435004929915176, 1),
        (3.9804824117347195, 0.2388652110444625, 3),
        (4.741086854718861, 0.9769308649829797, 3),
        (4.376790785694631, 4.404410076549769, 2),
    ],
    0,
    -1 + 0j,
    20,
)


# the series logs of the near rows move no value: with _NEAR = 0 no row is
# near, and zeta_tau gives the same floats and the same errors
@given(
    class_rows,
    st.integers(0, 2),
    st.builds(complex, st.floats(-1.0, 60.0), st.floats(-6.0, 6.0)),
    st.integers(0, 40),
)
@example(*RETRIED)
@example(*FELL_BACK)
@example([(0.5, 0.7, 1), (5.0, 2.0, 3)], 1, 4 + 0.5j, 30)
@example([(1.0, 0.5, 1), (2.0, 0.0, 1)], 1, -2 + 0j, 30)  # FactorZero
@settings(max_examples=150, deadline=None)
def test_near_rows_move_no_value(rows, tau_m, s, max_m):
    spec = Spectrum(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        got = _value(zeta_tau, spec, tau_m, s, max_m)
        with mock.patch.object(zeta_module, "_NEAR", 0.0):
            want = _value(zeta_tau, spec, tau_m, s, max_m)
    assert got == want


@pytest.mark.parametrize(
    "case",
    [
        RETRIED,
        FELL_BACK,
        ([(0.5, 0.7, 1), (5.0, 2.0, 3)], 1, 4 + 0.5j, 30),
        ([(1.0, 0.5, 1)], 0, 3 + 0.25j, 30),
    ],
)
def test_a_failed_series_certification_retries_with_the_exact_logs(case):
    # with a huge error factor the series never certifies and err exceeds the
    # slack, so every near block takes np.log and is certified again: the values
    # are those with no near rows, and every term is summed no more often
    spec, tau_m, s, max_m = Spectrum(case[0]), *case[1:]
    every = mock.patch.object(
        zeta_module._Grid, "every", autospec=True, side_effect=zeta_module._Grid.every
    )
    series = mock.Mock(wraps=zeta_module._log_series)
    exact = mock.Mock(wraps=zeta_module._log_terms)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        with every as off, mock.patch.object(zeta_module, "_NEAR", 0.0):
            want = _value(zeta_tau, spec, tau_m, s, max_m)
        with every as forced, mock.patch.object(zeta_module, "_SERIES_ERR", 2.0**60):
            with mock.patch.object(zeta_module, "_log_series", series):
                with mock.patch.object(zeta_module, "_log_terms", exact):
                    got = _value(zeta_tau, spec, tau_m, s, max_m)
    assert got == want
    assert series.call_count == 1
    assert exact.call_count >= 1  # the near block's exact logs
    assert forced.call_count <= off.call_count


def test_a_series_certification_that_cannot_hold_for_np_log_sums_every_term():
    # in FELL_BACK one part fails even with slack - err, so with the terms of
    # np.log, within err, it fails with its slack too: the near block takes
    # no np.log, and every term is summed at once
    spec, tau_m, s, max_m = Spectrum(FELL_BACK[0]), *FELL_BACK[1:]
    exact = mock.Mock(wraps=zeta_module._log_terms)
    with warnings.catch_warnings(), mock.patch.object(zeta_module, "_log_terms", exact):
        warnings.simplefilter("ignore", ConvergenceWarning)
        got = _value(zeta_tau, spec, tau_m, s, max_m)
    assert exact.call_count == 1 and exact.call_args.args[0].ndim == 4  # the full grid
    with mock.patch.object(zeta_module, "_NEAR", 0.0):
        assert got == _value(zeta_tau, spec, tau_m, s, max_m)


def _one_minus_exp(re_x, im_x):
    # the factors 1 - exp(-X) as the grid builds them
    damp = np.exp(-re_x)
    return zeta_module._factor(-np.expm1(-re_x), damp, np.sin(im_x / 2.0) ** 2, np.sin(im_x))


# factors within 2**-30 of 1, their damp over every binade from 2**-30 down
# past the subnormals: the series differs from np.log by less than 2**-44 *
# (|Re z| + |Im z|) in each part, and in fact by less than 2**-44 * (|Re z| +
# |z|**2) in the real part and 2**-44 * |Im z| in the imaginary part, and the
# exact sums of the weighted terms differ by at most the err that
# _log_series reports
@given(
    st.lists(
        st.tuples(
            st.floats(30 * math.log(2.0), 750.0),
            st.floats(-50.0, 50.0)
            | st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, 1e-300])
            | st.builds(
                lambda k, eps: k * math.pi / 2 + eps, st.integers(-8, 8), st.floats(-1e-9, 1e-9)
            ),
            st.integers(1, 5),
        ),
        min_size=1,
        max_size=60,
    )
)
@example([(21.0, math.pi / 3, 1), (37.5, 1.0, 2), (37.3, 0.0, 3), (744.0, 0.5, 1)])
@settings(max_examples=300, deadline=None)
def test_series_log_lies_within_its_bound(points):
    re_x, im_x, w = (np.array(v, dtype=float) for v in zip(*points))
    f = _one_minus_exp(re_x, im_x)
    near = np.abs(f - 1.0) <= 2.0**-30
    assume(near.any())
    f, w = f[near], w[near]
    z = f - 1.0
    r, i = np.abs(z.real), np.abs(z.imag)
    series_re, series_im, errs = zeta_module._log_series(f[None], w, 0)
    log_re, log_im = zeta_module._log_terms(f[None], w)
    d_re, d_im = np.abs(series_re[0] - log_re[0]), np.abs(series_im[0] - log_im[0])
    assert np.all(d_re <= 2.0**-44 * w * (r + i)) and np.all(d_im <= 2.0**-44 * w * (r + i))
    assert np.all(d_re <= 2.0**-44 * w * (r + r * r + i * i))
    assert np.all(d_im <= 2.0**-44 * w * i)
    for got, want, err in ((series_re, log_re, errs[0]), (series_im, log_im, errs[1])):
        gap = zeta_module._scaled_sum(got) - zeta_module._scaled_sum(want)
        assert Fraction(abs(gap), 2**zeta_module._SCALE_BITS) <= Fraction(err)


def test_psi_far_right_certifies_its_zero_real_part():
    # at Re(s) = 200 every factor is 1.0 + i*y, so the real part of every term,
    # kept or left out, is +0.0; with the zero slack of that part the sum is
    # certified as 0.0 and no term of the full grid is summed
    spec = Spectrum([(0.3 + 0.45 * j, 0.3 * j + 0.1, 1 + j % 3) for j in range(10)])
    s = complex(200.0, 0.5)
    every = AssertionError("every term summed")
    with mock.patch.object(zeta_module._Grid, "every", side_effect=every):
        got = log_derivative(spec, 1, s, 30)
    assert repr(got) == repr(psi_reference(spec, 1, s, 30))
    assert math.copysign(1.0, got.real) == 1.0 and got.imag != 0.0


def test_fsum_of_an_exact_zero_with_a_plus_zero_term_is_plus_zero():
    # _certified_sum returns 0.0 for an exact-zero sum of kept terms when the
    # slack is 0.0, where every other term is +0.0: fsum of such terms gives
    # +0.0 on this interpreter
    for terms in ([0.0], [-0.0, 0.0], [1.5, -1.5, 0.0], [-0.0, 5e-324, 0.0, -5e-324]):
        assert math.fsum(terms).hex() == "0x0.0p+0"
    assert zeta_module._certified_sum(0, 0.0).hex() == "0x0.0p+0"
    assert zeta_module._certified_sum(0, 5e-324) is None
    assert zeta_module._certified_sum(None, 0.0) is None


def psi_reference(spec, tau_m, s, max_m):
    """The fsum reference of log_derivative, which refuses a sum that is not finite."""
    value = grid_sum_reference(spec, tau_m, s, max_m, False)
    if not cmath.isfinite(value):
        raise DomainError(f"log-derivative at s={s!r} is not finite: {value!r}")
    return value


# the grid against the per-(class, k) reference bit for bit, as uint64 views
# of its real and imaginary parts, so signed zeros and NaN payloads count
@given(
    class_rows,
    st.integers(0, 2),
    st.builds(complex, st.floats(-800.0, 8.0), st.floats(-6.0, 6.0)),
    st.integers(0, 35),
)
@example([(1.0, 0.0, 1)], 1, complex(3.0, -0.0), 2)  # x_im = -0.0 at k = -1
@example([(5.0, 0.5, 1), (0.3, 0.0, 2)], 2, -800 + 1j, 4)  # damp past the float range
@example([(1.0, 0.5, 1), (2.0, 0.0, 1)], 0, -1 + 0j, 2)  # FactorZero
@settings(max_examples=150, deadline=None)
def test_factor_grid_matches_reference_bit_for_bit(rows, tau_m, s, max_m):
    spec = Spectrum(rows)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", ConvergenceWarning)
        try:
            grids = factor_grids_reference(spec, tau_m, s, max_m)
        except FactorZero as exc:
            with pytest.raises(FactorZero) as caught:
                _grid(spec, tau_m, s, max_m).every()
            assert str(caught.value) == str(exc)
            return
        grid = _grid(spec, tau_m, s, max_m).every()
    assert grid.shape == (len(spec), 2 * tau_m + 1, max_m + 1, max_m + 1)
    for (_, _, ref), part in zip(grids, grid.reshape(-1, max_m + 1, max_m + 1), strict=True):
        for got_part, ref_part in ((part.real, ref.real), (part.imag, ref.imag)):
            assert np.array_equal(got_part.view(np.uint64), ref_part.view(np.uint64))


@pytest.mark.parametrize(
    "rows, tau_m, max_m, refused",
    [
        ([(1.0, 0.0, 1)], 0, 8191, True),  # exactly 2**26 factors
        ([(1.0, 0.0, 1)], 0, 8190, False),
        ([(1.0, 0.0, 1), (2.0, 0.5, 3)], 1, 3344, True),
        ([(1.0, 0.0, 1), (2.0, 0.5, 3)], 1, 3343, False),
        ([(1.0, 0.0, 1)], 2**62, 0, True),
    ],
)
@pytest.mark.parametrize("evaluate", [zeta_tau, log_derivative])
def test_grid_of_2_26_factors_is_domain_error(evaluate, rows, tau_m, max_m, refused):
    # classes * (2*tau + 1) * (max_m + 1)**2 >= 2**26 is refused before the
    # first array of the grid is made; below the cap that array is made
    spec = Spectrum(rows)
    expected = (DomainError, r"2\*\*26") if refused else (AssertionError, "grid allocated")
    with mock.patch.object(np, "arange", side_effect=AssertionError("grid allocated")):
        with pytest.raises(expected[0], match=expected[1]):
            evaluate(spec, tau_m, 3.0, max_m)
