"""Truncated Euler products over a primitive length-holonomy spectrum.

The zeta function attached to a spectrum and a (2m+1)-dimensional twist is
the triple product over k in {-m..m}, classes p, and semilattice points
(m1, m2) of the local factors

    1 - exp(-X),   X = i*k*b(p) + (m1+m2)*a(p) + i*(m1-m2)*b(p) + s*a(p),

each lattice point entering with exponent 1.  All factors are evaluated on
one numpy grid over (class, k, m1, m2), and products as exact (correctly
rounded) sums of log-factors with a single final exponential, so results
are deterministic and do not underflow for deep truncations.  The full
product converges for Re(s) > 2; the truncated one is defined wherever no
factor vanishes, with a ConvergenceWarning outside the half-plane.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceWarning, DivisionByZero, DomainError, FactorZero
from .geodesic import PrimitiveClass, Spectrum, spectrum_difference
from .lie_so31 import rho0


class LatticePoint(NamedTuple):
    """Semilattice index (m1, m2), both nonnegative."""

    m1: int
    m2: int


class TauIndex(NamedTuple):
    """Highest weight m of the twisting representation (dimension 2m+1)."""

    m: int


class Truncation(NamedTuple):
    """Truncation order: m1 and m2 each range over 0..max_m."""

    max_m: int


def _index(x, what: str) -> int:
    # a TauIndex or Truncation, or a bare integer
    m = int(x[0] if isinstance(x, (TauIndex, Truncation)) else x)
    if m < 0:
        raise DomainError(f"{what} must be nonnegative, got {x!r}")
    return m


def xi_lambda(lp: LatticePoint, a: float, b: float) -> complex:
    """Semilattice character value exp((m1+m2)*a + i*(m1-m2)*b)."""
    m1, m2 = int(lp[0]), int(lp[1])
    if m1 < 0 or m2 < 0:
        raise DomainError(f"lattice point must be nonnegative, got {lp!r}")
    if a <= 0:
        raise DomainError(f"length must be positive, got {a!r}")
    return cmath.exp(complex((m1 + m2) * a, (m1 - m2) * b))


def _one_minus_exp_neg(re: float, im: float) -> complex:
    # stable 1 - exp(-(re + i*im)): no cancellation for small |X|
    damp = math.exp(-re)
    return complex(
        -math.expm1(-re) + damp * 2.0 * math.sin(im / 2.0) ** 2,
        damp * math.sin(im),
    )


def factor_exponent(k: int, lp: LatticePoint, cls: PrimitiveClass, s: complex) -> complex:
    """The exponent X of the local factor 1 - exp(-X)."""
    a, b = float(cls[0]), float(cls[1])
    m1, m2 = int(lp[0]), int(lp[1])
    s = complex(s)
    return complex(
        (m1 + m2) * a + s.real * a,
        k * b + (m1 - m2) * b + s.imag * a,
    )


def euler_factor(k: int, lp: LatticePoint, cls: PrimitiveClass, s: complex) -> complex:
    """One local factor 1 - exp(-X); exactly 0 when X lies in 2*pi*i*Z."""
    x = factor_exponent(k, lp, cls, s)
    return _one_minus_exp_neg(x.real, x.imag)


def _warn_halfplane(s: complex, stacklevel: int = 3) -> None:
    if s.real <= 2.0 * rho0():
        warnings.warn(
            f"Re(s)={s.real!r} is outside the convergence half-plane Re(s) > 2; "
            "truncated value returned",
            ConvergenceWarning,
            stacklevel=stacklevel,
        )


# float64 bincount weights sum exactly below 2**53: fewer than 2**26 terms
# of one 26-bit half of a 53-bit mantissa each
_SPLIT = 26
_MAX_TERMS = 2**_SPLIT
# below this magnitude fewer than 2**26 terms sum to less than 2**995, so
# neither fsum (which can raise OverflowError on an intermediate sum) nor
# the final rounding overflows
_BIG = 2.0**969
# frexp exponents start at -1073 (the smallest subnormal); shifted to be >= 0
_EXP_OFFSET = 1074


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of float64 terms, equal to math.fsum.

    A term is q * 2**(exp - 53) with an integer mantissa |q| < 2**53 from
    frexp.  The high and low 26 bits of q are summed per exponent by
    bincount without rounding, the buckets add up to one Python int, and int
    true division rounds it once.  Non-finite or huge terms, 2**26 terms or
    more, and an exact-zero total (whose sign fsum decides) go to fsum.
    The terms of an array of any shape are taken in C order.
    """
    x = x.ravel()
    if x.size >= _MAX_TERMS or not np.abs(x).max(initial=0.0) < _BIG:  # also NaN
        return math.fsum(x.tolist())
    q, exp = np.frexp(x)
    q *= 2.0**53
    hi = q * 2.0**-_SPLIT
    np.floor(hi, out=hi)
    lo = hi * 2.0**_SPLIT
    np.subtract(q, lo, out=lo)  # in [0, 2**26), also for negative q
    exp += _EXP_OFFSET
    hi_sums = np.bincount(exp, weights=hi)
    lo_sums = np.bincount(exp, weights=lo)
    nz = np.flatnonzero((hi_sums != 0) | (lo_sums != 0))
    total = 0
    for e, h, l in zip(nz.tolist(), hi_sums[nz].tolist(), lo_sums[nz].tolist()):
        total += ((int(h) << _SPLIT) + int(l)) << e
    if total == 0:
        return math.fsum(x.tolist())
    return total / (1 << (_EXP_OFFSET + 53))


def _factor_grid(spec: Spectrum, tau, s: complex, tr) -> np.ndarray:
    # every local factor on one (class, k, m1, m2) grid; raises FactorZero at
    # the first zero in that order.  Called from the public entry points
    s = complex(s)
    tau_m, max_m = _index(tau, "twist index"), _index(tr, "truncation order")
    _warn_halfplane(s, stacklevel=4)
    a = spec._lengths[:, None, None, None]
    b = spec._holonomies[:, None, None, None]
    k = np.arange(-tau_m, tau_m + 1, dtype=float)[:, None, None]
    m = np.arange(max_m + 1, dtype=float)
    m1, m2 = m[:, None], m[None, :]
    x_re = (m1 + m2) * a + s.real * a
    x_im = k * b + (m1 - m2) * b + s.imag * a
    damp = np.exp(-x_re)
    grid = (-np.expm1(-x_re) + damp * 2.0 * np.sin(x_im / 2.0) ** 2) + 1j * (damp * np.sin(x_im))
    if not grid.all():
        c, j, m1, m2 = np.argwhere(grid == 0)[0].tolist()
        raise FactorZero(
            f"local factor vanishes at s={s!r} for k={j - tau_m}, (m1, m2)=({m1}, {m2}), "
            f"class (a={spec._lengths.item(c)!r}, b={spec._holonomies.item(c)!r})"
        )
    return grid


def zeta_tau(spec: Spectrum, tau, s: complex, tr) -> complex:
    """Truncated zeta value: the triple product of local factors.

    Evaluated as exp of the exact sum of multiplicity-weighted
    log-factors.  Raises FactorZero if s is a zero of some local factor.
    """
    logs = np.log(_factor_grid(spec, tau, s, tr))
    mult = spec._counts[:, None, None, None]
    return complex(np.exp(complex(_exact_sum(mult * logs.real), _exact_sum(mult * logs.imag))))


def log_derivative(spec: Spectrum, tau, s: complex, tr) -> complex:
    """Analytic d/ds of log zeta_tau: sum of a(p)*exp(-X)/(1 - exp(-X)).

    Every local factor 1 - exp(-X) contributes a(p)*(1/f - 1) with f the
    factor value, since exp(-X) = 1 - f and dX/ds = a(p).
    """
    # in place, so that one grid is held, with the operands of (mult * a) * (1.0 / f - 1.0)
    terms = _factor_grid(spec, tau, s, tr)
    np.divide(1.0, terms, out=terms)
    terms -= 1.0
    np.multiply((spec._counts * spec._lengths)[:, None, None, None], terms, out=terms)
    return complex(_exact_sum(terms.real), _exact_sum(terms.imag))


def zeta_ratio(spec1: Spectrum, spec2: Spectrum, tau, s: complex, tr) -> complex:
    """Ratio of the two truncated zetas with shared classes cancelled first.

    Classes present in both spectra contribute identical factor sets, so only
    the multiset differences S1 = spec1 - spec2 and S2 = spec2 - spec1 are
    evaluated.  A vanishing surviving denominator factor raises
    DivisionByZero; a vanishing numerator factor propagates as FactorZero.
    """
    s = complex(s)
    tau_m, max_m = _index(tau, "twist index"), _index(tr, "truncation order")
    s1, s2 = spectrum_difference(spec1, spec2)
    _warn_halfplane(s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        try:
            den = zeta_tau(s2, tau_m, s, max_m)
        except FactorZero as exc:
            raise DivisionByZero(f"denominator {exc}") from exc
        num = zeta_tau(s1, tau_m, s, max_m)
    if den == 0:
        raise DivisionByZero(f"denominator zeta underflowed to 0 at s={s!r}")
    return num / den
