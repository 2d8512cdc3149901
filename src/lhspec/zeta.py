"""Truncated Euler products over a primitive length-holonomy spectrum.

The zeta function attached to a spectrum and a (2m+1)-dimensional twist is
the triple product over k in {-m..m}, classes p, and semilattice points
(m1, m2) of the local factors

    1 - exp(-X),   X = i*k*b(p) + (m1+m2)*a(p) + i*(m1-m2)*b(p) + s*a(p),

each lattice point entering with exponent 1.  The twist index m and the
truncation order are plain integers.  All factors are evaluated on one
numpy grid over (class, k, m1, m2), of fewer than 2**26 factors.  Re(X)
depends on (class, m1+m2) and Im(X) on (class, k, m1-m2) alone, so exp and
expm1 run on the first of these small arrays and sin on the second, and
the grid reads them through Hankel and Toeplitz views.  Products are exact
(correctly rounded) sums of log-factors with a single final exponential:
the terms are split into integer bit-position weights, packed into int64
limbs and finished by a few int.from_bytes calls, so results are
deterministic and do not underflow for deep truncations.  The full product
converges for Re(s) > 2; the truncated one is defined wherever no factor
vanishes, with a ConvergenceWarning outside the half-plane.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConvergenceWarning,
    DivisionByZero,
    DomainError,
    FactorZero,
    _positive,
    _reduce_holonomy,
    _whole,
)
from .geodesic import PrimitiveClass, Spectrum, spectrum_difference
from .lie_so31 import rho0


class LatticePoint(NamedTuple):
    """Semilattice index (m1, m2), both nonnegative."""

    m1: int
    m2: int


def xi_lambda(lp: LatticePoint, a: float, b: float) -> complex:
    """Semilattice character value exp((m1+m2)*a + i*(m1-m2)*b)."""
    m1, m2 = (_whole(m, "lattice index", 0) for m in lp)
    a = _positive(a, "length")
    _reduce_holonomy(b)  # only checked: the character takes b as given
    phase = (m1 - m2) * b
    if not math.isfinite(phase):  # cmath.exp would end in "math domain error"
        raise DomainError(f"phase of {(m1, m2)} at holonomy {b!r} overflows a float")
    try:
        z = cmath.exp(complex((m1 + m2) * a, phase))
    except OverflowError:
        z = complex(math.inf)
    if cmath.isinf(z):  # exp of an infinite real part is inf without an OverflowError
        raise DomainError(f"character of {(m1, m2)} at length {a!r} overflows a float")
    return z


def _one_minus_exp_neg(re: float, im: float) -> complex:
    # stable 1 - exp(-(re + i*im)): no cancellation for small |X|
    damp = math.exp(-re)
    return complex(
        -math.expm1(-re) + damp * 2.0 * math.sin(im / 2.0) ** 2,
        damp * math.sin(im),
    )


def factor_exponent(k: int, lp: LatticePoint, cls: PrimitiveClass, s: complex) -> complex:
    """The exponent X of the local factor 1 - exp(-X)."""
    a, b = _positive(cls[0], "length"), float(cls[1])
    _reduce_holonomy(b)  # only checked: the exponent takes b as given
    m1, m2 = (_whole(m, "lattice index", 0) for m in lp)
    s = complex(s)
    x = complex(
        (m1 + m2) * a + s.real * a,
        k * b + (m1 - m2) * b + s.imag * a,
    )
    if not cmath.isfinite(x):
        raise DomainError(f"exponent of factor {(k, m1, m2)} at s = {s!r} is not finite")
    return x


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
# of one 26-bit half of a 53-bit mantissa each.  It is also the cap on the
# factors of one Euler-product grid
_SPLIT = 26
_MAX_TERMS = 2**_SPLIT
# below this magnitude fewer than 2**26 terms sum to less than 2**995, so
# neither fsum (which can raise OverflowError on an intermediate sum) nor
# the final rounding overflows
_BIG = 2.0**969
# frexp exponents start at -1073 (the smallest subnormal); shifted to be >= 0
_EXP_OFFSET = 1074
# bit positions per int64 limb, and limbs per int.from_bytes call: limbs
# with one residue mod 8 lie 64 bits apart and so never overlap
_LIMB = 8


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of float64 terms, equal to math.fsum.

    A term is q * 2**(exp - 53) with an integer mantissa |q| < 2**53 from
    frexp.  The high and low 26 bits of q are summed per exponent by
    bincount without rounding: the hi sums are below 2**53 and the lo sums
    below 2**52 in magnitude.  Folding the hi buckets 26 places up onto the
    lo buckets gives one int64 weight w[e] of bit position e, |w| < 2**54.
    Eight adjacent positions pack into a limb sum(w[8j + i] << i), so
    |limb| < 2**54 * 255 < 2**62.  The limbs of one residue mod 8 lie 64
    bits apart; biased by 2**63 into [0, 2**64) they are the digits of one
    int.from_bytes, which takes the bias back off.  The eight results are
    shifted together into one Python int, and int true division rounds it
    once.  Non-finite or huge terms, 2**26 terms or more, and an exact-zero
    total (whose sign fsum decides) go to fsum.  The terms of an array of
    any shape are taken in C order.
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
    n = lo_sums.size
    # bit positions for a whole number of limbs of each residue mod _LIMB
    w = np.zeros(-(-(n + _SPLIT) // _LIMB**2) * _LIMB**2, dtype=np.int64)
    w[:n] = lo_sums.astype(np.int64)
    w[_SPLIT : n + _SPLIT] += hi_sums.astype(np.int64)
    limbs = (w.reshape(-1, _LIMB) << np.arange(_LIMB)).sum(axis=1)
    digits = (limbs.view(np.uint64) + np.uint64(2**63)).astype("<u8", copy=False)
    bias = int.from_bytes((2**63).to_bytes(8, "little") * (limbs.size // _LIMB), "little")
    total = 0
    for r in range(_LIMB):
        total += (int.from_bytes(digits[r::_LIMB].tobytes(), "little") - bias) << (_LIMB * r)
    if total == 0:
        return math.fsum(x.tolist())
    return total / (1 << (_EXP_OFFSET + 53))


def _factor_grid(spec: Spectrum, tau, s: complex, tr) -> np.ndarray:
    # every local factor on one (class, k, m1, m2) grid; raises FactorZero at
    # the first zero in that order.  Called from the public entry points.
    # exp/expm1 run on (class, m1+m2) and sin on (class, k, m1-m2); each
    # grid element is the same float expression, in the same order, as when
    # evaluated on the full grid
    s = complex(s)
    tau_m, max_m = _whole(tau, "twist index", 0), _whole(tr, "truncation order", 0)
    size = spec._lengths.size * (2 * tau_m + 1) * (max_m + 1) ** 2
    if size >= _MAX_TERMS:
        raise DomainError(
            f"Euler-product grid of {size} factors (twist index {tau_m}, truncation "
            f"order {max_m}) is not below the cap of 2**26"
        )
    _warn_halfplane(s, stacklevel=4)
    a = spec._lengths[:, None]
    b = spec._holonomies[:, None, None]
    n = np.arange(2 * max_m + 1, dtype=float)  # m1 + m2
    d = np.arange(-max_m, max_m + 1, dtype=float)  # m1 - m2
    k = np.arange(-tau_m, tau_m + 1, dtype=float)[:, None]
    x_re = n * a + s.real * a
    x_im = k * b + d * b + s.imag * a[:, None]
    damp = np.exp(-x_re)[:, None]
    em = -np.expm1(-x_re)[:, None]
    damp2 = damp * 2.0
    sin2 = np.sin(x_im / 2.0) ** 2
    sn = np.sin(x_im)

    def hankel(v):  # [c, k, m1, m2] -> v[c, k, m1 + m2]
        return sliding_window_view(v, max_m + 1, axis=-1)

    def toeplitz(v):  # [c, k, m1, m2] -> v[c, k, max_m + m1 - m2]
        return sliding_window_view(v, max_m + 1, axis=-1)[..., ::-1]

    grid = (hankel(em) + hankel(damp2) * toeplitz(sin2)) + 1j * (hankel(damp) * toeplitz(sn))
    if not grid.all():
        c, j, m1, m2 = np.argwhere(grid == 0)[0].tolist()
        raise FactorZero(
            f"local factor vanishes at s={s!r} for k={j - tau_m}, (m1, m2)=({m1}, {m2}), "
            f"class (a={spec._lengths.item(c)!r}, b={spec._holonomies.item(c)!r})"
        )
    return grid


def zeta_tau(spec: Spectrum, tau, s: complex, tr) -> complex:
    """Truncated zeta value: the triple product of local factors.

    ``tau`` is the twist index m and ``tr`` the truncation order, plain
    nonnegative integers: k runs over -m..m, and m1 and m2 each run over
    0..tr.  Evaluated as exp of the exact sum of multiplicity-weighted
    log-factors.  Raises FactorZero if s is a zero of some local factor and
    DomainError when the value is past the float range.
    """
    logs = np.log(_factor_grid(spec, tau, s, tr))
    mult = spec._counts[:, None, None, None]
    log = complex(_exact_sum(mult * logs.real), _exact_sum(mult * logs.imag))
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.exp(log))
    if not cmath.isfinite(value):
        raise DomainError(f"zeta value at s={s!r} is past the float range: log zeta = {log!r}")
    return value


def log_derivative(spec: Spectrum, tau, s: complex, tr) -> complex:
    """Analytic d/ds of log zeta_tau: sum of a(p)*exp(-X)/(1 - exp(-X)).

    Every local factor 1 - exp(-X) contributes a(p)*(1/f - 1) with f the
    factor value, since exp(-X) = 1 - f and dX/ds = a(p).  Raises
    FactorZero if s is a zero of some local factor and DomainError when the
    sum is not finite (where exp(-X) itself is past the float range).
    """
    # in place, so that one grid is held, with the operands of (mult * a) * (1.0 / f - 1.0)
    terms = _factor_grid(spec, tau, s, tr)
    np.divide(1.0, terms, out=terms)
    terms -= 1.0
    np.multiply((spec._counts * spec._lengths)[:, None, None, None], terms, out=terms)
    value = complex(_exact_sum(terms.real), _exact_sum(terms.imag))
    if not cmath.isfinite(value):
        raise DomainError(f"log-derivative at s={s!r} is not finite: {value!r}")
    return value


def zeta_ratio(spec1: Spectrum, spec2: Spectrum, tau, s: complex, tr) -> complex:
    """Ratio of the two truncated zetas with shared classes cancelled first.

    Classes present in both spectra contribute identical factor sets, so only
    the multiset differences S1 = spec1 - spec2 and S2 = spec2 - spec1 are
    evaluated.  A vanishing surviving denominator factor raises
    DivisionByZero; a vanishing numerator factor propagates as FactorZero.
    """
    s = complex(s)
    tau_m, max_m = _whole(tau, "twist index", 0), _whole(tr, "truncation order", 0)
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
