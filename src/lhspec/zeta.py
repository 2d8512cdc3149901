"""Truncated Euler products over a primitive length-holonomy spectrum.

The zeta function attached to a spectrum and a (2m+1)-dimensional twist is
the triple product over k in {-m..m}, classes p, and semilattice points
(m1, m2) of the local factors

    1 - exp(-X),   X = i*k*b(p) + (m1+m2)*a(p) + i*(m1-m2)*b(p) + s*a(p),

each lattice point entering with exponent 1.  The twist index m and the
truncation order are plain integers.  A grid over (class, k, m1, m2) holds
fewer than 2**26 factors.  Re(X) depends on (class, m1+m2) and Im(X) on
(class, k, m1-m2) alone, so exp and expm1 run on the first of these small
arrays and sin on the second; the factors are built from them, through
Hankel and Toeplitz views for the whole grid or gathered for a subset.
Products are exact (correctly rounded) sums of log-factors with a single
final exponential: the terms are split into integer bit-position weights,
packed into int64 limbs and finished by a few int.from_bytes calls, so
results are deterministic and do not underflow for deep truncations.

Most factors are 1 to far less than an ulp of the sum.  exp(-Re X) falls
as m1 + m2 grows, so each class's factors that matter are its rows of
smallest m1 + m2.  The sums leave out the rows whose terms are bounded
below a fixed share of the largest row's, take the exact sum S of the
rest, and round S minus and plus the bound on what was left out: when
both give the same float, it is the correctly rounded sum of every term,
so values equal math.fsum of every term bit for bit.  Otherwise every term
is summed (see _euler_sum).  Kept factors within 2**-30 of 1 (whose real
part is not exactly 1) take their logs from the series z - z**2/2 of
z = f - 1, whose distance from np.log is bounded and added to the slack;
where that wider slack cannot certify a sum, every term is summed.
The full product converges for Re(s) > 2; the truncated one is defined
wherever no factor vanishes, with a ConvergenceWarning outside the
half-plane.
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
# below 2**969, where a term's frexp exponent is at most 969, fewer than
# 2**26 terms sum to less than 2**995, so neither fsum (which can raise
# OverflowError on an intermediate sum) nor the final rounding overflows
_BIG_EXP = 969
# frexp exponents start at -1073 (the smallest subnormal); shifted to be >= 0
_EXP_OFFSET = 1074
# bit positions per int64 limb, and limbs per int.from_bytes call: limbs
# with one residue mod 8 lie 64 bits apart and so never overlap
_LIMB = 8


# the exact sum of float64 terms is an integer multiple of 2**-_SCALE_BITS
_SCALE_BITS = _EXP_OFFSET + 53


def _scaled_sum(x: np.ndarray) -> int | None:
    """The exact sum of float64 terms times 2**1127, a Python int.

    A term is q * 2**(exp - 53) with an integer mantissa |q| < 2**53 from
    frexp.  The high and low 26 bits of q are summed per exponent by
    bincount without rounding: the hi sums are below 2**53 and the lo sums
    below 2**52 in magnitude.  Folding the hi buckets 26 places up onto the
    lo buckets gives one int64 weight w[e] of bit position e, |w| < 2**54.
    Eight adjacent positions pack into a limb sum(w[8j + i] << i), so
    |limb| < 2**54 * 255 < 2**62.  The limbs of one residue mod 8 lie 64
    bits apart; biased by 2**63 into [0, 2**64) they are the digits of one
    int.from_bytes, which takes the bias back off.  The eight results are
    shifted together into one Python int.  None for non-finite or huge
    terms and for 2**26 terms or more, whose sum fsum decides: a term of
    2**969 or more fills a bucket past exponent ``_BIG_EXP``, and an
    infinite or nan term has a nan low half.
    """
    x = x.ravel()
    if x.size >= _MAX_TERMS:
        return None
    q, exp = np.frexp(x)
    q *= 2.0 ** (53 - _SPLIT)
    hi = np.floor(q)
    with np.errstate(invalid="ignore"):  # inf - inf for an infinite term
        q -= hi
    q *= 2.0**_SPLIT  # the low half, in [0, 2**26), also for negative terms
    exp = np.add(exp, _EXP_OFFSET, dtype=np.intp)
    lo_sums = np.bincount(exp, weights=q)
    n = lo_sums.size
    if n > _EXP_OFFSET + _BIG_EXP + 1 or not math.isfinite(lo_sums.sum()):
        return None
    hi_sums = np.bincount(exp, weights=hi)
    # bit positions for a whole number of limbs of each residue mod _LIMB
    w = np.zeros(-(-(n + _SPLIT) // _LIMB**2) * _LIMB**2, dtype=np.int64)
    w[:n] = lo_sums.astype(np.int64)
    w[_SPLIT : n + _SPLIT] += hi_sums.astype(np.int64)
    limbs = (w.reshape(-1, _LIMB) << np.arange(_LIMB)).sum(axis=1).view(np.uint64)
    limbs += np.uint64(2**63)
    # the limbs of each residue mod _LIMB in turn, as little-endian digits
    digits = memoryview(limbs.reshape(-1, _LIMB).T.astype("<u8").tobytes())
    size = len(digits) // _LIMB
    bias = int.from_bytes((2**63).to_bytes(8, "little") * (size // 8), "little")
    total = 0
    for r in range(_LIMB):
        total += (int.from_bytes(digits[r * size : (r + 1) * size], "little") - bias) << (_LIMB * r)
    return total


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of float64 terms, equal to math.fsum.

    The exact sum of ``_scaled_sum``, rounded once by int true division.
    Non-finite or huge terms, 2**26 terms or more, and an exact-zero total
    (whose sign fsum decides) go to fsum.  The terms of an array of any
    shape are taken in C order.
    """
    total = _scaled_sum(x)
    if not total:
        return math.fsum(x.ravel().tolist())
    return total / (1 << _SCALE_BITS)


def _certified_sum(total: int | None, slack: float) -> float | None:
    """The correctly rounded sum of kept terms and of others of total size at most slack.

    ``total`` is the exact sum S of the kept terms times 2**1127, from
    ``_scaled_sum``.  The full sum lies in [S - slack, S + slack], and
    rounding is monotone: when both ends round to the same float, the full
    sum rounds to it, as fsum of every term does.  That float is not zero,
    whose sign fsum would decide: S is a nonzero multiple of 2**-1074, so
    the ends cannot both round to zero.  A slack of 0.0 says that every
    other term is +0.0, and there is at least one: then an exact-zero S is
    a sum of +0.0 and of terms that cancel, which fsum gives as 0.0.  None
    when the ends differ, when total is None (``_scaled_sum`` leaves the
    sum to fsum), and for an exact-zero S with a slack above 0.0.
    """
    if total is None:
        return None
    if not total:
        return 0.0 if slack == 0.0 else None
    num, den = slack.as_integer_ratio()
    width = -(-(num << _SCALE_BITS) // den)  # slack * 2**1127, rounded up
    low, high = (total - width) / (1 << _SCALE_BITS), (total + width) / (1 << _SCALE_BITS)
    return low if low == high else None


def _factor(em, damp, sin2, sn):
    # 1 - exp(-X) from the parts of X: the one float expression of every local
    # factor, (em + (damp * 2.0) * sin2) + 1j * (damp * sn), built part by part,
    # as numpy's complex casts are slow: with y = damp * sn, the product 1j * y
    # is (0.0 * y - 0.0) + (0.0 + y)j, so the real part gains 0.0 * y (nan where
    # y is not finite) and the imaginary part is y + 0.0 (+0.0 for -0.0)
    y = damp * sn
    re = (damp * 2.0) * sin2
    np.add(em, re, out=re)
    re += y * 0.0
    y += 0.0
    f = np.empty(re.shape, dtype=complex)
    f.real, f.imag = re, y
    return f


class _Grid(NamedTuple):
    """The separable parts of the local factors of one Euler product.

    Re(X) depends on (class, m1+m2) and Im(X) on (class, k, m1-m2) alone,
    so exp and expm1 run on the first of these small arrays and sin on the
    second.  ``every`` reads them through Hankel and Toeplitz views and
    ``factors`` gathers a set of lattice points from them; both evaluate
    ``_factor``, so a factor has the same value in every set.
    """

    spec: Spectrum
    s: complex
    tau_m: int
    max_m: int
    damp: np.ndarray  # exp(-Re X) on (class, m1+m2)
    em: np.ndarray  # -expm1(-Re X) on (class, m1+m2)
    sin2: np.ndarray  # sin(Im X/2)**2 on (k, class, max_m + m1 - m2)
    sn: np.ndarray  # sin(Im X) on (k, class, max_m + m1 - m2)

    def every(self) -> np.ndarray:
        """Every factor, on the (class, k, m1, m2) grid.

        Raises FactorZero at the first zero in that order.
        """
        side = self.max_m + 1

        def hankel(v):  # [c, k, m1, m2] -> v[c, k, m1 + m2]
            return sliding_window_view(v[:, None], side, axis=-1)

        def toeplitz(v):  # [c, k, m1, m2] -> v[k, c, max_m + m1 - m2]
            return sliding_window_view(v.transpose(1, 0, 2), side, axis=-1)[..., ::-1]

        grid = _factor(hankel(self.em), hankel(self.damp), toeplitz(self.sin2), toeplitz(self.sn))
        if not grid.all():
            self._vanishes(*np.argwhere(grid == 0)[0].tolist())
        return grid

    def factors(
        self, lead: np.ndarray, near: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The factors with m1 + m2 < lead[c] of each class c, the class of each, and a block size.

        A (k, lattice point) array in two blocks: first the points of the
        rows (c, m1 + m2) that ``near`` leaves False, then those of the rows
        that it marks (kept rows only); the size of the first block is
        returned.  Within a block the order of the points is left open, as
        the sums are exact.  Raises FactorZero at the first zero among them
        in (class, k, m1, m2) order.
        """
        m = self.max_m
        # the (class, m1 + m2) rows of each block, in C order
        below = (np.arange(2 * m + 1) < lead[:, None])[None]
        if near is not None:
            below = np.concatenate((below ^ near, near[None]))
        block, rc, rn = np.nonzero(below)
        # row n holds the points m1 = low, low + 1, ... with low = max(n - m, 0), so
        # that d = m + m1 - m2 runs from |n - m| by 2
        gap = np.abs(rn - m)
        size = (m + 1) - gap
        end = np.cumsum(size)
        row = rc * (2 * m + 1)
        c = np.repeat(rc, size)
        n = np.repeat(row + rn, size)  # flat (class, n)
        # flat (class, d): the row's first d, less twice the row's start in
        # the gather, plus twice the point's index in it
        d = np.repeat(row + gap + 2 * (size - end), size)
        d += np.arange(0, 2 * c.size, 2)
        ks = 2 * self.tau_m + 1
        f = _factor(
            self.em.ravel().take(n),
            self.damp.ravel().take(n),
            self.sin2.reshape(ks, -1).take(d, axis=1),
            self.sn.reshape(ks, -1).take(d, axis=1),
        )
        if not f.all():
            j, q = np.nonzero(f == 0)
            base = c.take(q) * (2 * m + 1)
            total, diff = n.take(q) - base, d.take(q) - base - m  # m1 + m2 and m1 - m2
            m1, m2 = (total + diff) // 2, (total - diff) // 2
            self._vanishes(*min(zip(c[q].tolist(), j.tolist(), m1.tolist(), m2.tolist())))
        k = np.searchsorted(block, 1)
        return f, c, int(end[k - 1]) if k else 0

    def _vanishes(self, c: int, j: int, m1: int, m2: int):
        raise FactorZero(
            f"local factor vanishes at s={self.s!r} for k={j - self.tau_m}, (m1, m2)=({m1}, {m2}), "
            f"class (a={self.spec._lengths.item(c)!r}, b={self.spec._holonomies.item(c)!r})"
        )


def _grid(spec: Spectrum, tau, s: complex, tr) -> _Grid:
    # called from the public entry points: checks the indices, refuses a grid
    # of 2**26 factors or more before any array is made, and warns outside
    # the half-plane
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
    b = spec._holonomies[:, None]
    n = np.arange(2 * max_m + 1, dtype=float)  # m1 + m2
    d = np.arange(-max_m, max_m + 1, dtype=float)  # m1 - m2
    k = np.arange(-tau_m, tau_m + 1, dtype=float)[:, None, None]
    x_re = n * a + s.real * a
    damp, em = np.exp(-x_re), -np.expm1(-x_re)
    # a phase past the float range is inf and its sines nan, which keep every
    # row of the class (see _kept_rows) and end in DomainError or nan
    with np.errstate(over="ignore", invalid="ignore"):
        x_im = k * b + d * b + s.imag * a
        return _Grid(spec, s, tau_m, max_m, damp, em, np.sin(x_im / 2.0) ** 2, np.sin(x_im))


#: a (class, m1+m2) row of factors is left out of a sum when its bound is
#: below this share of the largest row bound
_CUT = 2.0**-76
#: and when its exp(-Re X) is at most this, so that its factors round to 1 + i*y
_SKIP_DAMP = 2.0**-54
#: a kept row whose bound is at most this share of min(1, the largest row
#: bound) takes its logs from the series z - z**2/2 of z = f - 1, which is
#: within this times |Re z| + |z|**2 of np.log(f) in the real part and times
#: |Im z| in the imaginary part (see _euler_sum)
_NEAR = 2.0**-30
_SERIES_ERR = 2.0**-44


def _row_bounds(grid: _Grid, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the bounds of the real and imaginary parts of a term of each (class,
    # m1+m2) row that may be left out: w * damp**2 and w * damp (see _euler_sum)
    bound = weights.astype(np.float64)[:, None] * grid.damp
    return bound * grid.damp, bound


def _kept_rows(grid: _Grid, bound: np.ndarray) -> np.ndarray:
    """How many rows of smallest m1 + m2 the sums keep for each class, by the row bounds w * damp.

    See _euler_sum.
    """
    rows = np.arange(bound.shape[1])
    top = bound.max(initial=0.0)
    if not np.isfinite(top):
        return np.full(bound.shape[0], rows.size)
    finite = np.isfinite(grid.sn).all(axis=(0, 2))[:, None]  # sin2 is finite with sn
    skip = (bound < _CUT * top) & (grid.damp <= _SKIP_DAMP) & (grid.em == 1.0) & finite
    return np.where(skip, 0, rows + 1).max(axis=1, initial=0)


def _euler_sum(grid: _Grid, weights: np.ndarray, terms, series=None, zero_re=False) -> complex:
    """The sum of the terms of every factor of the grid, from the factors that can move it.

    ``terms(f, w)`` gives the real and imaginary term arrays of factors f
    with class weights w (``weights``, one per class, broadcast against f).
    The result is what ``_exact_sum`` gives on every term in C order, fsum
    of every term, bit for bit.

    Row (c, n) of the grid is the (2m+1) * (min(n, 2M - n) + 1) factors of
    class c with m1 + m2 = n; its bound is w[c] * damp[c, n], with damp =
    exp(-Re X).  A factor is (em + (2*damp) * sin(Im X/2)**2) +
    i*(damp * sin(Im X)), rounded, with em = -expm1(-Re X).  Where em ==
    1.0, damp <= 2**-54 and the sines are finite, its real part is 1.0 + p
    rounded with 0 <= p <= 2**-53, which is 1.0 (p = 2**-53 is a tie that
    rounds to even), and its imaginary part y has |y| <= damp.  Then
    log f = log(1 + y**2)/2 + i*atan(y), and 1/f - 1 = -i*y (Smith's rule,
    which numpy's complex division follows, as y**2 vanishes beside 1).
    So a term, w times such a value, is at most w * damp**2 in its real
    part and w * damp, the row bound, in its imaginary part.  A left-out
    term is taken at 8 times these, which leaves room for the rounding of
    the log, the division and the products.  With ``zero_re`` (the terms
    w * (1/f - 1)), the real part of a left-out term is exactly 1.0 - 1.0
    times w > 0, which is +0.0, and that part's slack is 0.0.

    Left out are a class's rows after its last row that reaches ``_CUT``
    times the largest row bound or fails a condition above: as damp falls
    with m1 + m2, that is the class's tail of rows that the cut alone would
    leave out.  The slack of a part is 8 times the sum over the left-out rows of
    (factors of the row) * (their bound in that part), raised by 2**-20 of
    itself for its own float64 rounding and by 2**-1000 per factor and unit
    of weight for terms that underflow.  ``_certified_sum`` decides each
    part from the kept factors and that slack.  Where it cannot, and where
    nothing is left out (every row is kept, or the largest bound is not
    finite), every term is summed.

    ``series(f, w, e)``, where given, gives the terms of factors f whose
    columns from e on are near rows, and for each part a bound err on how
    far the exact sum of its terms lies from that of ``terms``.  The near
    rows are the kept rows whose bound is at most ``_NEAR`` times min(top,
    1), with top the largest row bound, and whose em is below 1.0 (where
    em == 1.0 a factor is 1 + i*y, whose np.log is about as fast as any
    series).  There |z| = |f - 1| <= damp <= 2**-30, as the weights are at
    least 1, and z is exact (Sterbenz).  For logs, z - z**2/2 is within
    |Im z| * |z|**2 of log(1 + z) in its imaginary part and within |z|**3
    in its real part, and it rounds within about 2**-51 times |Im z| and
    times |Re z| + |z|**2; glibc's complex log is within a few ulps, so
    the two differ by less than 2**-44 times these.  err is that times the
    weights, summed, and raised by 2**-20 of itself and by 2**-1000 per
    factor and unit of weight for terms that underflow.  A part is
    certified from these terms with its slack plus err; where that fails,
    every term is summed, as fsum of every term is the value that the terms
    of np.log would certify.
    """
    bounds = _row_bounds(grid, weights)
    lead = _kept_rows(grid, bounds[1])
    rows = np.arange(grid.damp.shape[1])  # m1 + m2
    sums = [None, None]
    if (lead < rows.size).any():
        per_row = (2 * grid.tau_m + 1) * (grid.max_m + 1 - np.abs(rows - grid.max_m))
        left = rows >= lead[:, None]
        spare = float(np.sum((weights[:, None] + 1.0) * per_row, where=left)) * 2.0**-1000
        slacks = [
            8.0 * float(np.sum(part * per_row, where=left)) * (1.0 + 2.0**-20) + spare
            for part in bounds
        ]
        if zero_re:
            slacks[0] = 0.0
        near = None
        if series is not None:  # kept rows, as left-out rows have em == 1.0
            near = (bounds[1] <= _NEAR * min(float(bounds[1].max()), 1.0)) & (grid.em < 1.0)
        factors, classes, e = grid.factors(lead, near)
        w = weights[classes]
        if e < factors.shape[1]:
            *parts, errs = series(factors, w, e)
        else:  # no near rows
            *parts, errs = *terms(factors, w), (0.0, 0.0)
        sums = [
            _certified_sum(_scaled_sum(part), slack + err)
            for part, slack, err in zip(parts, slacks, errs)
        ]
    if None in sums:
        every = terms(grid.every(), weights[:, None, None, None])
        sums = [_exact_sum(t) if v is None else v for v, t in zip(sums, every)]
    return complex(*sums)


def _log_terms(f: np.ndarray, mult) -> tuple[np.ndarray, np.ndarray]:
    logs = np.log(f)
    return mult * logs.real, mult * logs.imag


def _log_series(f: np.ndarray, mult, e: int) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    # the terms of np.log of the factors before column e and of the series
    # z - z**2/2 of z = f - 1 from it on, with the bound err of each part (see _euler_sum)
    logs = np.empty_like(f)
    np.log(f[:, :e], out=logs[:, :e])
    z = np.subtract(f[:, e:], 1.0, out=logs[:, e:])  # exact (Sterbenz)
    r, i, w = z.real, z.imag, mult[e:]
    re_size = r * r + i * i + np.abs(r)  # |Re z| + |z|**2
    sizes = float((re_size @ w).sum()), float((np.abs(i) @ w).sum())
    spare = (float(w.sum()) * z.shape[0] + z.size) * 2.0**-1000
    z -= 0.5 * (z * z)
    errs = tuple(_SERIES_ERR * x * (1.0 + 2.0**-20) + spare for x in sizes)
    return mult * logs.real, mult * logs.imag, errs


def _psi_terms(f: np.ndarray, weight) -> tuple[np.ndarray, np.ndarray]:
    # in place, so that one array is held, with the operands of weight * (1.0 / f - 1.0);
    # a quotient past the float range is inf or nan, and log_derivative refuses the sum
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(1.0, f, out=f)
        f -= 1.0
        np.multiply(weight, f, out=f)
    return f.real, f.imag


def zeta_tau(spec: Spectrum, tau, s: complex, tr) -> complex:
    """Truncated zeta value: the triple product of local factors.

    ``tau`` is the twist index m and ``tr`` the truncation order, plain
    nonnegative integers: k runs over -m..m, and m1 and m2 each run over
    0..tr.  Evaluated as exp of the exact sum of multiplicity-weighted
    log-factors.  Raises FactorZero if s is a zero of some local factor and
    DomainError when the value is past the float range.
    """
    log = _euler_sum(_grid(spec, tau, s, tr), spec._counts, _log_terms, _log_series)
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
    sum is not finite (where exp(-X) itself is past the float range) or
    when fsum of every term overflows an intermediate sum.
    """
    weights = spec._counts * spec._lengths
    grid = _grid(spec, tau, s, tr)
    try:
        value = _euler_sum(grid, weights, _psi_terms, zero_re=True)
    except OverflowError as exc:  # from math.fsum in _exact_sum
        raise DomainError(f"log-derivative at s={s!r} is past the float range: {exc}") from None
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
