"""Windowed zero multisets of the truncated Euler products.

A local factor 1 - exp(-X) vanishes exactly when X lies in 2*pi*i*Z.  For
the factor indexed by (k, m1, m2) and a class (a, b) this pins s to

    Re(s) = -(m1 + m2),    Im(s) = (-b*(m1 - m2 + k) - 2*n*pi) / a,  n in Z,

so the zero set is a union of arithmetic progressions up the vertical lines
Re(s) = 0, -1, -2, ...  Everything here is windowed: |Im(s)| <= im_bound
(called Lambda in the recovery contracts), with exact integer n-ranges so a
windowed multiset is complete for its window by construction.  A ZeroWindow
is checked when it is made, and the functions that take one trust it.

The map (k, n) -> (-k, -n) negates every point, so the k < 0 trace of a
class is its |k| trace mirrored through 0.  Every trace is built by
``_traces``, which builds each |k| row once and mirrors the k < 0 rows bit
for bit, the sign of an exact zero included.

The lines lie 1 apart, far past the zero tolerance, so no cluster of
zeros spans two of them: ``zero_multiset`` sorts and clusters each line
on its own, through ``ComplexMultiset._from_lines``, and joins them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, UnderflowError, _check_tol, _positive, _whole
from .geodesic import Spectrum
from .multisets import TAU_ZERO, ComplexMultiset, RealMultiset

TWO_PI = 2.0 * math.pi


class _WindowFields(NamedTuple):
    max_m: int
    im_bound: float


class ZeroWindow(_WindowFields):
    """Window: m1 + m2 <= max_m on the lattice, |Im(s)| <= im_bound.

    Checked when made: DomainError unless max_m is a nonnegative integer and
    im_bound positive and finite.
    """

    __slots__ = ()

    def __new__(cls, max_m: int, im_bound: float):
        return super().__new__(
            cls, _whole(max_m, "window max_m", 0), _positive(im_bound, "window im_bound")
        )

    @classmethod
    def _make(cls, iterable) -> "ZeroWindow":  # _replace builds through _make
        return cls(*iterable)


def _n_range(a: float, b: float, kk: int, im_bound: float) -> range:
    # integers n with |(-b*kk - 2*n*pi)/a| <= im_bound, exact bounds
    span = im_bound * a
    lo, hi = (-span - b * kk) / TWO_PI, (span - b * kk) / TWO_PI
    if not (math.isfinite(lo) and math.isfinite(hi)):
        msg = f"window im_bound {im_bound!r} has no finite n-range for class ({a!r}, {b!r})"
        raise DomainError(msg)
    return range(math.ceil(lo), math.floor(hi) + 1)


#: the most points one call may build, counted before any is allocated
_POINT_CAP = 2**24

#: np.arange builds every integer n with |n| <= 2**53 exactly
_EXACT_N = 2**53


def _traces(classes, ks: Sequence[int], im_bound: float, pad: int = 0) -> list[np.ndarray]:
    """(-b*k - 2*n*pi)/a for each class (a, b) and each k of ks, in that order.

    Each row runs over n ascending in the window and ``pad`` past it.  The
    points of all rows, padding included, are counted from their n-range
    bounds before any is built: DomainError when they reach the point cap,
    or when some n passes 2**53, past which np.arange builds no exact n.

    The map (k, n) -> (-k, -n) negates every point, and every float
    operation commutes with negation except where it gives an exact zero.
    So each |k| row of a class is built once, and its k < 0 row is
    z - row[::-1] with z = copysign(0.0, b).  For b >= -0.0 that is the row
    built directly bit for bit, the sign of a zero included: nonzero
    operands that cancel give 0.0 in both rows, which 0.0 - 0.0 keeps; at
    n = 0 with b = +-0.0 the zero's sign flips with b's, which z carries;
    and a quotient that underflows to zero keeps its operand's sign.  A
    negative b reaches here only from ``class_trace`` and
    ``subtract_trace``, which make every zero 0.0 (``_joined``).
    """
    ks = tuple(ks)
    mags = [abs(k) for k in ks]
    built = list(dict.fromkeys(mags))  # the |k| of the rows built for each class
    spans, total = [], 0
    for a, b in classes:
        for k in built:
            r = _n_range(a, b, k, im_bound)
            spans.append((a, b, k, r.start - pad, r.stop + pad))
            total += (r.stop - r.start + 2 * pad) * mags.count(k)
    if total >= _POINT_CAP:
        msg = f"window im_bound {im_bound!r} asks for {_POINT_CAP} points or more (the point cap)"
        raise DomainError(msg)
    for a, b, _, lo, hi in spans:
        if max(-lo, hi - 1) > _EXACT_N:
            msg = f"class ({a!r}, {b!r}) has trace points past n = 2**53 in window {im_bound!r}"
            raise DomainError(msg)
    rows = [(-b * k - TWO_PI * np.arange(lo, hi, dtype=np.float64)) / a for a, b, k, lo, hi in spans]
    at = [built.index(m) for m in mags]  # the built row of each k
    return [
        rows[j + i] if k >= 0 else math.copysign(0.0, spans[j][1]) - rows[j + i][::-1]
        for j in range(0, len(rows), len(built) or 1)  # the first row of each class
        for k, i in zip(ks, at)
    ]


def _band(w: ZeroWindow, tol: float) -> float:
    """Width of the edge zone of w at tolerance tol, inside which trace points may be missing."""
    return tol * max(1.0, w.im_bound)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Progressions joined in order; + 0.0 turns -0.0 into 0.0."""
    return np.concatenate([np.empty(0), *parts]) + 0.0


def class_trace(a: float, b: float, ks: Sequence[int], w: ZeroWindow) -> list[float]:
    """All windowed imaginary parts (-b*k - 2*n*pi)/a for k in ks (with repeats)."""
    return _joined(_traces([(_positive(a, "length"), b)], ks, w.im_bound)).tolist()


def zero_multiset(diff: Spectrum, tau, w: ZeroWindow) -> ComplexMultiset:
    """Windowed multiset of zeros contributed by every class of ``diff``.

    Runs over k in {-m..m}, lattice points with m1 + m2 <= max_m, and all
    in-window integers n; coincident values merge with exact multiplicities.
    Progression (k, m1, m2) is trace row d = m1 - m2 + k of its class, on the
    line Re(s) = -(m1 + m2).  Each class gives (2m+1)(max_m+1)(max_m+2)/2
    progressions, of at most im_bound*a/pi + 1 points each: their product,
    summed over the classes, is counted before any row is built, and
    DomainError raised when it reaches the point cap.

    The lines are built one at a time, Re(s) ascending, and each is sorted
    by Im and clustered alone (``ComplexMultiset._from_lines``): they lie 1
    apart and the tolerance is TAU_ZERO, so no cluster spans two lines.
    DomainError when the total multiplicity of all lines reaches 2**63.
    """
    tau_m = _whole(tau, "twist index", 0)
    # progressions per class, capped so that no huge int meets a float or
    # np.repeat: every width is above 1, so a class past the cap is refused
    per_class = min((2 * tau_m + 1) * (w.max_m + 1) * (w.max_m + 2) // 2, _POINT_CAP)
    with np.errstate(over="ignore"):
        widths = w.im_bound * diff._lengths / math.pi + 1.0
    if not np.isfinite(widths).all():  # im_bound * a overflows: no n-range, as _n_range says
        c = int(np.flatnonzero(~np.isfinite(widths))[0])
        _n_range(diff._lengths.item(c), diff._holonomies.item(c), 0, w.im_bound)
    if per_class * float(widths.sum()) >= _POINT_CAP:
        msg = (
            f"zero multiset of twist index {tau_m} in window {tuple(w)!r} asks for "
            f"{_POINT_CAP} points or more (the point cap)"
        )
        raise DomainError(msg)
    if not diff:  # no lattice is built, however large max_m is
        return ComplexMultiset()
    reach = tau_m + w.max_m  # row d of class c is rows[c * (2 * reach + 1) + reach + d]
    classes = zip(diff._lengths.tolist(), diff._holonomies.tolist())
    rows = _traces(classes, range(-reach, reach + 1), w.im_bound)
    sizes = np.array([r.size for r in rows])
    # the row of d = k for each (class, k)
    at_k = np.arange(len(diff))[:, None] * (2 * reach + 1) + reach + np.arange(-tau_m, tau_m + 1)

    def line(m: int):
        # one progression per (class, k, m1) with m2 = m - m1, in this order,
        # which decides the sign of a zero where -0.0 and 0.0 coincide
        at = (at_k[:, :, None] + 2 * np.arange(m + 1) - m).ravel()  # d = m1 - m2 + k
        im = np.concatenate(list(map(rows.__getitem__, at.tolist())))
        counts = np.repeat(np.repeat(diff._counts, at.size // len(diff)), sizes[at])
        return -m, im, counts  # an int Re, so line 0 is 0.0, never -0.0

    return ComplexMultiset._from_lines(map(line, range(w.max_m, -1, -1)), tol=TAU_ZERO)


def zero_line(diff: Spectrum, tau, w: ZeroWindow) -> RealMultiset:
    """Imaginary parts of the Re(s) = 0 zeros (the m1 = m2 = 0 slice).

    These are the class traces (-b*k - 2*n*pi)/a over k in {-m..m}; with
    m = 0 the slice degenerates to the pure length data {2*n*pi/a}.
    """
    tau_m = _whole(tau, "twist index", 0)
    ks = range(-tau_m, tau_m + 1)
    classes = zip(diff._lengths.tolist(), diff._holonomies.tolist())
    parts = _traces(classes, ks, w.im_bound)
    counts = np.repeat(np.repeat(diff._counts, len(ks)), [p.size for p in parts])
    return RealMultiset._from_arrays(_joined(parts), counts, tol=TAU_ZERO)


def _subtract_traces(ms: RealMultiset, rows, ks, w: ZeroWindow, tol: float, steps: bool = False):
    """Remove ``mult`` copies of the trace of (a, b) over ks for each (a, b, mult) of rows at once.

    ``mult`` and ``tol`` are trusted.  All padded progressions are built
    in one call and handed to ``RealMultiset._subtract`` unmerged, each
    point wanting its row's ``mult`` (one int for one row, an int64 array
    for several): where every tol window holds at most one entry, the
    copies of a value that several progressions of a row share hit the
    same entry with the same edge flag, so their summed wants are those of
    the merged pair.  Only the exact walk, which runs where that path
    cannot decide, takes merged pairs: a value shared within a row is one
    pair wanting ``mult`` copies per progression, kept at its first
    occurrence in k-major order, with Python-int wants.

    With ``steps`` the rows are the steps of a peeling round, row i
    emptying the i-th positive entry of ``ms``, and the call returns the
    multiset with the total each row removed.  A round of one row is a
    plain subtraction.  A round of several gives what its rows subtracted
    one by one would give, or None where the one pass of
    ``RealMultiset._subtract`` cannot show that or the round passes the
    point cap; it never walks and raises nothing.
    """
    if steps and len(rows) == 1:
        nxt = _subtract_traces(ms, rows, ks, w, tol)
        return nxt, [ms.total() - nxt.total()]
    try:
        classes = [(_positive(a, "length"), b) for a, b, _ in rows]
        parts = _traces(classes, ks, w.im_bound, pad=1)
    except DomainError:
        if steps:
            return None
        raise
    values = _joined(parts)
    edge = np.abs(values) > w.im_bound - _band(w, tol)
    mults = [mult for *_, mult in rows]
    n = len(ks)  # progressions per row
    sizes = [p.size for p in parts]
    row = np.arange(len(rows)).repeat(n)  # the row of each progression
    wants = mults[0] if len(mults) == 1 else np.repeat(np.array(mults, dtype=np.int64)[row], sizes)
    owner = np.repeat(row, sizes) if steps else None

    def pairs():
        out, end = [], 0
        for i, mult in enumerate(mults):
            start, end = end, end + sum(sizes[i * n : i * n + n])
            trace, first, seen = np.unique(values[start:end], return_index=True, return_counts=True)
            order = np.argsort(first)
            first = first[order]
            wanted = [s * mult for s in seen[order].tolist()]
            out += zip(trace[order].tolist(), wanted, edge[start + first].tolist())
        return out

    return ms._subtract(values, wants, tol, edge, pairs, owner)


def subtract_trace(
    ms: RealMultiset,
    a: float,
    b: float,
    ks: Sequence[int],
    mult: int,
    w: ZeroWindow,
    tol: float = TAU_ZERO,
) -> RealMultiset:
    """Remove ``mult`` copies of the windowed trace of class (a, b) over ks.

    Interior points are removed strictly (UnderflowError on shortfall).
    Near the window edge the generating and subtracting sides can round the
    inclusion of the outermost point differently (the class parameter here
    is typically recovered, an ulp away from the generator's), so the trace
    is padded one step past the window and every point in the edge zone is
    subtracted when present but forgiven when absent.  Both kinds go in one
    pass that checks only the interior ones for a shortfall; where the
    pairs must be walked one by one, every interior pair is walked before
    any edge pair.

    Raises ValueError when ``mult`` is not a nonnegative integer or ``tol``
    is negative or not finite, as ``RealMultiset.subtract`` does.
    """
    mult = _whole(mult, "multiplicity", 0, ValueError)
    return _subtract_traces(ms, [(a, b, mult)], ks, w, _check_tol(tol, ValueError))


def _length_multiset(lengths, tol: float) -> RealMultiset:
    """``lengths`` as a RealMultiset: (length, multiplicity) pairs are checked as it checks them."""
    return lengths if isinstance(lengths, RealMultiset) else RealMultiset(lengths, tol)


def strip_k0(
    zl: RealMultiset, lengths: RealMultiset, w: ZeroWindow, tol: float = TAU_ZERO
) -> RealMultiset:
    """Remove the k = 0 contribution {-2*n*pi/a : a in lengths} from a zero line.

    What remains of an m = 1 zero line is the k = +1/-1 data the ratio
    recovery peels.  The traces of all lengths go in one pass that matches
    within ``tol`` as ``subtract_trace`` does, and raises ValueError unless
    ``tol`` is finite and nonnegative.  ``lengths`` may also be plain
    (length, multiplicity) pairs, which are checked as ``RealMultiset``
    checks them.  No lengths remove nothing.
    """
    tol = _check_tol(tol, ValueError)
    lengths = _length_multiset(lengths, tol)
    try:
        return _subtract_traces(zl, [(a, 0.0, m) for a, m in lengths], (0,), w, tol)
    except UnderflowError as exc:
        raise UnderflowError(f"zero line is missing k=0 trace points: {exc}") from exc
