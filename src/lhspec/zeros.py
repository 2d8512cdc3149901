"""Windowed zero multisets of the truncated Euler products.

A local factor 1 - exp(-X) vanishes exactly when X lies in 2*pi*i*Z.  For
the factor indexed by (k, m1, m2) and a class (a, b) this pins s to

    Re(s) = -(m1 + m2),    Im(s) = (-b*(m1 - m2 + k) - 2*n*pi) / a,  n in Z,

so the zero set is a union of arithmetic progressions up the vertical lines
Re(s) = 0, -1, -2, ...  Everything here is windowed: |Im(s)| <= im_bound
(called Lambda in the recovery contracts), with exact integer n-ranges so a
windowed multiset is complete for its window by construction.  A ZeroWindow
is checked when it is made, and the functions that take one trust it.

The map (k, n) -> (-k, -n) negates every point, so the k = -1 trace of a
class is its k = +1 trace mirrored through 0.  ``class_trace``,
``zero_line`` and the trace subtraction build each k > 0 row once and take
the -k row as that row negated and reversed (``_traces``).  That is bit
for bit the row built directly, except for the sign of an exact zero,
which all three make 0.0.  ``zero_multiset`` keeps that sign as the order
of its progressions decides it, so it builds every row itself.
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


def _check_cap(total: int, im_bound: float) -> None:
    if total >= _POINT_CAP:
        msg = f"window im_bound {im_bound!r} asks for {_POINT_CAP} points or more (the point cap)"
        raise DomainError(msg)


def _line(a: float, b: float, k: int, lo: int, hi: int) -> np.ndarray:
    # (-b*k - 2*n*pi)/a for n in range(lo, hi)
    return (-b * k - TWO_PI * np.arange(lo, hi, dtype=np.float64)) / a


def _spans(rows, im_bound: float, pad: int) -> tuple[list[tuple], int]:
    """(a, b, k, lo, hi) of each (a, b, k) row, n in range(lo, hi) padded by ``pad`` at each end.

    Also returns the number of points of all rows.
    """
    spans, total = [], 0
    for a, b, k in rows:
        r = _n_range(a, b, k, im_bound)
        total += r.stop - r.start + 2 * pad
        spans.append((a, b, k, r.start - pad, r.stop + pad))
    return spans, total


def _progressions(rows, im_bound: float, pad: int = 0) -> list[np.ndarray]:
    """(-b*k - 2*n*pi)/a for each (a, b, k) row, n ascending over the window and ``pad`` past it.

    The points of all rows, padding included, are counted from their
    n-range bounds before any is built: DomainError when they reach the
    point cap.
    """
    spans, total = _spans(rows, im_bound, pad)
    _check_cap(total, im_bound)
    return [_line(*span) for span in spans]


def _traces(classes, ks: Sequence[int], im_bound: float, pad: int = 0) -> list[np.ndarray]:
    """``_progressions`` of the rows (a, b, k) for each class (a, b) and each k of ks, in that order.

    The map (k, n) -> (-k, -n) negates every point, and rounding commutes
    with negation: the n-range of -k is that of k negated, and its row is
    the row of k reversed and negated, bit for bit, wherever np.arange
    builds every n exactly.  So a k < 0 row whose -k is asked for too is
    taken from that row, and counted against the point cap as that row
    is.  The one difference is an exact zero from nonzero operands, 0.0
    in a row that is built and -0.0 in a mirrored one, which ``_joined``
    makes 0.0; every caller joins the rows through it.  ``zero_multiset``,
    which keeps the sign of a zero on purpose, builds every row instead.
    """
    ks = tuple(ks)
    own = [k for k in ks if not (k < 0 and -k in ks)]  # the rows that are built
    rows = [(a, b, k) for a, b in classes for k in own]
    if len(own) == len(ks):
        return _progressions(rows, im_bound, pad)
    spans, total = _spans(rows, im_bound, pad)
    src = [own.index(-k if k < 0 and -k in ks else k) for k in ks]  # the own row of each k
    mirrored = [i for k, i in zip(ks, src) if k != own[i]]
    starts = range(0, len(spans), len(own))  # the first row of each class
    total += sum(spans[j + i][4] - spans[j + i][3] for j in starts for i in mirrored)
    _check_cap(total, im_bound)
    parts = [_line(*span) for span in spans]
    out = []
    for j in starts:
        for k, i in zip(ks, src):
            a, b, _, lo, hi = spans[j + i]
            if k == own[i]:
                out.append(parts[j + i])
            elif max(-lo, hi) <= _EXACT_N:
                out.append(-parts[j + i][::-1])
            else:  # n = 1 - hi .. -lo
                out.append(_line(a, b, k, 1 - hi, 1 - lo))
    return out


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
    Each class gives (2m+1)(max_m+1)(max_m+2)/2 progressions, of at most
    im_bound*a/pi + 1 points each: their product, summed over the classes,
    is counted before any progression is built, and DomainError raised
    when it reaches the point cap.
    """
    tau_m = _whole(tau, "twist index", 0)
    per_class = (2 * tau_m + 1) * (w.max_m + 1) * (w.max_m + 2) // 2
    with np.errstate(over="ignore"):
        widths = w.im_bound * diff._lengths / math.pi + 1.0
    if not np.isfinite(widths).all():  # im_bound * a overflows: no n-range, as _n_range says
        c = int(np.flatnonzero(~np.isfinite(widths))[0])
        _n_range(diff._lengths.item(c), diff._holonomies.item(c), 0, w.im_bound)
    if min(per_class, _POINT_CAP) * float(widths.sum()) >= _POINT_CAP:  # no float of a huge int
        msg = (
            f"zero multiset of twist index {tau_m} in window {tuple(w)!r} asks for "
            f"{_POINT_CAP} points or more (the point cap)"
        )
        raise DomainError(msg)
    # one progression per (class, k, m1, m2) in this order, which decides the
    # sign of a zero imaginary part where -0.0 and 0.0 coincide
    ims: list[np.ndarray] = []
    res: list[float] = []
    reach = tau_m + w.max_m  # |m1 - m2 + k| <= reach
    kks = range(-reach, reach + 1)
    for a, b in zip(diff._lengths.tolist(), diff._holonomies.tolist()):
        lines = dict(zip(kks, _progressions([(a, b, kk) for kk in kks], w.im_bound)))
        for k in range(-tau_m, tau_m + 1):
            for m1 in range(w.max_m + 1):
                for m2 in range(w.max_m + 1 - m1):
                    ims.append(lines[m1 - m2 + k])
                    res.append(float(-(m1 + m2)))
    sizes = [im.size for im in ims]
    re = np.repeat(np.array(res, dtype=np.float64), sizes)
    im = np.concatenate(ims) if ims else np.empty(0)
    # every class contributes the same number of progressions
    per_class = len(ims) // max(len(diff), 1)
    counts = np.repeat(np.repeat(diff._counts, per_class), sizes)
    return ComplexMultiset._from_arrays(re, im, counts, tol=TAU_ZERO)


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
