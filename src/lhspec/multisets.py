"""Finite multisets of reals/complexes with tolerance-aware canonical form.

The zero sets produced by truncated Euler products and consumed by the
peeling recovery are multisets of floating-point numbers in which distinct
classes can contribute the *same* value (commensurable lengths), so exact
integer multiplicities must survive merging.  Entries closer than ``tol``
are clustered; the representative of a cluster is its smallest member after
sorting, which makes the canonical form independent of insertion order.

A multiset is stored as sorted numpy arrays: float64 values (the real and
imaginary parts for a complex multiset) and their positive int64 counts.
Its total multiplicity stays below 2**63 so that no count sum can wrap.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, UnderflowError

#: default absolute coincidence tolerance for zero values
TAU_ZERO = 1e-9

#: total multiplicities must stay below this (counts are int64)
COUNT_LIMIT = 2**63
_TOO_MANY = "total multiplicity reaches 2**63 (counts are int64)"


def _within(xs: list[np.ndarray], ys: list[np.ndarray], tol: float) -> np.ndarray:
    """Whether the rows of the columns xs and ys lie within tol in every column."""
    out = np.abs(xs[0] - ys[0]) <= tol
    for x, y in zip(xs[1:], ys[1:]):
        out &= np.abs(x - y) <= tol
    return out


def _cluster(
    cols: list[np.ndarray], counts: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Walk sorted rows and merge each into the current cluster head when every
    column lies within tol of the head's; returns head positions and summed counts."""
    rows = list(zip(*(c.tolist() for c in cols)))
    heads: list[int] = []
    sums: list[int] = []
    for i, (row, m) in enumerate(zip(rows, counts.tolist())):
        if heads and all(abs(x - h) <= tol for x, h in zip(row, rows[heads[-1]])):
            sums[-1] += m
        else:
            heads.append(i)
            sums.append(m)
    return np.array(heads, dtype=np.intp), np.array(sums, dtype=np.int64)


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # a NaN passes every match, inf merges every entry
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


def _count_array(counts) -> np.ndarray:
    """Integer multiplicities as int64; DomainError for one that reaches 2**63."""
    try:
        return np.asarray(counts, dtype=np.int64)
    except OverflowError:
        raise DomainError(_TOO_MANY) from None


def _canonical(
    cols: list[np.ndarray], counts: np.ndarray, order: np.ndarray, tol: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """Rows of float64 columns with nonnegative int64 counts, put in ``order``
    and clustered within tol of their cluster head in every column."""
    _check_tol(tol)
    # the int64 sum cannot wrap while max * size stays below the limit
    if counts.size and int(counts.max()) * counts.size >= COUNT_LIMIT:
        if sum(counts.tolist()) >= COUNT_LIMIT:
            raise DomainError(_TOO_MANY)
    cols, counts = [c[order] for c in cols], counts[order]
    near = _within([c[1:] for c in cols], [c[:-1] for c in cols], tol)
    if near.any():
        heads = np.flatnonzero(np.concatenate(([True], ~near)))
        lasts = np.append(heads[1:], counts.size) - 1
        firsts = [c[heads] for c in cols]
        *lead, last = cols
        # a run of near neighbours is one cluster when all of it lies within
        # tol of its head: where its leading columns are constant the sort
        # leaves the last one ascending, so the run spans last minus first.
        # With leading columns, a head must also lie apart from the head
        # before it (one sorted column implies that).
        if (
            all(np.array_equal(c[lasts], f) for c, f in zip(lead, firsts))
            and np.all(last[lasts] - firsts[-1] <= tol)
            and not (lead and _within([f[1:] for f in firsts], [f[:-1] for f in firsts], tol).any())
        ):
            counts = np.add.reduceat(counts, heads)
        else:  # the cluster heads depend on the walk
            heads, counts = _cluster(cols, counts, tol)
        cols = [c[heads] for c in cols]
    keep = counts != 0
    return [c[keep] for c in cols], counts[keep]


class _Multiset:
    """Immutable core shared by the real and complex multisets and the spectrum.

    Values live in sorted float64 arrays named by the subclass's
    ``__slots__`` (the values of a real multiset, the real and imaginary
    parts of a complex one, the lengths and holonomies of a spectrum)
    beside their positive int64 ``_counts``; the total multiplicity stays
    below 2**63.  ``entries``, the canonical tuple of (value, multiplicity)
    pairs (of classes, for a spectrum), is derived from them.  Equality is
    type-exact, so a real multiset never equals a complex one.
    """

    __slots__ = ("_counts",)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, *arrays: np.ndarray) -> None:
        # the value arrays in slot order, then the counts
        for name, arr in zip((*type(self).__slots__, "_counts"), arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _build(self, *arrays: np.ndarray, tol: float) -> None:
        *cols, counts = arrays
        cols, counts = _canonical(cols, counts, self._order(*arrays), tol)
        self._set(*cols, counts)

    @classmethod
    def _from_arrays(cls, *arrays: np.ndarray, tol: float):
        """Canonical multiset of float64 value arrays with nonnegative int64 counts."""
        out = object.__new__(cls)
        out._build(*arrays, tol=tol)
        return out

    @classmethod
    def _trusted(cls, *arrays: np.ndarray):
        """Wrap value arrays and counts that are already canonical (sorted, distinct, positive)."""
        out = object.__new__(cls)
        out._set(*arrays)
        return out

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    def __len__(self) -> int:
        return self._counts.size

    def __bool__(self) -> bool:
        return self._counts.size > 0

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}x{m}" for v, m in self.entries)
        return f"{type(self).__name__}({{{inner}}})"

    def total(self) -> int:
        """Total multiplicity."""
        return int(self._counts.sum())


class RealMultiset(_Multiset):
    """Immutable multiset of real numbers with integer multiplicities.

    Raises ValueError on a negative multiplicity, on a tolerance that is
    negative or not finite, and DomainError when the total multiplicity
    reaches 2**63.
    """

    __slots__ = ("_values",)

    def __init__(self, pairs: Iterable[tuple[float, int]] = (), tol: float = TAU_ZERO):
        pairs = [(float(v), int(m)) for v, m in pairs]
        for v, m in pairs:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for value {v}")
        values, counts = zip(*pairs) if pairs else ((), ())
        self._build(np.array(values, dtype=np.float64), _count_array(counts), tol=tol)

    @staticmethod
    def _order(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
        # by value, then count: the order of sorted((v, m) pairs)
        return np.lexsort((counts, values))

    @classmethod
    def from_values(cls, values: Iterable[float], tol: float = TAU_ZERO) -> "RealMultiset":
        vals = np.fromiter(values, dtype=np.float64)
        return cls._from_arrays(vals, np.ones(vals.size, dtype=np.int64), tol=tol)

    @property
    def entries(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self._values.tolist(), self._counts.tolist()))

    def values(self) -> list[float]:
        """Expand to a sorted list with repetition."""
        return np.repeat(self._values, self._counts).tolist()

    def min_positive(self, floor: float = 0.0) -> tuple[float, int] | None:
        """Smallest entry strictly greater than floor, with its multiplicity."""
        i = int(np.searchsorted(self._values, floor, side="right"))
        if i < self._values.size and self._values[i] > floor:
            return float(self._values[i]), int(self._counts[i])
        return None

    def count_near(self, value: float, tol: float) -> int:
        """Total multiplicity within tol of value."""
        lo = np.searchsorted(self._values, value - tol, side="left")
        hi = np.searchsorted(self._values, value + tol, side="right")
        return int(self._counts[lo:hi].sum())

    def subtract(
        self,
        pairs: Iterable[tuple[float, int]],
        tol: float,
        partial: bool = False,
    ) -> "RealMultiset":
        """Remove the given pairs, matching values within tol.

        Multiple stored entries inside the tol window are drained in order
        of proximity.  With ``partial=True`` a shortfall is forgiven (used
        for points sitting on the window boundary); otherwise it raises
        UnderflowError.
        """
        pairs = list(pairs)
        values = np.array([v for v, _ in pairs], dtype=np.float64)
        return self._subtract(values, [m for _, m in pairs], tol, partial, pairs)

    def _subtract(self, values: np.ndarray, wants, tol: float, partial: bool, pairs=None):
        """``subtract`` of the pairs zip(values, wants), given as arrays.

        All pairs are matched at once when every tol window holds at most one
        entry; then an entry loses the sum of the wants that hit it.  Windows
        holding several entries, and a shortfall to report, take the exact
        sequential walk, which visits ``pairs`` (default: rebuilt from the
        arrays) in order.
        """
        raw = wants
        try:
            wants = np.asarray(raw, dtype=np.int64)
        except OverflowError:  # beyond any count: only the walk's Python ints hold it
            wants = None
        if wants is not None:
            below, above = values - tol, values + tol
            lo = np.searchsorted(self._values, below, side="left")
            hi = np.searchsorted(self._values, above, side="right")
            width = hi - lo
            # the walk takes min(want, left) pair by pair; for nonnegative
            # wants whose int64 sums cannot wrap, that is one clipped sum.
            # A NaN bound makes bisect and searchsorted disagree.
            if (
                width.max(initial=0) <= 1
                and wants.min(initial=0) >= 0
                and int(wants.max(initial=0)) * wants.size < COUNT_LIMIT
                and not (np.isnan(below).any() or np.isnan(above).any())
            ):
                hit = width == 1
                need = np.zeros(self._counts.size, dtype=np.int64)
                np.add.at(need, lo[hit], wants[hit])
                short = bool(np.any(wants[~hit] > 0)) or bool(np.any(need > self._counts))
                if partial or not short:
                    left = np.maximum(self._counts - need, 0)
                    keep = left > 0
                    return RealMultiset._trusted(self._values[keep], left[keep])
        if pairs is None:
            pairs = list(zip(values.tolist(), np.asarray(raw, dtype=object).tolist()))
        return self._subtract_exact(pairs, tol, partial)

    def _subtract_exact(self, pairs, tol: float, partial: bool) -> "RealMultiset":
        # the sequential rule that the vectorised path reproduces
        avail = [[v, m] for v, m in self.entries]
        vals = self._values.tolist()
        for value, want in pairs:
            lo = bisect.bisect_left(vals, value - tol)
            hi = bisect.bisect_right(vals, value + tol)
            near = sorted(range(lo, hi), key=lambda i: abs(vals[i] - value))
            for i in near:
                if want == 0:
                    break
                take = min(want, avail[i][1])
                avail[i][1] -= take
                want -= take
            if want > 0 and not partial:
                raise UnderflowError(
                    f"cannot remove {want} more copies of {value!r} (multiset underflow)"
                )
        return RealMultiset(((v, m) for v, m in avail if m > 0), tol=0.0)


class ComplexMultiset(_Multiset):
    """Immutable multiset of complex numbers, canonically ordered by (re, im).

    Values with equal (re, im) keep their insertion order, so the first
    inserted of 0.0 and -0.0 represents a cluster.  Raises ValueError on a
    negative multiplicity, on a tolerance that is negative or not finite, and
    DomainError when the total multiplicity reaches 2**63.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, pairs: Iterable[tuple[complex, int]] = (), tol: float = TAU_ZERO):
        pairs = [(complex(v), int(m)) for v, m in pairs]
        negative = [(v, m) for v, m in pairs if m < 0]
        if negative:  # the first in canonical order
            v, m = min(negative, key=lambda p: (p[0].real, p[0].imag))
            raise ValueError(f"negative multiplicity {m} for value {v}")
        re = np.array([v.real for v, _ in pairs], dtype=np.float64)
        im = np.array([v.imag for v, _ in pairs], dtype=np.float64)
        self._build(re, im, _count_array([m for _, m in pairs]), tol=tol)

    @staticmethod
    def _order(re: np.ndarray, im: np.ndarray, counts: np.ndarray) -> np.ndarray:
        # a stable sort by (re, im) alone: equal values keep insertion order
        return np.lexsort((im, re))

    @property
    def entries(self) -> tuple[tuple[complex, int], ...]:
        return tuple(zip(map(complex, self._re.tolist(), self._im.tolist()), self._counts.tolist()))

    def restrict_im(self, im_bound: float) -> "ComplexMultiset":
        """Entries with |Im| <= im_bound."""
        keep = np.abs(self._im) <= im_bound
        return ComplexMultiset._trusted(self._re[keep], self._im[keep], self._counts[keep])

    def on_line(self, re_value: float = 0.0, tol: float = TAU_ZERO) -> RealMultiset:
        """Imaginary parts of the entries with Re == re_value (within tol)."""
        keep = np.abs(self._re - re_value) <= tol
        return RealMultiset._from_arrays(self._im[keep], self._counts[keep], tol=tol)


class MatchResult(NamedTuple):
    equal: bool
    max_distance: float
    witness: float | None  # an element unmatched / worst-matched on failure


def match_multisets(a: RealMultiset, b: RealMultiset, tol: float) -> MatchResult:
    """Greedy sorted pairing of two real multisets.

    For one-dimensional data the sorted greedy pairing is an optimal
    bottleneck matching, so a multiplicity-respecting bijection with all
    pair distances <= tol exists iff this one qualifies.  The pairing runs
    over the (value, count) entries: the positions where a run of a or of b
    starts split the pairs into segments of one repeated pair each.  A
    position shared by both runs is listed twice, which repeats a pair and
    changes neither the first failing pair nor the first worst one.
    """
    ca, cb = np.cumsum(a._counts), np.cumsum(b._counts)
    na, nb = a.total(), b.total()
    n = min(na, nb)
    starts = np.sort(np.concatenate(([0] if n else [], ca[ca < n], cb[cb < n])))
    x = a._values[np.searchsorted(ca, starts, side="right")]
    y = b._values[np.searchsorted(cb, starts, side="right")]
    d = np.abs(x - y)
    if na != nb:
        # witness: first element whose cumulative count disagrees
        bad = np.flatnonzero(d > tol)
        if bad.size:
            return MatchResult(False, float("inf"), float(x[bad[0]]))
        longer, cum = (a._values, ca) if na > nb else (b._values, cb)
        return MatchResult(False, float("inf"), float(longer[np.searchsorted(cum, n, side="right")]))
    worst = 0.0
    worst_at: float | None = None
    if d.size:
        i = int(np.argmax(np.where(d > 0.0, d, 0.0)))  # first largest; NaN never counts
        if d[i] > 0.0:
            worst, worst_at = float(d[i]), float(x[i])
    if worst > tol:
        return MatchResult(False, worst, worst_at)
    return MatchResult(True, worst, None)


def multiset_equal(a: RealMultiset, b: RealMultiset, tol: float) -> bool:
    """True iff a multiplicity-respecting bijection pairs a with b within tol."""
    _check_tol(tol)
    return match_multisets(a, b, tol).equal
