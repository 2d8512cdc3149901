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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, UnderflowError, _check_tol, _whole

#: default absolute coincidence tolerance for zero values
TAU_ZERO = 1e-9

#: total multiplicities must stay below this (counts are int64)
COUNT_LIMIT = 2**63
_TOO_MANY = "total multiplicity reaches 2**63 (counts are int64)"


def _within(xs: list[np.ndarray], ys: list[np.ndarray], tol: float) -> np.ndarray:
    """Whether the rows of the columns xs and ys lie within tol in every column."""
    with np.errstate(over="ignore"):  # a gap past the float range is inf, past every tol
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


def _count_array(counts) -> np.ndarray:
    """Integer multiplicities as int64; DomainError for one that reaches 2**63."""
    try:
        return np.asarray(counts, dtype=np.int64)
    except OverflowError:
        raise DomainError(_TOO_MANY) from None


def _check_total(counts: np.ndarray) -> None:
    """DomainError when nonnegative int64 counts total 2**63 or more."""
    # the int64 sum cannot wrap while max * size stays below the limit
    if counts.size and int(counts.max()) * counts.size >= COUNT_LIMIT:
        if sum(counts.tolist()) >= COUNT_LIMIT:
            raise DomainError(_TOO_MANY)


def _canonical(
    cols: list[np.ndarray], counts: np.ndarray, order: np.ndarray, tol: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """Rows of float64 columns with nonnegative int64 counts, put in ``order``
    and clustered within tol of their cluster head in every column."""
    _check_tol(tol, ValueError)
    _check_total(counts)
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


def _holds(view: tuple[list, list], v: float, need: int, tol: float) -> bool:
    """Whether ``count_near(v, tol) >= need``, need 1 or 2, on a ``RealMultiset._view()``.

    One ``bisect_left`` finds the first entry at or above v - tol; it and
    the entry after it are inside the window when they lie at or below
    v + tol.  Counts are at least 1, so a window of two entries always
    holds ``need`` copies and an empty one never does.  A NaN entry sorts
    last and is never inside, as ``nan <= v + tol`` is false.
    """
    vals, counts = view
    i = bisect.bisect_left(vals, v - tol)
    up = v + tol
    if i < len(vals) and vals[i] <= up:
        return counts[i] >= need or (i + 1 < len(vals) and vals[i + 1] <= up)
    return False


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

    Raises ValueError on a multiplicity that is negative or not an integer,
    on a tolerance that is negative or not finite, and DomainError when the
    total multiplicity reaches 2**63.
    """

    __slots__ = ("_values",)

    def __init__(self, pairs: Iterable[tuple[float, int]] = (), tol: float = TAU_ZERO):
        pairs = [(float(v), _whole(m, "multiplicity", None, ValueError)) for v, m in pairs]
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

    def _view(self) -> tuple[list, list]:
        """The values and counts as two Python lists, the view ``_holds`` probes."""
        return self._values.tolist(), self._counts.tolist()

    def count_near(self, value: float, tol: float) -> int:
        """Total multiplicity within tol of value."""
        lo = np.searchsorted(self._values, value - tol, side="left")
        hi = np.searchsorted(self._values, value + tol, side="right")
        return int(self._counts[lo:hi].sum())

    def _near(self, values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """(slot, two) of the tol window of each of values, which hold no NaN.

        ``slot`` is the first entry inside the window, or the number of
        entries where it holds none, and ``two`` marks a window holding two
        entries or more.  One binary search finds the first entry at or
        above v - tol; it and the entry after it are inside when they lie
        at or below v + tol.
        """
        vals, n = self._values, self._values.size
        lo = vals.searchsorted(values - tol, side="left")
        if n == 0:
            return lo, np.zeros(lo.size, dtype=bool)
        up = values + tol
        # where lo = n the clipped gather reads entry n - 1, and the slot is n either way
        slot = np.where(vals.take(lo, mode="clip") <= up, lo, n)
        two = (vals.take(lo + 1, mode="clip") <= up) & (lo < n - 1)
        return slot, two

    def subtract(
        self,
        pairs: Iterable[tuple[float, int]],
        tol: float,
        partial: bool = False,
    ) -> "RealMultiset":
        """Remove the given pairs, matching values within tol.

        The pairs are walked one by one, in order; each drains the stored
        entries inside its tol window in order of proximity.  With
        ``partial=True`` a shortfall is forgiven (used for points sitting on
        the window boundary); otherwise it raises UnderflowError.  A want
        that is negative or not an integer, and a tolerance that is negative
        or not finite, raise ValueError.
        """
        _check_tol(tol, ValueError)
        pairs = [(float(v), _whole(m, "multiplicity", 0, ValueError), partial) for v, m in pairs]
        return self._subtract_exact(pairs, tol)

    def _subtract(
        self, values: np.ndarray, wants, tol: float, partial: np.ndarray, pairs, owner=None
    ):
        """``subtract`` of the pairs zip(values, wants), given as arrays, in one pass.

        ``wants`` is one nonnegative int that every pair wants, or an int64
        array of them; ``partial`` forgives the shortfall of the pairs it
        marks.  ``values`` holds no NaN.  Where every tol window holds at
        most one entry and no int64 sum can wrap (the largest want times
        the number of pairs stays below 2**63), an entry loses the sum of
        the wants that hit it, added up by one ``np.add.at`` into one row
        for the strict pairs and one for the marked ones, and only the
        strict row is compared with the counts.  Anything else is decided
        by the exact sequential walk over the (value, want, partial)
        triples that the zero-argument callable ``pairs`` returns: a window
        holding several entries, a strict shortfall (the walk raises with
        its message), and sums past int64.  The walk visits every unmarked
        pair before any marked one; where this path decides, the walk would
        leave the same entries.

        ``owner``, when given, numbers the steps 0..r-1 (r >= 2) of a
        peeling round, one per pair: step i empties the i-th positive
        entry.  The call then returns (multiset, removed per step) where
        this pass shows that the steps, subtracted one by one, would each
        pass here and leave the same entries, and None otherwise; it never
        walks.  That holds when, besides the pass deciding, step i alone
        hits the i-th positive entry and leaves it empty, and no entry
        that a marked pair hits is hit by two steps: the strict wants of an
        entry then add up in any order, and the marked ones of an entry
        take what its own step's strict ones leave.
        """
        n = self._counts.size
        slot, two = self._near(values, tol)
        top = wants if isinstance(wants, int) else int(wants.max(initial=0))
        if top * values.size < COUNT_LIMIT and not two.any():
            # column n of each row collects the pairs that hit no entry
            need = np.zeros(2 * n + 2, dtype=np.int64)
            np.add.at(need, slot + partial * (n + 1), wants)
            left = self._counts - need[:n]
            if need[n] == 0 and left.min(initial=0) >= 0:
                marked = need[n + 1 : -1]
                if owner is not None:
                    return self._by_steps(slot, left, marked, wants, partial, owner)
                left -= marked
                keep = left > 0
                return RealMultiset._trusted(self._values[keep], left[keep])
        return None if owner is not None else self._subtract_exact(pairs(), tol)

    def _by_steps(self, slot, left, marked, wants, partial, owner):
        # the checks and per-step totals of ``_subtract`` with ``owner``
        n, r = left.size, int(owner[-1]) + 1
        first = np.full(n + 1, r)
        last = np.full(n + 1, -1)
        np.minimum.at(first, slot, owner)
        np.maximum.at(last, slot, owner)
        took = np.minimum(left, marked)  # what the marked pairs of an entry remove
        i0 = int(self._values.searchsorted(0.0, side="right"))
        heads, steps = slice(i0, i0 + r), np.arange(r)
        if (
            i0 + r > n
            or ((first[heads] != steps) | (last[heads] != steps) | (took[heads] != left[heads])).any()
            or (first[:n] < last[:n])[marked > 0].any()
        ):
            return None
        removed = np.zeros(r + 1, dtype=np.int64)  # row r collects the marked pairs
        np.add.at(removed, np.where(partial, r, owner), wants)
        owned = marked.nonzero()[0]
        np.add.at(removed, first[owned], took[owned])
        left -= took
        keep = left > 0
        return RealMultiset._trusted(self._values[keep], left[keep]), removed[:r].tolist()

    def _subtract_exact(self, pairs, tol: float) -> "RealMultiset":
        # the sequential rule of ``subtract``, which ``_subtract`` reproduces:
        # the (value, want, partial) triples in order, the strict ones first
        avail = [[v, m] for v, m in self.entries]
        vals = self._values.tolist()
        for value, want, partial in sorted(pairs, key=lambda p: p[2]):
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
    multiplicity that is negative or not an integer, on a tolerance that is
    negative or not finite, and DomainError when the total multiplicity
    reaches 2**63.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, pairs: Iterable[tuple[complex, int]] = (), tol: float = TAU_ZERO):
        pairs = [(complex(v), _whole(m, "multiplicity", None, ValueError)) for v, m in pairs]
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

    @classmethod
    def _from_lines(cls, lines: Iterable[tuple[int, np.ndarray, np.ndarray]], tol: float):
        """Canonical multiset of (re, im, counts) lines, each of one Re value.

        The Re values ascend more than tol apart, so no cluster spans two
        lines and the canonical form is the lines' own joined in order: each
        line is sorted by Im alone and clustered.  Im holds no NaN, so equal
        values are equal bit for bit, save 0.0 and -0.0: once every zero of
        a line takes the sign of its first, any sort of Im gives what the
        stable ``_order`` gives.  Each line's total is checked before it is
        clustered, and the total of all lines once they are joined.
        """
        res, ims, cnts = [], [], []
        for re, im, counts in lines:
            zero = im == 0.0
            if zero.any():
                im = np.where(zero, im[zero.argmax()], im)
            (im,), counts = _canonical([im], counts, im.argsort(), tol)
            res.append(np.full(im.size, re, dtype=np.float64))
            ims.append(im)
            cnts.append(counts)
        counts = np.concatenate(cnts)
        _check_total(counts)
        return cls._trusted(np.concatenate(res), np.concatenate(ims), counts)

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
    with np.errstate(over="ignore"):  # a gap past the float range is inf, past every tol
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
    _check_tol(tol, ValueError)
    return match_multisets(a, b, tol).equal
