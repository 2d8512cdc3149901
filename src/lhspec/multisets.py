"""Finite multisets of reals/complexes with tolerance-aware canonical form.

The zero sets produced by truncated Euler products and consumed by the
peeling recovery are multisets of floating-point numbers in which distinct
classes can contribute the *same* value (commensurable lengths), so exact
integer multiplicities must survive merging.  Entries closer than ``tol``
are clustered; the representative of a cluster is its smallest member after
sorting, which makes the canonical form independent of insertion order.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import UnderflowError

#: default absolute coincidence tolerance for zero values
TAU_ZERO = 1e-9

_VALUE = itemgetter(0)  # sort key of an entry


def _cluster(pairs: list[tuple[float, int]], tol: float) -> list[tuple[float, int]]:
    """Sort (value, mult) pairs and merge values within tol of the cluster head."""
    out: list[tuple[float, int]] = []
    for v, m in sorted(pairs):
        if out and abs(v - out[-1][0]) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + m)
        else:
            out.append((v, m))
    return [p for p in out if p[1] != 0]


class _Multiset:
    """Immutable core shared by the real and complex multisets.

    ``entries`` is the canonical tuple of (value, multiplicity) pairs.
    Equality is type-exact, so a real multiset never equals a complex one.
    """

    __slots__ = ("entries",)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}x{m}" for v, m in self.entries)
        return f"{type(self).__name__}({{{inner}}})"

    def total(self) -> int:
        """Total multiplicity."""
        return sum(m for _, m in self.entries)


class RealMultiset(_Multiset):
    """Immutable multiset of real numbers with integer multiplicities."""

    __slots__ = ()

    def __init__(self, pairs: Iterable[tuple[float, int]] = (), tol: float = TAU_ZERO):
        pairs = [(float(v), int(m)) for v, m in pairs]
        for v, m in pairs:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for value {v}")
        object.__setattr__(self, "entries", tuple(_cluster(pairs, tol)))

    @classmethod
    def from_values(cls, values: Iterable[float], tol: float = TAU_ZERO) -> "RealMultiset":
        return cls(((v, 1) for v in values), tol)

    def values(self) -> list[float]:
        """Expand to a sorted list with repetition."""
        out: list[float] = []
        for v, m in self.entries:
            out.extend([v] * m)
        return out

    def restrict(self, bound: float) -> "RealMultiset":
        """Entries with absolute value <= bound."""
        return RealMultiset(((v, m) for v, m in self.entries if abs(v) <= bound), tol=0.0)

    def min_positive(self, floor: float = 0.0) -> tuple[float, int] | None:
        """Smallest entry strictly greater than floor, with its multiplicity."""
        for v, m in self.entries:
            if v > floor:
                return v, m
        return None

    def count_near(self, value: float, tol: float) -> int:
        """Total multiplicity within tol of value."""
        lo = bisect.bisect_left(self.entries, value - tol, key=_VALUE)
        hi = bisect.bisect_right(self.entries, value + tol, key=_VALUE)
        return sum(m for _, m in self.entries[lo:hi])

    def contains(self, pairs: Iterable[tuple[float, int]], tol: float) -> bool:
        """Whether every (value, mult) pair can be subtracted without underflow."""
        try:
            self.subtract(pairs, tol)
        except UnderflowError:
            return False
        return True

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
        avail = [[v, m] for v, m in self.entries]
        vals = [v for v, _ in self.entries]
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

    def add(self, pairs: Iterable[tuple[float, int]], tol: float = TAU_ZERO) -> "RealMultiset":
        """Union with additional (value, mult) pairs."""
        return RealMultiset(list(self.entries) + list(pairs), tol)


class ComplexMultiset(_Multiset):
    """Immutable multiset of complex numbers, canonically ordered by (re, im)."""

    __slots__ = ()

    def __init__(self, pairs: Iterable[tuple[complex, int]] = (), tol: float = TAU_ZERO):
        items = sorted(
            ((complex(v), int(m)) for v, m in pairs), key=lambda p: (p[0].real, p[0].imag)
        )
        out: list[tuple[complex, int]] = []
        for v, m in items:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for value {v}")
            if out and abs(v.real - out[-1][0].real) <= tol and abs(v.imag - out[-1][0].imag) <= tol:
                out[-1] = (out[-1][0], out[-1][1] + m)
            else:
                out.append((v, m))
        object.__setattr__(self, "entries", tuple(p for p in out if p[1] != 0))

    def restrict_im(self, im_bound: float) -> "ComplexMultiset":
        """Entries with |Im| <= im_bound."""
        return ComplexMultiset(
            ((v, m) for v, m in self.entries if abs(v.imag) <= im_bound), tol=0.0
        )

    def on_line(self, re_value: float = 0.0, tol: float = TAU_ZERO) -> RealMultiset:
        """Imaginary parts of the entries with Re == re_value (within tol)."""
        return RealMultiset(
            ((v.imag, m) for v, m in self.entries if abs(v.real - re_value) <= tol), tol
        )


class MatchResult(NamedTuple):
    equal: bool
    max_distance: float
    witness: float | None  # an element unmatched / worst-matched on failure


def match_multisets(a: RealMultiset, b: RealMultiset, tol: float) -> MatchResult:
    """Greedy sorted pairing of two real multisets.

    For one-dimensional data the sorted greedy pairing is an optimal
    bottleneck matching, so a multiplicity-respecting bijection with all
    pair distances <= tol exists iff this one qualifies.
    """
    av, bv = a.values(), b.values()
    if len(av) != len(bv):
        # witness: first element whose cumulative count disagrees
        for x, y in zip(av, bv):
            if abs(x - y) > tol:
                return MatchResult(False, float("inf"), x)
        longer = av if len(av) > len(bv) else bv
        return MatchResult(False, float("inf"), longer[min(len(av), len(bv))])
    worst = 0.0
    worst_at: float | None = None
    for x, y in zip(av, bv):
        d = abs(x - y)
        if d > worst:
            worst, worst_at = d, x
    if worst > tol:
        return MatchResult(False, worst, worst_at)
    return MatchResult(True, worst, None)


def multiset_equal(a: RealMultiset, b: RealMultiset, tol: float) -> bool:
    """True iff a multiplicity-respecting bijection pairs a with b within tol."""
    if not tol >= 0:  # also rejects NaN, which would make every comparison pass
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    return match_multisets(a, b, tol).equal
