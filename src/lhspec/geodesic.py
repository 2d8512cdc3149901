"""Length-holonomy invariants of loxodromic isometries and their spectra.

A loxodromic element of SO(3,1)° is conjugate to a block normal form:
a rotation by b in the (1,2) plane times a boost by a > 0 in the (3,4)
plane.  Its eigenvalues are {e^a, e^-a, e^{ib}, e^{-ib}}, so (a, b) can be
read off the spectrum of any conjugate -- up to the sign of b, which
eigenvalues cannot see.  Bare matrices therefore classify to b in [0, pi];
spectra built this way are to be read modulo the class <-> inverse-class
identification (a, b) ~ (a, 2pi - b).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError, NotInGroup, NotLoxodromic, _positive, _reduce_holonomy, _whole
from .lie_so31 import J
from .multisets import RealMultiset, _count_array, _Multiset

TWO_PI = 2.0 * math.pi

#: absolute clustering tolerance on (length, holonomy) coordinates
TAU_SPEC = 1e-9

#: largest eigenvalue modulus must exceed this to count as loxodromic
#: (separates parabolic numerical noise from genuine translation length)
LOXODROMIC_THRESHOLD = 1.0 + 1e-10


class PrimitiveClass(NamedTuple):
    """One primitive conjugacy class: geodesic length, holonomy angle, count."""

    length: float
    holonomy: float
    multiplicity: int = 1


class ClassInvariant(NamedTuple):
    """Normal-form data of a (possibly imprimitive) class delta^j."""

    length: float
    holonomy: float
    primitive_power: int = 1

    def ratio(self) -> float:
        """The holonomy-to-length ratio c = b/a."""
        return self.holonomy / self.length


def _validate(cls: PrimitiveClass, where: str = "") -> PrimitiveClass:
    # the one rule for a class row; ``where`` locates it in a file
    at = f"{where}: " if where else ""
    length = _positive(cls[0], at + "class length")
    holonomy = float(cls[1])
    if not (0.0 <= holonomy < TWO_PI):
        raise DomainError(f"{at}holonomy must lie in [0, 2*pi), got {holonomy!r}")
    return PrimitiveClass(length, holonomy, _whole(cls[2], at + "multiplicity", 1))


def _columns(rows: list[PrimitiveClass]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the length, holonomy and count columns of validated rows
    lengths, holonomies, mults = zip(*rows) if rows else ((), (), ())
    cols = (np.array(lengths, dtype=np.float64), np.array(holonomies, dtype=np.float64))
    return (*cols, _count_array(mults))


class Spectrum(_Multiset):
    """Canonically sorted finite multiset of PrimitiveClass.

    Entries agreeing in both coordinates within ``tol`` are merged by
    multiplicity addition; the representative of a merged cluster is the
    first entry in canonical (length, holonomy) order, so the stored form
    does not depend on insertion order.  Stored as sorted ``_lengths`` and
    ``_holonomies`` beside the counts, from which ``classes`` is derived;
    raises ValueError on a negative or non-finite tolerance, and DomainError
    when the total multiplicity reaches 2**63.
    """

    __slots__ = ("_lengths", "_holonomies")

    def __init__(self, classes: Iterable = (), tol: float = TAU_SPEC):
        self._build(*_columns([_validate(PrimitiveClass(*c)) for c in classes]), tol=tol)

    @classmethod
    def _from_rows(cls, rows: list[PrimitiveClass], tol: float = TAU_SPEC) -> "Spectrum":
        """The spectrum of rows that ``_validate`` returned, without checking them again."""
        return cls._from_arrays(*_columns(rows), tol=tol)

    @staticmethod
    def _order(lengths: np.ndarray, holonomies: np.ndarray, counts: np.ndarray) -> np.ndarray:
        # the stable order of sorted(PrimitiveClass tuples)
        return np.lexsort((counts, holonomies, lengths))

    @property
    def classes(self) -> tuple[PrimitiveClass, ...]:
        cols = (self._lengths.tolist(), self._holonomies.tolist(), self._counts.tolist())
        return tuple(map(PrimitiveClass, *cols))

    entries = classes

    def __repr__(self) -> str:
        return f"Spectrum({list(self.classes)!r})"

    def lengths(self) -> RealMultiset:
        """Length multiset with multiplicity (holonomy forgotten)."""
        return RealMultiset._from_arrays(self._lengths, self._counts, tol=TAU_SPEC)

    def ratios(self, tol: float = TAU_SPEC) -> RealMultiset:
        """Canonical ratio multiset: min(b, 2pi - b)/a per class.

        A zero-holonomy class appears as ratio 0 with doubled multiplicity
        (the k = +1 and -1 leftovers of its coincident traces), as ratio
        peeling reports it.
        """
        b = self._holonomies
        zero = b == 0.0
        values = np.where(zero, 0.0, np.minimum(b, TWO_PI - b) / self._lengths)
        # doubled counts as Python ints, so that one past int64 raises
        counts = _count_array(self._counts.astype(object) * (1 + zero))
        return RealMultiset._from_arrays(values, counts, tol=tol)

    def min_length(self) -> float:
        if not self:
            raise DomainError("empty spectrum has no minimal length")
        return float(self._lengths[0])

    def union(self, other: "Spectrum") -> "Spectrum":
        return Spectrum(self.classes + other.classes)

    def inverse(self) -> "Spectrum":
        """The spectrum of the inverse classes: (a, b) -> (a, (2pi - b) mod 2pi)."""
        return Spectrum(
            (c.length, inverse_class(c.length, c.holonomy)[1], c.multiplicity)
            for c in self.classes
        )


def merge(spec: Spectrum, cls: PrimitiveClass, tol: float = TAU_SPEC) -> Spectrum:
    """Add one class to a spectrum, merging within tol of an existing entry.

    The existing entry's coordinates stay the cluster representative.
    """
    cls = _validate(PrimitiveClass(*cls))
    out = list(spec.classes)
    for i, c in enumerate(out):
        if abs(cls.length - c.length) <= tol and abs(cls.holonomy - c.holonomy) <= tol:
            out[i] = c._replace(multiplicity=c.multiplicity + cls.multiplicity)
            return Spectrum(out, tol=tol)
    return Spectrum(out + [cls], tol=tol)


def spectrum_difference(
    spec1: Spectrum, spec2: Spectrum, tol: float = TAU_SPEC
) -> tuple[Spectrum, Spectrum]:
    """Multiset differences (spec1 - spec2, spec2 - spec1) on (length, holonomy).

    Classes matching in both coordinates within tol cancel multiplicity-wise;
    only the excess on each side survives.  Each class of spec1 drains the
    matching classes of spec2 in their canonical order.
    """
    left, right = spec1._counts.tolist(), spec2._counts.tolist()
    rows2 = list(zip(spec2._lengths.tolist(), spec2._holonomies.tolist()))
    for i, (a, b) in enumerate(zip(spec1._lengths.tolist(), spec1._holonomies.tolist())):
        for j, (a2, b2) in enumerate(rows2):
            if left[i] == 0:
                break
            if abs(a - a2) <= tol and abs(b - b2) <= tol:
                take = min(left[i], right[j])
                left[i] -= take
                right[j] -= take

    def rest(spec: Spectrum, counts: list[int]) -> Spectrum:
        # the surviving classes, canonicalized again at tol
        counts = np.array(counts, dtype=np.int64)
        keep = counts > 0
        cols = (spec._lengths[keep], spec._holonomies[keep], counts[keep])
        return Spectrum._from_arrays(*cols, tol=tol)

    return rest(spec1, left), rest(spec2, right)


def group_residual(g) -> float:
    """Max entrywise residual of g^T J g = J."""
    m = np.asarray(g, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan past the float range
        return float(np.max(np.abs(m.T @ J @ m - J)))


def in_group(g, tol: float = 1e-12) -> bool:
    """Membership test for SO(3,1)°: g^T J g = J, det g = 1, g44 >= 1.

    Tolerances scale with the size of g: entries of a boost by a grow like
    e^a, and the residual of the quadratic (resp. quartic) invariant picks
    up rounding of that order squared (resp. fourth power).
    """
    m = np.asarray(g, dtype=float)
    if m.shape != (4, 4) or not np.all(np.isfinite(m)):
        return False
    scale = max(1.0, float(np.max(np.abs(m))))
    # a product, not scale**2, which raises OverflowError; where the entries
    # square past the float range, so does the residual, and nothing is shown
    scale2 = scale * scale
    if not math.isfinite(scale2) or group_residual(m) > tol * scale2:
        return False
    if abs(float(np.linalg.det(m)) - 1.0) > tol * scale2 * scale2:
        return False
    return m[3, 3] >= 1.0 - tol * scale2


def classify(g, tol: float = 1e-12) -> tuple[float, float]:
    """Read the (length, holonomy) invariants (a, b) off a loxodromic matrix.

    a is the log of the largest eigenvalue modulus; b is the common absolute
    argument of the unit-modulus eigenvalue pair, hence lands in [0, pi]
    (a bare matrix carries no orientation to fix the sign of b).
    """
    m = np.asarray(g, dtype=float)
    if not in_group(m, tol=tol):
        raise NotInGroup(
            f"matrix is not in SO(3,1)° within tolerance (g^T J g residual "
            f"{group_residual(m) if m.shape == (4, 4) else float('nan'):.3e})"
        )
    ev = np.linalg.eigvals(m)
    moduli = np.abs(ev)
    lam = float(moduli.max())
    if lam <= LOXODROMIC_THRESHOLD:
        raise NotLoxodromic(
            f"largest eigenvalue modulus {lam!r} does not exceed {LOXODROMIC_THRESHOLD!r}"
        )
    a = math.log(lam)
    # the two middle eigenvalues by modulus are the unit rotation pair
    order = np.argsort(moduli)
    b = float((abs(np.angle(ev[order[1]])) + abs(np.angle(ev[order[2]]))) / 2.0)
    return a, b


def inverse_class(a: float, b: float) -> tuple[float, float]:
    """Invariants of the inverse class: same length, holonomy 2pi - b mod 2pi."""
    return _positive(a, "length"), _reduce_holonomy(TWO_PI - _reduce_holonomy(b))


def power_class(a: float, b: float, j: int) -> ClassInvariant:
    """Invariants of the j-th power: boosts add, angles add mod 2pi."""
    a, b, j = _positive(a, "length"), _reduce_holonomy(b), _whole(j, "power", 1)
    try:
        length, holonomy = j * a, j * b
    except OverflowError:  # a power j that no float holds
        length = holonomy = math.inf
    length = _positive(length, "length of the power")
    return ClassInvariant(length, _reduce_holonomy(holonomy, "holonomy of the power"), j)
