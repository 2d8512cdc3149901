"""Exception hierarchy shared by all lhspec modules.

Every error carries a stable machine-readable ``code`` so the CLI can
surface failures as structured JSON.  Library code raises these directly;
nothing here depends on the rest of the package.  So the one copy of each
rule for scalar arguments (whole numbers, lengths, holonomies, tolerances)
lives here too.
"""

from __future__ import annotations

import math
import numbers
import operator

TWO_PI = 2.0 * math.pi


class SpectralError(Exception):
    """Base class for all lhspec errors."""

    code = "error"


class DomainError(SpectralError):
    """An argument violates a documented domain constraint."""

    code = "domain_error"


class NotInAlgebra(DomainError):
    """Matrix is not in so(3,1) within tolerance."""

    code = "not_in_algebra"


class NotInGroup(DomainError):
    """Matrix is not in the identity component SO(3,1)deg within tolerance."""

    code = "not_in_group"


class NotLoxodromic(SpectralError):
    """Group element has no eigenvalue off the unit circle (no translation length)."""

    code = "not_loxodromic"


class FactorZero(SpectralError):
    """An Euler factor is exactly zero at the evaluation point."""

    code = "factor_zero"


class DivisionByZero(SpectralError):
    """A denominator Euler factor vanishes at the evaluation point."""

    code = "division_by_zero"


class UnderflowError(SpectralError):
    """Multiset subtraction would drive a multiplicity negative."""

    code = "multiset_underflow"


class IncompleteWindow(SpectralError):
    """The zero window is too small for the peeling loop to be conclusive."""

    code = "incomplete_window"


class NegativeMultiplicity(SpectralError):
    """Peeling subtraction underflowed: the input multiset is inconsistent."""

    code = "negative_multiplicity"


class AmbiguousTrace(SpectralError):
    """Two distinct (length, holonomy) pairs explain the same minimal element."""

    code = "ambiguous_trace"


class ParseError(SpectralError):
    """Malformed spectrum file or CLI literal."""

    code = "parse_error"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConvergenceWarning(UserWarning):
    """Evaluation requested outside the guaranteed convergence half-plane."""


def _whole(x, what: str, low: int | None = None, error: type[Exception] = DomainError) -> int:
    """x as an int when it is an int, an integral float or an integer literal and
    at least ``low``; ``error`` otherwise, so no fraction, NaN or inf is truncated."""
    try:
        n = int(x) if isinstance(x, str) else operator.index(x)
    except TypeError:  # a float is whole when integral, which NaN and inf are not
        n = int(x) if isinstance(x, numbers.Real) and float(x).is_integer() else None
    except ValueError:  # a string that is no integer literal
        n = None
    if n is None or (low is not None and n < low):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[low]
        raise error(f"{what} must be {kind} integer, got {x!r}")
    return n


def _positive(x, what: str) -> float:
    """x as a positive, finite float; DomainError otherwise."""
    v = float(x)
    if not 0.0 < v < math.inf:
        raise DomainError(f"{what} must be positive, got {x!r}")
    return v


def _reduce_holonomy(b, what: str = "holonomy") -> float:
    """b read mod 2*pi into [0, 2*pi); DomainError for NaN or inf, which no angle is."""
    h = float(b)
    if 0.0 <= h < TWO_PI:
        return h
    if not math.isfinite(h):
        raise DomainError(f"{what} must lie in [0, 2*pi), got {b!r}")
    reduced = h % TWO_PI
    return reduced if reduced < TWO_PI else 0.0  # a tiny negative h % 2pi rounds to 2pi


def _check_tol(tol: float, error: type[Exception]) -> float:
    """tol when it is finite and nonnegative; ``error`` otherwise."""
    if not 0.0 <= tol < math.inf:  # a NaN passes every match, inf merges every entry
        raise error(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol
