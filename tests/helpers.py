"""Shared generators and oracles for the test suite."""

import bisect
import math

import numpy as np

from lhspec import CartanParams, Spectrum, UnderflowError, exp_cartan

TWO_PI = 2.0 * math.pi


def rand_algebra(rng, scale=1.0):
    """Random element of so(3,1): skew 3x3 block B plus boost column u."""
    b = rng.normal(scale=scale, size=3)
    u = rng.normal(scale=scale, size=3)
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = b[0], -b[0]
    m[0, 2], m[2, 0] = b[1], -b[1]
    m[1, 2], m[2, 1] = b[2], -b[2]
    m[:3, 3] = u
    m[3, :3] = u
    return m


def rotation4(i, j, theta):
    """Givens rotation in the (i, j) plane of the compact 3x3 block."""
    g = np.eye(4)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = g[j, j] = c
    g[i, j], g[j, i] = s, -s
    return g


def rand_rotation(rng):
    """Random element of the SO(3) block (product of three Givens rotations)."""
    g = np.eye(4)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        g = g @ rotation4(i, j, rng.uniform(0.0, TWO_PI))
    return g


def rand_conjugator(rng, boost=1.0):
    """Generic element of SO(3,1)deg: rotation * moderate boost * rotation."""
    alpha = rng.uniform(-boost, boost)
    return rand_rotation(rng) @ exp_cartan(CartanParams(0.0, alpha)) @ rand_rotation(rng)


def series_exp(m, terms=30):
    """Plain truncated matrix-exponential series, the oracle for exp_cartan."""
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def normal_form(a, b):
    """Loxodromic block normal form: rotation by b times boost by a."""
    return exp_cartan(CartanParams(b, a))


def rand_spectrum(rng, max_classes=20, lmin=0.5, lmax=5.0, b_margin=0.1, max_mult=3):
    """Random spectrum with holonomies bounded away from the degenerate 0/2pi."""
    n = int(rng.integers(1, max_classes + 1))
    return Spectrum(
        (
            float(rng.uniform(lmin, lmax)),
            float(rng.uniform(b_margin, TWO_PI - b_margin)),
            int(rng.integers(1, max_mult + 1)),
        )
        for _ in range(n)
    )


def commensurable_spectrum(rng, lengths, b_margin=0.1, max_mult=3):
    """Spectrum on a fixed (integer-ratio) length set with random holonomies."""
    return Spectrum(
        (
            float(a),
            float(rng.uniform(b_margin, TWO_PI - b_margin)),
            int(rng.integers(1, max_mult + 1)),
        )
        for a in lengths
    )


def expected_ratio_pairs(spec):
    """Canonical (ratio, multiplicity) pairs the peeling should return.

    Nonzero holonomy contributes min(b, 2pi-b)/a per class copy; zero
    holonomy is reported as ratio 0 with doubled multiplicity (the k = +1
    and -1 leftovers of the coincident traces).
    """
    pairs = []
    for a, b, mult in spec:
        if b == 0.0:
            pairs.append((0.0, 2 * mult))
        else:
            pairs.append((min(b, TWO_PI - b) / a, mult))
    return pairs


def subtract_reference(entries, pairs, tol, partial=False):
    """Sequential multiset subtraction, the reference for RealMultiset.subtract.

    Walks the (value, want) pairs in order; each drains the stored entries
    inside its tol window in order of proximity.  Returns the surviving
    (value, multiplicity) entries, or raises UnderflowError on a shortfall
    unless ``partial``.
    """
    avail = [[v, m] for v, m in entries]
    vals = [v for v, _ in entries]
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
    return tuple((v, m) for v, m in avail if m > 0)


def match_reference(av, bv, tol):
    """Greedy pairing of two expanded sorted value lists, the reference for match_multisets.

    Returns (equal, max_distance, witness) as match_multisets does.
    """
    if len(av) != len(bv):
        for x, y in zip(av, bv):
            if abs(x - y) > tol:
                return False, float("inf"), x
        longer = av if len(av) > len(bv) else bv
        return False, float("inf"), longer[min(len(av), len(bv))]
    worst = 0.0
    worst_at = None
    for x, y in zip(av, bv):
        d = abs(x - y)
        if d > worst:
            worst, worst_at = d, x
    if worst > tol:
        return False, worst, worst_at
    return True, worst, None
