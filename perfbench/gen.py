"""Seeded input generators for the benchmark.

These mirror the parameters of the acceptance corpus (c5/c6): up to 20
classes, lengths in [0.5, 5], holonomies in [0.1, 2*pi - 0.1], multiplicities
1-3, and one spectrum in ten on a fixed commensurable length set.  They are
written here rather than imported from the test suite, so that editing the
tests cannot move the benchmark, and they build matrices by hand rather than
through ``lhspec``, so that the classification check has an independent
oracle.

Sampling is stratified to keep the seed-to-seed spread of the timings small.
Every block of ``BLOCK`` consecutive spectra holds the same spread of class
counts over 1..20, in a seeded order, so any run that covers whole blocks
sees the same size mix whatever the seed.  Within a spectrum each length is
drawn from its own equal part of [0.5, 5], so the smallest length, which
sets the zero window and with it the work, varies little.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

LMIN, LMAX = 0.5, 5.0
B_MARGIN = 0.1
MAX_MULT = 3
MAX_CLASSES = 20
COMMENSURABLE_SETS = ((1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0))
BLOCK = 20  # spectra per stratified block; 2 of them commensurable (10%)


def _holonomy(rng) -> float:
    return float(rng.uniform(B_MARGIN, TWO_PI - B_MARGIN))


def stratified_rows(rng, n_classes: int) -> list[tuple[float, float, int]]:
    """Rows with one length drawn from each of ``n_classes`` equal parts of [LMIN, LMAX].

    The smallest length, which sets the default zero window, then stays in
    the lowest part, so every spectrum asks for a similar number of zeros.
    Multiplicities run through 1..MAX_MULT from a random start, so each is
    uniform on its own while their sum hardly varies.
    """
    width = (LMAX - LMIN) / n_classes
    start = int(rng.integers(MAX_MULT))
    rows = [
        (float(LMIN + (c + rng.uniform()) * width), _holonomy(rng), 1 + (start + c) % MAX_MULT)
        for c in range(n_classes)
    ]
    return [rows[k] for k in rng.permutation(n_classes)]


def commensurable_rows(rng, lengths) -> list[tuple[float, float, int]]:
    """Rows on a fixed integer-ratio length set with random holonomies."""
    return [(float(a), _holonomy(rng), int(rng.integers(1, MAX_MULT + 1))) for a in lengths]


def block_counts(n: int) -> list[int]:
    """``n`` class counts spread evenly over 1..MAX_CLASSES, the same in every block."""
    return [round(1 + j * (MAX_CLASSES - 1) / (n - 1)) for j in range(n)]


def corpus_rows(rng, n_blocks: int, commensurable: bool = True) -> list[dict]:
    """Stratified corpus of ``n_blocks * BLOCK`` spectra.

    Each entry is ``{"rows": [...], "commensurable": bool}``.  With
    ``commensurable`` set, two spectra per block sit on one of the fixed
    commensurable length sets, cycling through them block by block.
    """
    out: list[dict] = []
    n_comm = 2 if commensurable else 0
    for blk in range(n_blocks):
        block = [
            {"rows": stratified_rows(rng, c), "commensurable": False}
            for c in block_counts(BLOCK - n_comm)
        ]
        for j in range(n_comm):
            lengths = COMMENSURABLE_SETS[(blk * n_comm + j) % len(COMMENSURABLE_SETS)]
            block.append({"rows": commensurable_rows(rng, lengths), "commensurable": True})
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out


def expected_ratio_pairs(rows) -> list[tuple[float, int]]:
    """The (ratio, multiplicity) pairs ratio peeling must return.

    A class with holonomy b contributes min(b, 2*pi - b) / a per copy; a
    zero-holonomy class shows up as ratio 0 with doubled multiplicity.
    """
    pairs = []
    for a, b, m in rows:
        if b == 0.0:
            pairs.append((0.0, 2 * m))
        else:
            pairs.append((min(b, TWO_PI - b) / a, m))
    return pairs


# ---------------------------------------------------------------------------
# matrices


def normal_form(a: float, b: float) -> np.ndarray:
    """Rotation by b on coordinates 1, 2 times a boost by a on coordinates 3, 4."""
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = math.cos(b)
    g[0, 1], g[1, 0] = math.sin(b), -math.sin(b)
    g[2, 2] = g[3, 3] = math.cosh(a)
    g[2, 3] = g[3, 2] = math.sinh(a)
    return g


def _givens(i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(4)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = g[j, j] = c
    g[i, j], g[j, i] = s, -s
    return g


def _rotation(rng) -> np.ndarray:
    g = np.eye(4)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        g = g @ _givens(i, j, float(rng.uniform(0.0, TWO_PI)))
    return g


def conjugator(rng, boost: float) -> np.ndarray:
    """Generic element of SO(3,1): rotation * boost in the 3-4 plane * rotation."""
    alpha = float(rng.uniform(-boost, boost))
    return _rotation(rng) @ normal_form(alpha, 0.0) @ _rotation(rng)


def loxodromic(rng, a: float, b: float) -> np.ndarray:
    """A conjugate h * normal_form(a, b) * h^-1 with a random moderate h."""
    h = conjugator(rng, boost=float(rng.uniform(0.0, 1.0)))
    return h @ normal_form(a, b) @ np.linalg.inv(h)


def algebra_element(rng, scale: float = 1.0) -> np.ndarray:
    """Random element of so(3,1): skew 3x3 block plus a symmetric boost column."""
    b = rng.normal(scale=scale, size=3)
    u = rng.normal(scale=scale, size=3)
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = b[0], -b[0]
    m[0, 2], m[2, 0] = b[1], -b[1]
    m[1, 2], m[2, 1] = b[2], -b[2]
    m[:3, 3] = u
    m[3, :3] = u
    return m


# ---------------------------------------------------------------------------
# zero counts, computed independently of lhspec.zeros


def n_count(a: float, b: float, kk: int, im_bound: float) -> int:
    """Number of integers n with |(-b*kk - 2*n*pi) / a| <= im_bound."""
    lo = math.ceil((-im_bound * a - b * kk) / TWO_PI)
    hi = math.floor((im_bound * a - b * kk) / TWO_PI)
    return max(0, hi - lo + 1)


def zero_count(rows, tau_m: int, max_m: int, im_bound: float) -> int:
    """Total multiplicity of the windowed zero multiset of ``rows``."""
    total = 0
    for a, b, mult in rows:
        for k in range(-tau_m, tau_m + 1):
            for m1 in range(max_m + 1):
                for m2 in range(max_m + 1 - m1):
                    total += mult * n_count(a, b, m1 - m2 + k, im_bound)
    return total
