"""Shared generators and oracles for the test suite."""

import bisect
import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from lhspec import (
    AmbiguousTrace,
    CartanParams,
    FactorZero,
    IncompleteWindow,
    NegativeMultiplicity,
    ParseError,
    PrimitiveClass,
    RealMultiset,
    Spectrum,
    UnderflowError,
    exp_cartan,
    multiset_equal,
)
from lhspec.errors import _whole
from lhspec.multisets import TAU_ZERO, _count_array
from lhspec.zeros import subtract_trace

TWO_PI = 2.0 * math.pi

#: algebra residual 1e-9: in so(3,1) at tolerance 1e-6 but not at TAU_ALG
LOOSE = [[0, 0.500000001, 0, 0.25], [-0.5, 0, 0, -0.5], [0, 0, 0, 0.7], [0.25, -0.5, 0.7, 0]]


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


def trace_reference(a, b, ks, w, pad=0):
    """The windowed trace (-b*k - 2*pi*n)/a, k-major with n ascending.

    ``pad`` steps past the window at each end.  The same numpy float
    arithmetic as the library, so the values agree bit for bit.
    """
    parts = []
    for k in ks:
        lo = math.ceil((-w.im_bound * a - b * k) / TWO_PI)
        hi = math.floor((w.im_bound * a - b * k) / TWO_PI)
        n = np.arange(lo - pad, hi + 1 + pad, dtype=np.float64)
        parts.append((-b * k - TWO_PI * n) / a)
    return np.concatenate(parts) + 0.0 if parts else np.empty(0)


def subtract_trace_reference(entries, a, b, ks, mult, w, tol):
    """Trace subtraction by np.unique and two sequential passes, the reference for subtract_trace.

    Repeated trace values merge into one pair at their first occurrence;
    the interior pairs are walked strictly, then the edge pairs with their
    shortfall forgiven.  Returns the surviving (value, multiplicity)
    entries, or raises UnderflowError.
    """
    trace, first, seen = np.unique(
        trace_reference(a, b, ks, w, pad=1), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    pairs = [(v, s * mult) for v, s in zip(trace[order].tolist(), seen[order].tolist())]
    lim = w.im_bound - tol * max(1.0, w.im_bound)
    out = subtract_reference(entries, [p for p in pairs if abs(p[0]) <= lim], tol)
    return subtract_reference(out, [p for p in pairs if abs(p[0]) > lim], tol, partial=True)


def strip_k0_reference(entries, lengths, w, tol):
    """The k = 0 trace of each length subtracted length by length, the reference for strip_k0.

    Returns the surviving (value, multiplicity) entries, or raises UnderflowError.
    """
    for a, mult in lengths:
        entries = subtract_trace_reference(entries, a, 0.0, (0,), mult, w, tol)
    return entries


def recover_lengths_reference(entries, w, tol):
    """Greedy length peeling over subtract_trace_reference, the reference for recover_lengths.

    Takes the smallest positive entry s0 with its multiplicity mu, emits
    a = 2*pi/s0 and subtracts mu copies of the k = 0 trace of a, until no
    positive entry is left.  Returns (length entries, audit records), or
    raises the typed error recover_lengths raises, with its message.
    """
    band = tol * max(1.0, w.im_bound)
    out, audit = [], []
    for _ in range(sum(m for _, m in entries) + 1):
        positive = [(v, m) for v, m in entries if v > 0.0]
        if not positive:
            break
        s0, mu = positive[0]
        a = TWO_PI / s0
        if 2.0 * s0 > w.im_bound + band:
            raise IncompleteWindow(
                f"window |Im(s)| <= {w.im_bound!r} cannot contain the first two trace "
                f"points of recovered length {a!r}"
            )
        try:
            rest = subtract_trace_reference(entries, a, 0.0, (0,), mu, w, tol)
        except UnderflowError as exc:
            raise NegativeMultiplicity(
                f"trace of recovered length {a!r} is not fully present: {exc}"
            ) from exc
        record = {"smallest": s0, "length": a, "multiplicity": mu}
        record["trace_points"] = trace_reference(a, 0.0, (0,), w).size
        record["removed"] = sum(m for _, m in entries) - sum(m for _, m in rest)
        audit.append(record)
        out.append((a, mu))
        entries = rest
    if entries:
        raise IncompleteWindow(
            f"unpeeled residual of total multiplicity {sum(m for _, m in entries)} remains; "
            "the window is too small for some class or the input is not a complete zero line"
        )
    return RealMultiset(out, tol).entries, audit


def _probe_points_reference(trace, im_bound, band):
    interior = np.sort(trace[np.abs(np.abs(trace) - im_bound) > band])
    n = interior.size
    if not n:
        return []
    picks = [0, n - 1, n // 2] + ([n // 4] if n > 3 else [])
    return sorted(set(interior[picks].tolist()))


class CandidateReference(NamedTuple):
    """One candidate of candidates_reference, with the residual its trial copy leaves."""

    kind: str
    idx: int
    a: float
    b: float
    ks: tuple
    reps: int
    per: int  # points at c the trial copy removed
    trace_points: int
    nxt: RealMultiset


def candidates_reference(cur, avail, c, mult, ctx):
    """Ratio-peeling candidates with one probe trace per candidate, the reference for _candidates.

    Builds each candidate's unpadded trace, counts a few sorted interior
    points of it one by one, and subtracts one class copy of each survivor;
    a candidate is kept when that trial subtraction removes points at c.
    """
    found = []

    def probe(kind, idx, a, b, ks, reps):
        trace = trace_reference(a, b, ks, ctx.w)
        probes = _probe_points_reference(trace, ctx.w.im_bound, ctx.band)
        if any(cur.count_near(v, ctx.tol) < reps for v in probes):
            return
        try:
            nxt = subtract_trace(cur, a, b, ks, reps, ctx.w, ctx.tol)
        except UnderflowError:
            return
        per = mult - nxt.count_near(c, 0.0)
        if per > 0:
            found.append(CandidateReference(kind, idx, a, b, ks, reps, per, trace.size, nxt))

    for idx, (a, rem) in enumerate(avail):
        if rem <= 0:
            continue
        b1 = c * a
        slack = ctx.tol * (1.0 + a)
        if 0.0 < b1 <= math.pi + slack:
            b_sub = min(b1, TWO_PI - b1)
            if (TWO_PI - b_sub) / a > ctx.w.im_bound + ctx.band:
                ctx.window_short = True
                continue
            probe("ratio", idx, a, b_sub, (1, -1), 1)
        if abs(b1 - TWO_PI) <= slack:
            probe("zero", idx, a, 0.0, (0,), 2)
    return found


def recover_ratios_reference(cur, lengths, w, tol):
    """Ratio peeling as a DFS over trial subtractions, the reference for recover_ratios.

    Every candidate has subtracted one class copy before the search
    chooses.  A lone candidate takes the whole multiplicity at c in one
    batch; several branch one unit at a time in nondecreasing index order,
    and a dead end is found only by running out of candidates.  Returns
    (ratios, audit records), or raises the typed error recover_ratios
    raises, with its message.
    """
    ctx = SimpleNamespace(w=w, tol=tol, band=tol * max(1.0, w.im_bound), window_short=False)
    distinct, stuck = [], []

    def attribute(cur, avail, ratios, audit, c, cd, units):
        copies = units * cd.reps
        nxt = cd.nxt if units == 1 else subtract_trace(cur, cd.a, cd.b, cd.ks, copies, w, tol)
        avail = [list(p) for p in avail]
        avail[cd.idx][1] -= units
        emitted = units if cd.kind == "ratio" else copies
        record = {
            "smallest": c,
            "kind": cd.kind,
            "length": cd.a,
            "holonomy": cd.b,
            "multiplicity": emitted,
            "trace_points": cd.trace_points,
            "removed": cur.total() - nxt.total(),
        }
        ratios = ratios + (((c if cd.kind == "ratio" else 0.0), emitted),)
        return nxt, avail, ratios, audit + (record,)

    def peel(cur, avail, ratios, audit, last=None):
        while len(distinct) < 2:
            mp = cur.min_positive()
            if mp is None:
                if cur.total() > 0:  # stuck at the smallest entry left
                    return stuck.append(cur.values()[0])
                ms = RealMultiset(ratios, tol)
                if not any(multiset_equal(ms, seen, tol) for seen, _ in distinct):
                    distinct.append((ms, audit))
                return
            c, mult = mp
            cands = candidates_reference(cur, avail, c, mult, ctx)
            if last is not None and abs(last[0] - c) <= tol:
                cands = [cd for cd in cands if cd.idx >= last[1]]
            if len(cands) > 1:
                for cd in cands:
                    peel(*attribute(cur, avail, ratios, audit, c, cd, 1), last=(c, cd.idx))
                    if len(distinct) >= 2:
                        return
                return
            if not cands:
                return stuck.append(c)
            cd = cands[0]
            units, short = divmod(mult, cd.per)
            if short or avail[cd.idx][1] < units:
                return stuck.append(c)
            try:
                cur, avail, ratios, audit = attribute(cur, avail, ratios, audit, c, cd, units)
            except UnderflowError:
                return stuck.append(c)
            last = None

    peel(cur, [[a, m] for a, m in lengths], (), ())
    stuck_at = stuck[0] if stuck else None
    if not distinct:
        if ctx.window_short:
            raise IncompleteWindow(
                f"window |Im(s)| <= {w.im_bound!r} is too small to confirm a trace "
                f"attribution (stuck at {stuck_at!r})"
            )
        raise NegativeMultiplicity(
            f"no consistent attribution of the k=+1/-1 data; smallest unexplained "
            f"value {stuck_at!r}"
        )
    if len(distinct) > 1:
        raise AmbiguousTrace(
            f"window data admits {len(distinct)} distinct ratio multisets "
            f"(e.g. {distinct[0][0]!r} vs {distinct[1][0]!r}); refusing to guess"
        )
    ms, audit = distinct[0]
    return ms, list(audit)


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


def cluster_reference(pairs, tol):
    """Sort (value, mult) pairs and merge values within tol of the cluster head.

    The sequential rule, the reference for the RealMultiset canonical form.
    """
    out = []
    for v, m in sorted(pairs):
        if out and abs(v - out[-1][0]) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + m)
        else:
            out.append((v, m))
    return [p for p in out if p[1] != 0]


def complex_cluster_reference(pairs, tol):
    """The ComplexMultiset canonical entries by a sequential walk.

    A stable sort by (re, im), then each value merges into the cluster head
    when both parts lie within tol of the head's.
    """
    items = sorted(((complex(v), int(m)) for v, m in pairs), key=lambda p: (p[0].real, p[0].imag))
    out = []
    for v, m in items:
        if m < 0:
            raise ValueError(f"negative multiplicity {m} for value {v}")
        if out and abs(v.real - out[-1][0].real) <= tol and abs(v.imag - out[-1][0].imag) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + m)
        else:
            out.append((v, m))
    return tuple(p for p in out if p[1] != 0)


def zero_multiset_entries_reference(spec, tau_m, w, tol=1e-9):
    """zero_multiset(...).entries with one Python complex per point.

    The same float arithmetic (-b*kk - 2*pi*n)/a, point by point in the order
    class, k, m1, m2, n, clustered by complex_cluster_reference.
    """
    pairs = []
    for a, b, mult in spec:
        for k in range(-tau_m, tau_m + 1):
            for m1 in range(w.max_m + 1):
                for m2 in range(w.max_m + 1 - m1):
                    kk = m1 - m2 + k
                    lo = math.ceil((-w.im_bound * a - b * kk) / TWO_PI)
                    hi = math.floor((w.im_bound * a - b * kk) / TWO_PI)
                    re = float(-(m1 + m2))
                    pairs.extend(
                        (complex(re, (-b * kk - TWO_PI * n) / a), mult) for n in range(lo, hi + 1)
                    )
    return complex_cluster_reference(pairs, tol)


def _factor_grid_reference(k, a, b, s, max_m):
    m = np.arange(max_m + 1, dtype=float)
    m1, m2 = m[:, None], m[None, :]
    x_re = (m1 + m2) * a + s.real * a
    x_im = k * b + (m1 - m2) * b + s.imag * a
    damp = np.exp(-x_re)
    return (-np.expm1(-x_re) + damp * 2.0 * np.sin(x_im / 2.0) ** 2) + 1j * (
        damp * np.sin(x_im)
    )


def factor_grids_reference(spec, tau_m, s, max_m):
    """The (m1, m2) grid of local factors of each class and k, one per grid.

    Returns (a, mult, grid) in (class, k) order, or raises FactorZero with
    the message of the library at the first zero in (class, k, m1, m2) order.
    """
    s = complex(s)
    grids = []
    for a, b, mult in spec:
        for k in range(-tau_m, tau_m + 1):
            grid = _factor_grid_reference(k, a, b, s, max_m)
            zero = np.argwhere(grid == 0)
            if zero.size:
                m1, m2 = (int(v) for v in zero[0])
                raise FactorZero(
                    f"local factor vanishes at s={s!r} for k={k}, "
                    f"(m1, m2)=({m1}, {m2}), class (a={a!r}, b={b!r})"
                )
            grids.append((a, mult, grid))
    return grids


def grid_sum_reference(spec, tau_m, s, max_m, log_terms):
    """Euler-product grid sum by per-grid tolist and math.fsum.

    ``log_terms`` selects the log-factors (zeta) or the terms a*(1/f - 1)
    (log-derivative); returns the complex sum, or raises FactorZero with the
    message of the library.
    """
    re_terms, im_terms = [], []
    for a, mult, grid in factor_grids_reference(spec, tau_m, s, max_m):
        if log_terms:
            logs = np.log(grid).ravel()
            re, im = mult * logs.real, mult * logs.imag
        else:
            terms = (mult * a) * (1.0 / grid.ravel() - 1.0)
            re, im = terms.real, terms.imag
        re_terms.extend(re.tolist())
        im_terms.extend(im.tolist())
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def spectrum_reference(rows, tol=1e-9):
    """The Spectrum canonical classes by a sequential walk.

    Sort the (length, holonomy, multiplicity) tuples, then merge each into
    the cluster head when both coordinates lie within tol of the head's;
    the head keeps its coordinates and gains the multiplicity.
    """
    merged = []
    for c in sorted(PrimitiveClass(float(a), float(b), int(m)) for a, b, m in rows):
        if (
            merged
            and abs(c.length - merged[-1].length) <= tol
            and abs(c.holonomy - merged[-1].holonomy) <= tol
        ):
            prev = merged[-1]
            merged[-1] = prev._replace(multiplicity=prev.multiplicity + c.multiplicity)
        else:
            merged.append(c)
    return tuple(merged)


def spectrum_difference_reference(classes1, classes2, tol=1e-9):
    """(classes1 - classes2, classes2 - classes1) by a sequential drain.

    Each class of the first list takes multiplicity from the classes of the
    second within tol in both coordinates, in their order; the surviving
    excess on each side is canonicalized by spectrum_reference.
    """
    left = []
    remaining = [list(c) for c in classes2]
    for c in classes1:
        want = c[2]
        for r in remaining:
            if want == 0:
                break
            if r[2] > 0 and abs(c[0] - r[0]) <= tol and abs(c[1] - r[1]) <= tol:
                take = min(want, r[2])
                r[2] -= take
                want -= take
        if want > 0:
            left.append((c[0], c[1], want))
    right = [tuple(r) for r in remaining if r[2] > 0]
    return spectrum_reference(left, tol), spectrum_reference(right, tol)


def zero_data_reference(data) -> dict:
    """The zero-line multisets of parsed zero-data JSON, the reference for _load_zero_data.

    Checks each row as the loader did before it caught per row: the value
    converts, the value is finite, the multiplicity is a nonnegative integer.
    An integer value past the float range ends in float()'s OverflowError.
    """
    if not isinstance(data, dict) or "m0" not in data:
        raise ParseError('zero data must be an object with an "m0" array (optionally "m1")')
    out = {}
    for key in ("m0", "m1"):
        if key not in data:
            continue
        rows = data[key]
        if not isinstance(rows, list):
            raise ParseError(f'"{key}" must be an array')
        values, mults = [], []
        for i, row in enumerate(rows):
            where = f'"{key}" entry {i}'
            if isinstance(row, dict):
                value, mult = row.get("value"), row.get("multiplicity", 1)
            else:
                value, mult = row, 1
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ParseError(f"{where}: expected a number or a value object") from None
            if not math.isfinite(value):
                raise ParseError(f"{where}: value must be finite, got {value!r}")
            values.append(value)
            mults.append(_whole(mult, f"{where}: multiplicity", 0, ParseError))
        out[key] = RealMultiset._from_arrays(np.array(values), _count_array(mults), tol=TAU_ZERO)
    return out


def spectrum_csv_reference(spec) -> str:
    """CSV text of a spectrum, one f-string per class: the reference for serialize_spectrum."""

    def fmt(v):
        return f"{v:.17g}" if math.isfinite(v) else "null"

    rows = ["length,holonomy,multiplicity"]
    rows.extend(f"{fmt(c.length)},{fmt(c.holonomy)},{c.multiplicity}" for c in spec)
    return "\n".join(rows) + "\n"
