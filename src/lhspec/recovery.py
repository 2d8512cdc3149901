"""Multiset peeling: recover lengths and holonomy ratios from windowed zero data.

The k = 0 zero line of a spectrum is the union over classes of the traces
{2*n*pi/a}; the smallest positive element must be 2*pi/a for some hidden a,
so lengths peel off greedily.  The k = +1/-1 residual is the union of traces
{(-+b - 2*n*pi)/a}; its smallest positive element is min(b, 2*pi-b)/a for
some class, but several known lengths can explain the same minimal value, so
ratio peeling is a backtracking search over attributions.  The search commits
only when exactly one attribution extends to a complete, consistent peeling;
genuinely undecidable windows raise AmbiguousTrace instead of guessing.

Each search step decides from the data and from counts before it
subtracts.  It probes every candidate attribution in one pass: a few
interior trace points, computed by the trace's own expression
(-b*k - 2*n*pi)/a, must each be present with the candidate's multiplicity,
or the subtraction would underflow.  It cuts the branch when the survivors
cannot cover every copy of the minimal value, so ties among commensurable
classes do not grow exponentially.  Then each attribution's trace is
subtracted once.

Every subtraction here (a length step, the strip and an attribution) is
one ``zeros._subtract_traces`` call.  On complete data it costs a fixed
handful of numpy calls whatever the trace size; the exact point-by-point
walk runs only where that cannot decide, such as a missing interior point,
whose error message the walk writes.

Everything works on finite windows: a peeled class must show its first two
trace points inside the window (IncompleteWindow otherwise), and subtraction
shortfalls surface as NegativeMultiplicity rather than silent mis-recovery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousTrace,
    DomainError,
    IncompleteWindow,
    NegativeMultiplicity,
    SpectralError,
    UnderflowError,
    _check_tol,
    _whole,
)
from .geodesic import Spectrum, spectrum_difference
from .multisets import (
    TAU_ZERO,
    MatchResult,
    RealMultiset,
    match_multisets,
    multiset_equal,
)
from .zeros import (
    ZeroWindow,
    _band,
    _length_multiset,
    _n_range,
    strip_k0,
    subtract_trace,
    zero_line,
)

__all__ = [
    "RecoveryReport",
    "multiset_equal",
    "match_multisets",
    "recover_lengths",
    "recover_ratios",
    "smo_check",
]

TWO_PI = 2.0 * math.pi
PI = math.pi


def _coerce(z, tol: float) -> RealMultiset:
    return z if isinstance(z, RealMultiset) else RealMultiset.from_values(z, tol)


def recover_lengths(z, w: ZeroWindow, tol: float = TAU_ZERO, audit: list | None = None) -> RealMultiset:
    """Peel the hidden length multiset out of a windowed {-2*n*pi/a} multiset.

    Loop: take the smallest strictly positive element s0 with multiplicity
    mu; emit a = 2*pi/s0 with multiplicity mu; subtract mu copies of the full
    windowed trace of a; repeat until no positive element remains.  A list
    passed as ``audit`` receives one record per iteration (for conservation
    checks: removed == mu * trace size away from the window edge).
    """
    cur = _coerce(z, _check_tol(tol, DomainError))
    band = _band(w, tol)
    out: list[tuple[float, int]] = []
    for _ in range(cur.total() + 1):
        mp = cur.min_positive()
        if mp is None:
            break
        s0, mu = mp
        a = TWO_PI / s0
        if 2.0 * s0 > w.im_bound + band:
            raise IncompleteWindow(
                f"window |Im(s)| <= {w.im_bound!r} cannot contain the first two trace "
                f"points of recovered length {a!r}"
            )
        before = cur.total()
        try:
            cur = subtract_trace(cur, a, 0.0, (0,), mu, w, tol)
        except UnderflowError as exc:
            raise NegativeMultiplicity(
                f"trace of recovered length {a!r} is not fully present: {exc}"
            ) from exc
        if audit is not None:
            r = _n_range(a, 0.0, 0, w.im_bound)
            audit.append(
                {
                    "smallest": s0,
                    "length": a,
                    "multiplicity": mu,
                    "trace_points": r.stop - r.start,
                    "removed": before - cur.total(),
                }
            )
        out.append((a, mu))
    if cur:
        raise IncompleteWindow(
            f"unpeeled residual of total multiplicity {cur.total()} remains; the window "
            "is too small for some class or the input is not a complete zero line"
        )
    return RealMultiset(out, tol)


# ---------------------------------------------------------------------------
# ratio recovery: backtracking attribution search


@dataclass
class _SearchCtx:
    w: ZeroWindow
    tol: float
    band: float
    distinct: list = field(default_factory=list)  # (ratios, audit) per distinct completion
    window_short: bool = False  # some candidate was rejected for window reasons
    stuck_at: float | None = None  # smallest value no candidate explained

    def stuck(self, c: float) -> None:
        """Keep the first dead end the search meets, at the value c."""
        if self.stuck_at is None:
            self.stuck_at = c


class _Candidate(NamedTuple):
    """One class copy that may explain the minimal value c."""

    kind: str  # "ratio", or "zero" for the doubled k = 0 trace of a zero-holonomy class
    idx: int  # index into the available lengths
    a: float
    b: float
    ks: tuple
    reps: int  # trace copies one class copy leaves in the residual
    per: int  # points at c one class copy removes: 2 when b = 0 or b = pi
    trace_points: int


def _candidates(
    cur: RealMultiset, avail: list[list], c: float, first: int, ctx: _SearchCtx
) -> list[_Candidate]:
    """Attributions of minimal value c, from available length ``first`` on, that pass the probe.

    Regular candidate: a known length a with canonical holonomy b = c*a in
    (0, pi].  Degenerate candidate: c is the first positive point 2*pi/a of
    the doubled k = 0 trace left behind by a zero-holonomy class.

    Points are computed by the trace's own expression (-b*k - 2*pi*n)/a,
    so they equal trace values bit for bit.  ``per`` adds ``reps`` for each
    k whose point nearest c lies within tol of it.  The probe asks a few
    interior trace points (inside the zone ``subtract_trace`` removes
    strictly) for ``reps`` copies each, all candidates in one pass; a
    candidate that fails it would underflow.  Nothing is subtracted here.
    """
    im_bound, lim = ctx.w.im_bound, ctx.w.im_bound - ctx.band
    pending = []
    points: list[float] = []
    owner: list[int] = []  # the pending candidate of each probe point
    for idx in range(first, len(avail)):
        a, rem = avail[idx]
        if rem <= 0:
            continue
        b1 = c * a
        slack = ctx.tol * (1.0 + a)
        tries = []
        if 0.0 < b1 <= PI + slack:
            b_sub = min(b1, TWO_PI - b1)
            if (TWO_PI - b_sub) / a > im_bound + ctx.band:
                ctx.window_short = True
                continue
            tries.append(("ratio", b_sub, (1, -1), 1))
        if abs(b1 - TWO_PI) <= slack:
            tries.append(("zero", 0.0, (0,), 2))
        for kind, b, ks, reps in tries:
            size = per = 0
            for k in ks:
                n = round((-b * k - c * a) / TWO_PI)
                if abs((-b * k - TWO_PI * n) / a - c) <= ctx.tol:
                    per += reps
                r = _n_range(a, b, k, im_bound)
                count = r.stop - r.start  # not len(r), which fails past 2**63
                size += count
                # one step in from each end of the window, far from c,
                # which every candidate explains by construction
                for n in (r[1], r[-2]) if count > 2 else r:
                    v = (-b * k - TWO_PI * n) / a
                    if abs(v) <= lim:
                        points.append(v)
                        owner.append(len(pending))
            pending.append(_Candidate(kind, idx, a, b, ks, reps, per, size))
    if not pending:
        return []
    need = np.array([pending[i].reps for i in owner], dtype=np.int64)  # reps per point
    short = cur.counts_near(np.array(points), ctx.tol) < need
    failed = {owner[j] for j in np.flatnonzero(short).tolist()}
    return [cd for i, cd in enumerate(pending) if cd.per and i not in failed]


def _attribute(cur, avail, ratios, audit, c: float, cd: _Candidate, units: int, ctx: _SearchCtx):
    """Charge ``units`` class copies of ``cd`` with points at c; UnderflowError if absent.

    One ``subtract_trace`` of all their trace copies.  A ratio carries the
    class multiplicity; zero holonomy keeps the doubled count.
    """
    copies = units * cd.reps
    nxt = subtract_trace(cur, cd.a, cd.b, cd.ks, copies, ctx.w, ctx.tol)
    avail = [list(p) for p in avail]
    avail[cd.idx][1] -= units
    emitted = units if cd.kind == "ratio" else copies
    ratios = ratios + (((c if cd.kind == "ratio" else 0.0), emitted),)
    record = dict(smallest=c, kind=cd.kind, length=cd.a, holonomy=cd.b, multiplicity=emitted)
    record.update(trace_points=cd.trace_points, removed=cur.total() - nxt.total())
    return nxt, avail, ratios, audit + (record,)


def _peel_ratios(cur, avail, ratios, audit, ctx, last=None) -> None:
    """DFS over attributions; records distinct completed peelings in ctx.distinct.

    ``last`` = (value, candidate index) canonicalizes how equal copies of the
    same minimal value split across candidates (nondecreasing index order),
    so permutations of the same split are explored once.

    A branch is cut at c when the candidates' available copies cannot
    remove all ``mult`` points at c.  This only meets sooner the dead end
    the branch would reach: peeling only removes points, so no candidate at
    c appears further down and a failed one stays failed; a class
    attributed at c' > c has no positive point below c', so only
    attributions made at c remove points at c; and one copy of a candidate
    removes at most ``per`` of them.  So c stays the minimal value, and
    every leaf of the cut branch is a dead end at c.
    """
    while len(ctx.distinct) < 2:
        mp = cur.min_positive()
        if mp is None:
            if cur.total() == 0:
                ms = RealMultiset(ratios, ctx.tol)
                if not any(multiset_equal(ms, seen, ctx.tol) for seen, _ in ctx.distinct):
                    ctx.distinct.append((ms, audit))
            return
        c, mult = mp
        first = last[1] if last is not None and abs(last[0] - c) <= ctx.tol else 0
        cands = _candidates(cur, avail, c, first, ctx)
        if sum(avail[cd.idx][1] * cd.per for cd in cands) < mult:
            return ctx.stuck(c)
        if len(cands) > 1:
            # tie: charge one unit to each candidate; those that subtract branch
            branches = []
            for cd in cands:
                try:
                    branches.append((cd, _attribute(cur, avail, ratios, audit, c, cd, 1, ctx)))
                except UnderflowError:
                    pass
            if not branches:
                return ctx.stuck(c)
            if len(branches) > 1:
                for cd, branch in branches:
                    _peel_ratios(*branch, ctx, last=(c, cd.idx))
                    if len(ctx.distinct) >= 2:
                        return
                return
            cands = [branches[0][0]]
        # forced: attribute the whole multiplicity at c in one batch
        cd = cands[0]
        units, short = divmod(mult, cd.per)
        if short or avail[cd.idx][1] < units:
            return ctx.stuck(c)
        try:
            cur, avail, ratios, audit = _attribute(cur, avail, ratios, audit, c, cd, units, ctx)
        except UnderflowError:
            return ctx.stuck(c)
        last = None


def recover_ratios(
    z_pm,
    lengths: RealMultiset,
    w: ZeroWindow,
    tol: float = TAU_ZERO,
    audit: list | None = None,
) -> RealMultiset:
    """Peel holonomy-to-length ratios out of a k = +1/-1 residual multiset.

    The smallest positive element is c = min(b, 2*pi-b)/a for some hidden
    class; every known length a with c*a in (0, pi] is a candidate owner.
    Candidates are tried with full backtracking: a candidate is accepted
    only if the whole remaining multiset then peels to empty.  If two
    attributions complete with genuinely different ratio multisets the data
    cannot decide and AmbiguousTrace is raised.

    Zero-holonomy classes surface as a doubled copy of their k = 0 trace
    (one copy per k = +1 and -1); they are reported as ratio 0 carrying that
    leftover multiplicity (twice the class multiplicity).  ``lengths`` may
    also be plain (length, multiplicity) pairs, checked as in ``strip_k0``.
    """
    cur = _coerce(z_pm, _check_tol(tol, DomainError))
    lengths = _length_multiset(lengths, tol)
    ctx = _SearchCtx(w=w, tol=tol, band=_band(w, tol))
    avail = [[a, m] for a, m in lengths]
    _peel_ratios(cur, avail, (), (), ctx)
    distinct = ctx.distinct
    if not distinct:
        if ctx.window_short:
            raise IncompleteWindow(
                f"window |Im(s)| <= {w.im_bound!r} is too small to confirm a trace "
                f"attribution (stuck at {ctx.stuck_at!r})"
            )
        raise NegativeMultiplicity(
            f"no consistent attribution of the k=+1/-1 data; smallest unexplained "
            f"value {ctx.stuck_at!r}"
        )
    if len(distinct) > 1:
        raise AmbiguousTrace(
            f"window data admits {len(distinct)} distinct ratio multisets "
            f"(e.g. {distinct[0][0]!r} vs {distinct[1][0]!r}); refusing to guess"
        )
    ms, aud = distinct[0]
    if audit is not None:
        audit.extend(aud)
    return ms


# ---------------------------------------------------------------------------
# end-to-end comparison


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of comparing two spectra through their windowed zero data."""

    recovered_lengths: RealMultiset
    recovered_ratios: RealMultiset
    residual: float
    status: str  # EXACT | TOLERANT | FAILED
    witness: float | None = None
    diagnostics: tuple[str, ...] = ()

    @classmethod
    def from_matches(cls, lengths, ratios, matches, diagnostics, failed: bool) -> "RecoveryReport":
        """Report by the one status rule.

        FAILED on any mismatch or error (``failed``), with the first
        mismatch's witness; otherwise the residual is the largest match
        distance, EXACT when it is 0 and TOLERANT when not.
        """
        bad = [m for m in matches if not m.equal]
        if failed or bad:
            residual, status = math.inf, "FAILED"
        else:
            residual = max((m.max_distance for m in matches), default=0.0)
            status = "EXACT" if residual == 0.0 else "TOLERANT"
        witness = bad[0].witness if bad else None
        return cls(lengths, ratios, residual, status, witness, tuple(diagnostics))

    def to_dict(self) -> dict:
        lengths, ratios = (
            [{"value": v, "multiplicity": m} for v, m in ms]
            for ms in (self.recovered_lengths, self.recovered_ratios)
        )
        return {
            "status": self.status,
            "residual": self.residual,
            "witness": self.witness,
            "recovered_lengths": lengths,
            "recovered_ratios": ratios,
            "diagnostics": list(self.diagnostics),
        }


def smo_check(
    spec1: Spectrum, spec2: Spectrum, tau, w: ZeroWindow, tol: float = TAU_ZERO
) -> RecoveryReport:
    """Compare two spectra by their windowed zero data and recovered invariants.

    Forms the multiset differences S1 = spec1 - spec2 and S2 = spec2 - spec1,
    compares their zero lines at the requested twist, then independently
    recovers lengths (twist 0 data) and ratios (stripped twist 1 data) on
    both sides and compares those.  Equality everywhere with zero residual
    is EXACT; equality within tol is TOLERANT; anything else (including
    recovery errors) is FAILED with diagnostics.
    """
    _check_tol(tol, DomainError)
    tau = _whole(tau, "twist index", 0)
    s1, s2 = spectrum_difference(spec1, spec2)
    diagnostics: list[str] = []
    if s1 or s2:
        diagnostics.append(
            f"symmetric difference: {s1.total()} vs {s2.total()} class copies uncancelled"
        )
    matches: list[MatchResult] = []

    def stage(a: RealMultiset, b: RealMultiset, what: str) -> None:
        m = match_multisets(a, b, tol)
        matches.append(m)
        if not m.equal:
            diagnostics.append(f"{what} {m.witness!r}")

    @functools.cache
    def line(side: int, twist: int) -> RealMultiset:
        # each side's zero line is built once per distinct twist (tau is often 0 or 1)
        return zero_line((s1, s2)[side], twist, w)

    stage(line(0, tau), line(1, tau), "zero lines differ; witness imaginary part")
    lengths1 = ratios1 = RealMultiset()
    failed = False
    try:
        lengths1 = recover_lengths(line(0, 0), w, tol)
        lengths2 = recover_lengths(line(1, 0), w, tol)
        stage(lengths1, lengths2, "recovered lengths differ; witness")
        ratios1 = recover_ratios(strip_k0(line(0, 1), lengths1, w, tol), lengths1, w, tol)
        ratios2 = recover_ratios(strip_k0(line(1, 1), lengths2, w, tol), lengths2, w, tol)
        stage(ratios1, ratios2, "recovered ratios differ; witness")
    except SpectralError as exc:
        failed = True
        diagnostics.append(f"{type(exc).__name__}: {exc}")
    return RecoveryReport.from_matches(lengths1, ratios1, matches, diagnostics, failed)
