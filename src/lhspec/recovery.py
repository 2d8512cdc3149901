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
subtracts.  It probes every candidate attribution: a few interior trace
points, computed by the trace's own expression (-b*k - 2*n*pi)/a, must
each be present with the candidate's multiplicity, or the subtraction
would underflow.  It cuts the branch when the survivors cannot cover every
copy of the minimal value, so ties among commensurable classes do not grow
exponentially.  Then each attribution's trace is subtracted once.  The
probe points of k = -1 are those of k = +1 negated, as the k = -1 trace is
the k = +1 trace mirrored through 0 (see ``zeros``).  A probe point passes
when its tol window holds two entries, or one entry with as many copies as
the candidate asks (one or two): one ``bisect_left`` on the search state's
multiset taken once as two Python lists (``multisets._holds``), with no sum
of counts, and a candidate stops at its first absent point.

Both peelings go in rounds (``_peel_round``): runs of steps that the step
walk would take one after another with nothing in between (the lengths of
the next smallest positive entries, or the forced attributions at the next
minimal values), whose traces go in one ``zeros._subtract_traces`` call.

Everything works on finite windows: a peeled class must show its first two
trace points inside the window (IncompleteWindow otherwise), and subtraction
shortfalls surface as NegativeMultiplicity rather than silent mis-recovery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    _holds,
    match_multisets,
    multiset_equal,
)
from .zeros import (
    ZeroWindow,
    _band,
    _length_multiset,
    _n_range,
    _subtract_traces,
    strip_k0,
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


def _peel_round(cur: RealMultiset, first: tuple, reach: float, admit, row, ks, w, tol: float):
    """Peel the round that starts with the step ``first`` at the smallest positive entry.

    A step is a tuple whose first item is its entry; ``row(step)`` is the
    (a, b, mult) of its trace over ``ks``.  The later positive entries join
    in ascending order, one step each, while each lies more than 2*tol
    below ``reach``, the smallest next positive trace point of the round's
    classes, and ``admit(c, mult)`` returns the (step, its class's next
    positive point) of an entry c of multiplicity mult rather than None.
    No class of the round then reaches a later step's entry, which is the
    first point of that step's class.  With ``admit`` None the step stands
    alone.

    All the round's traces go in one ``zeros._subtract_traces`` call.  The
    round commits where the one pass of that call shows the steps one by
    one would each succeed and leave the same entries: each step alone
    hits its own entry and empties it, no entry near the window edge is
    hit by two steps, and every sum fits int64.  Then each step's removed
    total is what that step alone would remove.  Anything else (a missing
    point, a tol window holding two entries, a shared edge entry) cuts the
    round to its first step, which is the step walk itself: its exact
    point-by-point walk runs where the one pass cannot decide, and a
    shortfall there raises UnderflowError.

    ``admit`` sets no flag (the ratio search's ``window_short``) that the
    first step's own ``_candidates`` call left unset.  It is asked only at
    entries c2 < reach - 2*tol, and reach <= im_bound + band, as the first
    step's candidate passed the window check, so no entry with c2*a in
    (pi, pi + slack] is window short.  One with c2*a <= pi is window short
    at the first entry c < c2 too, as (2*pi - c*a)/a falls as c grows.

    Returns (steps, the multiset left, the total each step removed).
    """
    steps, c = [first], first[0]
    while admit is not None and (mp := cur.min_positive(c)) is not None:
        c, mult = mp
        if not c + 2.0 * tol < reach:
            break
        got = admit(c, mult)
        if got is None:
            break
        steps.append(got[0])
        reach = min(reach, got[1])
    while (got := _subtract_traces(cur, [row(s) for s in steps], ks, w, tol, True)) is None:
        steps = steps[:1]
    return steps, *got


def recover_lengths(z, w: ZeroWindow, tol: float = TAU_ZERO, audit: list | None = None) -> RealMultiset:
    """Peel the hidden length multiset out of a windowed {-2*n*pi/a} multiset.

    Step: take the smallest strictly positive element s0 with multiplicity
    mu; emit a = 2*pi/s0 with multiplicity mu; subtract mu copies of the full
    windowed trace of a; repeat until no positive element remains.  The
    steps go in rounds (``_peel_round``): the next positive entries join
    while each passes the window check, and the reach of a class is its
    second trace point 4*pi/a.  A list passed as ``audit`` receives one
    record per step (for conservation checks: removed == mu * trace size
    away from the window edge).
    """
    cur = _coerce(z, _check_tol(tol, DomainError))
    band = _band(w, tol)

    def admit(s0: float, mu: int):
        if 2.0 * s0 > w.im_bound + band:
            return None
        a = TWO_PI / s0
        return (s0, a, mu), 2.0 * TWO_PI / a  # 4*pi/a by the trace's own expression

    def row(step: tuple) -> tuple:
        return step[1], 0.0, step[2]

    out: list[tuple[float, int]] = []
    limit = cur.total() + 1  # no more steps than that
    while len(out) < limit and (mp := cur.min_positive()) is not None:
        first = admit(*mp)
        if first is None:
            raise IncompleteWindow(
                f"window |Im(s)| <= {w.im_bound!r} cannot contain the first two trace "
                f"points of recovered length {TWO_PI / mp[0]!r}"
            )
        try:
            steps, cur, removed = _peel_round(cur, *first, admit, row, (0,), w, tol)
        except UnderflowError as exc:
            raise NegativeMultiplicity(
                f"trace of recovered length {first[0][1]!r} is not fully present: {exc}"
            ) from exc
        for (s0, a, mu), gone in zip(steps, removed):
            if audit is not None:
                r = _n_range(a, 0.0, 0, w.im_bound)
                audit.append(
                    {
                        "smallest": s0,
                        "length": a,
                        "multiplicity": mu,
                        "trace_points": r.stop - r.start,
                        "removed": gone,
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
    view: tuple[list, list], avail: list[list], c: float, first: int, ctx: _SearchCtx
) -> list[_Candidate]:
    """Attributions of minimal value c, from available length ``first`` on, that pass the probe.

    Regular candidate: a known length a with canonical holonomy b = c*a in
    (0, pi].  Degenerate candidate: c is the first positive point 2*pi/a of
    the doubled k = 0 trace left behind by a zero-holonomy class.

    ``view`` is the search state's multiset as two sorted lists, values
    and counts (``RealMultiset._view``).  Points are computed by the
    trace's own expression (-b*k - 2*pi*n)/a, so they equal trace values
    bit for bit, and the k = -1 points are the k = +1 points mirrored by
    the rule of ``zeros._traces``, here plain negation, as no comparison
    sees the sign of a zero.  The probe asks a few interior trace points
    (inside the zone ``subtract_trace`` removes strictly) for ``reps``
    copies each, one ``bisect_left`` per point on the view (``_holds``),
    and stops a candidate at its first absent point: a candidate that
    fails it would underflow.  Only a survivor gets its ``per``, which
    adds ``reps`` for each k whose point nearest c lies within tol of it.
    Nothing is subtracted here.
    """
    im_bound, lim, tol = ctx.w.im_bound, ctx.w.im_bound - ctx.band, ctx.tol
    found = []
    for idx in range(first, len(avail)):
        a, rem = avail[idx]
        if rem <= 0:
            continue
        b1 = c * a
        slack = tol * (1.0 + a)
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
            k, mirror = ks[0], ks == (1, -1)
            r = _n_range(a, b, k, im_bound)
            count = r.stop - r.start  # not len(r), which fails past 2**63
            # one step in from each end of the window, far from c,
            # which every candidate explains by construction
            for n in (r[1], r[-2]) if count > 2 else r:
                v = (-b * k - TWO_PI * n) / a
                if abs(v) <= lim and not (
                    _holds(view, v, reps, tol) and (not mirror or _holds(view, -v, reps, tol))
                ):
                    break
            else:
                per = 0
                for k in ks:
                    n = round((-b * k - c * a) / TWO_PI)
                    if abs((-b * k - TWO_PI * n) / a - c) <= tol:
                        per += reps
                if per:
                    found.append(_Candidate(kind, idx, a, b, ks, reps, per, count * len(ks)))
    return found


def _attribute(cur, avail, ratios, audit, first: tuple, ctx: _SearchCtx, admit=None):
    """Peel the round (``_peel_round``) that starts with the (c, candidate, units) step ``first``.

    Each step charges ``units`` class copies of its candidate at c: a
    ratio carries the class multiplicity; zero holonomy keeps the doubled
    count.  UnderflowError when the first step alone falls short.
    """
    cd = first[1]
    steps, cur, removed = _peel_round(
        cur, first, (TWO_PI - cd.b) / cd.a, admit,
        lambda s: (s[1].a, s[1].b, s[2] * s[1].reps), cd.ks, ctx.w, ctx.tol
    )
    avail = [list(p) for p in avail]
    for (c, cd, units), gone in zip(steps, removed):
        avail[cd.idx][1] -= units
        emitted = units if cd.kind == "ratio" else units * cd.reps
        ratios += (((c if cd.kind == "ratio" else 0.0), emitted),)
        record = dict(smallest=c, kind=cd.kind, length=cd.a, holonomy=cd.b, multiplicity=emitted)
        record.update(trace_points=cd.trace_points, removed=gone)
        audit += (record,)
    return cur, avail, ratios, audit


def _forced(view, avail, first: tuple, ctx: _SearchCtx):
    """``admit`` of a ratio round that starts with the forced step ``first``.

    An entry c joins when ``_candidates``, run on the round's starting
    multiset with the lengths the round has not used, finds exactly one
    candidate, a ratio, that takes the whole multiplicity at c.  Every
    admit probes that one starting multiset, so all of them share the
    list view ``view`` that the first step's ``_candidates`` call probed:
    one ``bisect_left`` per point on it, a candidate stopped at its first
    absent point.  Peeling only lowers counts, so the step walk would find
    that candidate or none; none means a point the round's traces
    overdraw, which the round's subtraction finds.  Asked where
    ``_peel_round`` asks, it sets no ``ctx.window_short`` that the first
    step's call, which scanned every length (a round starts only where
    ``last`` is None), left unset.
    """
    left = [list(p) for p in avail]
    left[first[1].idx][1] -= first[2]

    def admit(c: float, mult: int):
        cands = _candidates(view, left, c, 0, ctx)
        if len(cands) == 1 and cands[0].kind == "ratio":
            cd = cands[0]
            units, short = divmod(mult, cd.per)
            if not short and left[cd.idx][1] >= units:
                left[cd.idx][1] -= units
                return (c, cd, units), (TWO_PI - cd.b) / cd.a
        return None

    return admit


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

    A forced step where ``last`` is None starts a round (``_peel_round``,
    ``_forced``); the reach of a class is its next positive point (2*pi-b)/a.
    Each state's multiset is taken as a list view once, for its own
    ``_candidates`` call and every ``admit`` of the round it starts.  A
    state with entries left but none positive is a dead end at its
    smallest entry.
    """
    while len(ctx.distinct) < 2:
        mp = cur.min_positive()
        if mp is None:
            if cur:  # no positive entry explains what is left
                return ctx.stuck(cur.entries[0][0])
            ms = RealMultiset(ratios, ctx.tol)
            if not any(multiset_equal(ms, seen, ctx.tol) for seen, _ in ctx.distinct):
                ctx.distinct.append((ms, audit))
            return
        c, mult = mp
        first = last[1] if last is not None and abs(last[0] - c) <= ctx.tol else 0
        view = cur._view()
        cands = _candidates(view, avail, c, first, ctx)
        if sum(avail[cd.idx][1] * cd.per for cd in cands) < mult:
            return ctx.stuck(c)
        if len(cands) > 1:
            # tie: charge one unit to each candidate; those that subtract branch
            branches = []
            for cd in cands:
                try:
                    branches.append((cd, _attribute(cur, avail, ratios, audit, (c, cd, 1), ctx)))
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
        step = (c, cd, units)
        admit = _forced(view, avail, step, ctx) if last is None and cd.kind == "ratio" else None
        try:
            cur, avail, ratios, audit = _attribute(cur, avail, ratios, audit, step, ctx, admit)
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
