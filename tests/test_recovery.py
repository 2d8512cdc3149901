"""Multiset peeling: length recovery, ratio recovery, end-to-end comparison."""

import json
import math
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhspec import (
    AmbiguousTrace,
    DomainError,
    IncompleteWindow,
    NegativeMultiplicity,
    RealMultiset,
    Spectrum,
    SpectralError,
    UnderflowError,
    ZeroWindow,
    class_trace,
    multiset_equal,
    recover_lengths,
    recover_ratios,
    run_cli,
    smo_check,
    strip_k0,
    zero_line,
)
from lhspec import recovery
from lhspec.recovery import _candidates, _SearchCtx
from lhspec.zeros import _band, _n_range, subtract_trace

from helpers import (
    TWO_PI,
    candidates_reference,
    commensurable_spectrum,
    expected_ratio_pairs,
    rand_spectrum,
    recover_lengths_reference,
    recover_ratios_reference,
    strip_k0_reference,
    trace_reference,
)

PI = math.pi


def window_for(spec):
    return ZeroWindow(0, 20 * PI / spec.min_length())


def roundtrip_lengths(spec, w=None, audit=None):
    w = w or window_for(spec)
    return recover_lengths(zero_line(spec, 0, w), w, audit=audit), w


def roundtrip_ratios(spec, w=None):
    w = w or window_for(spec)
    lengths = recover_lengths(zero_line(spec, 0, w), w)
    resid = strip_k0(zero_line(spec, 1, w), lengths, w)
    return recover_ratios(resid, lengths, w)


def test_recover_lengths_single_class_example():
    z = RealMultiset.from_values([n * PI for n in range(-3, 4)])
    got = recover_lengths(z, ZeroWindow(0, 10.0))
    assert list(got) == [(2.0, 1)]


def test_recover_lengths_commensurable_example():
    spec = Spectrum([(1.0, 0.0, 1), (2.0, 0.0, 1)])
    w = ZeroWindow(0, 15.0)
    zl = zero_line(spec, 0, w)
    assert zl.count_near(TWO_PI, 1e-9) == 2  # collision point carries both classes
    got = recover_lengths(zl, w)
    assert multiset_equal(got, spec.lengths(), 1e-9)


def test_recover_lengths_empty():
    assert recover_lengths(RealMultiset(), ZeroWindow(0, 5.0)).total() == 0


def test_recover_lengths_accepts_plain_values():
    got = recover_lengths([n * TWO_PI for n in range(-2, 3)], ZeroWindow(0, 13.0))
    assert list(got) == [(1.0, 1)]


def test_recover_lengths_roundtrip_random(rng):
    for _ in range(15):
        spec = rand_spectrum(rng, max_classes=10)
        got, _ = roundtrip_lengths(spec)
        assert multiset_equal(got, spec.lengths(), 1e-9)


def margin_window(spec):
    # pad the bound so no trace point sits on the boundary itself: with
    # lambda = 20 pi / a_min every commensurable collision lands bit-exactly
    # on the edge, where one ulp decides containment class by class
    return ZeroWindow(0, 20 * PI / spec.min_length() * (1 + 1e-3))


def check_conservation(spec, w):
    audit = []
    got = recover_lengths(zero_line(spec, 0, w), w, audit=audit)
    assert multiset_equal(got, spec.lengths(), 1e-9)
    assert len(audit) == len(spec.lengths().entries)
    by_len = {a: m for a, m in spec.lengths()}
    for rec in audit:
        true_a = min(by_len, key=lambda a: abs(a - rec["length"]))
        true_trace = class_trace(true_a, 0.0, (0,), w)
        assert rec["multiplicity"] == by_len[true_a]
        assert rec["removed"] == rec["multiplicity"] * len(true_trace)


def test_recover_lengths_conservation_audit(rng):
    # every iteration removes exactly mu copies of the peeled class's trace,
    # collision points notwithstanding
    for lengths in ((1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0)):
        spec = commensurable_spectrum(rng, lengths)
        check_conservation(spec, margin_window(spec))


def test_recover_lengths_conservation_audit_generic(rng):
    for _ in range(10):
        spec = rand_spectrum(rng, max_classes=8)
        check_conservation(spec, margin_window(spec))


def test_recover_lengths_window_too_small_for_second_point():
    with pytest.raises(IncompleteWindow):
        recover_lengths(RealMultiset.from_values([5.0]), ZeroWindow(0, 6.0))


def test_recover_lengths_missing_trace_point():
    # smallest element pi implies a = 2, whose trace needs 0 and 2pi as well
    with pytest.raises(NegativeMultiplicity):
        recover_lengths(RealMultiset.from_values([PI]), ZeroWindow(0, 7.0))


def test_recover_lengths_unpeelable_residual():
    with pytest.raises(IncompleteWindow):
        recover_lengths(RealMultiset.from_values([-1.0]), ZeroWindow(0, 5.0))


@st.composite
def length_lines(draw):
    # the zero line at twist 0 or 1 of up to four classes: lengths that share
    # trace points, holonomies 0 and pi among others, multiplicities up to
    # 2**58, each point kept, dropped, doubled or moved within tol
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.4, 5.0),
                st.sampled_from([0.0, PI]) | st.floats(0.1, TWO_PI - 0.1),
                st.integers(1, 3) | st.sampled_from([2**53 + 1, 2**58]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    w = ZeroWindow(0, draw(st.floats(1.5, 25.0)) * PI / min(a for a, _, _ in rows))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0]))
    ks = draw(st.sampled_from([(0,), (0,), (1, -1)]))
    points = [(v, m) for a, b, m in rows for v in trace_reference(a, b, ks, w).tolist()]
    kinds = draw(st.sampled_from(["k", "k" * 30 + "dxm"]))
    moves = draw(st.lists(st.sampled_from(kinds), min_size=len(points), max_size=len(points)))
    stored = []
    for (v, m), move in zip(points, moves):
        if move == "m":  # within tol, and never nearer 0 than half way
            v += min(tol, abs(v) / 2) * draw(st.floats(-1.0, 1.0))
        stored.append((v, {"k": m, "d": m - 1, "x": 2 * m, "m": m}[move]))
    while sum(m for _, m in stored) >= 2**63:  # the multiset's total bound
        stored.pop(0)
    return RealMultiset(stored, tol=0.0), w, tol


def length_outcome(ms, w, tol):
    """recover_lengths's (length entries, audit records), or its error's type and message."""
    audit = []
    try:
        return recover_lengths(ms, w, tol, audit).entries, audit
    except SpectralError as exc:
        return type(exc), str(exc)


@given(length_lines())
@settings(max_examples=200, deadline=None)
def test_recover_lengths_matches_greedy_reference(inputs):
    ms, w, tol = inputs
    try:
        want = recover_lengths_reference(ms.entries, w, tol)
    except SpectralError as exc:
        want = type(exc), str(exc)
    assert length_outcome(ms, w, tol) == want


def test_recover_ratios_single_class_example():
    spec = Spectrum([(2.0, 1.0, 1)])
    w = ZeroWindow(0, 10.0)
    got = roundtrip_ratios(spec, w)
    assert list(got) == [(0.5, 1)]


def test_recover_ratios_empty():
    got = recover_ratios(RealMultiset(), RealMultiset([(1.0, 1)]), ZeroWindow(0, 10.0))
    assert got.total() == 0


def test_recover_ratios_takes_plain_length_pairs():
    # the pairs are (length, multiplicity), not values, and are checked as
    # RealMultiset checks them
    spec = Spectrum([(1.0, 0.5, 1), (2.0, 1.0, 2)])
    w = ZeroWindow(0, 10.0)
    resid = strip_k0(zero_line(spec, 1, w), spec.lengths(), w)
    want = recover_ratios(resid, spec.lengths(), w)
    assert recover_ratios(resid, [(1.0, 1), (2.0, 2)], w) == want
    with pytest.raises(ValueError, match="multiplicity"):
        recover_ratios(resid, [(1.0, 1.5), (2.0, 2)], w)
    with pytest.raises(DomainError, match="multiplicity"):
        recover_ratios(resid, [(1.0, 2**63), (2.0, 2)], w)


def test_recover_ratios_holonomy_above_pi_normalizes():
    spec = Spectrum([(2.0, 5.0, 1)])  # b > pi: canonical ratio is (2pi - b)/a
    got = roundtrip_ratios(spec)
    assert multiset_equal(got, RealMultiset([((TWO_PI - 5.0) / 2.0, 1)]), 1e-9)


def test_recover_ratios_roundtrip_random(rng):
    for _ in range(15):
        spec = rand_spectrum(rng, max_classes=10)
        got = roundtrip_ratios(spec)
        want = RealMultiset(expected_ratio_pairs(spec))
        assert multiset_equal(got, want, 1e-8)


def test_recover_ratios_commensurable(rng):
    for lengths in ((1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0)):
        for _ in range(3):
            spec = commensurable_spectrum(rng, lengths)
            got = roundtrip_ratios(spec)
            want = RealMultiset(expected_ratio_pairs(spec))
            assert multiset_equal(got, want, 1e-8)


def test_recover_ratios_zero_holonomy_reported_as_ratio_zero():
    # the k = +1/-1 traces of a b = 0 class coincide with its k = 0 trace;
    # the leftover double trace is reported as ratio 0 with multiplicity 2
    spec = Spectrum([(2.0, 0.0, 1), (1.0, 1.3, 1)])
    got = roundtrip_ratios(spec)
    assert multiset_equal(got, RealMultiset([(0.0, 2), (1.3, 1)]), 1e-9)


@pytest.mark.parametrize(
    "rows",
    [[(3.0, PI, 1)], [(3.0, PI, 2)], [(3.0, PI, 1), (1.0, 0.5, 1)]],
    ids=["one", "doubled", "with_generic"],
)
def test_recover_ratios_self_inverse_holonomy(rows):
    # b = pi: the k = +1 and k = -1 traces coincide, so each class copy puts
    # two points at pi/a; the ratio still carries the class multiplicity
    spec = Spectrum(rows)
    got = roundtrip_ratios(spec)
    assert multiset_equal(got, RealMultiset(expected_ratio_pairs(spec)), 1e-9)
    assert smo_check(spec, spec, 1, window_for(spec)).status == "EXACT"


def test_recover_ratios_ambiguous_data_refuses_to_guess():
    # adversarial: the data is one (a=2, b=2) trace, but the length table
    # also offers two copies of length 1, which can tile the same points
    w = ZeroWindow(0, 20.0)
    data = RealMultiset.from_values(class_trace(2.0, 2.0, (1, -1), w))
    lengths = RealMultiset([(1.0, 2), (2.0, 1)])
    with pytest.raises(AmbiguousTrace):
        recover_ratios(data, lengths, w)


def test_recover_ratios_window_too_small():
    # candidate b = 3 needs the point (2pi - 3)/1 > 3.0 to confirm
    with pytest.raises(IncompleteWindow):
        recover_ratios(
            RealMultiset.from_values([-3.0, 3.0]),
            RealMultiset([(1.0, 1)]),
            ZeroWindow(0, 3.0),
        )


def test_recover_ratios_unexplained_value():
    with pytest.raises(NegativeMultiplicity):
        recover_ratios(
            RealMultiset.from_values([0.5]),
            RealMultiset([(1.0, 1)]),
            ZeroWindow(0, 20.0),
        )


def test_recover_ratios_tie_where_every_branch_underflows():
    # at c = 0.5 both lengths are candidates, but the point 31.9159... that a
    # copy of either trace needs is gone, so no branch of the tie subtracts
    spec = Spectrum([(1.0, 0.5, 1), (2.0, 1.0, 1)])
    w = ZeroWindow(0, 20 * math.pi)
    cur = strip_k0(zero_line(spec, 1, w), spec.lengths(), w)
    cur = cur.subtract([(31.91592653589793, 2)], tol=0.0)
    with pytest.raises(NegativeMultiplicity, match="smallest unexplained value 0.5$"):
        recover_ratios(cur, spec.lengths(), w)


@pytest.mark.parametrize(
    "extra, lengths, error",
    [
        ([-3.0], [(2.0, 1)], NegativeMultiplicity),
        ([0.0], [(2.0, 1)], NegativeMultiplicity),
        ([-3.0], [(2.0, 1), (0.2, 1)], IncompleteWindow),  # 0.2 is window short at c = 0.5
    ],
    ids=["negative_left", "zero_left", "negative_left_window_short"],
)
def test_ratio_search_names_the_smallest_entry_it_leaves(extra, lengths, error):
    # the search empties every positive entry and the entry of extra remains:
    # the error names it, as the reference does, and not None
    w = ZeroWindow(0, 20.0)
    cur = RealMultiset.from_values(class_trace(2.0, 1.0, (1, -1), w) + extra)
    want = ratio_outcome(recover_ratios_reference, cur, lengths, w, 1e-9)
    left = extra[0]
    assert want[0] is error and want[1].endswith((f"value {left!r}", f"(stuck at {left!r})"))
    assert ratio_outcome(with_audit, cur, lengths, w, 1e-9) == want


def test_peeling_terminates_in_class_count_iterations(rng):
    for _ in range(10):
        spec = rand_spectrum(rng, max_classes=12)
        audit = []
        got, _ = roundtrip_lengths(spec, audit=audit)
        assert len(audit) == len(got.entries) <= len(spec.classes)


def test_smo_check_self_comparison_exact():
    spec = Spectrum([(1.0, 0.7, 1), (2.0, 1.0, 2)])
    rep = smo_check(spec, spec, 1, ZeroWindow(0, 20 * PI))
    assert rep.status == "EXACT"
    assert rep.residual == 0.0
    assert rep.witness is None
    assert not rep.recovered_lengths and not rep.recovered_ratios


def test_smo_check_relabeled_multiplicities_exact():
    s1 = Spectrum([(1.0, 0.7, 2), (2.0, 1.0, 1)])
    s2 = Spectrum([(1.0, 0.7, 1), (1.0, 0.7, 1), (2.0, 1.0, 1)])
    rep = smo_check(s1, s2, 1, ZeroWindow(0, 20 * PI))
    assert rep.status == "EXACT" and rep.residual == 0.0


def test_smo_check_perturbed_holonomy_fails_with_witness():
    s1 = Spectrum([(1.0, 1.0, 1), (2.0, 1.0, 2)])
    s2 = Spectrum([(1.0, 1.3, 1), (2.0, 1.0, 2)])
    rep = smo_check(s1, s2, 1, ZeroWindow(0, 20 * PI))
    assert rep.status == "FAILED"
    assert rep.residual == math.inf
    assert rep.witness is not None
    assert rep.diagnostics


def test_smo_check_perturbed_length_fails_with_witness():
    s1 = Spectrum([(1.0, 1.0, 1), (2.0, 1.0, 2)])
    s2 = Spectrum([(1.1, 1.0, 1), (2.0, 1.0, 2)])
    rep = smo_check(s1, s2, 1, ZeroWindow(0, 20 * PI))
    assert rep.status == "FAILED"
    assert rep.witness is not None


def test_smo_check_tolerant_on_sub_tolerance_jitter():
    # 2e-9 length jitter: too big to cancel in the symmetric difference,
    # small enough for every recovered invariant to match within 1e-6
    s1 = Spectrum([(5.0, 1.0, 1)])
    s2 = Spectrum([(5.0 + 2e-9, 1.0, 1)])
    rep = smo_check(s1, s2, 1, ZeroWindow(0, 4 * PI), tol=1e-6)
    assert rep.status == "TOLERANT"
    assert 0.0 < rep.residual <= 1e-6


def test_smo_check_report_serializes():
    spec = Spectrum([(1.0, 0.7, 1)])
    rep = smo_check(spec, spec, 0, ZeroWindow(0, 20 * PI))
    d = rep.to_dict()
    assert d["status"] == "EXACT"
    assert d["recovered_lengths"] == [] and d["recovered_ratios"] == []
    assert d["witness"] is None


def test_smo_check_failing_report_pinned():
    # side 1 peels its lengths, side 2 runs out of window: the report keeps
    # side 1's lengths and lists the diagnostics in stage order
    s1 = Spectrum([(3.0, 0.5, 1), (4.0, 1.0, 2)])
    s2 = Spectrum([(1.0, 0.0, 1), (2.0, 0.5, 2), (3.0, 0.0, 1)])
    rep = smo_check(s1, s2, 1, ZeroWindow(0, 7.0))
    assert rep.to_dict() == {
        "status": "FAILED",
        "residual": math.inf,
        "witness": -6.449851973846253,
        "recovered_lengths": [
            {"value": 3.0, "multiplicity": 1},
            {"value": 4.0, "multiplicity": 2},
        ],
        "recovered_ratios": [],
        "diagnostics": [
            "symmetric difference: 3 vs 4 class copies uncancelled",
            "zero lines differ; witness imaginary part -6.449851973846253",
            "IncompleteWindow: window |Im(s)| <= 7.0 cannot contain the first two "
            "trace points of recovered length 1.0",
        ],
    }


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_recovery_rejects_bad_tolerance(tol):
    spec = Spectrum([(2.0, 1.0, 1)])
    w = window_for(spec)
    lengths = spec.lengths()
    with pytest.raises(DomainError, match="tolerance"):
        recover_lengths(zero_line(spec, 0, w), w, tol)
    with pytest.raises(DomainError, match="tolerance"):
        recover_ratios(strip_k0(zero_line(spec, 1, w), lengths, w), lengths, w, tol)
    with pytest.raises(DomainError, match="tolerance"):
        smo_check(spec, spec, 1, w, tol)


@given(
    st.sampled_from([(1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0)]),
    st.lists(
        st.one_of(st.sampled_from([0.0, PI]), st.floats(0.1, TWO_PI - 0.1)), min_size=3, max_size=3
    ),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
    st.floats(0.3, 20.0),
    st.sampled_from([1e-9, 1e-8]),
)
@settings(max_examples=100, deadline=None)
def test_candidates_match_per_candidate_probe_reference(lengths, holonomies, mults, reach, tol):
    # each peeling state along the path that charges one class copy to the
    # first candidate: the reference's candidates, field for field, plus only
    # candidates whose one-copy subtraction underflows; and the same window
    # flag, which the smaller windows raise
    spec = Spectrum(zip(lengths, holonomies, mults))
    w = ZeroWindow(0, reach * PI / spec.min_length())
    cur = strip_k0(zero_line(spec, 1, w), spec.lengths(), w)
    avail = [[a, m] for a, m in spec.lengths()]
    while (mp := cur.min_positive()) is not None:
        c, mult = mp
        ctxs = [_SearchCtx(w=w, tol=tol, band=tol * max(1.0, w.im_bound)) for _ in range(2)]
        got = _candidates(cur._view(), avail, c, 0, ctxs[0])
        want = candidates_reference(cur, avail, c, mult, ctxs[1])
        kept = []
        for cd in got:
            try:
                subtract_trace(cur, cd.a, cd.b, cd.ks, cd.reps, w, tol)
            except UnderflowError:
                continue
            kept.append(tuple(cd))
        assert kept == [tuple(cd)[:-1] for cd in want]
        assert ctxs[0].window_short == ctxs[1].window_short
        if not want:
            break
        cd = want[0]
        cur = subtract_trace(cur, cd.a, cd.b, cd.ks, cd.reps, w, tol)
        avail[cd.idx][1] -= 1


@pytest.mark.parametrize("k", [1, -1])
def test_candidate_probe_asks_both_traces_for_their_points(k):
    # the k = -1 probe points are taken from the k = +1 ones: each of the
    # points one step in from either end of either trace, built directly,
    # is asked for, so a residual without it has no candidate
    a, b, w = 2.0, 1.0, ZeroWindow(0, 20.0)
    trace = RealMultiset.from_values(class_trace(a, b, (1, -1), w))
    r = _n_range(a, b, k, w.im_bound)
    c = trace.min_positive()[0]
    ctx = _SearchCtx(w=w, tol=1e-9, band=1e-9 * w.im_bound)
    assert len(_candidates(trace._view(), [[a, 1]], c, 0, ctx)) == 1
    for n in (r[1], r[-2]):
        missing = trace.subtract([((-b * k - TWO_PI * n) / a, 1)], 0.0)
        assert _candidates(missing._view(), [[a, 1]], c, 0, ctx) == []


def with_audit(cur, lengths, w, tol):
    audit = []
    return recover_ratios(cur, lengths, w, tol, audit), audit


def ratio_outcome(search, *args):
    """The search's (ratio entries, audit records), or its error's type and message."""
    try:
        got, audit = search(*args)
    except SpectralError as exc:
        return type(exc), str(exc)
    return got.entries, audit


@st.composite
def holonomy_for(draw, a):
    # the j*a draws make classes of different lengths share one ratio j
    return draw(
        st.sampled_from([0.0, PI])
        | st.floats(0.1, TWO_PI - 0.1)
        | st.integers(1, 3).map(lambda j: j * a % TWO_PI)
    )


@st.composite
def peeling_inputs(draw):
    lengths = draw(
        st.sampled_from(
            [(1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0), (1.0, 1 + 1e-10, 2.0), (0.7, 1.4, 2.1, 2.8)]
        )
    )
    rows = [(a, draw(holonomy_for(a)), draw(st.integers(1, 3))) for a in lengths]
    return rows, draw(st.floats(0.3, 20.0)), draw(st.sampled_from([1e-9, 1e-8, 1e-6]))


@given(peeling_inputs())
@settings(max_examples=150, deadline=None)
def test_recover_ratios_matches_unpruned_search_reference(inputs):
    # pruning by count and subtracting once per attribution change no
    # ratio, no audit record and no error of the search that tried every
    # candidate by a trial subtraction
    rows, reach, tol = inputs
    spec = Spectrum(rows)
    w = ZeroWindow(0, reach * PI / spec.min_length())
    lengths = spec.lengths()
    try:
        cur = strip_k0(zero_line(spec, 1, w), lengths, w, tol)
    except SpectralError:
        return
    want = ratio_outcome(recover_ratios_reference, cur, lengths, w, tol)
    assert ratio_outcome(with_audit, cur, lengths, w, tol) == want


def tied_family(n, m):
    # every class (j, (pi/2) j/n) has the ratio pi/(2n)
    return Spectrum([(float(j), PI / 2 * j / n, m) for j in range(1, n + 1)])


@pytest.mark.parametrize("n, m", [(16, 1), (24, 1), (4, 50)])
def test_tied_classes_are_cut_by_count(n, m, monkeypatch):
    # a tie branch that meets its dead ends only by subtracting visits every
    # increasing run of candidates, 3 * 2**n calls; counting what the
    # candidates can still remove at c cuts each dead branch at once
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise RuntimeError("ratio search passed 1,000 _candidates calls")
        return real(*args)

    real = recovery._candidates
    monkeypatch.setattr(recovery, "_candidates", counted)
    got = roundtrip_ratios(tied_family(n, m))
    assert multiset_equal(got, RealMultiset([(PI / (2 * n), n * m)]), 1e-9)


def test_tied_classes_recover_through_the_cli(tmp_path, capsys):
    path = tmp_path / "tied.csv"
    rows = "".join(f"{a!r},{b!r},{m}\n" for a, b, m in tied_family(24, 1))
    path.write_text("length,holonomy,multiplicity\n" + rows)


    def on_alarm(signum, frame):
        raise TimeoutError("recover on 24 tied classes ran past 2 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        code = run_cli(["recover", str(path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] in ("EXACT", "TOLERANT")
    [ratio] = out["recovered_ratios"]
    assert abs(ratio["value"] - PI / 48) <= 1e-9 and ratio["multiplicity"] == 24


def test_each_forced_batch_subtracts_once(monkeypatch):
    # the forced attributions at 0.5 and 0.65 make one round: a single
    # _subtract_traces call carries the whole multiplicity of each
    spec = Spectrum([(1.0, 0.5, 3), (2.0, 1.3, 2)])
    w = window_for(spec)
    cur = strip_k0(zero_line(spec, 1, w), spec.lengths(), w)
    calls = []

    def counted(ms, rows, *args):
        calls.append(list(rows))
        return real(ms, rows, *args)

    real = recovery._subtract_traces
    monkeypatch.setattr(recovery, "_subtract_traces", counted)
    got = recover_ratios(cur, spec.lengths(), w)
    assert multiset_equal(got, RealMultiset([(0.5, 3), (0.65, 2)]), 1e-9)
    assert calls == [[(1.0, 0.5, 3), (2.0, 1.3, 2)]]


def test_exact_complete_lines_never_take_the_exact_walk(rng, monkeypatch):
    # on exact, complete zero lines every tol window holds one entry and no
    # step falls short, so the one-pass path of RealMultiset._subtract
    # decides each length step, the strip and each attribution.  A tie
    # branch that underflows takes the walk for its message, so the ratio
    # stage runs on spectra whose ties all subtract
    def walk(*args):
        raise AssertionError("the exact walk ran")

    monkeypatch.setattr(RealMultiset, "_subtract_exact", walk)
    specs = [rand_spectrum(rng, max_classes=10) for _ in range(4)]
    specs += [commensurable_spectrum(rng, lengths) for lengths in ((1.0, 2.0), (0.5, 1.5, 3.0))]
    specs += [tied_family(8, 1), tied_family(4, 50)]
    for spec in specs:
        assert multiset_equal(roundtrip_ratios(spec), RealMultiset(expected_ratio_pairs(spec)), 1e-8)
    # holonomy 0 and pi: k = +1 and -1 progressions share every point
    spec = Spectrum([(2.0, 0.0, 1), (1.0, 1.3, 1), (3.0, PI, 2), (1.5, 0.0, 2)])
    lengths, w = roundtrip_lengths(spec)
    assert multiset_equal(lengths, spec.lengths(), 1e-9)
    line = zero_line(spec, 1, w)
    assert strip_k0(line, lengths, w).entries == strip_k0_reference(line.entries, lengths, w, 1e-9)


def test_recover_ratios_counts_a_huge_trace_without_len():
    # a 1e300 length has about 3e300 trace points in the window: counted from the
    # n-range bounds, never by len(), and refused with a typed error
    with pytest.raises(DomainError, match="point cap"):
        recover_ratios(
            RealMultiset.from_values([1e-300]), RealMultiset([(1e300, 1)]), ZeroWindow(0, 10.0)
        )


def test_recover_ratios_refuses_a_class_without_a_finite_n_range():
    # length 10 at im_bound 1e308: im_bound * a overflows, so the candidate's
    # n-range is refused where _candidates asks for it
    with pytest.raises(DomainError, match=r"no finite n-range for class \(10\.0, 1\.0\)"):
        recover_ratios(RealMultiset([(0.1, 1)]), [(10.0, 1)], ZeroWindow(0, 1e308))


# ---------------------------------------------------------------------------
# peeling rounds: each equals its steps one by one


def step_only(cur, first, reach, admit, *args, _peel_round=recovery._peel_round):
    """A stand-in for recovery._peel_round whose rounds stop after their first step."""
    return _peel_round(cur, first, reach, None, *args)


def peel_outcome(m0, m1, spec, w, tol):
    """Lengths, strip residual and ratios of two zero lines, stage by stage.

    Each stage gives its entries (with the audit records of a recovery) or
    its error's type and message; a length audit is kept on error too.
    ``strip_k0`` and the ratio peeling take the recovered lengths, or the
    spectrum's own where length peeling failed.
    """
    audit = []
    try:
        lengths = recover_lengths(m0, w, tol, audit)
        out = [(lengths.entries, audit)]
    except SpectralError as exc:
        lengths = spec.lengths()
        out = [(type(exc), str(exc), audit)]
    try:
        resid = strip_k0(m1, lengths, w, tol)
    except SpectralError as exc:
        return out + [(type(exc), str(exc))]
    return out + [resid.entries, ratio_outcome(with_audit, resid, lengths, w, tol)]


def peel_outcome_by_steps(*args):
    with mock.patch.object(recovery, "_peel_round", step_only):
        return peel_outcome(*args)


def perturbed(ms, share, tol, rng):
    """ms with each entry, with probability share, dropped by one copy, doubled or moved within tol."""
    out = []
    for (v, m), u, d in zip(ms.entries, rng.random(len(ms)), rng.uniform(-1.0, 1.0, len(ms))):
        if u < share / 3:
            m -= 1
        elif u < 2 * share / 3:
            m *= 2
        elif u < share:  # never nearer 0 than half way
            v += min(tol, abs(v) / 2) * d
        out.append((v, m))
    return RealMultiset(out, tol=0.0)


@st.composite
def round_inputs(draw):
    # random, commensurable, holonomy 0 and pi, tied and 2**53 + 1 spectra,
    # their zero lines kept or perturbed, at a tol of 1e-9 to 1e-3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "commensurable", "zero_pi", "tied", "huge"]))
    if kind == "commensurable":
        sets = [(1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0)]
        spec = commensurable_spectrum(rng, draw(st.sampled_from(sets)))
    elif kind == "tied":
        spec = tied_family(draw(st.integers(2, 6)), draw(st.integers(1, 3)))
    else:
        rows = list(rand_spectrum(rng, max_classes=10))
        if kind == "zero_pi":
            for _ in range(draw(st.integers(1, 3))):
                a = draw(st.sampled_from([1.0, 2.0]) | st.floats(0.5, 5.0))
                rows.append((a, draw(st.sampled_from([0.0, PI])), draw(st.integers(1, 3))))
        elif kind == "huge":
            a, b, _ = rows[0]
            rows[0] = (a, b, 2**53 + 1)
        spec = Spectrum(rows)
    reach = draw(st.sampled_from([20.0, 20.0 * (1 + 1e-3)]) | st.floats(1.5, 25.0))
    w = ZeroWindow(0, reach * PI / spec.min_length())
    tol = draw(st.sampled_from([1e-9, 1e-8, 1e-6, 1e-4, 1e-3]))
    share = draw(st.sampled_from([0.0, 0.0, 0.01, 0.05]))
    m0, m1 = (perturbed(zero_line(spec, k, w), share, tol, rng) for k in (0, 1))
    return m0, m1, spec, w, tol


@given(round_inputs())
@settings(max_examples=150, deadline=None)
def test_rounds_peel_as_their_steps_one_by_one(inputs):
    # lengths, strip residual, ratios, audits and errors of the rounds are
    # those of the step walk, whose rounds stop after one step
    assert peel_outcome(*inputs) == peel_outcome_by_steps(*inputs)


def length_line(firsts, w):
    """The twist-0 zero line of zero-holonomy classes whose first trace points are ``firsts``."""
    return zero_line(Spectrum([(TWO_PI / v, 0.0, 1) for v in firsts]), 0, w)


def test_length_round_ends_before_an_entry_outside_the_window():
    # 5.05 lies below the second point 9.8 of the class at 4.9, but 2 * 5.05
    # leaves the window: the round is the step at 4.9, and the next one
    # raises as the step walk does, after one audit record
    w = ZeroWindow(0, 10.0)
    line = length_line([4.9, 5.05], w)
    second = line.min_positive(line.min_positive()[0])[0]
    want = peel_outcome_by_steps(line, RealMultiset(), Spectrum(), w, 1e-9)
    assert peel_outcome(line, RealMultiset(), Spectrum(), w, 1e-9) == want
    error, message, audit = want[0]
    assert error is IncompleteWindow and f"recovered length {TWO_PI / second!r}" in message
    assert len(audit) == 1


def test_length_round_missing_a_point_of_its_second_class_replays_the_steps(monkeypatch):
    # the round at 4.9 and 5.05 cannot commit without the point 2 * 5.05:
    # the step at 4.9 stands, and the step at 5.05 ends in the walk's
    # NegativeMultiplicity, which names its length
    w = ZeroWindow(0, 16.0)
    line = length_line([4.9, 5.05], w)
    second = line.min_positive(line.min_positive()[0])[0]
    hole = line.min_positive(10.0)[0]
    broken = line.subtract([(hole, 1)], tol=0.0)
    calls = []

    def counted(ms, rows, *args):
        calls.append(len(rows))
        return real(ms, rows, *args)

    real = recovery._subtract_traces
    monkeypatch.setattr(recovery, "_subtract_traces", counted)
    got = peel_outcome(broken, RealMultiset(), Spectrum(), w, 1e-9)
    assert calls == [2, 1, 1]  # the round, then its two steps
    assert got == peel_outcome_by_steps(broken, RealMultiset(), Spectrum(), w, 1e-9)
    error, message, audit = got[0]
    assert error is NegativeMultiplicity
    assert message.startswith(f"trace of recovered length {TWO_PI / second!r} is not fully present")
    assert message.endswith(f"cannot remove 1 more copies of {hole!r} (multiset underflow)")
    assert [rec["smallest"] for rec in audit] == [line.min_positive()[0]]


@pytest.mark.parametrize("gap", [0.0, 1.5])
def test_length_rounds_stop_two_tol_short_of_a_second_point(gap, monkeypatch):
    # the class at pi reaches 2*pi with its second point: an entry there, or
    # within 2*tol below it, starts a round of its own, so no round is cut
    tol = 1e-6
    w = ZeroWindow(0, 20.0)
    line = length_line([PI, TWO_PI - gap * tol], w)
    calls = []

    def counted(ms, rows, *args):
        calls.append(list(rows))
        return real(ms, rows, *args)

    real = recovery._subtract_traces
    monkeypatch.setattr(recovery, "_subtract_traces", counted)
    got = recover_lengths(line, w, tol)
    second = got.entries[0][0]
    assert calls == [[(2.0, 0.0, 1)], [(second, 0.0, 1)]]
    assert got == RealMultiset([(2.0, 1), (TWO_PI / (TWO_PI - gap * tol), 1)], 0.0)


def test_length_round_sharing_an_edge_entry_replays_the_steps():
    # the class at 3.33 reaches 9.99 (count 1) with a point in the edge zone
    # (|v| > 9.99), the class at 4.99 with an interior one.  One by one, the
    # first takes the copy and the second underflows; at once, the strict
    # want would be served first.  So the round falls back to its steps.
    w, tol = ZeroWindow(0, 10.0), 1e-3
    line = length_line([9.9905 / 3, 9.9895 / 2], w)
    assert [v for v, _ in line if abs(v) > 9.98] == [-9.9905, -9.9895, 9.9895, 9.9905]
    shared = RealMultiset([(v, m) for v, m in line if abs(v) < 9.98] + [(-9.99, 2), (9.99, 1)], 0.0)
    got = peel_outcome(shared, RealMultiset(), Spectrum(), w, tol)
    assert got == peel_outcome_by_steps(shared, RealMultiset(), Spectrum(), w, tol)
    error, message, audit = got[0]
    assert error is NegativeMultiplicity and "cannot remove 1 more copies of 9.9895" in message
    assert len(audit) == 1


@pytest.mark.parametrize(
    "extra, error",
    [([], NegativeMultiplicity), ([(0.2, 1)], IncompleteWindow)],
    ids=["no_short_length", "short_length"],
)
def test_ratio_round_abandoned_keeps_the_step_walk_error(extra, error, monkeypatch):
    # the forced steps at 0.5 and 0.65 make a round, which cannot commit
    # without the point -5.78... of the first class; the step at 0.5 then
    # underflows.  The error type follows the window flag of the step walk,
    # which the length 0.2 (window short at every c here) sets
    spec = Spectrum([(1.0, 0.5, 1), (2.0, 1.3, 1)])
    w = ZeroWindow(0, 20.0)
    resid = strip_k0(zero_line(spec, 1, w), spec.lengths(), w)
    broken = resid.subtract([(0.5 - TWO_PI, 1)], tol=0.0)
    lengths = list(spec.lengths()) + extra
    calls = []

    def counted(ms, rows, *args):
        calls.append(len(rows))
        return real(ms, rows, *args)

    real = recovery._subtract_traces
    monkeypatch.setattr(recovery, "_subtract_traces", counted)
    got = ratio_outcome(with_audit, broken, lengths, w, 1e-9)
    assert calls == [2, 1]
    with mock.patch.object(recovery, "_peel_round", step_only):
        assert got == ratio_outcome(with_audit, broken, lengths, w, 1e-9)
    assert got[0] is error and str(got[1]).endswith(("value 0.5", "(stuck at 0.5)"))


@given(
    st.floats(0.2, 5.0),
    st.floats(0.05, math.pi),
    st.floats(0.99, 3.0),
    st.lists(st.floats(0.3, 3.0), max_size=4),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    st.sampled_from([0.0, 1e-9, 1e-3, 1e-2]),
)
@settings(max_examples=300, deadline=None)
def test_ratio_round_admit_sets_no_window_flag_the_first_step_left(a0, b0, grow, xs, fracs, tol):
    # a round asks admit only at entries c2 < reach - 2*tol, and the reach
    # (2*pi - b0)/a0 of its first step's candidate passed the window check
    # im_bound + band.  There no length is window short that was not at the
    # first entry c: the lengths x*pi/c cross c2*a = pi, and the lengths
    # (pi + tol/2)/c2 lie in the slack above pi, window short only past reach
    c, reach = b0 / a0, (TWO_PI - b0) / a0
    w = ZeroWindow(0, reach * grow)
    ctx = _SearchCtx(w=w, tol=tol, band=_band(w, tol))
    if reach > w.im_bound + ctx.band:  # the first step's candidate is window short
        return
    c2s = [c + f * (reach - 2.0 * tol - c) for f in fracs]
    c2s = [c2 for c2 in c2s if c < c2 < reach - 2.0 * tol]
    avail = [[a0, 2]] + [[x * PI / c, 1] for x in xs]
    avail += [[(PI + tol / 2) / c2, 1] for c2 in c2s]
    view = RealMultiset.from_values([c])._view()
    _candidates(view, avail, c, 0, ctx)  # the first step's own call
    short = ctx.window_short
    first = (c, recovery._Candidate("ratio", 0, a0, b0, (1, -1), 1, 1, 7), 1)
    admit = recovery._forced(view, avail, first, ctx)
    for c2 in c2s:
        admit(c2, 1)
        assert ctx.window_short is short
