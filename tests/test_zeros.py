"""Windowed zero multisets and trace subtraction."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lhspec import (
    ComplexMultiset,
    DomainError,
    LatticePoint,
    PrimitiveClass,
    RealMultiset,
    Spectrum,
    UnderflowError,
    ZeroWindow,
    class_trace,
    euler_factor,
    strip_k0,
    zero_line,
    zero_multiset,
)
from lhspec import zeros
from lhspec.zeros import subtract_trace

from helpers import (
    TWO_PI,
    rand_spectrum,
    strip_k0_reference,
    subtract_trace_reference,
    trace_reference,
    zero_multiset_entries_reference,
)


def brute_zeros(spec, tau_m, w, n_span=2000):
    """Oracle: enumerate Eq-style zeros with a wide fixed n scan, then window."""
    pairs = []
    for a, b, mult in spec:
        for k in range(-tau_m, tau_m + 1):
            for m1 in range(w.max_m + 1):
                for m2 in range(w.max_m + 1 - m1):
                    for n in range(-n_span, n_span + 1):
                        s2 = (-b * (m1 - m2 + k) - TWO_PI * n) / a
                        if abs(s2) <= w.im_bound:
                            pairs.append((complex(-(m1 + m2), s2), mult))
    return ComplexMultiset(pairs)


def test_window_validation():
    with pytest.raises(DomainError):
        zero_line(Spectrum(), 0, ZeroWindow(-1, 5.0))
    with pytest.raises(DomainError):
        zero_line(Spectrum(), 0, ZeroWindow(0, 0.0))
    with pytest.raises(DomainError):
        class_trace(-1.0, 0.0, (0,), ZeroWindow(0, 5.0))
    # int() would raise ValueError or OverflowError, or compute at tau 1
    for max_m in (math.nan, math.inf, 1.5):
        with pytest.raises(DomainError, match="max_m must be a nonnegative integer"):
            zero_line(Spectrum(), 0, ZeroWindow(max_m, 10.0))
    spec = Spectrum([(1.0, 0.5, 1)])
    for generate in (zero_line, zero_multiset):
        for tau in (1.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="twist index must be a nonnegative integer"):
                generate(spec, tau, ZeroWindow(0, 10.0))
    for a in (math.nan, math.inf):
        with pytest.raises(DomainError, match="length must be positive"):
            class_trace(a, 0.5, (1,), ZeroWindow(0, 10.0))


@pytest.mark.parametrize(
    "max_m, im_bound, message",
    [
        (-1, 5.0, "window max_m must be a nonnegative integer, got -1"),
        (1.5, 5.0, "window max_m must be a nonnegative integer, got 1.5"),
        (0, 0.0, "window im_bound must be positive, got 0.0"),
        (0, math.nan, "window im_bound must be positive, got nan"),
    ],
    ids=["max_m_negative", "max_m_fraction", "im_bound_zero", "im_bound_nan"],
)
def test_window_is_checked_when_made(max_m, im_bound, message):
    with pytest.raises(DomainError) as caught:
        ZeroWindow(max_m, im_bound)
    assert str(caught.value) == message
    with pytest.raises(DomainError) as caught:
        ZeroWindow(0, 5.0)._replace(max_m=max_m, im_bound=im_bound)
    assert str(caught.value) == message


def test_window_holds_its_checked_values():
    w = ZeroWindow(1.0, 5)
    assert w == (1, 5.0)
    assert type(w.max_m) is int and type(w.im_bound) is float


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_non_finite_holonomy_has_no_n_range(b):
    # math.ceil of a NaN or infinite bound would raise ValueError or OverflowError
    with pytest.raises(DomainError, match="no finite n-range"):
        class_trace(1.0, b, (1,), ZeroWindow(0, 10.0))


def test_zero_multiset_spec_example():
    # a = 2pi, b = 0: s2 = -n, so the window |s2| <= 2.5 holds n in -2..2
    spec = Spectrum([(TWO_PI, 0.0, 1)])
    zm = zero_multiset(spec, 0, ZeroWindow(0, 2.5))
    assert zm.entries == (
        (-2j, 1),
        (-1j, 1),
        (0j, 1),
        (1j, 1),
        (2j, 1),
    )
    doubled = zero_multiset(Spectrum([(TWO_PI, 0.0, 2)]), 0, ZeroWindow(0, 2.5))
    assert [v for v, _ in doubled] == [v for v, _ in zm]
    assert all(m == 2 for _, m in doubled)


def test_zero_multiset_empty():
    assert not zero_multiset(Spectrum(), 1, ZeroWindow(2, 5.0))


def test_zero_multiset_total_past_int64_across_lines():
    # 9 zeros of multiplicity 2**60: 3 on Re(s) = 0 and 6 on Re(s) = -1, so
    # neither line reaches 2**63 = 8 * 2**60, but the two lines together do
    with pytest.raises(DomainError, match="total multiplicity reaches 2\\*\\*63"):
        zero_multiset(Spectrum([(1.0, 0.5, 2**60)]), 0, ZeroWindow(1, 10.0))


def test_zero_line_pure_length_example():
    zl = zero_line(Spectrum([(1.0, 0.0, 1)]), 0, ZeroWindow(0, 10.0))
    assert zl.entries == ((-TWO_PI, 1), (0.0, 1), (TWO_PI, 1))


def test_zero_line_with_twist_matches_brute_force():
    spec = Spectrum([(2.0, 1.0, 1)])
    w = ZeroWindow(1, 4.0)
    zl = zero_line(spec, 1, w)
    want = []
    for k in (-1, 0, 1):
        for n in range(-50, 51):
            v = (-1.0 * k - TWO_PI * n) / 2.0
            if abs(v) <= 4.0:
                want.append(v)
    assert zl == RealMultiset.from_values(want)


def test_zero_multiset_matches_brute_force_oracle(rng):
    for _ in range(10):
        spec = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=4.0, b_margin=0.0)
        w = ZeroWindow(int(rng.integers(0, 3)), float(rng.uniform(3.0, 10.0)))
        assert zero_multiset(spec, 1, w) == brute_zeros(spec, 1, w)


# commensurable lengths and holonomies 0, -0.0 and pi make coincident zeros,
# where the first generated of 0.0 and -0.0 represents a cluster
zero_rows = st.lists(
    st.tuples(
        st.sampled_from([1.0, 2.0, 0.5, math.pi]) | st.floats(0.3, 5.0),
        st.sampled_from([0.0, -0.0, math.pi]) | st.floats(0.0, TWO_PI, exclude_max=True),
        st.integers(1, 3),
    ),
    max_size=4,
)


@given(zero_rows, st.integers(0, 2), st.integers(0, 3), st.floats(0.5, 30.0))
@example([(1.0, 0.0, 1)], 0, 1, 5.0)  # the Re(s) = 0 line is 0.0, never -0.0
@example([(1.0, -0.0, 1), (2.0, math.pi, 2)], 1, 3, 7.0)  # four lines, zeros of both signs
@settings(max_examples=200, deadline=None)
def test_zero_multiset_matches_pointwise_reference(rows, tau_m, max_m, im_bound):
    spec, w = Spectrum(rows), ZeroWindow(max_m, im_bound)
    want = zero_multiset_entries_reference(spec, tau_m, w)
    assert repr(zero_multiset(spec, tau_m, w).entries) == repr(want)


def test_zero_multiset_builds_every_class_in_one_traces_call(monkeypatch):
    spec, w = Spectrum([(1.0, 0.5, 1), (1.5, 2.0, 2), (2.0, 0.0, 1)]), ZeroWindow(2, 10.0)
    want = zero_multiset(spec, 1, w)
    calls, real = [], zeros._traces

    def counted(classes, *args):
        calls.append(list(classes))
        return real(calls[-1], *args)

    monkeypatch.setattr(zeros, "_traces", counted)
    assert zero_multiset(spec, 1, w) == want
    assert calls == [[(1.0, 0.5), (1.5, 2.0), (2.0, 0.0)]]


def test_zero_line_is_the_re_zero_slice(rng):
    spec = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=3.0)
    w = ZeroWindow(2, 8.0)
    zm = zero_multiset(spec, 1, w)
    assert zm.on_line(0.0) == zero_line(spec, 1, w)


def test_every_zero_annihilates_its_factor(rng):
    for _ in range(5):
        spec = rand_spectrum(rng, max_classes=3, lmin=0.5, lmax=3.0)
        w = ZeroWindow(2, 8.0)
        for cls in spec:
            a, b = cls.length, cls.holonomy
            for k in (-1, 0, 1):
                for m1 in range(w.max_m + 1):
                    for m2 in range(w.max_m + 1 - m1):
                        for n in range(-3, 4):
                            s2 = (-b * (m1 - m2 + k) - TWO_PI * n) / a
                            s = complex(-(m1 + m2), s2)
                            f = euler_factor(k, LatticePoint(m1, m2), cls, s)
                            assert abs(f) < 1e-12


def test_inverse_closure_leaves_zero_line_invariant(rng):
    for _ in range(10):
        spec = rand_spectrum(rng, max_classes=4, lmin=0.5, lmax=3.0)
        w = ZeroWindow(1, float(rng.uniform(5.0, 20.0)))
        a = zero_line(spec, 1, w)
        b = zero_line(spec.inverse(), 1, w)
        assert a.total() == b.total()
        paired = [abs(x - y) for x, y in zip(a.values(), b.values())]
        assert max(paired, default=0.0) < 1e-9


def test_window_monotonicity(rng):
    spec = rand_spectrum(rng, max_classes=4, lmin=0.5, lmax=3.0)
    small = ZeroWindow(1, 6.0)
    big = ZeroWindow(1, 14.0)
    zm_small = zero_multiset(spec, 1, small)
    zm_big = zero_multiset(spec, 1, big)
    assert zm_big.total() >= zm_small.total()
    assert zm_big.restrict_im(6.0) == zm_small


def test_generation_order_invariance():
    classes = [(1.3, 0.4, 1), (0.7, 2.0, 2), (2.9, 5.1, 1)]
    w = ZeroWindow(1, 9.0)
    a = zero_multiset(Spectrum(classes), 1, w)
    b = zero_multiset(Spectrum(classes[::-1]), 1, w)
    assert a == b


def test_class_trace_values_and_window():
    w = ZeroWindow(0, 10.0)
    tr = class_trace(2.0, 0.0, (0,), w)
    assert sorted(tr) == [-3 * math.pi, -2 * math.pi, -math.pi, 0.0, math.pi,
                          2 * math.pi, 3 * math.pi]
    assert all(abs(v) <= 10.0 for v in tr)
    # k = +1/-1 pair of a twisted class
    tr = class_trace(1.0, 1.0, (1, -1), ZeroWindow(0, 3.0))
    assert sorted(tr) == [-1.0, 1.0]


def test_strip_k0_leaves_only_twisted_traces():
    spec = Spectrum([(2.0, 1.0, 1)])
    w = ZeroWindow(0, 4.0)
    zl = zero_line(spec, 1, w)
    rest = strip_k0(zl, RealMultiset([(2.0, 1)]), w)
    want = RealMultiset.from_values(class_trace(2.0, 1.0, (1, -1), w))
    assert rest == want


def test_strip_k0_b_zero_removes_everything():
    spec = Spectrum([(1.5, 0.0, 2)])
    w = ZeroWindow(0, 12.0)
    zl = zero_line(spec, 0, w)
    assert strip_k0(zl, spec.lengths(), w).total() == 0


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([(1.0, 1.5), (2.0, 1)], ValueError),  # a fractional count
        ([(1.0, -1), (2.0, 1)], ValueError),
        ([(1.0, 2**63), (2.0, 1)], DomainError),  # past the int64 counts
    ],
)
def test_strip_k0_checks_plain_length_pairs(pairs, error):
    # (length, multiplicity) pairs are checked as RealMultiset checks them
    zl = zero_line(Spectrum([(1.0, 0.5, 1)]), 1, ZeroWindow(0, 10.0))
    with pytest.raises(error, match="multiplicit"):
        strip_k0(zl, pairs, ZeroWindow(0, 10.0))


def test_strip_k0_takes_plain_length_pairs():
    spec = Spectrum([(1.0, 0.5, 1), (2.0, 1.0, 2)])
    w = ZeroWindow(0, 10.0)
    zl = zero_line(spec, 1, w)
    assert strip_k0(zl, [(1.0, 1), (2.0, 2)], w) == strip_k0(zl, spec.lengths(), w)


def test_strip_k0_empty_lengths_is_noop():
    zl = RealMultiset.from_values([0.5, -0.5])
    out = strip_k0(zl, RealMultiset(), ZeroWindow(0, 2.0))
    assert out == zl


def test_strip_k0_takes_the_tolerance():
    # every nonzero point moved by 1e-8: only a tolerance above that finds the k = 0 trace
    spec = Spectrum([(2.0, 1.0, 1)])
    w = ZeroWindow(0, 12.0)
    moved = RealMultiset([(v + 1e-8 if v else v, m) for v, m in zero_line(spec, 1, w)])
    with pytest.raises(UnderflowError):
        strip_k0(moved, spec.lengths(), w)
    rest = strip_k0(moved, spec.lengths(), w, tol=1e-6)
    assert rest.total() == len(class_trace(2.0, 1.0, (1, -1), w))


@pytest.mark.parametrize(
    "build",
    [
        lambda spec, w: zero_line(spec, 0, w),
        lambda spec, w: zero_multiset(spec, 0, w),
        lambda spec, w: class_trace(1e300, 0.5, (0,), w),
        lambda spec, w: subtract_trace(RealMultiset(), 1e300, 0.5, (0,), 1, w),
    ],
    ids=["zero_line", "zero_multiset", "class_trace", "subtract_trace"],
)
def test_window_of_2_63_points_is_counted_not_allocated(build):
    # im_bound * length is finite, so the n-range exists, but it holds about 1e300 points
    with pytest.raises(DomainError, match="point cap"):
        build(Spectrum([(1e300, 0.5, 1)]), ZeroWindow(0, 10.0))


def test_point_cap_counts_every_row_with_its_padding(monkeypatch):
    # one k = 0 row of length 1 in |Im| <= 10 holds n = -1..1; padded, 5 points
    w = ZeroWindow(0, 10.0)
    monkeypatch.setattr(zeros, "_POINT_CAP", 10)
    assert len(class_trace(1.0, 0.0, (0, 0), w)) == 6
    with pytest.raises(DomainError, match="point cap"):
        subtract_trace(RealMultiset(), 1.0, 0.0, (0, 0), 0, w)
    monkeypatch.setattr(zeros, "_POINT_CAP", 11)
    assert subtract_trace(RealMultiset(), 1.0, 0.0, (0, 0), 0, w) == RealMultiset()


def test_zero_multiset_counts_its_points_before_the_loop(monkeypatch):
    # (2m+1)(M+1)(M+2)/2 = 3 progressions of at most 10/pi + 1 = 4.18 points
    # each: 12.5 points counted, 9 built.  The count comes before any line
    spec = Spectrum([(1.0, 0.5, 1)])
    w = ZeroWindow(1, 10.0)
    assert zero_multiset(spec, 0, w).total() == 9
    monkeypatch.setattr(zeros, "_POINT_CAP", 13)
    assert zero_multiset(spec, 0, w).total() == 9
    monkeypatch.setattr(zeros, "_POINT_CAP", 12)
    monkeypatch.setattr(zeros, "_traces", None)
    with pytest.raises(DomainError, match="point cap"):
        zero_multiset(spec, 0, w)
    with pytest.raises(DomainError, match="point cap"):  # no float of 10**400 progressions
        zero_multiset(spec, 0, ZeroWindow(10**200, 10.0))
    assert zero_multiset(Spectrum(), 0, ZeroWindow(10**200, 10.0)).total() == 0
    # a window past the float range is named as such, before any class's loop
    with pytest.raises(DomainError, match="no finite n-range for class \\(1e\\+308"):
        zero_multiset(Spectrum([(1.0, 0.5, 1), (1e308, 0.5, 1)]), 0, ZeroWindow(10**6, 10.0))


@given(
    st.lists(
        st.tuples(
            st.floats(1e-3, 1e3),
            st.sampled_from([0.0, -0.0, math.pi, 5e-324])
            | st.floats(0.0, TWO_PI, exclude_min=True, exclude_max=True),
        ),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([(1, -1), (-1, 0, 1), (0,), (-1,), (1, 1, -1), (-2, -1, 0, 1, 2)])
    | st.lists(st.integers(-2, 2), max_size=4),
    st.sampled_from([0, 1]),
    st.floats(0.1, 100.0),
    st.none() | st.tuples(st.integers(-2, 2), st.integers(-40, 40)),
)
@settings(max_examples=400, deadline=None)
def test_mirrored_traces_equal_the_direct_build(classes, ks, pad, im_bound, edge):
    # edge: a window whose bound is exactly one point (-b*k - 2*n*pi)/a of the first class
    if edge is not None:
        (a, b), (k, n) = classes[0], edge
        im_bound = abs((-b * k - TWO_PI * n) / a) or im_bound
    assume(im_bound * sum(a for a, _ in classes) < 1e5)  # rows of about im_bound * a / pi points
    want = []
    for a, b in classes:
        for k in ks:
            r = zeros._n_range(a, b, k, im_bound)
            n = np.arange(r.start - pad, r.stop + pad, dtype=np.float64)
            want.append((-b * k - TWO_PI * n) / a)
    got = zeros._traces(classes, ks, im_bound, pad)
    # row by row, bit for bit: the sign of a zero counts
    assert [[x.hex() for x in p.tolist()] for p in got] == [
        [x.hex() for x in p.tolist()] for p in want
    ]


def test_trace_past_2_53_is_refused():
    # here n is about 1.5e16, past the exact integers of float64: the points
    # cannot be told apart, and some of them lie above the window bound
    a, b, w = 1.3498382261231665, 9.588272061157066e16, ZeroWindow(0, 23.02506217464817)
    for ks in [(1,), (-1, 1)]:
        with pytest.raises(DomainError, match="past n = 2\\*\\*53"):
            class_trace(a, b, ks, w)
        with pytest.raises(DomainError, match="past n = 2\\*\\*53"):
            subtract_trace(RealMultiset.from_values([1.0]), a, b, ks, 1, w)


def test_point_cap_counts_both_sides_of_a_ratio_round(monkeypatch):
    # the padded k = +1 and k = -1 rows of two classes, each counted from its own n-range
    w = ZeroWindow(0, 10.0)
    rows = [(1.0, 0.5, 1), (2.0, 1.3, 1)]
    count = sum(len(zeros._n_range(a, b, k, w.im_bound)) + 2 for a, b, _ in rows for k in (1, -1))
    ms = RealMultiset.from_values(class_trace(1.0, 0.5, (1, -1), w) + class_trace(2.0, 1.3, (1, -1), w))
    monkeypatch.setattr(zeros, "_POINT_CAP", count)
    with pytest.raises(DomainError, match="point cap"):
        zeros._subtract_traces(ms, rows, (1, -1), w, 1e-9)
    assert zeros._subtract_traces(ms, rows, (1, -1), w, 1e-9, True) is None
    monkeypatch.setattr(zeros, "_POINT_CAP", count + 1)
    assert zeros._subtract_traces(ms, rows, (1, -1), w, 1e-9).total() == 0


def test_strip_k0_mismatched_lengths_underflows():
    spec = Spectrum([(2.0, 1.0, 1)])
    w = ZeroWindow(0, 6.0)
    zl = zero_line(spec, 1, w)
    with pytest.raises(UnderflowError):
        strip_k0(zl, RealMultiset([(3.0, 1)]), w)


def test_strip_k0_is_one_subtraction(monkeypatch):
    spec = Spectrum([(1.0, 0.5, 2), (1.5, 0.0, 1), (3.0, math.pi, 1)])
    w = ZeroWindow(0, 30.0)
    zl = zero_line(spec, 1, w)
    calls = []
    real = RealMultiset._subtract

    def counted(self, *args):
        calls.append(len(args[0]))
        return real(self, *args)

    monkeypatch.setattr(RealMultiset, "_subtract", counted)
    rest = strip_k0(zl, spec.lengths(), w)
    assert calls == [sum(len(trace_reference(a, 0.0, (0,), w, pad=1)) for a in (1.0, 1.5, 3.0))]
    assert rest.entries == strip_k0_reference(zl.entries, spec.lengths(), w, 1e-9)


def test_strip_k0_sums_wants_past_2_53_without_the_walk(monkeypatch):
    # about 2**59 copies per entry: float64 sums would round, int64 sums stay exact
    spec = Spectrum([(1.0, 0.5, 1), (2.0, 1.0, 2)])
    w = ZeroWindow(0, 20.0 * math.pi)
    line = zero_line(spec, 1, w)
    f = 2**62 // (4 * line.total())
    line = RealMultiset([(v, m * f) for v, m in line])
    lengths = RealMultiset([(a, m * f) for a, m in spec.lengths()])

    def walk(*args):
        raise AssertionError("the exact walk ran")

    expected = strip_k0_reference(line.entries, lengths, w, 1e-9)
    monkeypatch.setattr(RealMultiset, "_subtract_exact", walk)
    assert strip_k0(line, lengths, w).entries == expected


def test_subtract_trace_strict_interior():
    w = ZeroWindow(0, 10.0)
    data = RealMultiset.from_values(class_trace(2.0, 0.0, (0,), w))
    assert subtract_trace(data, 2.0, 0.0, (0,), 1, w).total() == 0
    # an interior point missing -> underflow
    broken = data.subtract([(math.pi, 1)], tol=0.0)
    with pytest.raises(UnderflowError):
        subtract_trace(broken, 2.0, 0.0, (0,), 1, w)


def test_subtract_trace_rejects_bad_multiplicity_and_tolerance():
    w = ZeroWindow(0, 10.0)
    data = RealMultiset.from_values(class_trace(1.0, 0.0, (0,), w) * 2)
    # int() would remove one copy for 1.5, and -1 would add one
    for mult in (1.5, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="multiplicity must be a nonnegative integer"):
            subtract_trace(data, 1.0, 0.0, (0,), mult, w)
    # a NaN tolerance matches every stored value
    for tol in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            subtract_trace(data, 1.0, 0.0, (0,), 2, w, tol)
    assert subtract_trace(data, 1.0, 0.0, (0,), 2.0, w).total() == 0


@pytest.mark.parametrize("mult", [2**63, 2**64 + 3])
def test_subtract_trace_multiplicity_past_int64(mult):
    # no int64 count holds the want: the walk's Python ints report the shortfall
    w = ZeroWindow(0, 10.0)
    data = RealMultiset.from_values(class_trace(2.0, 0.0, (0,), w))
    with pytest.raises(UnderflowError, match=f"cannot remove {mult - 1} more copies of 9.42"):
        subtract_trace(data, 2.0, 0.0, (0,), mult, w)


def test_subtract_trace_forgives_window_edge():
    # outermost trace point exactly at the boundary: a subtracting side whose
    # recovered length rounds the inclusion differently must still succeed
    a = 0.7310585786300049
    w = ZeroWindow(0, 10 * TWO_PI / a)
    full = class_trace(a, 0.0, (0,), w)
    edge = max(full)
    assert edge == pytest.approx(w.im_bound)
    missing_edge = RealMultiset.from_values(v for v in full if abs(v) < edge)
    out = subtract_trace(missing_edge, a, 0.0, (0,), 1, w)
    assert out.total() == 0


# holonomies where the k = +1 and -1 progressions share values (0, pi and
# their float neighbours) and generic ones; multiplicities past 2**53, where
# a float sum of wants is inexact, up to 2**62
special_b = st.sampled_from(
    [0.0, math.nextafter(0.0, 1.0), math.pi, math.nextafter(math.pi, 0.0)]
)
huge_mult = st.sampled_from([2**53 + 1, 2**58 + 3, 2**62])


@given(
    st.floats(0.5, 60.0),
    st.one_of(special_b, st.floats(0.0, math.pi)),
    st.sampled_from([(0,), (1, -1)]),
    st.one_of(st.integers(0, 3), huge_mult),
    st.floats(3.0, 100.0),
    st.sampled_from([0.0, 1e-10, 0.05, 0.3, 0.6, 1.2]),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_subtract_trace_matches_unique_two_pass_reference(a, b, ks, mult, span, spacings, data):
    # the window holds about span/pi points per progression, and tol is a
    # fraction of their spacing, so from 0.5 on several entries share a
    # window.  The stored side is the padded trace with each point kept,
    # short of a copy, over by one, dropped or moved within tol, plus strays.
    im_bound, tol = span / a, spacings * TWO_PI / a
    w = ZeroWindow(0, im_bound)
    trace = trace_reference(a, b, ks, w, pad=1).tolist()
    moves = data.draw(st.lists(st.integers(0, 5), min_size=len(trace), max_size=len(trace)))
    stored = []
    for v, move in zip(trace, moves):
        if move == 5:
            v += tol * data.draw(st.floats(-1.0, 1.0))
        stored.append((v, (mult, mult - 1 if mult else 0, mult + 1, 0, mult, mult)[move]))
    stray = st.tuples(st.floats(-im_bound, im_bound), st.integers(1, 2))
    stored += data.draw(st.lists(stray, max_size=4))
    while sum(m for _, m in stored) >= 2**63:  # the multiset's total bound
        stored.pop(0)
    ms = RealMultiset(stored, tol=0.0)
    try:
        want = subtract_trace_reference(ms.entries, a, b, ks, mult, w, tol)
    except UnderflowError as exc:
        with pytest.raises(UnderflowError) as got:
            subtract_trace(ms, a, b, ks, mult, w, tol)
        assert str(got.value) == str(exc)
    else:
        assert subtract_trace(ms, a, b, ks, mult, w, tol).entries == want


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
            st.sampled_from([0.0, math.pi]),
            st.one_of(st.integers(1, 3), st.sampled_from([2**53 + 1, 2**58 + 3])),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(3.0, 40.0),
    st.sampled_from([0.0, 1e-10, 1e-3, 0.1, 0.5, 1.0]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_strip_k0_matches_the_per_length_reference(rows, im_bound, tol, data):
    # commensurable lengths whose k = 0 traces share values with each other
    # and, at holonomy 0 or pi, with the k = +1/-1 traces.  The stored side
    # is each padded trace with each point kept, short of a copy, over by
    # one, dropped or moved within tol, plus strays.  One pass walks every
    # interior pair before any edge pair, so it may succeed where the
    # length-by-length walk fails, but never the reverse.
    w = ZeroWindow(0, im_bound)
    trace = [(v, m) for a, b, m in rows for v in trace_reference(a, b, (-1, 0, 1), w, pad=1)]
    moves = data.draw(st.lists(st.integers(0, 5), min_size=len(trace), max_size=len(trace)))
    stored = []
    for (v, m), move in zip(trace, moves):
        if move == 5:
            v += tol * data.draw(st.floats(-1.0, 1.0))
        stored.append((v, (m, m - 1, m + 1, 0, m, m)[move]))
    stray = st.tuples(st.floats(-im_bound, im_bound), st.integers(1, 2))
    stored += data.draw(st.lists(stray, max_size=4))
    while sum(m for _, m in stored) >= 2**63:  # the multiset's total bound
        stored.pop(0)
    ms = RealMultiset(stored, tol=0.0)
    lengths = RealMultiset([(a, m) for a, _, m in rows])
    try:
        want = strip_k0_reference(ms.entries, lengths, w, tol)
    except UnderflowError:
        want = None
    try:
        got = strip_k0(ms, lengths, w, tol).entries
    except UnderflowError:
        got = None
    assert got == want or want is None
