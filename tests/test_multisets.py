"""Tolerance-aware multisets: canonical form, subtraction, greedy matching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhspec import ComplexMultiset, DomainError, MatchResult, RealMultiset, UnderflowError
from lhspec.multisets import _holds, match_multisets, multiset_equal

from helpers import (
    cluster_reference,
    complex_cluster_reference,
    match_reference,
    subtract_reference,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_canonical_order_independent_of_insertion():
    a = RealMultiset([(2.0, 1), (1.0, 3), (5.0, 2)])
    b = RealMultiset([(5.0, 2), (1.0, 3), (2.0, 1)])
    assert a == b
    assert a.entries == ((1.0, 3), (2.0, 1), (5.0, 2))


def test_clustering_snaps_to_smallest_member():
    # entries within tol merge; the cluster head (smallest after sorting) wins
    ms = RealMultiset([(1.0 + 5e-10, 2), (1.0, 1)], tol=1e-9)
    assert ms.entries == ((1.0, 3),)


def test_real_and_complex_multisets_never_equal():
    assert RealMultiset() != ComplexMultiset()
    assert RealMultiset([(1.0, 1)]) != ComplexMultiset([(1.0, 1)])
    assert repr(ComplexMultiset([(1j, 2)])) == "ComplexMultiset({1jx2})"


def test_zero_multiplicity_entries_dropped():
    assert RealMultiset([(1.0, 0), (2.0, 1)]).entries == ((2.0, 1),)


def test_negative_multiplicity_rejected():
    with pytest.raises(ValueError):
        RealMultiset([(1.0, -1)])
    # int() would truncate 1.5 to 1, and raise OverflowError or ValueError otherwise
    for mult in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="multiplicity must be an integer"):
            RealMultiset([(1.0, mult)])
        with pytest.raises(ValueError, match="multiplicity must be an integer"):
            ComplexMultiset([(1j, mult)])
    assert RealMultiset([(1.0, 2.0)]) == RealMultiset([(1.0, 2)])


def test_totals_and_values():
    ms = RealMultiset([(1.0, 2), (3.0, 1)])
    assert ms.total() == 3
    assert ms.values() == [1.0, 1.0, 3.0]
    assert len(ms) == 2 and bool(ms)
    assert not RealMultiset()


def test_restrict_and_min_positive():
    ms = RealMultiset([(-4.0, 1), (-1.0, 2), (0.0, 1), (2.0, 1), (9.0, 1)])
    assert ms.min_positive() == (2.0, 1)
    assert ms.min_positive(floor=2.0) == (9.0, 1)
    assert RealMultiset([(-1.0, 1)]).min_positive() is None


def test_count_near_window():
    ms = RealMultiset([(1.0, 2), (1.5, 1), (2.0, 4)])
    assert ms.count_near(1.0, 0.6) == 3
    assert ms.count_near(1.75, 0.3) == 5
    assert ms.count_near(10.0, 1.0) == 0


@pytest.mark.parametrize(
    "pairs, values, tol",
    [
        ([(1.0, 1), (1.1, 1)], [1.05, 1.0, 1.2], 0.1),  # two count-1 entries in one window
        ([(1.0, 1), (2.0, 3)], [2.4, 5.0, 1e308], 0.5),  # past the last entry
        ([(1.0, 1), (2.0, 1), (3.0, 2)], [1.5, 2.5, 0.5], 0.5),  # window ends on entries
        ([(3.0, 2)], [2.0, 2.5, 3.0, 3.5, 4.0], 0.5),  # one entry
        ([], [0.0, 1.0], 0.5),
        # a NaN entry sorts last and is never inside a window: not (nan > v + tol)
        # would count it as the second entry at 1.0 and as the only one at 5.0
        ([(1.0, 1), (math.nan, 1)], [1.0, 5.0], 0.5),
    ],
    ids=["two_in_window", "past_last", "ends_on_entries", "one_entry", "empty", "nan_last"],
)
def test_window_hits_agree_with_count_near_and_the_walk(pairs, values, tol):
    ms = RealMultiset(pairs, tol=0.0)
    vals = np.array(values)
    view = ms._view()
    for need in (1, 2):
        held = [ms.count_near(v, tol) >= need for v in values]
        assert [_holds(view, v, need, tol) for v in values] == held
        triples = [(v, need, False) for v in values]
        try:
            want = ms._subtract_exact(triples, tol)
        except UnderflowError as exc:
            with pytest.raises(UnderflowError) as got:
                ms._subtract(vals, need, tol, np.zeros(vals.size, dtype=bool), lambda: triples)
            assert str(got.value) == str(exc)
        else:
            got = ms._subtract(vals, need, tol, np.zeros(vals.size, dtype=bool), lambda: triples)
            assert got.entries == want.entries


def test_subtract_exact_and_underflow():
    ms = RealMultiset([(1.0, 2), (2.0, 1)])
    out = ms.subtract([(1.0, 1)], tol=1e-9)
    assert out.entries == ((1.0, 1), (2.0, 1))
    with pytest.raises(UnderflowError):
        ms.subtract([(2.0, 2)], tol=1e-9)
    # partial=True forgives the shortfall instead
    out = ms.subtract([(2.0, 5)], tol=1e-9, partial=True)
    assert out.entries == ((1.0, 2),)


def test_subtract_rejects_negative_or_fractional_wants():
    ms = RealMultiset([(1.0, 1)])
    with pytest.raises(ValueError):  # a negative want would add a copy
        ms.subtract([(1.0, -1)], 0.0)
    with pytest.raises(ValueError):  # a fraction would be truncated
        ms.subtract([(1.0, 0.5)], 0.0)
    assert ms.subtract([(1.0, 1.0)], 0.0).total() == 0
    for tol in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            ms.subtract([(1.0, 1)], tol)


def test_subtract_drains_by_proximity():
    # two stored entries inside the window: the closer one is drained first
    ms = RealMultiset([(1.0, 1), (1.0 + 4e-10, 1)], tol=0.0)
    out = ms.subtract([(1.0 + 4e-10, 1)], tol=1e-9)
    assert out.entries == ((1.0, 1),)


# stored values on a grid finer than the larger tolerances, so a window can
# hold several entries; pair values on a half grid, so several pairs can hit
# one entry and some fall between entries
grid_pairs = st.lists(
    st.tuples(st.integers(-8, 8).map(lambda i: i * 0.25), st.integers(1, 3)), max_size=10
)
query_pairs = st.lists(
    st.tuples(
        st.integers(-16, 16).map(lambda i: i * 0.125),
        # wants near 2**62 reach both sides of the int64 exactness rule
        st.integers(0, 4) | st.integers(2**61, 2**62),
    ),
    max_size=10,
)


@given(
    st.lists(st.tuples(st.integers(-8, 8).map(lambda i: i * 0.25), st.integers(0, 3)), max_size=12),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 2.0]),
)
@settings(max_examples=300, deadline=None)
def test_canonical_form_matches_sequential_clustering(pairs, tol):
    # runs of neighbours within tol that span more than tol (0.3 on this grid)
    # take the loop itself; the others are merged without it
    assert RealMultiset(pairs, tol).entries == tuple(cluster_reference(pairs, tol))


@given(
    grid_pairs,
    st.lists(st.integers(-20, 20).map(lambda i: i * 0.125), max_size=10),
    st.sampled_from([0.0, 0.1, 0.125, 0.3, 0.6]),
    st.lists(st.integers(1, 2), min_size=10, max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_holds_matches_count_near(stored, values, tol, needs):
    # counts are at least 1, so for needs of 1 or 2 two entries in a window always do
    ms = RealMultiset(stored, tol=0.0)
    view = ms._view()
    held = [ms.count_near(v, tol) >= m for v, m in zip(values, needs)]
    assert [_holds(view, v, m, tol) for v, m in zip(values, needs)] == held


def subtract_arrays(ms, pairs, tol, partial):
    """The pairs through the vectorised ``_subtract``: one int when all wants agree."""
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    wants = [m for _, m in pairs]
    wants = wants[0] if len(set(wants)) == 1 else np.array(wants, dtype=np.int64)
    triples = [(v, m, partial) for v, m in pairs]
    return ms._subtract(values, wants, tol, np.full(len(pairs), partial), lambda: triples)


@given(grid_pairs, query_pairs, st.sampled_from([0.0, 0.1, 0.3, 0.6]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_subtract_matches_sequential_reference(stored, pairs, tol, partial):
    ms = RealMultiset(stored, tol=0.0)
    for subtract in (RealMultiset.subtract, subtract_arrays):
        try:
            want = subtract_reference(ms.entries, pairs, tol, partial)
        except UnderflowError as exc:
            with pytest.raises(UnderflowError) as got:
                subtract(ms, pairs, tol, partial)
            assert str(got.value) == str(exc)
        else:
            assert subtract(ms, pairs, tol, partial).entries == want


@given(grid_pairs, grid_pairs, st.sampled_from([0.0, 0.1, 0.3, 0.6]))
@settings(max_examples=300, deadline=None)
def test_match_matches_expanded_reference(xs, ys, tol):
    a, b = RealMultiset(xs, tol=0.0), RealMultiset(ys, tol=0.0)
    assert tuple(match_multisets(a, b, tol)) == match_reference(a.values(), b.values(), tol)


def test_total_multiplicity_must_stay_below_two_to_63():
    with pytest.raises(DomainError):
        RealMultiset([(1.0, 2**62), (2.0, 2**62)])
    with pytest.raises(DomainError):
        RealMultiset([(1.0, 2**63)])
    ms = RealMultiset([(1.0, 2**62), (2.0, 2**62 - 1)])
    assert ms.total() == 2**63 - 1


def test_match_huge_multiplicities_without_expanding():
    a = RealMultiset([(1.0, 2**62), (2.0, 3)])
    b = RealMultiset([(1.0, 2**62 - 1), (1.5, 1), (2.0, 3)])
    assert match_multisets(a, a, 0.0) == MatchResult(True, 0.0, None)
    assert match_multisets(a, b, 0.0) == MatchResult(False, 0.5, 1.0)
    c = RealMultiset([(1.0, 2**62)])
    assert match_multisets(a, c, 0.0) == MatchResult(False, math.inf, 2.0)


def test_complex_multiset_canonical_and_merge():
    zs = ComplexMultiset([(1 + 2j, 1), (1 + 2j + 1e-12j, 2), (-1 + 0j, 1)])
    assert zs.entries == ((-1 + 0j, 1), (1 + 2j, 3))
    assert zs.total() == 4


# parts on a quarter grid and -0.0: runs of near neighbours can span more
# than tol, a head can lie within tol of the head before it while apart
# from its own predecessor, and 0.0 and -0.0 coincide
complex_part = st.integers(-6, 6).map(lambda i: i * 0.25) | st.just(-0.0)


@given(
    st.lists(
        st.tuples(st.builds(complex, complex_part, complex_part), st.integers(0, 3)), max_size=12
    ),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 2.0]),
)
@settings(max_examples=400, deadline=None)
def test_complex_canonical_form_matches_sequential_walk(pairs, tol):
    # repr, so the sign of a zero part counts
    assert repr(ComplexMultiset(pairs, tol).entries) == repr(complex_cluster_reference(pairs, tol))


def test_complex_clusters_follow_the_walk():
    # (0.6+0.9j) is apart from its predecessor but within tol of the head 0j
    pairs = [(0j, 1), (0.5 - 0.9j, 1), (0.6 + 0.9j, 1), (5 + 3j, 2)]
    assert ComplexMultiset(pairs, tol=1.0).entries == ((0j, 3), (5 + 3j, 2))
    assert ComplexMultiset(pairs, tol=1.0).entries == complex_cluster_reference(pairs, 1.0)
    # equal values keep insertion order: the first of 0.0 and -0.0 represents
    assert repr(ComplexMultiset([(complex(0.0, -0.0), 1), (0j, 1)]).entries) == "((-0j, 2),)"
    assert repr(ComplexMultiset([(0j, 1), (complex(0.0, -0.0), 1)]).entries) == "((0j, 2),)"


def test_complex_multiset_rejects_what_the_real_one_does():
    pairs = [(2j, -1), (1j, -2), (0j, 1)]
    with pytest.raises(ValueError) as got:
        ComplexMultiset(pairs)
    with pytest.raises(ValueError) as want:
        complex_cluster_reference(pairs, 1e-9)
    assert str(got.value) == str(want.value) == "negative multiplicity -2 for value 1j"
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ComplexMultiset([(1j, 1)], tol)
        with pytest.raises(ValueError):
            RealMultiset([(1.0, 1)], tol)
    with pytest.raises(DomainError):
        ComplexMultiset([(1j, 2**62), (2j, 2**62)])


def test_complex_restrict_im_and_on_line():
    zs = ComplexMultiset([(0 + 5j, 1), (0 - 1j, 2), (-1 + 0.5j, 1)])
    assert zs.restrict_im(1.0).entries == ((-1 + 0.5j, 1), (0 - 1j, 2))
    line = zs.on_line(0.0)
    assert line.entries == ((-1.0, 2), (5.0, 1))
    assert zs.on_line(-1.0).entries == ((0.5, 1),)


# spec'd behaviors of the matching predicate


def test_match_order_independence():
    a = RealMultiset.from_values([1.0, 1.0, 2.0])
    b = RealMultiset.from_values([2.0, 1.0, 1.0])
    assert multiset_equal(a, b, 0.0)


def test_match_multiplicity_mismatch():
    a = RealMultiset.from_values([1.0])
    b = RealMultiset.from_values([1.0, 1.0])
    assert not multiset_equal(a, b, 0.0)
    res = match_multisets(a, b, 0.0)
    assert res == MatchResult(False, math.inf, 1.0)


def test_match_within_tolerance():
    a = RealMultiset.from_values([1.0, 2.0])
    b = RealMultiset.from_values([1.0 + 1e-10, 2.0 - 1e-10])
    assert multiset_equal(a, b, 1e-9)
    res = match_multisets(a, b, 1e-9)
    assert res.equal and res.max_distance <= 1e-9


def test_match_witness_is_worst_pair():
    a = RealMultiset.from_values([1.0, 5.0])
    b = RealMultiset.from_values([1.0, 5.5])
    res = match_multisets(a, b, 1e-9)
    assert not res.equal
    assert res.witness == 5.0
    assert res.max_distance == pytest.approx(0.5)


def test_negative_tolerance_rejected():
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            multiset_equal(RealMultiset([(1.0, 1)]), RealMultiset([(5.0, 1)]), tol)


def test_values_further_apart_than_the_float_range_are_distinct():
    # 1.8e308 - (-1e292) overflows to inf, which is past every tolerance
    rows = [(1.7976931348623157e308, 1), (-9.9792015476736e291, 2)]
    ms = RealMultiset(rows)
    assert ms.entries == tuple(sorted(rows))
    assert ComplexMultiset((complex(v, 0.0), m) for v, m in rows).total() == 3
    a, b = RealMultiset(rows[:1]), RealMultiset([(-1.7976931348623157e308, 1)])
    assert match_multisets(a, b, 1e-9) == MatchResult(False, math.inf, 1.7976931348623157e308)


@given(st.lists(finite, max_size=12))
@settings(max_examples=200, deadline=None)
def test_equal_is_reflexive_at_tol_zero(values):
    ms = RealMultiset.from_values(values, tol=0.0)
    assert multiset_equal(ms, ms, 0.0)


@given(st.lists(finite, max_size=10), st.lists(finite, max_size=10),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_equal_is_symmetric(xs, ys, tol):
    a = RealMultiset.from_values(xs, tol=0.0)
    b = RealMultiset.from_values(ys, tol=0.0)
    assert multiset_equal(a, b, tol) == multiset_equal(b, a, tol)


@given(st.lists(finite, max_size=10), st.lists(finite, max_size=10),
       st.lists(finite, max_size=10))
@settings(max_examples=200, deadline=None)
def test_equal_is_transitive_at_tol_zero(xs, ys, zs):
    a = RealMultiset.from_values(xs, tol=0.0)
    b = RealMultiset.from_values(ys, tol=0.0)
    c = RealMultiset.from_values(zs, tol=0.0)
    if multiset_equal(a, b, 0.0) and multiset_equal(b, c, 0.0):
        assert multiset_equal(a, c, 0.0)


@given(st.lists(st.tuples(finite, st.integers(1, 3)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_subtract_then_check_empty(pairs):
    ms = RealMultiset(pairs, tol=0.0)
    assert ms.subtract(list(ms.entries), tol=0.0).total() == 0
