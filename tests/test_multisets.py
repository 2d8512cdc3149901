"""Tolerance-aware multisets: canonical form, subtraction, greedy matching."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhspec import ComplexMultiset, DomainError, MatchResult, RealMultiset, UnderflowError
from lhspec.multisets import match_multisets, multiset_equal

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


def test_subtract_exact_and_underflow():
    ms = RealMultiset([(1.0, 2), (2.0, 1)])
    out = ms.subtract([(1.0, 1)], tol=1e-9)
    assert out.entries == ((1.0, 1), (2.0, 1))
    with pytest.raises(UnderflowError):
        ms.subtract([(2.0, 2)], tol=1e-9)
    # partial=True forgives the shortfall instead
    out = ms.subtract([(2.0, 5)], tol=1e-9, partial=True)
    assert out.entries == ((1.0, 2),)


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
    st.tuples(st.integers(-16, 16).map(lambda i: i * 0.125), st.integers(0, 4)), max_size=10
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


@given(grid_pairs, query_pairs, st.sampled_from([0.0, 0.1, 0.3, 0.6]), st.booleans())
@settings(max_examples=400, deadline=None)
def test_subtract_matches_sequential_reference(stored, pairs, tol, partial):
    ms = RealMultiset(stored, tol=0.0)
    try:
        want = subtract_reference(ms.entries, pairs, tol, partial)
    except UnderflowError as exc:
        with pytest.raises(UnderflowError) as got:
            ms.subtract(pairs, tol, partial)
        assert str(got.value) == str(exc)
    else:
        assert ms.subtract(pairs, tol, partial).entries == want


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
