"""Classification of loxodromic matrices and spectrum bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhspec import (
    CartanParams,
    ClassInvariant,
    DomainError,
    NotInGroup,
    NotLoxodromic,
    PrimitiveClass,
    RealMultiset,
    Spectrum,
    classify,
    exp_cartan,
    group_residual,
    in_group,
    inverse_class,
    merge,
    power_class,
    spectrum_difference,
)

from helpers import (
    TWO_PI,
    expected_ratio_pairs,
    normal_form,
    rand_conjugator,
    rand_rotation,
    spectrum_difference_reference,
    spectrum_reference,
)

lengths = st.floats(min_value=0.5, max_value=5.0)
angles = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)


def canonical_b(b):
    return min(b % TWO_PI, TWO_PI - (b % TWO_PI))


def test_group_membership():
    g = normal_form(1.3, 2.0)
    assert in_group(g)
    assert group_residual(g) < 1e-12
    assert not in_group(np.diag([1.0, 1.0, 1.0, -1.0]))  # det -1
    assert not in_group(np.eye(3))
    assert not in_group(2 * np.eye(4))


def test_improper_boost_is_not_in_group():
    # det g = -1 with g^T J g = J and g44 >= 1: a reflection times a boost by 20
    c, s = math.cosh(20.0), math.sinh(20.0)
    g = np.array([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, s], [0, 0, s, c]], dtype=float)
    assert not in_group(g)
    assert in_group(np.diag([-1.0, 1.0, 1.0, 1.0]) @ g)
    with pytest.raises(NotInGroup):
        classify(g)


def test_in_group_reads_the_det_sign_only_where_rounding_resolves_it(rng):
    # an improper conjugate is refused while the entries stay well below
    # 1/eps; past that the upper block's determinant is rounding noise, and
    # proper matrices must not be refused for it
    for a in (10.0, 25.0, 40.0, 100.0):
        for _ in range(20):
            h = rand_conjugator(rng)
            g = h @ normal_form(a, 1.0) @ np.linalg.inv(h)
            assert in_group(g)
            if a < 30.0:
                assert not in_group(np.diag([-1.0, 1.0, 1.0, 1.0]) @ g)


def test_classify_normal_form_is_its_own_invariant():
    a, b = classify(normal_form(2.0, 1.0))
    assert abs(a - 2.0) < 1e-10
    assert abs(b - 1.0) < 1e-10


def test_classify_conjugation_invariant(rng):
    for _ in range(100):
        a = float(rng.uniform(0.5, 5.0))
        b = float(rng.uniform(0.0, TWO_PI))
        k = rand_rotation(rng)
        got_a, got_b = classify(k @ normal_form(a, b) @ k.T)
        assert abs(got_a - a) < 1e-8
        assert abs(got_b - canonical_b(b)) < 1e-8


def test_classify_generic_conjugator(rng):
    for _ in range(30):
        a = float(rng.uniform(0.5, 5.0))
        b = float(rng.uniform(0.0, TWO_PI))
        h = rand_conjugator(rng, boost=1.0)
        got_a, got_b = classify(h @ normal_form(a, b) @ np.linalg.inv(h))
        assert abs(got_a - a) < 1e-8
        assert abs(got_b - canonical_b(b)) < 1e-8


def test_classify_inverse_matrix_agrees_with_inverse_class(rng):
    for _ in range(30):
        a = float(rng.uniform(0.5, 5.0))
        b = float(rng.uniform(0.1, TWO_PI - 0.1))
        k = rand_rotation(rng)
        g = k @ normal_form(a, b) @ k.T
        inv_a, inv_b = inverse_class(*classify(g))
        got_a, got_b = classify(np.linalg.inv(g))
        # a bare matrix reads b only up to orientation, i.e. modulo b <-> 2pi - b
        assert abs(got_a - inv_a) < 1e-8
        assert abs(got_b - canonical_b(inv_b)) < 1e-8


def test_classify_rejects_non_loxodromic():
    with pytest.raises(NotLoxodromic):
        classify(np.eye(4))
    with pytest.raises(NotLoxodromic):
        classify(exp_cartan(CartanParams(1.0, 0.0)))  # pure rotation
    with pytest.raises(NotLoxodromic):
        classify(rand_rotation(np.random.default_rng(7)))


def test_classify_rejects_non_group_input():
    with pytest.raises(NotInGroup):
        classify(np.ones((4, 4)))
    with pytest.raises(NotInGroup):
        classify(np.zeros((2, 2)))


def test_inverse_class_relations():
    a, b = inverse_class(2.0, 1.0)
    assert (a, b) == (2.0, TWO_PI - 1.0)
    assert inverse_class(2.0, 0.0) == (2.0, 0.0)
    for a in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="length must be positive"):
            inverse_class(a, 0.5)


@given(lengths, angles)
@settings(max_examples=200, deadline=None)
def test_inverse_class_is_an_involution(a, b):
    a2, b2 = inverse_class(*inverse_class(a, b))
    assert a2 == a
    assert abs(b2 - b) < 1e-12 or abs(abs(b2 - b) - TWO_PI) < 1e-12


def test_power_class_arithmetic():
    assert power_class(1.0, math.pi, 2) == ClassInvariant(2.0, 0.0, 2)
    assert power_class(0.5, 0.1, 1) == ClassInvariant(0.5, 0.1, 1)
    got = power_class(1.5, 2.0, 3)
    assert got.length == 4.5
    assert got.holonomy == 6.0  # 6.0 < 2*pi, so the mod reduction is a no-op
    assert power_class(1.5, 2.5, 3).holonomy == pytest.approx(7.5 - TWO_PI)
    assert got.primitive_power == 3
    assert got.ratio() == got.holonomy / got.length
    with pytest.raises(DomainError):
        power_class(1.0, 1.0, 0)
    for a in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="length must be positive"):
            power_class(a, 1.0, 2)
    for j in (1.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="power must be a positive integer"):
            power_class(1.0, 1.0, j)
    assert power_class(1.0, 1.0, 2.0) == power_class(1.0, 1.0, 2)


def test_power_class_agrees_with_matrix_power(rng):
    for _ in range(20):
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.0, TWO_PI))
        j = int(rng.integers(1, 5))
        expect = power_class(a, b, j)
        got_a, got_b = classify(np.linalg.matrix_power(normal_form(a, b), j))
        assert abs(got_a - expect.length) < 1e-8
        assert abs(got_b - canonical_b(expect.holonomy)) < 1e-8


def test_spectrum_validation():
    with pytest.raises(DomainError):
        Spectrum([(-1.0, 0.5, 1)])
    with pytest.raises(DomainError):
        Spectrum([(1.0, TWO_PI, 1)])
    with pytest.raises(DomainError):
        Spectrum([(1.0, 0.5, 0)])
    # int() would truncate the fraction to a valid-looking multiplicity 1
    with pytest.raises(DomainError, match="positive integer, got 1.5"):
        Spectrum([(1.0, 0.5, 1.5)])
    for mult in (math.nan, math.inf):  # int() would raise ValueError or OverflowError
        with pytest.raises(DomainError, match="multiplicity must be a positive integer"):
            Spectrum([(1.0, 0.5, mult)])


def test_spectrum_canonical_form():
    s1 = Spectrum([(2.0, 1.0, 1), (1.0, 0.5, 2), (2.0, 1.0, 1)])
    s2 = Spectrum([(1.0, 0.5, 2), (2.0, 1.0, 2)])
    assert s1 == s2
    assert s1.classes == (PrimitiveClass(1.0, 0.5, 2), PrimitiveClass(2.0, 1.0, 2))
    assert s1.total() == 4
    assert s1.min_length() == 1.0
    assert list(s1.lengths()) == [(1.0, 2), (2.0, 2)]


def test_spectrum_merges_within_tolerance():
    s = Spectrum([(2.0, 1.0, 1), (2.0, 1.0 + 4e-10, 1)])
    assert s.classes == (PrimitiveClass(2.0, 1.0, 2),)


def test_empty_spectrum():
    s = Spectrum()
    assert not s and s.total() == 0
    with pytest.raises(DomainError):
        s.min_length()


def test_merge_examples():
    empty = Spectrum()
    s = merge(empty, PrimitiveClass(2.0, 1.0, 1))
    assert s.classes == (PrimitiveClass(2.0, 1.0, 1),)
    s = merge(s, PrimitiveClass(2.0, 1.0, 1))
    assert s.classes == (PrimitiveClass(2.0, 1.0, 2),)
    # near-duplicate snaps to the first-seen representative
    s = merge(s, PrimitiveClass(2.0, 1.0 + 5e-10, 1))
    assert s.classes == (PrimitiveClass(2.0, 1.0, 3),)


def test_union_and_inverse():
    s = Spectrum([(1.0, 1.0, 1), (2.0, 0.0, 2)])
    t = Spectrum([(1.0, 1.0, 2)])
    assert s.union(t).classes == (
        PrimitiveClass(1.0, 1.0, 3),
        PrimitiveClass(2.0, 0.0, 2),
    )
    inv = s.inverse()
    assert inv.classes == (
        PrimitiveClass(1.0, TWO_PI - 1.0, 1),
        PrimitiveClass(2.0, 0.0, 2),
    )
    assert inv.inverse() == s


def test_spectrum_difference_cancels_shared_classes():
    s1 = Spectrum([(1.0, 1.0, 3), (2.0, 0.5, 1)])
    s2 = Spectrum([(1.0, 1.0, 1), (3.0, 0.2, 2)])
    d1, d2 = spectrum_difference(s1, s2)
    assert d1.classes == (PrimitiveClass(1.0, 1.0, 2), PrimitiveClass(2.0, 0.5, 1))
    assert d2.classes == (PrimitiveClass(3.0, 0.2, 2),)
    e1, e2 = spectrum_difference(s1, s1)
    assert not e1 and not e2


def test_spectrum_total_multiplicity_bound():
    # counts are int64: a total multiplicity of 2**63 is refused on load
    with pytest.raises(DomainError):
        Spectrum([(1.0, 0.5, 2**62), (1.0, 0.7, 2**62)])
    with pytest.raises(DomainError):
        Spectrum([(1.0, 0.5, 2**63)])
    assert Spectrum([(1.0, 0.5, 2**62), (1.0, 0.7, 2**62 - 1)]).total() == 2**63 - 1


@pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
def test_spectrum_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        Spectrum([(1.0, 0.5, 1)], tol=tol)


# rows on a grid spaced around tol: chains of near neighbours that span
# more than tol, heads within tol of a non-adjacent head, and the signed
# zero and pi holonomies
HOLONOMY_BASES = (0.0, -0.0, math.pi, 1.0, TWO_PI - 1e-2)
SPACINGS = (0.45, 0.9, 1.0, 1.6)


@st.composite
def grid_rows(draw, tol):
    unit = tol or 1e-9
    step_a, step_b = draw(st.sampled_from(SPACINGS)), draw(st.sampled_from(SPACINGS))
    base_a = draw(st.sampled_from((0.5, 1.0, 2.5)))
    cell = st.tuples(
        st.integers(0, 5), st.sampled_from(HOLONOMY_BASES), st.integers(0, 5), st.integers(1, 4)
    )
    rows = []
    for i, base_b, j, m in draw(st.lists(cell, max_size=14)):
        b = base_b + j * step_b * unit if j else base_b  # j = 0 keeps -0.0
        if b >= TWO_PI:
            b = base_b
        rows.append((base_a + i * step_a * unit, b, m))
    return rows


@st.composite
def tol_and_rows(draw, sides=1):
    tol = draw(st.sampled_from((0.0, 1e-9, 1e-3)))
    return (tol, *(draw(grid_rows(tol)) for _ in range(sides)))


# three heads where the third lies within tol of the first but not of the
# second, so that only the walk keeps it apart
APART = [(1.0005, 0.502, 1), (1.0, 0.5, 1), (1.001, 0.5, 1)]


@settings(max_examples=400, deadline=None)
@given(tol_and_rows(sides=2))
@example((0.0, [(1.0, -0.0, 2), (1.0, 0.0, 1)], []))  # the larger count first
@example((1e-3, APART, APART[1:]))
@example((1e-3, [(1.0, 0.5, 1), (1.0, 0.5009, 1), (1.0005, 0.4995, 1)], []))  # head of a run
def test_spectrum_canonical_form_matches_sequential_walk(case):
    tol, rows, other = case
    spec, ref = Spectrum(rows, tol), spectrum_reference(rows, tol)
    assert repr(spec.classes) == repr(ref)
    assert repr(Spectrum(rows[::-1], tol).classes) == repr(spectrum_reference(rows[::-1], tol))
    assert repr(spec) == f"Spectrum({list(ref)!r})"
    assert repr(list(spec)) == repr(list(ref))
    assert len(spec) == len(ref) and bool(spec) == bool(ref)
    assert spec.total() == sum(c.multiplicity for c in ref)
    spec2 = Spectrum(other, tol)
    assert (spec == spec2) == (ref == spectrum_reference(other, tol))
    assert Spectrum(rows[::-1], tol) == spec
    assert hash(Spectrum(rows[::-1], tol)) == hash(spec) == hash(ref)


@settings(max_examples=300, deadline=None)
@given(tol_and_rows(sides=2))
@example((1e-3, APART, []))  # cancelling the middle head merges the outer two
def test_spectrum_difference_matches_sequential_drain(case):
    tol, rows1, rows2 = case
    s1, s2 = Spectrum(rows1, tol), Spectrum(rows1[: len(rows1) // 2] + rows2, tol)
    for a, b in ((s1, s2), (s2, s1), (s1, s1)):
        got = spectrum_difference(a, b, tol)
        ref = spectrum_difference_reference(a.classes, b.classes, tol)
        assert repr(tuple(d.classes for d in got)) == repr(ref)


@settings(max_examples=200, deadline=None)
@given(tol_and_rows())
def test_spectrum_lengths_and_ratios(case):
    tol, rows = case
    spec = Spectrum(rows, tol)
    assert spec.lengths() == RealMultiset([(c.length, c.multiplicity) for c in spec], 1e-9)
    assert spec.ratios(tol) == RealMultiset(expected_ratio_pairs(spec), tol)


def test_spectrum_ratios_double_zero_holonomy():
    spec = Spectrum([(2.0, 0.0, 3), (1.0, 5.0, 1), (4.0, math.pi, 2)])
    assert list(spec.ratios()) == [(0.0, 6), (math.pi / 4.0, 2), (TWO_PI - 5.0, 1)]
    with pytest.raises(DomainError):  # the doubled total reaches 2**63
        Spectrum([(1.0, 0.0, 2**62)]).ratios()
