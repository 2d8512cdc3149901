"""so(3,1) structure: splits, brackets, roots, closed-form exponentials."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lhspec
from lhspec import (
    CartanParams,
    DomainError,
    LieElement,
    NotInAlgebra,
    TAU_ALG,
    algebra_residual,
    bracket,
    cartan_generator,
    cartan_split,
    exp_cartan,
    in_algebra,
    iwasawa_basis,
    iwasawa_split,
    n_matrix,
    rho0,
    root_eval,
    theta,
)
from lhspec.lie_so31 import POSITIVE_ROOTS, ROOTS, restriction_multiplicities

from helpers import LOOSE, rand_algebra, series_exp

params = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_membership_residual():
    rng = np.random.default_rng(0)
    x = rand_algebra(rng)
    assert in_algebra(x)
    assert algebra_residual(x) == 0.0
    assert not in_algebra(np.eye(4))


def test_element_validation():
    with pytest.raises(DomainError):
        LieElement(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        LieElement(np.full((4, 4), np.nan))
    bad = np.eye(4)
    with pytest.raises(NotInAlgebra):
        LieElement(bad)


def test_element_is_read_only(rng):
    x = LieElement(rand_algebra(rng))
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 1.0


def test_vector_space_ops(rng):
    x, y = rand_algebra(rng), rand_algebra(rng)
    assert np.array_equal((LieElement(x) + y).matrix, x + y)
    assert np.array_equal((LieElement(x) - y).matrix, x - y)
    assert np.array_equal((-LieElement(x)).matrix, -x)


def test_bracket_closure_and_antisymmetry(rng):
    for _ in range(20):
        x, y = rand_algebra(rng), rand_algebra(rng)
        xy = bracket(x, y)
        assert in_algebra(xy.matrix)
        assert np.allclose(xy.matrix, -bracket(y, x).matrix, atol=1e-12)


def test_jacobi_identity(rng):
    for _ in range(50):
        x, y, z = (rand_algebra(rng) for _ in range(3))
        total = (
            bracket(x, bracket(y, z)).matrix
            + bracket(y, bracket(z, x)).matrix
            + bracket(z, bracket(x, y)).matrix
        )
        assert np.max(np.abs(total)) < 1e-10


def test_cartan_split_recombines_and_eigenspaces(rng):
    for _ in range(50):
        x = rand_algebra(rng)
        k, p = cartan_split(x)
        assert np.max(np.abs(k.matrix + p.matrix - x)) < 1e-12
        # +1 / -1 eigenvectors of the involution A -> -A^T
        assert np.max(np.abs(theta(k) - k.matrix)) < 1e-12
        assert np.max(np.abs(theta(p) + p.matrix)) < 1e-12


def test_iwasawa_split_recombines_and_lands_in_subspaces(rng):
    for _ in range(50):
        x = rand_algebra(rng)
        k, a, n = iwasawa_split(x)
        assert np.max(np.abs(k.matrix + a.matrix + n.matrix - x)) < 1e-12
        # k: rotation block only (boost column/row vanish)
        assert np.max(np.abs(k.matrix[:3, 3])) == 0.0
        assert np.max(np.abs(k.matrix[3, :])) == 0.0
        # a: multiple of the unit boost generator
        alpha = a.matrix[2, 3]
        assert np.array_equal(a.matrix, alpha * lhspec.H0)
        # n: in the two-parameter nilpotent span
        na, nb = n.matrix[0, 3], n.matrix[1, 3]
        assert np.array_equal(n.matrix, n_matrix(na, nb))


def test_iwasawa_split_matches_least_squares_oracle(rng):
    # independent check: solve for the 6 basis coefficients directly
    basis = iwasawa_basis()
    bmat = np.stack([m.ravel() for m in basis], axis=1)
    for _ in range(20):
        x = rand_algebra(rng)
        coeffs, res, _, _ = np.linalg.lstsq(bmat, x.ravel(), rcond=None)
        assert (res.size == 0) or (res[0] < 1e-20)
        k, a, n = iwasawa_split(x)
        k_oracle = sum(c * m for c, m in zip(coeffs[:3], basis[:3]))
        assert np.max(np.abs(k.matrix - k_oracle)) < 1e-10
        assert abs(a.matrix[2, 3] - coeffs[3]) < 1e-10
        assert abs(n.matrix[0, 3] - coeffs[4]) < 1e-10
        assert abs(n.matrix[1, 3] - coeffs[5]) < 1e-10


def test_iwasawa_rejects_non_algebra_input():
    with pytest.raises(NotInAlgebra):
        iwasawa_split(np.eye(4))


@pytest.mark.parametrize("split", [cartan_split, iwasawa_split])
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.eye(3), "expected a 4x4 matrix, got shape (3, 3)"),
        (np.full((4, 4), math.nan), "matrix entries must be finite"),
    ],
    ids=["3x3", "nan"],
)
def test_splits_check_a_raw_array_as_lie_element(split, bad, message):
    with pytest.raises(DomainError) as caught:
        split(bad)
    assert (caught.type, str(caught.value)) == (DomainError, message)


def test_splits_check_their_parts_at_the_tolerance_of_their_input():
    x = LieElement(LOOSE, tol=1e-6)
    for parts in (cartan_split(x), iwasawa_split(x)):
        assert np.max(np.abs(sum(part.matrix for part in parts) - x.matrix)) <= 1e-12
        assert all(part.tol == 1e-6 and algebra_residual(part) <= 1e-6 for part in parts)
    for split in (cartan_split, iwasawa_split):
        with pytest.raises(NotInAlgebra, match="exceeds tolerance 1.0e-12"):
            split(LOOSE)


def _bracket_tol(x, y):
    bound = 8.0 * (np.abs(y.matrix).max() * x.tol + np.abs(x.matrix).max() * y.tol)
    return max(TAU_ALG, bound)


@pytest.mark.parametrize(
    "op, tol",
    [
        (lambda x, k: x - k, lambda x, k: x.tol + k.tol),
        (lambda x, k: x + k, lambda x, k: x.tol + k.tol),
        (lambda x, k: -x, lambda x, k: x.tol),
        (bracket, _bracket_tol),
    ],
    ids=["sub", "add", "neg", "bracket"],
)
def test_arithmetic_keeps_the_tolerance_of_its_operands(op, tol):
    x = LieElement(LOOSE, tol=1e-6)
    k, _ = cartan_split(x)
    got = op(x, k)
    assert got.tol == tol(x, k) and algebra_residual(got) <= got.tol
    # a raw array operand counts as checked at TAU_ALG
    raw = SimpleNamespace(matrix=k.matrix, tol=TAU_ALG)
    assert op(x, k.matrix).tol == tol(x, raw)


def test_nilpotent_span_is_two_step():
    n = n_matrix(0.7, -0.3)
    assert in_algebra(n)
    n2 = n @ n
    assert np.max(np.abs(n2 @ n)) < 1e-15  # n^3 = 0


def test_exp_cartan_against_series_oracle(rng):
    for _ in range(100):
        p = CartanParams(float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-3, 3)))
        g = exp_cartan(p)
        oracle = series_exp(cartan_generator(p).matrix, terms=30)
        assert np.max(np.abs(g - oracle)) < 1e-12


def test_exp_cartan_rejects_non_finite():
    with pytest.raises(DomainError):
        exp_cartan(CartanParams(math.nan, 0.0))


boosts = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(params, boosts, params, boosts)
@settings(max_examples=200, deadline=None)
def test_exp_cartan_additivity(b1, a1, b2, a2):
    g12 = exp_cartan(CartanParams(b1, a1)) @ exp_cartan(CartanParams(b2, a2))
    g = exp_cartan(CartanParams(b1 + b2, a1 + a2))
    assert np.max(np.abs(g12 - g)) < 1e-10


def test_root_values():
    p = CartanParams(b=0.25, alpha=2.0)
    assert root_eval(1, p) == 2.25
    assert root_eval(2, p) == -1.75
    assert root_eval(3, p) == -2.25
    assert root_eval(4, p) == 1.75
    with pytest.raises(DomainError):
        root_eval(5, p)
    with pytest.raises(DomainError):
        root_eval(0, p)


@given(params, params)
@settings(max_examples=200, deadline=None)
def test_roots_come_in_negative_pairs(b, alpha):
    p = CartanParams(b, alpha)
    assert root_eval(1, p) + root_eval(3, p) == 0.0
    assert root_eval(2, p) + root_eval(4, p) == 0.0


def test_positive_roots_positive_on_dominant_chamber():
    # b > 0 tiny relative to alpha: lexicographic (e1, e2) positivity
    p = CartanParams(b=0.01, alpha=1.0)
    for r in POSITIVE_ROOTS:
        assert root_eval(r, p) > 0.0


def test_rho0_is_one_exactly():
    assert rho0() == 1.0


def test_rho0_matches_half_sum_oracle():
    # half the sum of positive-root restrictions to the unit boost
    restrictions = [ROOTS[r][0] for r in POSITIVE_ROOTS]
    assert rho0() == sum(restrictions) / 2.0
    assert restriction_multiplicities() == (2, 0)
