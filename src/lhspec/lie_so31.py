"""Structure theory of so(3,1): Cartan/Iwasawa splits, roots, closed-form exponentials.

The algebra is realized concretely: A is in so(3,1) iff A^T J + J A = 0 with
J = diag(1,1,1,-1).  Every such A has the block shape

    A = [[B, u], [u^T, 0]],    B 3x3 skew,  u in R^3,

the B block spanning the maximal compact subalgebra k = so(3) and the boost
vector u spanning its orthogonal complement p.  The distinguished boost axis
is the (3,4) plane: H0 below is the unit generator of a_p.  All splits here
are exact linear projections in fixed bases -- no iteration, no Gram-Schmidt.
Membership is checked by LieElement alone; the splits take their input
through it and check their parts at the tolerance it was checked at.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotInAlgebra, _check_tol

#: quadratic form of signature (3,1) preserved by the group
J = np.diag([1.0, 1.0, 1.0, -1.0])
J.flags.writeable = False

#: membership tolerance on A^T J + J A (downstream consumers feed in
#: numerically conjugated matrices, so exact zero is not demanded)
TAU_ALG = 1e-12

#: unit boost generator spanning a_p (symmetric 1 in the (3,4) corner)
H0 = np.zeros((4, 4))
H0[2, 3] = H0[3, 2] = 1.0
H0.flags.writeable = False


def _mat(x) -> np.ndarray:
    return x.matrix if isinstance(x, LieElement) else np.asarray(x, dtype=float)


def algebra_residual(A) -> float:
    """Max entrywise residual of the membership equation A^T J + J A = 0."""
    m = _mat(A)
    return float(np.max(np.abs(m.T @ J + J @ m)))


def in_algebra(A, tol: float = TAU_ALG) -> bool:
    m = _mat(A)
    return m.shape == (4, 4) and bool(np.all(np.isfinite(m))) and algebra_residual(m) <= tol


class LieElement:
    """A validated element of so(3,1), wrapping a read-only 4x4 array.

    ``tol`` is the membership tolerance the matrix was checked at.  A sum or
    difference is checked at the sum of the tolerances of its operands, and
    a negation at the tolerance of its operand.
    """

    __slots__ = ("matrix", "tol")

    def __init__(self, matrix, tol: float = TAU_ALG):
        _check_tol(tol, DomainError)
        m = np.array(matrix, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        r = algebra_residual(m)
        if r > tol:
            raise NotInAlgebra(f"A^T J + J A residual {r:.3e} exceeds tolerance {tol:.1e}")
        m.flags.writeable = False
        self.matrix = m
        self.tol = tol

    def __repr__(self) -> str:
        return f"LieElement({self.matrix.tolist()})"

    def __add__(self, other) -> "LieElement":
        return LieElement(self.matrix + _mat(other), self.tol + _tol(other))

    def __sub__(self, other) -> "LieElement":
        return LieElement(self.matrix - _mat(other), self.tol + _tol(other))

    def __neg__(self) -> "LieElement":
        return LieElement(-self.matrix, self.tol)


def _tol(x) -> float:
    # the tolerance x was checked at; a raw array counts as checked at TAU_ALG
    return x.tol if isinstance(x, LieElement) else TAU_ALG


def _element(x) -> LieElement:
    # the membership gate of the splits: a raw array is checked at TAU_ALG
    return x if isinstance(x, LieElement) else LieElement(x)


def bracket(x, y) -> LieElement:
    """Commutator [x, y] = xy - yx (so(3,1) is closed under it).

    With E_A = A^T J + J A the residual of A, the residual of the bracket is

        [A, B]^T J + J [A, B] = B^T E_A + E_A B - A^T E_B - E_B A,

    whose entries are at most 8 * (max|B| * max|E_A| + max|A| * max|E_B|)
    for 4x4 matrices.  So [x, y] is checked at that bound with the
    tolerances of x and y in place of their residuals, and at TAU_ALG when
    the bound is smaller.  A raw array counts as checked at TAU_ALG.
    """
    xm, ym = _mat(x), _mat(y)
    bound = np.abs(ym).max(initial=0.0) * _tol(x) + np.abs(xm).max(initial=0.0) * _tol(y)
    return LieElement(xm @ ym - ym @ xm, max(TAU_ALG, 8.0 * float(bound)))


def theta(A) -> np.ndarray:
    """Cartan involution on the algebra: A -> -A^T."""
    return -_mat(A).T


def cartan_split(x) -> tuple[LieElement, LieElement]:
    """Split x = k + p into the +1/-1 eigenspaces of the involution.

    k is the skew part (rotation block, zero boost column); p is the
    symmetric part (boost column, zero 3x3 block).  The parts recombine
    to x exactly up to rounding in the halving.  x is a LieElement, or an
    array checked at TAU_ALG; the parts are checked at the tolerance of x.
    """
    x = _element(x)
    m = x.matrix
    k = (m - m.T) / 2.0
    p = (m + m.T) / 2.0
    return LieElement(k, x.tol), LieElement(p, x.tol)


def n_matrix(a: float, b: float) -> np.ndarray:
    """Nilpotent generator with parameters (a, b); n is the span over (a, b)."""
    return np.array(
        [
            [0.0, 0.0, -a, a],
            [0.0, 0.0, -b, b],
            [a, b, 0.0, 0.0],
            [a, b, 0.0, 0.0],
        ]
    )


def iwasawa_basis() -> list[np.ndarray]:
    """Basis of so(3,1) adapted to the k + a_p + n split (3 + 1 + 2 matrices)."""
    k_gens = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m = np.zeros((4, 4))
        m[i, j], m[j, i] = 1.0, -1.0
        k_gens.append(m)
    return k_gens + [H0.copy(), n_matrix(1.0, 0.0), n_matrix(0.0, 1.0)]


def iwasawa_split(x) -> tuple[LieElement, LieElement, LieElement]:
    """Split x = k + a_p + n along so(3) + R*H0 + n.

    In the fixed bases the 6-parameter linear system is triangular: the
    last column of x reads off the n parameters (rows 1, 2) and the H0
    coefficient (row 3); k is the remainder, landing in the rotation block.
    x is a LieElement, or an array checked at TAU_ALG; the parts are checked
    at the tolerance of x.
    """
    x = _element(x)
    m = x.matrix
    a, b, alpha = m[0, 3], m[1, 3], m[2, 3]
    n = n_matrix(a, b)
    a_p = alpha * H0
    k = m - a_p - n
    return LieElement(k, x.tol), LieElement(a_p, x.tol), LieElement(n, x.tol)


class CartanParams(NamedTuple):
    """Coordinates on the Cartan subalgebra: rotation angle b, boost alpha."""

    b: float
    alpha: float


def cartan_generator(p: CartanParams) -> LieElement:
    """The algebra element b*(E12 - E21) + alpha*(E34 + E43)."""
    b, alpha = p
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = b, -b
    m[2, 3], m[3, 2] = alpha, alpha
    return LieElement(m)


def exp_cartan(p: CartanParams) -> np.ndarray:
    """Closed-form exponential of cartan_generator(p).

    Rotation block (cos b, sin b; -sin b, cos b) on coordinates 1, 2 and
    boost block (cosh alpha, sinh alpha; sinh alpha, cosh alpha) on 3, 4.
    """
    b, alpha = p
    if not (math.isfinite(b) and math.isfinite(alpha)):
        raise DomainError("Cartan parameters must be finite")
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = math.cos(b)
    g[0, 1] = math.sin(b)
    g[1, 0] = -math.sin(b)
    g[2, 2] = g[3, 3] = math.cosh(alpha)
    g[2, 3] = g[3, 2] = math.sinh(alpha)
    return g


#: root index -> coefficients (on the boost coordinate e1, on the rotation
#: coordinate e2); the value at CartanParams(b, alpha) is c1*alpha + c2*b
ROOTS: dict[int, tuple[int, int]] = {1: (1, 1), 2: (-1, 1), 3: (-1, -1), 4: (1, -1)}

#: the roots that are positive in the lexicographic (e1, e2) ordering
POSITIVE_ROOTS: tuple[int, ...] = (1, 4)


def root_eval(r: int, p: CartanParams) -> float:
    """Evaluate root r in {1,2,3,4} at Cartan parameters: c1*alpha + c2*b."""
    if r not in ROOTS:
        raise DomainError(f"root index must be one of 1..4, got {r!r}")
    c1, c2 = ROOTS[r]
    b, alpha = p
    return c1 * alpha + c2 * b


def restriction_multiplicities() -> tuple[int, int]:
    """Counts (p, q) of positive roots restricting to beta resp. 2*beta on a_p.

    The restriction of a root to the boost line is its e1 coefficient; beta
    is the restriction of root 1.
    """
    beta = ROOTS[POSITIVE_ROOTS[0]][0]
    p = sum(1 for r in POSITIVE_ROOTS if ROOTS[r][0] == beta)
    q = sum(1 for r in POSITIVE_ROOTS if ROOTS[r][0] == 2 * beta)
    return p, q


def rho0() -> float:
    """Half sum of positive restricted roots on the unit boost: (p*1 + q*2)/2."""
    p, q = restriction_multiplicities()
    return (p * 1 + q * 2) / 2.0
