"""The Fraction path of the simplex identities, the reference that
trigroup.simplex's integer kernels are checked against, and
standard_configuration, the regular simplices the tests build.

trigroup.simplex scales the whole tuple once by the lcm of its
denominators and runs its residual, its reflection and its Gram
determinant on ints.  Here each is computed as the identities are
written: the residual and the reflection on Fractions, and the
determinant of the Fraction Gram matrix by clearing each row's
denominators apart and undoing the product of the row scales.
"""

import math
import warnings
from fractions import Fraction

from trigroup.core import _as_tuple, _rational, _require_int
from trigroup.simplex import NegativeEntryWarning, PointConfiguration, as_entries, dimension
from conftest import det


def rational_det(rows) -> Fraction:
    """Determinant of a rational matrix: clear denominators row by row,
    run the fraction-free integer elimination, and undo the scaling."""
    ints = []
    product = 1
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        ints.append([int(x * scale) for x in row])
        product *= scale
    return Fraction(det(ints), product)


def gram_matrix(values) -> list[list[Fraction]]:
    """The (n+1) x (n+1) matrix with diagonal 2*a_i and off-diagonal
    a_i + a_j - a0: twice the vertex Gram matrix when P sits at the origin."""
    entries = as_entries(values)
    a0 = entries[0]
    dist = entries[1:]
    k = len(dist)
    return [
        [2 * dist[i] if i == j else dist[i] + dist[j] - a0 for j in range(k)]
        for i in range(k)
    ]


def gram_det(values) -> Fraction:
    return rational_det(gram_matrix(values))


def identity_residual(values) -> Fraction:
    entries = as_entries(values)
    n = dimension(entries)
    total = sum(entries)
    return (n + 1) * sum(e * e for e in entries) - total * total


def reflect(values, index):
    """simplex.reflect on Fractions, with its messages and its warning;
    the index must already be in range."""
    entries = as_entries(values)
    n = dimension(entries)
    residual = identity_residual(entries)
    if residual != 0:
        raise ValueError(f"tuple does not satisfy the identity (residual {residual})")
    others = sum(entries) - entries[index]
    new_entry = Fraction(2, n) * others - entries[index]
    if new_entry < 0:
        warnings.warn(
            f"reflection produced negative entry {new_entry} at index {index}",
            NegativeEntryWarning,
            stacklevel=2,
        )
    return entries[:index] + (new_entry,) + entries[index + 1 :]


def standard_configuration(n, scale=1, weights=None) -> PointConfiguration:
    """Regular n-simplex with rational coordinates, plus a point in its hull.

    Vertices are scale * e_i in (n+1)-dimensional space (squared side
    2 * scale^2); the point is the affine combination of the vertices
    with the given rational weights w (default: the centroid), that is
    scale * w.  Weights must sum to 1 but may be negative, placing the
    point anywhere in the affine hull.
    """
    _require_int("dimension", n, 2)
    scale = _rational("scale", scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    if weights is None:
        weights = [Fraction(1, n + 1)] * (n + 1)
    weights = [_rational("weight", w) for w in _as_tuple("weights", weights)]
    if len(weights) != n + 1:
        raise ValueError(f"need {n + 1} weights, got {len(weights)}")
    if sum(weights) != 1:
        raise ValueError("weights must sum to 1")
    vertices = tuple(
        tuple(scale if j == i else Fraction(0) for j in range(n + 1))
        for i in range(n + 1)
    )
    point = tuple(scale * w for w in weights)
    return PointConfiguration(vertices=vertices, point=point)
