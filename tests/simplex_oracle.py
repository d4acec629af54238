"""The Fraction path of the simplex identities, the reference that
trigroup.simplex's integer kernels are checked against.

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

from trigroup.linalg import bareiss_det
from trigroup.simplex import NegativeEntryWarning, as_entries, dimension


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
    return Fraction(bareiss_det(ints), product)


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
