"""Exact elimination: fraction-free integer determinant and rank, and
their rational forms for the geometry module, which clear denominators
and run the integer routines."""

from __future__ import annotations

import math
from fractions import Fraction


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Every interior division is exact; intermediate entries stay at the
    size of minors rather than exploding like naive cross-multiplication.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[rank][col] * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def rational_det(rows) -> Fraction:
    """Determinant of a rational matrix: clear denominators, run the
    fraction-free integer elimination, and undo the scaling."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    if n == 0:
        return Fraction(1)
    scale = 1
    for row in mat:
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
    ints = [[int(x * scale) for x in row] for row in mat]
    return Fraction(bareiss_det(ints), scale**n)


def rational_rank(rows) -> int:
    """Rank of a rational matrix: scale each row to integers, which keeps
    the rank, and run the fraction-free integer elimination."""
    ints = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        ints.append([int(x * scale) for x in row])
    return bareiss_rank(ints)
