"""Exact elimination: fraction-free integer determinant and rank, and
their rational forms for the geometry module, which clear denominators
and run the integer routines."""

from __future__ import annotations

import math
from fractions import Fraction


def _bareiss(rows) -> tuple[int, int]:
    """(rank, signed last pivot) of an integer matrix by fraction-free
    elimination.  Every interior division is exact, so entries stay at
    the size of minors; each row swap flips the pivot's sign.  For a
    square matrix of full rank the signed last pivot is the determinant.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0, 1
    nrows, ncols = len(m), len(m[0])
    sign = prev = 1
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[rank][col] * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank, sign * prev


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    rank, pivot = _bareiss(rows)
    return pivot if rank == n else 0


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    return _bareiss(rows)[0]


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Each rational row scaled by the lcm of its denominators, and the
    product of those scales; scaling a row keeps the rank and multiplies
    the determinant by the scale."""
    ints = []
    product = 1
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        ints.append([int(x * scale) for x in row])
        product *= scale
    return ints, product


def rational_det(rows) -> Fraction:
    """Determinant of a rational matrix: clear denominators row by row,
    run the fraction-free integer elimination, and undo the scaling."""
    ints, product = _integer_rows(rows)
    return Fraction(bareiss_det(ints), product)


def rational_rank(rows) -> int:
    """Rank of a rational matrix, by the integer elimination on its
    rows scaled to integers."""
    return bareiss_rank(_integer_rows(rows)[0])
