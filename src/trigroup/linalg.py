"""Exact elimination: one fraction-free elimination, _bareiss (Bareiss,
Math. Comp. 22, 1968), gives every determinant, rank and characteristic
polynomial; rational matrices clear denominators first.  The public
functions check their input once; lie.six_matrix_rank and char_poly's
minors run the kernel on matrices they build, and the kernel checks its
work cap, BAREISS_BITS_CAP, on every matrix."""

from __future__ import annotations

import math
from itertools import combinations

from .core import _as_tuple, _rational, _require_int

# char_poly sums the 2^n principal minors of an n x n matrix.
CHAR_POLY_SIZE_CAP = 12
# Work cap on _bareiss: rows x (bits of the largest entry + bits of the row
# count), about the size in bits of the largest minor it can build.  At the
# cap, the costliest admitted matrix, 200 x 200 of entries +-1, takes about
# 1 s on a 2-vCPU Xeon VM with Python 3.11.
BAREISS_BITS_CAP = 1_800


def _matrix(rows, entry) -> list[list]:
    """rows as equal-length lists, each entry read by core's rule `entry`."""
    m = [[entry("matrix entry", x) for x in _as_tuple("matrix row", row)] for row in _as_tuple("matrix", rows)]
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows must have equal lengths")
    return m


def _square(m: list[list]) -> list[list]:
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return m


def _bareiss(rows) -> tuple[int, int]:
    """(rank, determinant) of an integer matrix by fraction-free
    elimination.  Every interior division is exact, so entries stay at
    the size of minors; each row swap flips the pivot's sign.  The second
    value is the signed last pivot if the rows are independent, else 0:
    for a square matrix, its determinant (1 for the empty matrix).  A
    matrix whose rows x (bits of the largest entry + bits of the row
    count) exceeds BAREISS_BITS_CAP raises ResourceLimitError.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0, 1
    nrows, ncols = len(m), len(m[0])
    bits = max((abs(x) for row in m for x in row), default=0).bit_length()
    _require_int("matrix rows x entry bits", nrows * (bits + nrows.bit_length()), cap=BAREISS_BITS_CAP)
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
            return rank, sign * prev
    return rank, 0


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    return _bareiss(_square(_matrix(rows, _require_int)))[1]


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    return _bareiss(_matrix(rows, _require_int))[0]


def char_poly(rows: list[list[int]]) -> tuple[int, ...]:
    """det(tI - m) for a square integer matrix m, leading coefficient
    first: the coefficient of t^(n-k) is (-1)^k times the sum of the k x k
    principal minors.  n above CHAR_POLY_SIZE_CAP raises ResourceLimitError."""
    m = _square(_matrix(rows, _require_int))
    n = _require_int("matrix size", len(m), cap=CHAR_POLY_SIZE_CAP)
    return tuple(
        (-1) ** k * sum(_bareiss([[m[i][j] for j in s] for i in s])[1] for s in combinations(range(n), k))
        for k in range(n + 1)
    )


def rational_rank(rows) -> int:
    """Rank of a rational matrix, by the integer elimination on its rows,
    each scaled by the lcm of its denominators: scaling a row keeps the
    rank."""
    ints = []
    for row in _matrix(rows, _rational):
        scale = math.lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (scale // x.denominator) for x in row])
    return bareiss_rank(ints)
