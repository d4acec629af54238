"""The fraction-free determinant, and the test-side rational one, against
the Leibniz expansion, and the characteristic polynomial against a
Laplace expansion of det(tI - m)."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from trigroup import ResourceLimitError
from trigroup.linalg import BAREISS_BITS_CAP, CHAR_POLY_SIZE_CAP, bareiss_det, char_poly
from simplex_oracle import rational_det


def leibniz_det(rows):
    """Sum over permutations of the signed products; 1 for the empty matrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def random_int_matrix(rng, n):
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def random_rational_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", range(0, 6))
def test_bareiss_det_against_leibniz(n):
    rng = random.Random(n)
    for _ in range(40):
        m = random_int_matrix(rng, n)
        assert bareiss_det(m) == leibniz_det(m)


@pytest.mark.parametrize("n", range(0, 6))
def test_rational_det_against_leibniz(n):
    rng = random.Random(100 + n)
    for _ in range(40):
        m = random_rational_matrix(rng, n)
        assert rational_det(m) == leibniz_det(m)


def _singular(rng, n):
    """A random n x n matrix whose last row is a combination of the others."""
    m = random_int_matrix(rng, n)
    coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
    m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
    return m


@pytest.mark.parametrize("n", range(1, 6))
def test_singular_matrices_have_determinant_zero(n):
    rng = random.Random(200 + n)
    for _ in range(20):
        m = _singular(rng, n)
        rng.shuffle(m)
        assert leibniz_det(m) == 0
        assert bareiss_det(m) == 0
        assert rational_det([[Fraction(x, 3) for x in row] for row in m]) == 0
    zero_column = [[0] + row[1:] for row in random_int_matrix(rng, n)]
    assert bareiss_det(zero_column) == 0


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1], [1, 0]],  # swap at the first pivot
        [[1, 1, 1], [1, 1, 2], [0, 1, 1]],  # the second pivot is zero after elimination
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 0], [7, 0, 0, 0]],
    ],
)
def test_row_swaps_flip_the_sign(rows):
    assert bareiss_det(rows) == leibniz_det(rows) != 0
    assert rational_det([[Fraction(x, 2) for x in row] for row in rows]) == Fraction(
        leibniz_det(rows), 2 ** len(rows)
    )


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3]], [[1], [2]], [[]]])
def test_non_square_raises_value_error(rows):
    with pytest.raises(ValueError):
        bareiss_det(rows)
    with pytest.raises(ValueError):
        rational_det(rows)


def test_empty_matrix_has_determinant_one():
    assert rational_det([]) == 1
    assert bareiss_det([]) == 1


def laplace_det(rows):
    """Cofactor expansion along the first row; 1 for the empty matrix."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j in range(len(rows))
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_char_poly_against_laplace_at_integer_points(n):
    # a degree-n polynomial is fixed by its values at n + 1 points
    rng = random.Random(300 + n)
    for _ in range(40):
        m = random_int_matrix(rng, n)
        coeffs = char_poly(m)
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        for t in range(-(n // 2), n + 1 - n // 2):
            shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            assert sum(c * t ** (n - k) for k, c in enumerate(coeffs)) == laplace_det(shifted)


def test_char_poly_ends():
    assert char_poly([]) == (1,)
    assert char_poly([[5]]) == (1, -5)
    # the constant term is (-1)^n det m, and the next-to-leading one -trace m
    m = [[2, -1, 0], [4, 3, 7], [-5, 1, 1]]
    assert char_poly(m)[1] == -6 and char_poly(m)[-1] == -bareiss_det(m)


def test_char_poly_size_cap():
    assert char_poly([[0] * CHAR_POLY_SIZE_CAP] * CHAR_POLY_SIZE_CAP) == (1,) + (0,) * CHAR_POLY_SIZE_CAP
    size = CHAR_POLY_SIZE_CAP + 1
    with pytest.raises(ResourceLimitError):
        char_poly([[0] * size] * size)


def test_elimination_work_cap():
    # rows x (bits of the largest entry + bits of the row count): the cap
    # admits its bound and refuses one bit more, before any elimination
    bits = BAREISS_BITS_CAP // 2 - 2
    big = 1 << (bits - 1)
    assert 2 * (big.bit_length() + 2) == BAREISS_BITS_CAP
    assert bareiss_det([[big, 0], [0, 1]]) == big
    with pytest.raises(ResourceLimitError, match=f"exceeds cap {BAREISS_BITS_CAP}"):
        bareiss_det([[2 * big, 0], [0, 1]])


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3]], [[1], [2]], [[]]])
def test_char_poly_of_non_square_raises_value_error(rows):
    with pytest.raises(ValueError):
        char_poly(rows)
