from fractions import Fraction

import pytest

from trigroup.core import IDENTITY, mat_mul, mat_vec
from trigroup.lie import (
    DERIVATIVE_MATRIX,
    SIX_MATRIX_DISPLAYS,
    TRANSLATION_DISPLAY,
    display_comparison,
    formula_derivative_at_zero,
    infinitesimal_residual,
    power_formula_matrix,
    power_formula_report,
    preserves_form_infinitesimally,
    six_matrix_rank,
    six_spanning_matrices,
    translation_matrix,
)
from trigroup.linalg import bareiss_rank, rational_rank
from conftest import det
from simplex_oracle import rational_det

ZERO = tuple((0, 0, 0, 0) for _ in range(4))


def translation_power(n):
    """Exact n-th power of the translation element, by repeated multiplication."""
    result = IDENTITY
    for _ in range(n):
        result = mat_mul(result, translation_matrix())
    return result


def gaussian_rank(rows):
    """Rank of a rational matrix by plain Gaussian elimination over Fractions:
    the oracle for the fraction-free routines."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_translation_matrix_matches_display():
    assert translation_matrix() == TRANSLATION_DISPLAY


def test_translation_determinant_and_action():
    from matrix_bfs import det4 as _det4

    m = translation_matrix()
    assert _det4(m) == 1  # product of four determinant -1 reflections
    assert mat_vec(m, (0, 1, 1, 1)) == (3, 4, 1, 1)


def test_translation_powers():
    assert translation_power(0) == IDENTITY
    assert translation_power(1) == TRANSLATION_DISPLAY
    assert translation_power(3) == mat_mul(
        TRANSLATION_DISPLAY, mat_mul(TRANSLATION_DISPLAY, TRANSLATION_DISPLAY)
    )


def test_power_formula_matches_at_zero():
    assert power_formula_matrix(0) == IDENTITY


def test_power_formula_report_documents_single_bad_entry():
    # the recorded closed form disagrees with exact powers in entry (2,3)
    # (0-indexed) for every n >= 1, and nowhere else
    mismatches = power_formula_report(20)
    assert len(mismatches) == 20
    for m in mismatches:
        n = m["n"]
        assert (m["row"], m["col"]) == (2, 3)
        assert n >= 1
        assert m["computed"] == 3 * n * n - 2 * n
        assert m["formula"] == 6 * n * n - 2 * n
    assert {m["n"] for m in mismatches} == set(range(1, 21))


def test_formula_derivative_is_the_derivative_matrix():
    assert formula_derivative_at_zero() == DERIVATIVE_MATRIX


def test_six_matrices_match_displays():
    comparison = display_comparison()
    assert len(comparison) == 6
    assert all(ok for _, ok in comparison)
    for (name, computed), (dname, display) in zip(
        six_spanning_matrices(), SIX_MATRIX_DISPLAYS
    ):
        assert name == dname
        assert computed == display


def test_all_matrices_annihilate_form_infinitesimally():
    assert preserves_form_infinitesimally(DERIVATIVE_MATRIX)
    assert infinitesimal_residual(DERIVATIVE_MATRIX) == ZERO
    for _, m in six_spanning_matrices():
        assert infinitesimal_residual(m) == ZERO


def test_six_matrix_rank():
    assert six_matrix_rank() == 6


def flat(m):
    return [entry for row in m for entry in row]


def test_rank_edge_cases():
    assert bareiss_rank([flat(DERIVATIVE_MATRIX)]) == 1
    # the derivative matrix lies in the span: adding it keeps rank 6
    family = [m for _, m in six_spanning_matrices()] + [DERIVATIVE_MATRIX]
    assert bareiss_rank([flat(m) for m in family]) == 6


def test_bareiss_against_fraction_elimination():
    rows = [[entry for row in m for entry in row] for _, m in six_spanning_matrices()]
    assert bareiss_rank(rows) == gaussian_rank(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]],
        [[0, 0, 0], [Fraction(2, 3), 0, Fraction(-1, 9)], [0, 0, 0]],
        [[1, Fraction(1, 2), 0, 3], [2, 1, 0, 6], [Fraction(1, 7), 0, 1, 0]],
    ],
)
def test_rational_rank_against_fraction_elimination(rows):
    assert rational_rank(rows) == gaussian_rank(rows)


@pytest.mark.parametrize(
    "matrix,expected",
    [
        ([[2, 0], [0, 3]], 6),
        ([[1, 2], [3, 4]], -2),
        ([[0, 1, 2], [1, 0, 3], [4, 5, 6]], 16),
        ([[1, 2, 3], [2, 4, 6], [1, 1, 1]], 0),
    ],
)
def test_bareiss_det_small(matrix, expected):
    assert det(matrix) == expected


def test_rational_det_matches_integer_path():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]]
    assert rational_det(m) == Fraction(1, 2) * Fraction(2, 7) - Fraction(1, 3) * Fraction(1, 5)
