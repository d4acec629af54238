"""Exact matrix identities behind the Lie-algebra span argument.

The subgroup generated by the first three reflections contains a
translation-like element T1 = S1 S2 S1 S3 whose powers grow
quadratically; the derivative of the power formula at zero is a
nilpotent direction D1, and conjugating and bracketing D1 produces six
matrices spanning the full 6-dimensional space of matrices X with
X^T A + A X = 0.  Everything here is computed from the generators and
compared against independently recorded expected matrices, so a typo in
either source is surfaced rather than inherited.  One such disagreement
stands: the recorded power formula gives the (3,4) entry of T1^n as
6n^2 - 2n, while the exact 4x4 powers and the 2x2 spinor model of the
group (where S1 S2 S1 S3 acts as omega (I + N) with N^2 = 0, in
tests/spinor_model.py) both give 3n^2 - 2n.  The recorded value stays
as it is, and power_formula_report shows the two side by side.
"""

from __future__ import annotations

from functools import cache

from .core import (
    FORM_MATRIX, IDENTITY, LENGTH_CAP, Mat4, _require_int, _word_matrix, mat_mul, mat_transpose
)
from .linalg import _bareiss

# Expected value of S1 S2 S1 S3, recorded independently of the product code.
TRANSLATION_DISPLAY: Mat4 = (
    (2, 1, -2, 4),
    (1, 2, -2, 4),
    (1, 1, -1, 1),
    (0, 0, 0, 1),
)

# Entry polynomials (c0, c1, c2) = c0 + c1*n + c2*n^2 of the recorded
# closed form for the n-th power of the translation element.  The (3,4)
# entry is recorded as 6n^2 - 2n; exact powers give 3n^2 - 2n instead,
# and power_formula_report documents that mismatch rather than hiding it.
POWER_FORMULA_COEFFS = (
    ((1, 1, 0), (0, 1, 0), (0, -2, 0), (0, 1, 3)),
    ((0, 1, 0), (1, 1, 0), (0, -2, 0), (0, 1, 3)),
    ((0, 1, 0), (0, 1, 0), (1, -2, 0), (0, -2, 6)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0)),
)

# Derivative of the power family at n = 0.
DERIVATIVE_MATRIX: Mat4 = (
    (1, 1, -2, 1),
    (1, 1, -2, 1),
    (1, 1, -2, -2),
    (0, 0, 0, 0),
)

# Recorded names and expected values of the six spanning matrices;
# six_spanning_matrices() computes them in this order, under these names.
SIX_MATRIX_DISPLAYS: tuple[tuple[str, Mat4], ...] = (
    ("S1 D1 S1^-1", ((-1, 2, -1, -1), (-1, 2, -1, 2), (-1, 2, -1, -1), (0, 0, 0, 0))),
    ("S2 D1 S2^-1", ((2, -1, -1, 2), (2, -1, -1, -1), (2, -1, -1, -1), (0, 0, 0, 0))),
    (
        "[S1 D1 S1^-1, S4 D1 S4^-1]",
        ((3, -6, 12, -6), (12, 3, -6, -6), (-6, 12, 3, -6), (0, 0, 0, -9)),
    ),
    (
        "[S2 D1 S2^-1, S4 D1 S4^-1]",
        ((3, 12, -6, -6), (-6, 3, 12, -6), (12, -6, 3, -6), (0, 0, 0, -9)),
    ),
    (
        "[S1S4 D1 (S1S4)^-1, S4 D1 S4^-1]",
        ((30, 12, 12, -24), (12, -6, -6, -6), (12, -6, -6, -6), (36, -18, -18, -18)),
    ),
    (
        "[S2S4 D1 (S2S4)^-1, S4 D1 S4^-1]",
        ((-6, 12, -6, -6), (12, 30, 12, -24), (-6, 12, -6, -6), (-18, 36, -18, -18)),
    ),
)


def translation_matrix() -> Mat4:
    """Compute S1 S2 S1 S3 exactly and assert it equals the recorded matrix.

    A mismatch would mean the generator definitions and the recorded
    display have diverged, which is a fatal defect, so it raises.
    """
    product = _word_matrix((1, 2, 1, 3))
    if product != TRANSLATION_DISPLAY:
        raise AssertionError(f"translation element changed: {product}")
    return product


def power_formula_matrix(n: int) -> Mat4:
    """Evaluate the recorded closed form for the n-th power."""
    _require_int("exponent", n, 0)
    return tuple(
        tuple(c0 + c1 * n + c2 * n * n for (c0, c1, c2) in row)
        for row in POWER_FORMULA_COEFFS
    )


def power_formula_report(max_n: int) -> list[dict[str, int]]:
    """Compare exact powers against the recorded closed form, entrywise.

    Returns every disagreeing (n, entry) pair for 0 <= n <= max_n, as a
    dict with the keys n, row, col, computed and formula.  The recorded
    formula disagrees with the exact powers in exactly one entry for
    every n >= 1; the report states it, the caller decides.
    Above LENGTH_CAP it raises ResourceLimitError before any work.
    """
    _require_int("max_n", max_n, 0, cap=LENGTH_CAP)
    mismatches = []
    power = IDENTITY
    base = translation_matrix()
    for n in range(max_n + 1):
        formula = power_formula_matrix(n)
        for i in range(4):
            for j in range(4):
                if power[i][j] != formula[i][j]:
                    mismatches.append(
                        {"n": n, "row": i, "col": j, "computed": power[i][j], "formula": formula[i][j]}
                    )
        power = mat_mul(power, base)
    return mismatches


def formula_derivative_at_zero() -> Mat4:
    """Linear coefficients of the recorded power formula (exact d/dn at 0)."""
    return tuple(tuple(c1 for (_, c1, _) in row) for row in POWER_FORMULA_COEFFS)


def _conjugate_by_word(word: tuple[int, ...], x: Mat4) -> Mat4:
    """w X w^-1 for a generator word w; generators are their own inverses."""
    return mat_mul(_word_matrix(word), mat_mul(x, _word_matrix(reversed(word))))


def _bracket(x: Mat4, y: Mat4) -> Mat4:
    xy = mat_mul(x, y)
    yx = mat_mul(y, x)
    return tuple(tuple(xy[i][j] - yx[i][j] for j in range(4)) for i in range(4))


@cache
def six_spanning_matrices() -> tuple[tuple[str, Mat4], ...]:
    """The two conjugates and four brackets of D1, named as in SIX_MATRIX_DISPLAYS."""
    c1, c2, c4, c14, c24 = (
        _conjugate_by_word(word, DERIVATIVE_MATRIX) for word in ((1,), (2,), (4,), (1, 4), (2, 4))
    )
    matrices = (c1, c2, _bracket(c1, c4), _bracket(c2, c4), _bracket(c14, c4), _bracket(c24, c4))
    return tuple((name, m) for (name, _), m in zip(SIX_MATRIX_DISPLAYS, matrices))


def display_comparison() -> list[tuple[str, bool]]:
    """Whether each recomputed spanning matrix equals its recorded value."""
    computed = six_spanning_matrices()
    return [
        (name, matrix == expected)
        for (name, matrix), (_, expected) in zip(computed, SIX_MATRIX_DISPLAYS)
    ]


def infinitesimal_residual(x: Mat4) -> Mat4:
    """X^T A + A X; the zero matrix iff X infinitesimally preserves the form."""
    xa = mat_mul(mat_transpose(x), FORM_MATRIX)
    ax = mat_mul(FORM_MATRIX, x)
    return tuple(tuple(xa[i][j] + ax[i][j] for j in range(4)) for i in range(4))


def preserves_form_infinitesimally(x: Mat4) -> bool:
    return infinitesimal_residual(x) == tuple((0, 0, 0, 0) for _ in range(4))


def six_matrix_rank() -> int:
    """Exact rank of the six spanning matrices as 16-vectors (expected: 6,
    the full dimension of the space annihilating the form infinitesimally).
    The matrices are built here, so the elimination runs unchecked."""
    return _bareiss([[entry for row in m for entry in row] for _, m in six_spanning_matrices()])[0]
