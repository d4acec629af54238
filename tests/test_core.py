import pytest
from hypothesis import given, strategies as st

from trigroup.core import (
    FORM_MATRIX,
    IDENTITY,
    ResourceLimitError,
    _require_int,
    apply_generator,
    form_signature,
    generator_matrix,
    is_triangle_quadruple,
    mat_mul,
    mat_transpose,
    mat_vec,
    norm_form_substitution,
    quadratic_form,
    validate_quadruple,
    verify_coxeter_relations,
)
from conftest import random_quadruples
from matrix_bfs import det4 as _det4

int_vectors = st.tuples(*[st.integers(-200, 200)] * 4)

# Change of variables (a,b,c,d) -> (a, b, a+b-c, a+b-d); unimodular, and
# it carries Q to -6xy + 2z^2 - 2zw + 2w^2.
SUBSTITUTION_MATRIX = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (1, 1, -1, 0),
    (1, 1, 0, -1),
)


@pytest.mark.parametrize(
    "q,expected",
    [
        ((0, 1, 1, 1), True),
        ((7, 4, 3, 1), True),
        ((1, 1, 1, 1), False),
        ((0, 0, 0, 0), False),
        ((-3, 1, 1, 1), False),
        ((3, 1, 1, 1), True),
    ],
)
def test_is_triangle_quadruple(q, expected):
    assert is_triangle_quadruple(q) is expected


@pytest.mark.parametrize(
    "x,expected",
    [((7, 4, 3, 1), 0), ((1, 1, 1, 1), -4), ((1, 0, 0, 0), 2)],
)
def test_quadratic_form_values(x, expected):
    assert quadratic_form(x) == expected


@given(int_vectors)
def test_form_matches_matrix_path(x):
    # x A x^T must agree with the explicit 3*sum(sq) - sq(sum) formula
    assert quadratic_form(x) == sum(a * b for a, b in zip(mat_vec(FORM_MATRIX, x), x))


@given(int_vectors, st.integers(1, 4))
def test_form_invariant_under_generators(x, i):
    assert quadratic_form(mat_vec(generator_matrix(i), x)) == quadratic_form(x)


@pytest.mark.parametrize(
    "q,i,expected",
    [
        ((7, 4, 3, 1), 3, (7, 4, 9, 1)),
        ((0, 1, 1, 1), 1, (3, 1, 1, 1)),
        ((7, 4, 3, 1), 4, (7, 4, 3, 13)),
    ],
)
def test_apply_generator_examples(q, i, expected):
    result = apply_generator(q, i)
    assert result == expected
    assert is_triangle_quadruple(result)


def test_apply_generator_rejects_invalid():
    with pytest.raises(ValueError):
        apply_generator((1, 1, 1, 1), 1)
    with pytest.raises(ValueError):
        apply_generator((0, 1, 1, 1), 5)


@pytest.mark.parametrize("i", [True, 1.0, 0, "1"])
def test_apply_generator_rejects_non_int_index(i):
    with pytest.raises(ValueError):
        apply_generator((0, 1, 1, 1), i)
    with pytest.raises(ValueError):
        generator_matrix(i)


# Each satisfies the quadruple equation, but one entry is a bool or not an int.
@pytest.mark.parametrize(
    "q",
    [(True, True, True, False), (1, 1, 1, False), (1.5, 1.5, 1.5, 0.0), (3.0, 1, 1, 1)],
)
def test_non_int_entries_are_not_quadruples(q):
    assert 3 * sum(x * x for x in q) - sum(q) ** 2 == 0
    assert is_triangle_quadruple(q) is False
    with pytest.raises(ValueError):
        quadratic_form(q)
    with pytest.raises(ValueError):
        validate_quadruple(q)
    with pytest.raises(ValueError):
        apply_generator(q, 1)


@given(
    st.integers(1, 50),
    st.integers(0, 3),
    st.lists(st.integers(1, 4), max_size=30),
)
def test_reflection_keeps_entries_nonnegative(x, zero_at, word):
    # the new entry t at position i satisfies 2*t*q_i = sum of squared
    # differences of the other three entries, so t >= 0 when q_i > 0, and
    # q_i = 0 forces the others equal to some x and t = 3x; apply_generator
    # has no runtime check of it
    q = tuple(0 if j == zero_at else x for j in range(4))
    for letter in word:
        for i in range(1, 5):
            assert min(apply_generator(q, i)) >= 0
        q = apply_generator(q, letter)


def test_generator_matrix_literals():
    assert generator_matrix(4) == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (1, 1, 1, -1),
    )
    assert generator_matrix(1) == (
        (-1, 1, 1, 1),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_matrix_and_arithmetic_paths_agree():
    for q in random_quadruples(50):
        for i in range(1, 5):
            assert mat_vec(generator_matrix(i), q) == apply_generator(q, i)


def test_apply_generator_is_involution():
    for q in random_quadruples(50, seed=1):
        for i in range(1, 5):
            assert apply_generator(apply_generator(q, i), i) == q


def test_product_identity_all_positions():
    # twice entry * (sum of others - entry) equals the sum of squared
    # pairwise differences of the other three entries, in every position
    for q in random_quadruples(60, seed=2):
        for i in range(4):
            rest = [q[j] for j in range(4) if j != i]
            lhs = q[i] * (sum(rest) - q[i])
            a, b, c = rest
            assert 2 * lhs == (a - b) ** 2 + (b - c) ** 2 + (c - a) ** 2


def test_coxeter_relations_all_pass():
    checks = verify_coxeter_relations()
    assert len(checks) == 16
    assert all(ok for _, ok in checks)


def test_generators_are_reflections():
    # determinant -1 and square the identity
    for i in range(1, 5):
        s = generator_matrix(i)
        assert _det4(s) == -1
        assert mat_mul(s, s) == IDENTITY
        assert mat_mul(mat_transpose(s), mat_mul(FORM_MATRIX, s)) == FORM_MATRIX


def test_form_signature():
    assert form_signature() == (3, 1, 0)
    assert mat_vec(FORM_MATRIX, (1, 1, 1, 1)) == (-1, -1, -1, -1)
    assert mat_vec(FORM_MATRIX, (1, -1, 0, 0)) == (3, -3, 0, 0)


@pytest.mark.parametrize(
    "q,expected",
    [((7, 4, 3, 1), (7, 4, 8, 10)), ((3, 1, 1, 1), (3, 1, 3, 3))],
)
def test_substitution_examples(q, expected):
    assert norm_form_substitution(q) == expected


def test_substitution_kills_the_form():
    for q in random_quadruples(50, seed=3):
        q = tuple(sorted(q, reverse=True))
        x, y, z, w = norm_form_substitution(q)
        assert -6 * x * y + 2 * z * z - 2 * z * w + 2 * w * w == 0
        assert z * z - z * w + w * w == 3 * x * y


def test_substitution_rejects_bad_input():
    with pytest.raises(ValueError):
        norm_form_substitution((1, 4, 3, 7))
    with pytest.raises(ValueError):
        norm_form_substitution((0, 0, 0, 0))


def test_substitution_matrix_unimodular():
    assert _det4(SUBSTITUTION_MATRIX) == 1
    for q in random_quadruples(20, seed=4):
        q = tuple(sorted(q, reverse=True))
        assert mat_vec(SUBSTITUTION_MATRIX, q) == norm_form_substitution(q)


def test_validate_quadruple_passthrough():
    assert validate_quadruple([0, 1, 1, 1]) == (0, 1, 1, 1)
    with pytest.raises(ValueError):
        validate_quadruple((1, 2, 3))


@pytest.mark.parametrize("value", [None, 5, 1.5, True])
def test_non_iterables_are_not_quadruples(value):
    assert is_triangle_quadruple(value) is False
    with pytest.raises(ValueError):
        validate_quadruple(value)
    with pytest.raises(ValueError):
        quadratic_form(value)


def test_require_int_cap_after_the_int_check():
    assert _require_int("n", 10, 0, cap=10) == 10
    with pytest.raises(ResourceLimitError, match="^n 11 exceeds cap 10$"):
        _require_int("n", 11, 0, cap=10)
    # a value that is not an int, or out of range, is invalid before it is too big
    for value in (11.0, True, -1):
        with pytest.raises(ValueError):
            _require_int("n", value, 0, cap=0)
