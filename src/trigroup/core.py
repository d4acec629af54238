"""Quadruples, the quadratic form, and the four reflection generators.

A triangle quadruple is an ordered 4-tuple of nonnegative integers
(a, b, c, d) satisfying 3(a^2+b^2+c^2+d^2) = (a+b+c+d)^2.  The generator
at position i replaces entry i by the sum of the other three entries
minus entry i; the four generators are involutions represented by
integer 4x4 matrices and generate a reflection group acting on the set
of quadruples.

All arithmetic is exact arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from fractions import Fraction
from functools import reduce
from operator import mul

Quadruple = tuple[int, int, int, int]
Vector4 = tuple[int, int, int, int]
Mat4 = tuple[tuple[int, int, int, int], ...]

GENERATOR_INDICES = (1, 2, 3, 4)

IDENTITY: Mat4 = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)

# Reflection matrices: row i of S_i is (1,1,1,1) with the diagonal entry
# negated; all other rows are identity rows.
_GENERATORS: dict[int, Mat4] = {
    1: ((-1, 1, 1, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    2: ((1, 0, 0, 0), (1, -1, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1)),
    3: ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, -1, 1), (0, 0, 0, 1)),
    4: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, -1)),
}

# Symmetric matrix of the form Q(x) = x A x^T, diagonal 2, off-diagonal -1.
FORM_MATRIX: Mat4 = (
    (2, -1, -1, -1),
    (-1, 2, -1, -1),
    (-1, -1, 2, -1),
    (-1, -1, -1, 2),
)


class ResourceLimitError(RuntimeError):
    """Raised past a cap: an input cap checked by _require_int(..., cap=...),
    or a work cap of orbit._bfs, eisenstein._pollard_rho or
    reduction.reduce_to_root."""


def mat_mul(x: Mat4, y: Mat4) -> Mat4:
    c1, c2, c3, c4 = zip(*y)
    return tuple(
        (sum(map(mul, r, c1)), sum(map(mul, r, c2)), sum(map(mul, r, c3)), sum(map(mul, r, c4)))
        for r in x
    )


def mat_vec(m: Mat4, v: Vector4) -> Vector4:
    return tuple(sum(m[i][k] * v[k] for k in range(4)) for i in range(4))


def mat_transpose(m: Mat4) -> Mat4:
    return tuple(tuple(m[j][i] for j in range(4)) for i in range(4))


def _is_int(value) -> bool:
    """The library's one rule for an int input: an int that is not a bool
    (bool subclasses int, so True would otherwise pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


# The one cap on a word length or BFS depth n (n steps on ~n-digit numbers):
# orbit._bfs's depth, growth_recurrence_terms, stabilizer_counts, extremal_word,
# word_norm's word and lie.power_formula_report's max_n.
LENGTH_CAP = 10_000
# The cap on the exponent e of a fraction string ("1e-5"), built as 10**e:
# Python's default int/str digit limit, so no larger value could be printed.
EXPONENT_CAP = 4300


def _require_int(
    name: str, value, minimum: int | None = None, maximum: int | None = None, cap: int | None = None
) -> int:
    """Return value if it is an int (not a bool) in [minimum, maximum];
    otherwise raise ValueError.  Public entry points call this once on
    each int argument, so floats, bools, strings and None never reach the
    arithmetic.  An int above cap raises ResourceLimitError, before any
    work."""
    if not (
        _is_int(value)
        and (minimum is None or value >= minimum)
        and (maximum is None or value <= maximum)
    ):
        low = "" if minimum is None else f" >= {minimum}"
        high = "" if maximum is None else f" <= {maximum}"
        raise ValueError(f"{name} must be an int{low}{high}, got {value!r}")
    if cap is not None and value > cap:
        raise ResourceLimitError(f"{name} {value} exceeds cap {cap}")
    return value


def _rational(name: str, value) -> Fraction:
    """The library's one rule for a rational input: a Fraction, an int
    that is not a bool, or a str that Fraction parses ("3/8", "-2",
    "0.25", "2.5E3").  Anything else, floats and bools included, raises
    ValueError; a str whose exponent exceeds EXPONENT_CAP in magnitude
    raises ResourceLimitError before it is parsed."""
    if isinstance(value, Fraction) or _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            exponent = value.lower().partition("e")[2] or 0
            _require_int(f"{name} exponent", abs(int(exponent)), cap=EXPONENT_CAP)
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name} must be a Fraction, an int or a fraction string, got {value!r}")


def _as_tuple(name: str, value) -> tuple:
    """value as a tuple; ValueError if it is not iterable (an int, None, a
    float), or if its items are not its entries in an order the caller
    set: a str or bytes, a set or a mapping."""
    if type(value) is tuple:
        return value
    if not isinstance(value, (str, bytes, bytearray, Set, Mapping)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a sequence, got {value!r}")


def generator_matrix(i: int) -> Mat4:
    """Return the reflection matrix S_i for i in {1, 2, 3, 4}."""
    return _GENERATORS[_require_int("generator index", i, 1, 4)]


def _word_matrix(word) -> Mat4:
    """The product S_w1 S_w2 ... S_wk of the generator matrices along word."""
    return reduce(mat_mul, map(generator_matrix, word), IDENTITY)


def quadratic_form(x) -> int:
    """Evaluate Q(x) = 3*sum(x_i^2) - (sum(x_i))^2 on an integer 4-vector.

    Q vanishes exactly on the solutions of the quadruple equation, and
    equals x A x^T for the form matrix A.
    """
    x = _as_tuple("form vector", x)
    for v in x:
        _require_int("form entry", v)
    return _form(x)


def _form(x) -> int:
    """quadratic_form on a 4-vector whose entries are already checked."""
    a, b, c, d = x
    return 3 * (a * a + b * b + c * c + d * d) - (a + b + c + d) ** 2


def is_triangle_quadruple(q) -> bool:
    """True iff q is a nonnegative, not-all-zero integer 4-tuple with Q(q) = 0.

    Total over arbitrary values: a value that _as_tuple rejects, or an
    entry that is a bool or not an int, makes the answer False.  The
    all-zero tuple satisfies the equation but is rejected: it is fixed
    by every generator and has no geometric reading.
    """
    try:
        q = _as_tuple("quadruple", q)
    except ValueError:
        return False
    return len(q) == 4 and all(_is_int(x) and x >= 0 for x in q) and any(q) and _form(q) == 0


def validate_quadruple(q) -> Quadruple:
    """Return q as a tuple, raising ValueError if it is not a valid quadruple."""
    t = _as_tuple("quadruple", q)
    if not is_triangle_quadruple(t):
        raise ValueError(f"not a triangle quadruple: {t!r}")
    return t


def _reflect(v: Vector4, i: int) -> Vector4:
    """Generator i on a 4-vector: entry i becomes the sum of the others
    minus itself.  Unchecked: i must be in 1..4, and v may be any integer
    vector.  Validation belongs to the public callers."""
    a, b, c, d = v
    if i == 1:
        return (b + c + d - a, b, c, d)
    if i == 2:
        return (a, a + c + d - b, c, d)
    if i == 3:
        return (a, b, a + b + d - c, d)
    return (a, b, c, a + b + c - d)


def apply_generator(q: Quadruple, i: int) -> Quadruple:
    """Replace entry i of a valid quadruple by (sum of the others) - entry.

    The result is again a valid quadruple: the product of the old and
    new entry at position i equals the sum of squared differences of the
    other three, so the new entry is nonnegative (a theorem the tests
    check, not a runtime branch).
    """
    q = validate_quadruple(q)
    return _reflect(q, _require_int("generator index", i, 1, 4))


def verify_coxeter_relations() -> list[tuple[str, bool]]:
    """Check S_i^2 = I (4 identities) and (S_i S_j)^3 = I (12 identities).

    Returns one (name, holds) record per identity, in a fixed order.
    Every check is an exact integer matrix computation.
    """
    checks = [(f"S{i}^2", mat_mul(si, si) == IDENTITY) for i, si in _GENERATORS.items()]
    for i, si in _GENERATORS.items():
        for j, sj in _GENERATORS.items():
            if i != j:
                p = mat_mul(si, sj)
                checks.append((f"(S{i}S{j})^3", mat_mul(mat_mul(p, p), p) == IDENTITY))
    return checks


def form_signature() -> tuple[int, int, int]:
    """Signature of the form matrix as (positive, negative, zero) counts.

    Computed by exhibiting an exact eigenbasis: A = 3I - J with J the
    all-ones matrix, so (1,1,1,1) has eigenvalue -1 and the three
    independent sum-zero differences have eigenvalue 3.
    """
    ones = (1, 1, 1, 1)
    if mat_vec(FORM_MATRIX, ones) != (-1, -1, -1, -1):
        raise AssertionError("form matrix lost its -1 eigenvector")
    positive = 0
    for v in ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)):
        if mat_vec(FORM_MATRIX, v) != tuple(3 * x for x in v):
            raise AssertionError(f"form matrix lost its 3-eigenvector {v}")
        positive += 1
    return (positive, 1, 0)


def norm_form_substitution(q: Quadruple) -> tuple[int, int, int, int]:
    """Map a nonincreasing valid quadruple (a,b,c,d) to (a, b, a+b-c, a+b-d).

    The image (x,y,z,w) satisfies -6xy + 2z^2 - 2zw + 2w^2 = Q(q) = 0,
    i.e. z^2 - zw + w^2 = 3xy.  Rejects input that is not sorted in
    nonincreasing order.
    """
    q = validate_quadruple(q)
    a, b, c, d = q
    if not (a >= b >= c >= d):
        raise ValueError(f"quadruple must be sorted nonincreasing: {q!r}")
    return (a, b, a + b - c, a + b - d)
