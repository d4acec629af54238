"""One rule for int inputs and one for rational inputs at every public
entry point.

Each public function that takes an int (directly, or as an entry of a
quadruple or a word) or a rational (an entry of a simplex tuple, a
coordinate, a scale or a weight) is listed below with a small valid call
and the positions of those arguments.  The property replaces one of them
by a float, a bool, a str that is not a number of the right kind, None
or an out-of-range int, or replaces a whole container of them (a
quadruple, a word, a tuple) by an int, None or a float: the call must
raise ValueError (or ResourceLimitError), never TypeError or IndexError,
and it may return only where the value is legal (None for an optional
cap) or the function is a total predicate.
"""

import inspect
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import trigroup
from trigroup import ResourceLimitError, counting, eisenstein, lie, linalg, orbit, simplex
from trigroup.core import LENGTH_CAP
import simplex_oracle

Q = (0, 1, 1, 1)
Q7 = (7, 4, 3, 1)
T = (1, Fraction(3, 8), Fraction(3, 8), Fraction(3, 8), Fraction(3, 8))
ANY = (None, None)
NONNEG = (0, None)
POSITIVE = (1, None)
GENERATOR = (1, 4)
RATIONAL = "rational"  # a Fraction, an int or a fraction string, of any sign
W = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
# a regular triangle with vertices (3/2) e_i in R^3, and its centroid
V3 = tuple(tuple(Fraction(3, 2) if j == i else 0 for j in range(3)) for i in range(3))
P3 = (Fraction(1, 2),) * 3
M2 = ((2, -1), (1, 3))
M23 = ((2, -1, 0), (1, 3, 5))
R2 = ((Fraction(1, 2), -1), (1, 3))


def _entries(arg, valid_range, count=4):
    """Slots for the entries of the quadruple (or other tuple) at argument
    position arg."""
    return {(arg, j): valid_range for j in range(count)}


def _matrix_entries(matrix, valid_range):
    """Slots for the entries of the matrix that is argument 0."""
    return {(0, i, j): valid_range for i, row in enumerate(matrix) for j in range(len(row))}


# name -> (valid positional args, {path: (min, max) of the legal ints, or
# RATIONAL}).  A path (i,) is argument i; (i, j) is entry j of argument i,
# (i, j, k) entry k of that entry.  Every proper prefix of a longer path
# is a container slot, added to SLOTS below.
# Functions without an int or rational parameter have no slots; they are
# listed so that the coverage test sees every public function considered.
CALLS = {
    # core
    "apply_generator": ((Q, 1), {**_entries(0, NONNEG), (1,): GENERATOR}),
    "generator_matrix": ((1,), {(0,): GENERATOR}),
    "is_triangle_quadruple": ((Q,), _entries(0, NONNEG)),
    "norm_form_substitution": (((1, 1, 1, 0),), _entries(0, NONNEG)),
    "quadratic_form": ((Q7,), _entries(0, ANY)),
    "validate_quadruple": ((Q,), _entries(0, NONNEG)),
    "form_signature": ((), {}),
    "verify_coxeter_relations": ((), {}),
    # counting
    "canonicalize": ((Q,), _entries(0, NONNEG)),
    "count_by_height": ((10, "canonical", True, 100), {(0,): POSITIVE, (3,): POSITIVE}),
    "count_by_max": ((10, "ordered", False, 100), {(0,): POSITIVE, (3,): POSITIVE}),
    "list_by_height": ((10, "ordered", True, 100), {(0,): POSITIVE, (3,): POSITIVE}),
    "list_by_max": ((10, "canonical", False, 100), {(0,): POSITIVE, (3,): POSITIVE}),
    "divisor_square_sum": ((100,), {(0,): POSITIVE}),
    "height_sweep": ((10, "canonical", 100), {(0,): POSITIVE, (2,): POSITIVE}),
    # eisenstein
    "divisor_character_sum": ((91,), {(0,): POSITIVE}),
    "factorize": ((91,), {(0,): POSITIVE}),
    "quadruples_with_pair": ((1, 2), {(0,): POSITIVE, (1,): POSITIVE}),
    "representation_count": ((7,), {(0,): POSITIVE}),
    "solve_norm_form": ((7,), {(0,): NONNEG}),
    # orbit
    "bfs_elements": ((3, 1000), {(0,): NONNEG, (1,): POSITIVE}),
    "coxeter_char_poly": ((), {}),
    "coxeter_element": ((), {}),
    "extremal_word": ((5,), {(0,): NONNEG}),
    "growth_recurrence": ((5,), {(0,): NONNEG}),
    "max_norm_at_length": ((3, Q, 1000), {(0,): NONNEG, **_entries(1, NONNEG), (2,): POSITIVE}),
    "orbit_layers": (
        (Q, 3, 1000, 50),
        {**_entries(0, NONNEG), (1,): NONNEG, (2,): POSITIVE, (3,): NONNEG},
    ),
    "orbit_vectors": (
        (Q, 3, 1000, 50),
        {**_entries(0, NONNEG), (1,): NONNEG, (2,): POSITIVE, (3,): NONNEG},
    ),
    "orbit_sizes": (
        (Q, 3, 1000, 50),
        {**_entries(0, NONNEG), (1,): NONNEG, (2,): POSITIVE, (3,): NONNEG},
    ),
    "prime_factor_count": ((Q7,), _entries(0, NONNEG)),
    # error_bound is a rational, but it follows the int rule for its type
    "spectral_radius": ((Fraction(1, 10),), {(0,): (1, None)}),
    "spectral_radius_closed_form": ((), {}),
    "stabilizer_counts": ((4,), {(0,): NONNEG}),
    "word_norm": (((1, 2), Q), {(0, 0): GENERATOR, (0, 1): GENERATOR, **_entries(1, NONNEG)}),
    # reduction
    "gcd_content": ((Q7,), _entries(0, NONNEG)),
    "is_primitive": ((Q7,), _entries(0, NONNEG)),
    "is_root": ((Q7,), _entries(0, NONNEG)),
    "reduce_step": ((Q7,), _entries(0, NONNEG)),
    "reduce_to_root": ((Q7,), _entries(0, NONNEG)),
    "same_orbit": ((Q, Q7), {**_entries(0, NONNEG), **_entries(1, NONNEG)}),
    # lie
    "translation_matrix": ((), {}),
    "power_formula_matrix": ((3,), {(0,): NONNEG}),
    "power_formula_report": ((3,), {(0,): NONNEG}),
    "formula_derivative_at_zero": ((), {}),
    "six_spanning_matrices": ((), {}),
    "display_comparison": ((), {}),
    "infinitesimal_residual": ((), {}),
    "preserves_form_infinitesimally": ((), {}),
    "six_matrix_rank": ((), {}),
    # linalg: integer or rational matrices of any shape the function admits
    "bareiss_det": ((M2,), _matrix_entries(M2, ANY)),
    "bareiss_rank": ((M23,), _matrix_entries(M23, ANY)),
    "char_poly": ((M2,), _matrix_entries(M2, ANY)),
    "rational_rank": ((R2,), _matrix_entries(R2, RATIONAL)),
    # simplex: tuple entries, scale and weights are rationals
    "as_entries": ((T,), _entries(0, RATIONAL, 5)),
    "dimension": ((), {}),
    "identity_residual": ((T,), _entries(0, RATIONAL, 5)),
    "reflect": ((T, 1), {**_entries(0, RATIONAL, 5), (1,): (1, 4)}),
    "gram_det": ((T,), _entries(0, RATIONAL, 5)),
    "gram_closed_form": ((T,), _entries(0, RATIONAL, 5)),
    "tuple_from_configuration": ((), {}),
    "gram_residual": ((), {}),
    "standard_configuration": (
        (3, Fraction(1, 2), W),
        {(0,): (2, None), (1,): RATIONAL, **_entries(2, RATIONAL)},
    ),
    "PointConfiguration": (
        (V3, P3),
        {**{(0, i, j): RATIONAL for i in range(3) for j in range(3)}, **_entries(1, RATIONAL, 3)},
    ),
    "configuration_from_json": ((), {}),
    "load_configuration": ((), {}),
}

TOTAL = {"is_triangle_quadruple"}  # predicates that answer False instead of raising

# The Fraction-path reference in tests/simplex_oracle.py keeps the valid
# calls it had as public functions: the rational matrix R2 and the tuple T.
ORACLE_CALLS = {
    "gram_matrix": (simplex_oracle.gram_matrix, (T,)),
    "rational_det": (simplex_oracle.rational_det, (R2,)),
}


def _public_functions():
    found = {}
    for name in trigroup.__all__:
        value = getattr(trigroup, name)
        if inspect.isfunction(value):
            found[name] = value
    for module in (eisenstein, lie, linalg, simplex):
        for name, value in vars(module).items():
            if (
                inspect.isfunction(inspect.unwrap(value))
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[name] = value
    # the one public class built from caller input rather than returned
    found["PointConfiguration"] = simplex.PointConfiguration
    return found


FUNCTIONS = _public_functions()
CONTAINER = "container"  # a tuple of int or rational slots, as a whole
SLOTS = sorted(
    {(name, path, bounds) for name, (_, slots) in CALLS.items() for path, bounds in slots.items()}
    | {(name, path[:k], CONTAINER) for name, (_, slots) in CALLS.items() for path in slots for k in range(1, len(path))}
)


def test_every_public_function_is_listed():
    assert set(CALLS) == set(FUNCTIONS)


def test_public_names():
    assert set(trigroup.__all__) == {
        "FORM_MATRIX", "IDENTITY", "ResourceLimitError", "apply_generator", "form_signature",
        "generator_matrix", "is_triangle_quadruple", "norm_form_substitution", "quadratic_form",
        "validate_quadruple", "verify_coxeter_relations",
        "CensusReport", "canonicalize", "count_by_height", "count_by_max", "divisor_square_sum",
        "height_sweep", "list_by_height", "list_by_max",
        "divisor_character_sum", "factorize", "quadruples_with_pair", "representation_count",
        "solve_norm_form",
        "VectorOrbit", "bfs_elements", "coxeter_char_poly", "coxeter_element",
        "extremal_word", "growth_recurrence", "max_norm_at_length", "orbit_layers",
        "orbit_sizes", "orbit_vectors", "prime_factor_count", "spectral_radius",
        "spectral_radius_closed_form", "stabilizer_counts", "word_norm",
        "ReductionTrace", "gcd_content", "is_primitive", "is_root", "reduce_step",
        "reduce_to_root", "same_orbit",
        "NegativeEntryWarning", "PointConfiguration", "gram_closed_form", "gram_det",
        "gram_residual", "identity_residual", "reflect", "standard_configuration",
        "tuple_from_configuration",
    }
    assert len(trigroup.__all__) == 55


@pytest.mark.parametrize("name", sorted([n for n in CALLS if CALLS[n][1]] + list(ORACLE_CALLS)))
def test_valid_calls_return(name):
    if name in ORACLE_CALLS:
        function, args = ORACLE_CALLS[name]
    else:
        function, args = FUNCTIONS[name], CALLS[name][0]
    result = function(*args)
    if name in TOTAL:
        assert result is True


def _replace(args, path, value):
    if not path:
        return value
    args = list(args)
    args[path[0]] = _replace(args[path[0]], path[1:], value)
    return tuple(args)


@st.composite
def _bad_calls(draw):
    name, path, bounds = draw(st.sampled_from(SLOTS))
    if bounds == CONTAINER:
        return name, path, draw(st.sampled_from([0, 5, None, 1.5]))
    valid = CALLS[name][0]
    for index in path:
        valid = valid[index]
    if bounds == RATIONAL:
        bad = draw(st.sampled_from([True, False, None, float(valid), float(valid) + 0.5, f"{valid}?"]))
        return name, path, bad
    low, high = bounds
    wrong_type = st.sampled_from([True, False, None, str(valid), float(valid), float(valid) + 0.5])
    out_of_range = []
    if low is not None:
        out_of_range.append(st.integers(low - 50, low - 1))
    if high is not None:
        out_of_range.append(st.integers(high + 1, high + 50))
    bad = draw(st.one_of(wrong_type, *out_of_range))
    return name, path, bad


@settings(max_examples=400, deadline=None)
@given(_bad_calls())
def test_bad_int_raises_value_error(case):
    name, path, bad = case
    fn = FUNCTIONS[name]
    args = _replace(CALLS[name][0], path, bad)
    try:
        result = fn(*args)
    except (ValueError, ResourceLimitError):
        return
    if name in TOTAL:
        assert result is False
        return
    # the one legal replacement: None for a parameter whose default is None
    parameter = list(inspect.signature(fn).parameters.values())[path[0]]
    assert len(path) == 1 and bad is None and parameter.default is None, (name, path, bad, result)


# Each of these returned a value, leaked TypeError or never returned before
# the int rule was applied at every entry point.
@pytest.mark.parametrize(
    "call",
    [
        lambda: orbit.growth_recurrence(True),
        lambda: orbit.growth_recurrence(2.0),
        lambda: orbit.extremal_word(True),
        lambda: orbit.extremal_word(2.0),
        lambda: counting.count_by_height(True),
        lambda: counting.count_by_height(3.0),
        lambda: counting.list_by_height(2.5),
        lambda: counting.height_sweep(True),
        lambda: counting.count_by_height(10, max_bound=True),
        lambda: orbit.stabilizer_cumulative_closed_form(1.5),
        lambda: orbit.stabilizer_cumulative_closed_form(-1),
        lambda: orbit.bfs_elements(3, -1),
        lambda: orbit.bfs_elements(3, max_elements=True),
        lambda: orbit.orbit_vectors(Q, 3, max_sum=2.5),
        lambda: simplex.reflect(T, True),
        lambda: orbit.spectral_radius(Fraction(0)),
        lambda: trigroup.quadratic_form((1.5, 1, 1, 0)),
        lambda: simplex.as_entries((None, 1, 1, 1)),
        lambda: simplex.as_entries((True, 1, 1, 1)),
        lambda: simplex.as_entries((0.5, 1, 1, 1)),
        lambda: simplex.as_entries(("1/0", 1, 1, 1)),
        lambda: simplex.standard_configuration(2, scale=True),
        lambda: simplex.standard_configuration(2, scale=0.5),
        lambda: simplex.standard_configuration(2, weights=(0.5, 0.25, 0.25)),
        lambda: simplex.PointConfiguration([(1, 0), (0, 1)], (0.5, 0.5)),
        lambda: simplex.PointConfiguration(vertices=((1.5, 0, 0), (0, 1.5, 0), (0, 0, 1.5)), point=(0.5, 0.5, 0.5)),
        lambda: simplex.PointConfiguration(vertices=V3, point=None),
        lambda: trigroup.validate_quadruple(5),
        lambda: simplex.as_entries(5),
        lambda: simplex.identity_residual(None),
        lambda: orbit.word_norm(None, Q),
        lambda: trigroup.quadratic_form(None),
        lambda: simplex.standard_configuration(2, weights=5),
        lambda: simplex.configuration_from_json({"vertices": [[[1, 1]]], "point": [[0.5, 1]]}),
        lambda: simplex.configuration_from_json({"vertices": [[[1, 1]]]}),
        lambda: simplex.configuration_from_json({"vertices": [[[1, 1]]], "point": [[1, 0]]}),
        lambda: simplex.configuration_from_json({"vertices": [[1]], "point": []}),
        lambda: simplex.configuration_from_json({"vertices": [[[1, 2, 3]]], "point": []}),
        lambda: simplex.configuration_from_json("[1, 2]"),
        # a pair is two ints, not two rationals
        lambda: simplex.configuration_from_json({"vertices": [[[1, 1]]], "point": [["1/2", "1/3"]]}),
        lambda: simplex.configuration_from_json({"vertices": [[[1, 1]]], "point": [["0.5", 1]]}),
        lambda: simplex.configuration_from_json({"vertices": [[[1, 1]]], "point": [[1, "2"]]}),
        lambda: simplex.configuration_from_json({"vertices": [[[1, 1]]], "point": [[True, 1]]}),
        # the determinant of the first is 1/2, and True was read as 1
        lambda: linalg.bareiss_det([[0.5, 1], [1, 3]]),
        lambda: linalg.bareiss_det([[True, 1], [1, 3]]),
        lambda: linalg.bareiss_rank([[1, 2], [3]]),
        lambda: linalg.bareiss_det(5),
        lambda: linalg.rational_rank([[0.5, 1], [1, 3]]),
        lambda: linalg.rational_rank([[1, 2], [3, None]]),
        lambda: linalg.char_poly([[1, "2"], [3, 4]]),
        # a str, a set or a mapping is not a sequence of entries: these
        # returned (2, 1, 1, 1), -2, 2 and 3, reading characters, set
        # members in hash order and the dict's keys
        lambda: simplex.as_entries("2111"),
        lambda: linalg.rational_rank(["12", "34"]),
        lambda: linalg.bareiss_rank([{1, 2}, {3, 4}]),
        lambda: orbit.word_norm({1: 0, 2: 0}, (0, 1, 1, 1)),
    ],
)
def test_motivating_probes_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: lie.power_formula_report(LENGTH_CAP + 1),
        lambda: orbit.growth_recurrence(orbit.LENGTH_CAP + 1),
        lambda: orbit.extremal_word(orbit.LENGTH_CAP + 1),
        lambda: orbit.extremal_word(10**100),
        lambda: orbit.stabilizer_counts(orbit.LENGTH_CAP + 1),
        lambda: orbit.max_norm_at_length(10000, (0, 1, 1, 1)),
        # the BFS depth: with a max_sum, each layer past the orbit's last
        # is empty yet costs a loop step, so only the depth bounds the walk
        lambda: orbit.orbit_sizes(Q, LENGTH_CAP + 1, max_sum=10),
        lambda: orbit.orbit_vectors(Q7, LENGTH_CAP + 1, max_sum=20),
        lambda: orbit.bfs_elements(LENGTH_CAP + 1),
        lambda: orbit.word_norm((1,) * (LENGTH_CAP + 1), Q),
        # the elimination's cap, on the matrix of each function that runs it
        lambda: linalg.bareiss_det([[2**1800]]),
        lambda: linalg.bareiss_rank([[1, 2**1800]]),
        lambda: linalg.rational_rank([[Fraction(2**1800, 3)]]),
        lambda: linalg.char_poly([[2**1800]]),
        lambda: simplex.gram_det((1, 2**900, 1, 1)),
    ],
)
def test_work_caps_raise_before_any_work(call):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        call()
    assert time.perf_counter() - start < 0.1


def test_work_caps_admit_their_bound():
    assert len(orbit.extremal_word(orbit.LENGTH_CAP)) == orbit.LENGTH_CAP
    assert orbit.growth_recurrence(orbit.LENGTH_CAP) > 0
    assert orbit.stabilizer_counts(orbit.LENGTH_CAP)[-1] == 3 * orbit.LENGTH_CAP
    # the orbit of Q under sum 10 is 5 vectors, all within depth 2
    assert sum(orbit.orbit_sizes(Q, LENGTH_CAP, max_sum=10)) == 5
    assert orbit.word_norm(orbit.extremal_word(LENGTH_CAP), Q) > 0
