import random
import time
import warnings
from fractions import Fraction
from operator import mul

import pytest

from trigroup import simplex
from trigroup.core import EXPONENT_CAP, ResourceLimitError, apply_generator
from trigroup.linalg import rational_rank
from trigroup.simplex import (
    NegativeEntryWarning,
    PointConfiguration,
    configuration_from_json,
    gram_closed_form,
    gram_det,
    gram_residual,
    as_entries,
    identity_residual,
    reflect,
    standard_configuration,
    tuple_from_configuration,
)
import simplex_oracle as oracle
from conftest import configuration_json, random_quadruples

F = Fraction

CENTROID_TUPLE = (1, F(3, 8), F(3, 8), F(3, 8), F(3, 8))


def is_valid_tuple(values):
    return identity_residual(values) == 0


def nonintegral_reflection_example():
    """An integer-valued valid tuple for n = 3 whose reflection is not integral.

    The point at a vertex of a unit-side 3-simplex gives (1, 0, 1, 1, 1);
    reflecting the zero entry yields 8/3: the n > 2 reflections leave the
    integers.
    """
    entries = as_entries((1, 0, 1, 1, 1))
    return entries, 1, reflect(entries, 1)


def random_valid_tuple(rng, n):
    """Valid (n+2)-tuple from a random rational configuration."""
    weights = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
    weights.append(1 - sum(weights))
    cfg = standard_configuration(n, scale=F(rng.randint(1, 6), rng.randint(1, 4)), weights=weights)
    return tuple_from_configuration(cfg)


def test_identity_residual_examples():
    assert identity_residual(CENTROID_TUPLE) == 0
    assert identity_residual((7, 4, 3, 1)) == 0
    assert identity_residual((1, 1, 1, 1)) == -4
    assert is_valid_tuple((2, F(3, 4), F(3, 4), F(3, 4), F(3, 4)))


def test_reflect_centroid_example():
    reflected = reflect(CENTROID_TUPLE, 4)
    assert reflected == (1, F(3, 8), F(3, 8), F(3, 8), F(25, 24))
    assert identity_residual(reflected) == 0


def test_reflect_is_involution():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            t = random_valid_tuple(rng, n)
            idx = rng.randint(1, n + 1)
            assert reflect(reflect(t, idx), idx) == t


def test_reflect_preserves_identity():
    rng = random.Random(12)
    for n in (2, 3, 4):
        for _ in range(15):
            t = random_valid_tuple(rng, n)
            idx = rng.randint(1, n + 1)
            assert identity_residual(reflect(t, idx)) == 0


def test_reflect_matches_quadruple_generators_for_n2():
    for q in random_quadruples(200, seed=13):
        index = random.Random(sum(q)).randint(1, 3)
        reflected = reflect(tuple(map(F, q)), index)
        # tuple position 0 is the fixed side entry; positions 1..3 map to
        # generator indices 2..4
        expected = apply_generator(q, index + 1)
        assert tuple(int(e) for e in reflected) == expected


def test_reflect_rejects_invalid_or_bad_index():
    with pytest.raises(ValueError):
        reflect((1, 1, 1, 1), 1)
    with pytest.raises(ValueError):
        reflect(CENTROID_TUPLE, 5)
    with pytest.raises(ValueError):
        reflect(CENTROID_TUPLE, 0)


def test_reflect_warns_on_negative_entry():
    # algebra-closed input: an all-nonpositive valid tuple reflects negative
    with pytest.warns(NegativeEntryWarning):
        result = reflect((-1, -1, -1, 0), 3)
    assert result == (-1, -1, -1, -3)
    assert identity_residual(result) == 0


def test_nonnegative_tuples_reflect_nonnegative():
    # Cauchy-Schwarz forces both roots of the entry quadratic to be
    # nonnegative when the other entries are; spot check it
    rng = random.Random(14)
    for n in (2, 3, 4):
        for _ in range(20):
            t = random_valid_tuple(rng, n)
            for idx in range(1, n + 2):
                assert all(e >= 0 for e in reflect(t, idx))


def test_tuple_from_standard_configuration():
    cfg = standard_configuration(3)
    t = tuple_from_configuration(cfg)
    assert t == (2, F(3, 4), F(3, 4), F(3, 4), F(3, 4))
    assert identity_residual(t) == 0
    # the centroid tuple is its half; the identity is scale invariant
    assert identity_residual(tuple(e / 2 for e in t)) == 0


def test_tuple_from_configuration_point_at_vertex():
    cfg = standard_configuration(3, weights=[1, 0, 0, 0])
    t = tuple_from_configuration(cfg)
    side = t[0]
    assert t[1] == 0
    assert t[2:] == (side, side, side)
    assert identity_residual(t) == 0


def test_configuration_identity_randomized():
    rng = random.Random(15)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            assert identity_residual(random_valid_tuple(rng, n)) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_equal_sides_force_affine_independence(n):
    # the edges from vertex 0 of a regular simplex of squared side a have
    # Gram matrix (a/2)(I + J), of determinant (a/2)^n (n + 1) > 0, so
    # tuple_from_configuration needs no separate rank test for them
    weights = [F(k - 1, n + 1) for k in range(n)]
    weights.append(1 - sum(weights))
    cfg = standard_configuration(n, scale=F(5, 3), weights=weights)
    a = tuple_from_configuration(cfg)[0]
    base = cfg.vertices[0]
    edges = [[x - y for x, y in zip(v, base)] for v in cfg.vertices[1:]]
    gram = [[sum(map(mul, u, v)) for v in edges] for u in edges]
    assert gram == [[a if i == j else a / 2 for j in range(n)] for i in range(n)]
    assert oracle.rational_det(gram) == (a / 2) ** n * (n + 1)


def test_each_configuration_is_ranked_once(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return rational_rank(rows)

    monkeypatch.setattr(simplex, "rational_rank", counted)
    tuple_from_configuration(standard_configuration(4))
    assert calls == [5]


def test_configuration_rejects_irregular():
    cfg = PointConfiguration([(0, 0), (1, 0), (0, 1)], (0, 0))
    with pytest.raises(ValueError, match="not a regular simplex"):
        tuple_from_configuration(cfg)


def test_configuration_rejects_point_outside_hull():
    base = standard_configuration(2)
    cfg = PointConfiguration(vertices=base.vertices, point=(F(1), F(1), F(1)))
    with pytest.raises(ValueError, match="affine hull"):
        tuple_from_configuration(cfg)


def test_configuration_rejects_degenerate_vertices():
    v = (F(1), F(0), F(0))
    # the rank test would refuse it too, as a point outside the hull
    cfg = PointConfiguration(vertices=(v, v, v), point=v)
    with pytest.raises(ValueError, match="coincident vertices"):
        tuple_from_configuration(cfg)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: as_entries((1, 2, 3)), "at least 4 entries"),
        (
            lambda: tuple_from_configuration(PointConfiguration(vertices=((1, 0), (0, 1)), point=(0, 0))),
            "at least 3 vertices",
        ),
        (
            lambda: tuple_from_configuration(
                PointConfiguration(vertices=((1, 0, 0), (0, 1, 0), (0, 0)), point=(0, 0, 0))
            ),
            "inconsistent coordinate dimensions",
        ),
        (lambda: standard_configuration(3, scale=0), "scale must be positive"),
        (lambda: standard_configuration(3, weights=[F(1, 3)] * 3), "need 4 weights"),
        (lambda: standard_configuration(3, weights=[F(1, 4)] * 3 + [F(1, 2)]), "sum to 1"),
    ],
    ids=["three_entries", "two_vertices", "mixed_lengths", "zero_scale", "n_weights", "weight_sum"],
)
def test_malformed_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_constructor_applies_the_rational_rule():
    # vertices (3/2) e_i in R^3 and the centroid; floats are rejected
    # (tests/test_boundary.py), fraction strings become Fractions
    strings = PointConfiguration(
        vertices=(("3/2", 0, 0), (0, "3/2", 0), (0, 0, "3/2")), point=("1/2",) * 3
    )
    exact = PointConfiguration([(F(3, 2), 0, 0), (0, F(3, 2), 0), (0, 0, F(3, 2))], [F(1, 2)] * 3)
    assert strings == exact
    assert all(type(x) is F for v in exact.vertices + (exact.point,) for x in v)
    assert tuple_from_configuration(exact) == (F(9, 2), F(3, 2), F(3, 2), F(3, 2))


@pytest.mark.parametrize("text", ["1e10000000", "-1E+10000000", "1e-10000000"])
def test_huge_exponent_raises_before_parsing(text):
    # Fraction would build 10**e; the exponent is capped first
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="exponent"):
        as_entries((text, 0, 0, 0))
    assert time.perf_counter() - start < 1


def test_fraction_strings_keep_their_values():
    for text in ("3/8", "-2", "0.25", "1e-5", "2.5E3", f"1e{EXPONENT_CAP}", f"1e-{EXPONENT_CAP}"):
        assert as_entries((text, 0, 0, 0))[0] == F(text), text


def test_gram_residual_zero_for_configurations():
    rng = random.Random(16)
    for n in (2, 3, 4):
        for _ in range(10):
            weights = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            weights.append(1 - sum(weights))
            cfg = standard_configuration(n, scale=F(rng.randint(1, 5)), weights=weights)
            assert gram_residual(cfg) == 0


def test_gram_det_equals_closed_form_on_arbitrary_tuples():
    # the determinant identity is polynomial: it holds whether or not the
    # tuple satisfies the simplex identity
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(25):
            entries = [F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n + 2)]
            if entries[0] == 0:
                entries[0] = F(1)
            assert gram_det(entries) == gram_closed_form(entries)


def _outcome(fn, *args):
    """(the result or the ValueError text, the warnings) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except ValueError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_integer_kernels_match_the_fraction_path(n):
    # the residual, the reflection and the Gram determinant on the tuple
    # scaled to integers equal the Fraction path of tests/simplex_oracle.py:
    # the same values, ValueError texts and warnings, on valid tuples, their
    # negatives, their fraction strings and tuples that are not valid
    rng = random.Random(40 + n)
    for _ in range(20):
        valid = random_valid_tuple(rng, n)
        invalid = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n + 2)]
        for values in (valid, [-e for e in valid], [str(e) for e in valid], invalid):
            residual = identity_residual(values)
            assert type(residual) is F and residual == oracle.identity_residual(values)
            assert gram_det(values) == oracle.gram_det(values)
            for index in range(1, n + 2):
                assert _outcome(reflect, values, index) == _outcome(oracle.reflect, values, index)


def test_gram_det_zero_iff_identity_for_positive_side():
    assert gram_det((7, 4, 3, 1)) == 0
    assert gram_det((1, 1, 1, 1)) == gram_closed_form((1, 1, 1, 1)) != 0


def test_nonintegral_reflection_example():
    entries, index, reflected = nonintegral_reflection_example()
    assert all(e.denominator == 1 for e in entries)
    assert identity_residual(entries) == 0
    assert identity_residual(reflected) == 0
    assert any(e.denominator != 1 for e in reflected)
    assert reflected[index] == F(8, 3)


def _rounds(entries):
    """The tuples after 1, 2, ... rounds of s_1 s_2: reflect at index 2,
    then at index 1."""
    while True:
        entries = reflect(reflect(entries, 2), 1)
        yield entries


def test_only_the_plane_has_a_finite_rotation():
    # the mirrors of two entry reflections meet at cos theta = 1/n: at
    # n = 2 the centroid tuple comes back after exactly 3 rounds, and for
    # n >= 3 the largest denominator grows geometrically
    centroid = tuple_from_configuration(standard_configuration(2))
    rounds = _rounds(centroid)
    assert [next(rounds) == centroid for _ in range(3)] == [False, False, True]
    growth = {3: (36, 9), 4: (10, 4), 5: (150, 25), 6: (63, 9)}
    for n, (first, ratio) in growth.items():
        rounds = _rounds(tuple_from_configuration(standard_configuration(n)))
        for k in range(1, 7):
            assert max(e.denominator for e in next(rounds)) == first * ratio ** (k - 1), (n, k)


def test_configuration_json_round_trip(tmp_path):
    cfg = standard_configuration(3, scale=F(5, 2), weights=[F(1, 2), F(1, 2), 0, 0])
    data = configuration_json(cfg)
    back = configuration_from_json(data)
    assert back == cfg
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(data))
    from trigroup.simplex import load_configuration

    assert load_configuration(path) == cfg
