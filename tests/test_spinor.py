"""The 2x2 Eisenstein model of the group against the 4x4 one: the spinor
map intertwines the generators, the Coxeter relations hold, the element
growth agrees, and the translation's powers act alike."""

import random
from fractions import Fraction
from itertools import combinations

from spinor_model import (
    GENERATORS,
    IDENTITY_ELEMENT,
    M,
    _mat_mul,
    act,
    apply,
    compose,
    element_layer_sizes,
    nilpotent_part,
    phi,
    translation,
    translation_power,
)

from trigroup.core import IDENTITY, _reflect, mat_mul, mat_vec
from trigroup.lie import power_formula_matrix, translation_matrix
from trigroup.orbit import bfs_elements
from conftest import det

ZERO_MATRIX = (((0, 0), (0, 0)), ((0, 0), (0, 0)))


def test_spinor_map_intertwines_the_generators():
    rng = random.Random(20)
    checked = 0
    while checked < 200:
        z, w = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(2)]
        if z == w == (0, 0):
            continue
        q = phi(z, w)
        for i in (1, 2, 3, 4):
            assert phi(*act(i, (z, w))) == _reflect(q, i), (z, w, i)
        checked += 1


def test_matrix_model_grows_like_the_group():
    assert element_layer_sizes(8) == list(bfs_elements(8))


def test_coxeter_relations_as_2x2_products():
    # the ten relations modulo the unit scalars: s_i^2 = 1, and each
    # s_i s_j has order exactly 3 (s_j s_i is its inverse)
    for g in GENERATORS:
        assert compose(g, g) == IDENTITY_ELEMENT
    for g, h in combinations(GENERATORS, 2):
        p = compose(g, h)
        p2 = compose(p, p)
        assert IDENTITY_ELEMENT not in (p, p2)
        assert compose(p2, p) == IDENTITY_ELEMENT


def test_translation_powers_have_a_closed_form():
    # exact, not modulo units: T = omega (I + N) with N^2 = 0
    nilpotent = nilpotent_part()
    assert nilpotent != ZERO_MATRIX and _mat_mul(nilpotent, nilpotent) == ZERO_MATRIX
    power = M[4]
    for n in range(21):
        assert translation_power(n) == power, n
        power = _mat_mul(power, translation())


def test_translation_powers_act_as_the_4x4_powers():
    rng = random.Random(21)
    pairs = [tuple((rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(2)) for _ in range(10)]
    power = IDENTITY
    for n in range(21):
        for v in pairs:
            assert phi(*apply(translation_power(n), v)) == mat_vec(power, phi(*v)), (n, v)
        power = mat_mul(power, translation_matrix())


def test_entry_3_4_of_the_translation_powers():
    # Read off the spinor model by Cramer's rule on four pairs whose images
    # span, the (3,4) entry of the n-th power is 3n^2 - 2n, as the exact
    # 4x4 powers give.  The recorded formula gives 6n^2 - 2n; it stays
    # recorded, and power_formula_report states the difference.
    pairs = [((0, 0), (1, 0)), ((1, 0), (0, 0)), ((1, 0), (1, 0)), ((1, 0), (0, 1))]
    base = [phi(*v) for v in pairs]
    d = det(base)
    assert d != 0
    power = IDENTITY
    for n in range(21):
        images = [phi(*apply(translation_power(n), v)) for v in pairs]
        spinor = Fraction(det([q[:3] + (image[2],) for q, image in zip(base, images)]), d)
        assert spinor == power[2][3] == 3 * n * n - 2 * n, n
        assert power_formula_matrix(n)[2][3] == 6 * n * n - 2 * n, n
        power = mat_mul(power, translation_matrix())
