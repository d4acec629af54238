"""The 2x2 Eisenstein model of the group against the 4x4 one: the spinor
map intertwines the generators, and the element growth agrees."""

import random

from spinor_model import act, element_layer_sizes, phi

from trigroup.core import _reflect
from trigroup.orbit import bfs_elements


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
    assert element_layer_sizes(8) == list(bfs_elements(8).layer_sizes)
