import math
import random

from trigroup.core import GENERATOR_INDICES, _reflect, apply_generator, validate_quadruple
from trigroup.linalg import _bareiss
from trigroup.orbit import max_norm_at_length


def det(rows):
    """Determinant of a square integer matrix, read from linalg's one
    elimination; rows that are not square raise ValueError."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    return _bareiss(rows)[1]


def is_root(q):
    """True iff no generator strictly decreases the entry sum.

    This is the definitional check over all four generators; that roots
    are exactly the permutations of (0, x, x, x) is a theorem the test
    suite verifies, not an assumption baked in here.
    """
    q = validate_quadruple(q)
    s = sum(q)
    return all(sum(_reflect(q, i)) >= s for i in GENERATOR_INDICES)


def spectral_radius_closed_form():
    """Closed form of the largest root of t^4 - 7t^3 - 15t^2 - 7t + 1, as a
    float: the oracle of orbit.spectral_radius.

    The palindromic quartic factors as (t^2 - at + 1)(t^2 - bt + 1) with
    a + b = 7 and ab = -17, so a = (7 + 3 sqrt 13)/2 and the largest
    root is (a + sqrt(a^2 - 4))/2.
    """
    a = (7 + 3 * math.sqrt(13)) / 2
    return (a + math.sqrt(a * a - 4)) / 2


def random_quadruples(count, seed=0, max_scale=5, max_steps=10):
    """Deterministic corpus of valid quadruples: scaled roots pushed around
    by random generator words."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        x = rng.randint(1, max_scale)
        root = [x, x, x, x]
        root[rng.randrange(4)] = 0
        q = tuple(root)
        for _ in range(rng.randint(0, max_steps)):
            q = apply_generator(q, rng.randint(1, 4))
        corpus.append(q)
    return corpus


def cusp_quadruple(k):
    """(1, 1, 1, 0) moved by s1 (s2 s3 s4)^k, 3k + 1 reduction steps above
    its root for k >= 1 (s1 fixes the root itself)."""
    q = (1, 1, 1, 0)
    for i in (4, 3, 2) * k + (1,):
        q = _reflect(q, i)
    return q


def all_vectors(orbit):
    """The vectors of every layer of a VectorOrbit, as one set."""
    return {v for layer in orbit.layers for v in layer}


def norm_profile(n, r, cap=None):
    """The exhaustive norm maxima at each length 0..n."""
    return [max_norm_at_length(k, r, cap) for k in range(n + 1)]


def configuration_json(cfg):
    """The JSON-ready dict that simplex.configuration_from_json reads back:
    every coordinate of a PointConfiguration as a [numerator, denominator]
    pair."""
    return {
        "vertices": [[[x.numerator, x.denominator] for x in v] for v in cfg.vertices],
        "point": [[x.numerator, x.denominator] for x in cfg.point],
    }
