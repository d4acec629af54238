import random

from trigroup.core import _reflect, apply_generator
from trigroup.orbit import max_norm_at_length


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
