"""Independent oracles of the census: the walk over every root's tree and
the ordered multiplicity from factorials.

trigroup.counting walks only the primitive tree and reads the full census
off it by the gcd identity, with ordered weights and rows from its tie
pattern table; these oracles walk one tree per root (g, g, g, 0) and
count orders from the multiset of entries, so they share neither.
"""

import math
from itertools import permutations


def all_roots_walk(top, max_norm, primitive):
    """Yield (q, h) for the canonical quadruples q with largest entry at
    most top and squared height h at most max_norm, depth first over the
    trees of every root (g, g, g, 0), g <= isqrt(max_norm // 3), or of
    (1, 1, 1, 0) alone when primitive."""
    last = min(1 if primitive else top, math.isqrt(max_norm // 3))
    stack = [((g, g, g, 0), 3 * g * g) for g in range(1, last + 1)]
    while stack:
        q, h = item = stack.pop()
        yield item
        s = sum(q)
        for i, v in enumerate(q):
            w = s - 2 * v
            if v < w and q[0] <= w <= top and not (i and q[i - 1] == v):
                child_h = h + (w - v) * (w + v)
                if child_h <= max_norm:
                    stack.append(((w,) + q[:i] + q[i + 1 :], child_h))


def ordered_multiplicity(q):
    """Number of distinct orderings of the multiset of entries."""
    denom = 1
    for x in set(q):
        denom *= math.factorial(q.count(x))
    return math.factorial(4) // denom


def orders(q):
    """The distinct orderings of q's entries, sorted."""
    return sorted(set(permutations(q)))
