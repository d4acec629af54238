"""Independent oracles of the census: the walk over every root's tree,
the cubic discriminant scan and the ordered multiplicity from factorials.

trigroup.counting counts from the primitive tree by the gcd identity,
with ordered weights from its tie pattern table; all_roots_walk walks
one tree per root (g, g, g, 0) and ordered_multiplicity counts orders
from the multiset of entries.  Canonical and ordered lists both walk
the same forest as all_roots_walk, so list tests must keep checking
them against scan_census, the one oracle that walks no tree: it solves
the quadruple equation for its largest entry.
"""

import functools
import math
from itertools import permutations

from trigroup.core import is_triangle_quadruple


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


def _leading_candidates(b, c, d):
    """Exact integer solutions a >= b of the quadruple equation for (b, c, d):
    2a = (b+c+d) +- sqrt(6(bc+cd+db) - 3(b^2+c^2+d^2))."""
    delta = 6 * (b * c + c * d + d * b) - 3 * (b * b + c * c + d * d)
    if delta < 0:
        return
    s = math.isqrt(delta)
    if s * s != delta:
        return
    sigma = b + c + d
    for twice_a in {sigma + s, sigma - s}:
        if twice_a % 2:
            continue
        a = twice_a // 2
        if a >= b:
            yield a


@functools.lru_cache(maxsize=None)
def scan_census(bound, by):
    """Independent oracle: the cubic discriminant scan over b >= c >= d,
    returning the sorted canonical quadruples."""
    bound_sq = bound * bound
    found = set()
    for b in range(bound + 1):
        bb = b * b
        if by == "height" and bb > bound_sq:
            break
        for c in range(b + 1):
            norm_bc = bb + c * c
            if by == "height" and norm_bc > bound_sq:
                break
            top = min(c, math.isqrt(bound_sq - norm_bc)) if by == "height" else c
            for d in range(top + 1):
                for a in _leading_candidates(b, c, d):
                    q = (a, b, c, d)
                    if by == "height" and a * a + norm_bc + d * d > bound_sq:
                        continue
                    if by == "max" and a > bound:
                        continue
                    if is_triangle_quadruple(q):
                        found.add(q)
    return tuple(sorted(found))


def expected_list(canonical, mode, primitive):
    """The census list of a mode from its sorted canonical quadruples, as
    the library orders it: sorted rows, each of its orders when ordered."""
    if primitive:
        canonical = [q for q in canonical if math.gcd(*q) == 1]
    if mode == "canonical":
        return tuple(canonical)
    return tuple(sorted(t for q in canonical for t in orders(q)))
