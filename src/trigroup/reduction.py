"""Reduction of quadruples to root quadruples.

Applying the generator at a maximal entry never increases the entry sum,
and strictly decreases it unless the quadruple is a root.  Every
quadruple reduces in finitely many steps to a permutation of
(0, x, x, x) where x is the gcd of the entries; the gcd is invariant
under every generator, which classifies orbits up to entry permutation.
The group acts trivially mod 3, so the ordered orbit of q is classified
by (g, zero position): g = gcd(q), and the position of the one entry of
q / g that is 0 mod 3, where its root (0, g, g, g) has its zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .core import GENERATOR_INDICES, Quadruple, ResourceLimitError, _reflect, validate_quadruple

# Work cap on reduce_to_root, which keeps every step; k-digit cusps take ~10^(k/2) steps.
REDUCTION_STEP_CAP = 10**6


@dataclass(frozen=True)
class ReductionTrace:
    """A reduction run: every (generator, result) step and the final root."""

    start: Quadruple
    steps: tuple[tuple[int, Quadruple], ...]
    root: Quadruple


def is_root(q: Quadruple) -> bool:
    """True iff no generator strictly decreases the entry sum.

    This is the definitional check over all four generators; that roots
    are exactly the permutations of (0, x, x, x) is a theorem the test
    suite verifies, not an assumption baked in here.
    """
    q = validate_quadruple(q)
    s = sum(q)
    return all(sum(_reflect(q, i)) >= s for i in GENERATOR_INDICES)


def reduce_step(q: Quadruple) -> tuple[Quadruple, int] | None:
    """Apply the generator at the largest entry if that decreases the sum.

    Ties between maximal entries break to the lowest position index.
    Returns (reduced quadruple, generator index), or None if q is a root.
    This is the single public step; reduce_to_root runs the same step
    inline.
    """
    q = validate_quadruple(q)
    i = q.index(max(q)) + 1
    candidate = _reflect(q, i)
    if sum(candidate) < sum(q):
        return candidate, i
    return None


def reduce_to_root(q: Quadruple) -> ReductionTrace:
    """Iterate reduce_step to termination.

    The loop keeps a running entry sum s.  At the largest entry v, the
    first one breaking ties as in reduce_step, the other three sum to
    t = s - v; reflecting sets v to t - v and the sum to t + (t - v), so
    the loop stops when v + v <= t.  The sum strictly decreases at every
    step, so termination is guaranteed; the root is a permutation of
    (0, x, x, x) with x = gcd_content(q).  The step is inline, one loop
    over four locals and the sum, because this loop is the whole cost of
    a long reduction.  More than REDUCTION_STEP_CAP steps raise
    ResourceLimitError.
    """
    start = validate_quadruple(q)
    steps: list[tuple[int, Quadruple]] = []
    add = steps.append
    a, b, c, d = start
    s = a + b + c + d
    # repeat is the cheapest counted loop; the cap is read at each call
    for _ in repeat(None, REDUCTION_STEP_CAP + 1):
        if a >= b and a >= c and a >= d:
            t = s - a
            if a + a <= t:
                break
            a = t - a
            s = t + a
            add((1, (a, b, c, d)))
        elif b >= c and b >= d:
            t = s - b
            if b + b <= t:
                break
            b = t - b
            s = t + b
            add((2, (a, b, c, d)))
        elif c >= d:
            t = s - c
            if c + c <= t:
                break
            c = t - c
            s = t + c
            add((3, (a, b, c, d)))
        else:
            t = s - d
            if d + d <= t:
                break
            d = t - d
            s = t + d
            add((4, (a, b, c, d)))
    else:
        raise ResourceLimitError(f"reduction exceeded cap of {REDUCTION_STEP_CAP} steps")
    return ReductionTrace(start=start, steps=tuple(steps), root=steps[-1][1] if steps else start)


def gcd_content(q: Quadruple) -> int:
    """gcd of the four entries (with gcd(0, x) = x); positive for valid input."""
    q = validate_quadruple(q)
    return math.gcd(*q)


def is_primitive(q: Quadruple) -> bool:
    """True iff the entries have gcd 1."""
    return gcd_content(q) == 1


def same_orbit(q1: Quadruple, q2: Quadruple) -> bool:
    """True iff q1 and q2 lie in one orbit, identifying permuted roots.

    Equal gcd content is a complete invariant once permutations of the
    root are identified.  The group action itself never permutes
    positions, so this is orbit equality up to entry permutation; the
    ordered orbits of differently-positioned roots are disjoint.  The
    group acts trivially mod 3: on the cone s^2 = 3 (sum of squares), so
    3 divides the entry sum s, and reflection i changes entry i by
    s - 3 v_i, which is 0 mod 3.  So the ordered orbit of q is that of
    (0, g, g, g), g = gcd(q), with the zero at the one entry of q / g
    that is 0 mod 3.
    """
    return gcd_content(q1) == gcd_content(q2)
