"""Exhaustive censuses of quadruples bounded by height or maximal entry.

Reflecting the largest entry reduces every quadruple to exactly one root
(g, g, g, 0), g the gcd of the entries (see reduction.py).  Run backwards,
that reduction makes the canonical (nonincreasing) quadruples into a forest
with one tree per root.  A census walks that forest depth first; height and
largest entry never decrease from parent to child, so a bound prunes whole
subtrees and the cost is proportional to the output.

The gcd is invariant under the generators, so every quadruple is g times
a primitive one, and a full census is a sum of primitive ones: by largest
entry full(n) = sum over g of prim(n // g), by squared height
full(h) = sum over g of prim(h // g^2).  The primitive quadruples lie on
the light cone of a form of signature (3, 1) as finitely many orbits of a
group of finite covolume, so their count up to a norm bound grows like
C n^2 (Duke, Rudnick and Sarnak; Eskin and McMullen; both Duke Math. J.
71, 1993).  Measured, the primitive count by largest entry over n^2 is
0.03249, 0.03211, 0.03212 at n = 400, 1600, 3200.  height_sweep reports
count / (n^2 ln^3 n), the normalization the census is stated in, and
divisor_square_sum, whose sum grows like n ln^3 n, is a separate
diagnostic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, permutations, repeat
from operator import floordiv, mul

from .core import Quadruple, _require_int, validate_quadruple

DEFAULT_BOUND_CAP = 5000
# divisor_square_sum takes ~n^(2/3) steps up to n = 2^30, where its table
# reaches DIVISOR_TABLE_CAP, and 2 n / 2^10 past it: 2e7 at DIVISOR_SUM_CAP.
DIVISOR_SUM_CAP = 10**10
# Entries of divisor_square_sum's divisor-count table, 1 MB.  Below
# 1081080 every d(k) is at most 240 (at 720720), so a byte holds it.
DIVISOR_TABLE_CAP = 2**20
_PLUS_TWO = bytes((b + 2) & 255 for b in range(256))

MODES = ("canonical", "ordered")


@dataclass(frozen=True)
class CensusReport:
    bound: int
    mode: str
    count: int
    quadruples: tuple[Quadruple, ...] | None = None


def canonicalize(q: Quadruple) -> Quadruple:
    """Sort entries in nonincreasing order (multiset representative)."""
    return tuple(sorted(validate_quadruple(q), reverse=True))


def ordered_multiplicity(q: Quadruple) -> int:
    """Number of distinct orderings of the multiset of entries."""
    denom = 1
    for x in set(q):
        denom *= math.factorial(q.count(x))
    return math.factorial(4) // denom


def _walk(top: int, max_norm: int, primitive: bool) -> Iterator[tuple[Quadruple, int]]:
    """Yield (q, h) for the canonical quadruples q with largest entry at
    most top and squared height h at most max_norm, by reverse reduction.

    Depth-first over the forest of nonincreasing quadruples rooted at the
    roots (g, g, g, 0).  A child of q (sum s) replaces one copy of an
    entry value v by w = s - 2v, kept only when w > v (the sum grows) and
    w is at least every other entry: reflecting the child's largest entry
    then gives back q, so q is its unique parent under reduce_step.  The
    child's largest entry is w and its squared height h + (w - v)(w + v);
    neither decreases along an edge, so a child over either bound prunes
    its whole subtree.  The gcd is invariant under the generators, so the
    primitive census walks only the g = 1 tree.  Only the stack is held,
    so a count stores no quadruples.
    """
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


def _check_args(bound: int, mode: str, max_bound: int) -> None:
    _require_int("bound", bound, 1, cap=_require_int("max_bound", max_bound, 1))
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _build_report(
    walk: Iterable[tuple[Quadruple, int]],
    bound: int,
    mode: str,
    include_list: bool,
) -> CensusReport:
    quads = (q for q, _ in walk)
    if not include_list:
        weights = map(ordered_multiplicity, quads) if mode == "ordered" else (1 for _ in quads)
        return CensusReport(bound=bound, mode=mode, count=sum(weights))
    if mode == "canonical":
        listed = tuple(sorted(quads))
    else:
        listed = tuple(sorted(t for q in quads for t in set(permutations(q))))
    return CensusReport(bound=bound, mode=mode, count=len(listed), quadruples=listed)


def count_by_height(
    n: int,
    mode: str = "canonical",
    primitive: bool = False,
    max_bound: int = DEFAULT_BOUND_CAP,
    include_list: bool = False,
) -> CensusReport:
    """Census of quadruples whose height is at most n.

    Height is the Euclidean norm sqrt(a^2 + b^2 + c^2 + d^2); membership
    is decided on the exact squared comparison.  Canonical mode counts
    (and with include_list lists) nonincreasing multiset representatives;
    ordered mode every distinct arrangement.
    """
    _check_args(n, mode, max_bound)
    # every entry is at most the height
    return _build_report(_walk(n, n * n, primitive), n, mode, include_list)


def count_by_max(
    n: int,
    mode: str = "canonical",
    primitive: bool = False,
    max_bound: int = DEFAULT_BOUND_CAP,
    include_list: bool = False,
) -> CensusReport:
    """Census of quadruples whose maximal entry is at most n."""
    _check_args(n, mode, max_bound)
    # H <= 2 max always, so the height bound never prunes
    return _build_report(_walk(n, 4 * n * n, primitive), n, mode, include_list)


def height_sweep(
    max_n: int,
    mode: str = "canonical",
    max_bound: int = DEFAULT_BOUND_CAP,
) -> list[tuple[int, int, float]]:
    """Rows (n, count of height <= n, count / (n^2 ln^3 n)) for n = 1..max_n.

    The third column is the stated normalization; the counts themselves
    grow like C n^2 (see the module docstring), so it falls with n.

    A single enumeration at the top bound is bucketed by exact squared
    height h: a quadruple first counts at n = ceil(sqrt h), so the sweep
    costs one census and holds one counter per n.
    """
    _check_args(max_n, mode, max_bound)
    buckets = [0] * (max_n + 1)
    for q, h in _walk(max_n, max_n * max_n, False):
        weight = 1 if mode == "canonical" else ordered_multiplicity(q)
        buckets[math.isqrt(h - 1) + 1] += weight
    return [
        (n, total, 0.0 if n == 1 else total / (n * n * math.log(n) ** 3))
        for n, total in enumerate(accumulate(buckets[1:]), 1)
    ]


def _pair_count(y: int) -> int:
    """Number of pairs of positive integers with product at most y, i.e. the
    sum of d(k) for k <= y, by the hyperbola method in isqrt(y) steps."""
    r = math.isqrt(y)
    return 2 * sum(map(floordiv, repeat(y, r), range(1, r + 1))) - r * r


def divisor_square_sum(n: int) -> tuple[int, float]:
    """Exact sum of d(k)^2 for k = 1..n, plus the ratio to n ln^3 n.

    Ramanujan's identity sum d(k)^2 k^-s = zeta(s)^4 / zeta(2s)
    (Messenger of Math. 1916) gives sum_{k<=n} d(k)^2 =
    sum_{m^2<=n} mu(m) D4(n // m^2), where D4(x) counts the 4-tuples of
    positive integers with product at most x.  As d4 is d convolved with
    itself, the hyperbola method gives D4(x) = 2 sum_{a<=r} d(a) D(x // a)
    - D(r)^2 with r = isqrt(x) and D(y) = sum_{k<=y} d(k).  The m with
    equal n // m^2 share one D4, weighted by a difference of Mertens sums.

    Every D argument is n // k for some k, so the n^(2/3) split of
    Deleglise and Rivat (Experimental Math. 5, 1996) applies: d is
    sieved into a byte table up to L = n^(2/3), at most
    DIVISOR_TABLE_CAP entries, and D(n // k) is kept per k once
    n // k > sqrt n: running sums of the table up to L, _pair_count
    above it, each value once.  That is about n^(2/3) steps up to
    n = 2^30, where L reaches the cap, and 2 n / sqrt(DIVISOR_TABLE_CAP)
    past it, in O(L) bytes.  Above DIVISOR_SUM_CAP it raises
    ResourceLimitError before any work.
    """
    _require_int("n", n, 1, cap=DIVISOR_SUM_CAP)
    root = math.isqrt(n)
    size = max(root, min(round(n ** (2 / 3)), DIVISOR_TABLE_CAP))
    # Each i <= sqrt(size) divides i*i once and pairs with j > i at i*j.
    d = bytearray(size + 1)
    for i in range(1, math.isqrt(size) + 1):
        d[i * i] += 1
        d[i * i + i :: i] = d[i * i + i :: i].translate(_PLUS_TWO)
    mu = [0] + [1] * root
    for p in range(2, root + 1):
        if d[p] == 2:  # p is prime
            for j in range(p, root + 1, p):
                mu[j] = -mu[j]
            for j in range(p * p, root + 1, p * p):
                mu[j] = 0
    mertens = list(accumulate(mu))
    small = list(accumulate(d[: root + 1]))  # D(y) for y <= sqrt n
    top_k = n // (root + 1)  # n // k > sqrt n exactly for k <= top_k
    edge = n // (size + 1)  # n // k > size exactly for k <= edge
    big = [0] * (top_k + 1)  # big[k] = D(n // k)
    for k in range(1, edge + 1):
        big[k] = _pair_count(n // k)
    y, acc = root, small[root]
    for k in range(top_k, edge, -1):
        acc += sum(d[y + 1 : n // k + 1])
        y = n // k
        big[k] = acc
    total = 0
    m = 1
    while m <= root:
        m2 = m * m
        x = n // m2
        last = math.isqrt(n // x)  # the last m with n // m^2 == x
        r = math.isqrt(x)
        a = min(r, top_k // m2)  # x // b = n // (m2 b) for b <= a is in big
        s = sum(map(mul, d[1 : a + 1], big[m2 : m2 * a + 1 : m2]))
        quotients = map(floordiv, repeat(x), range(a + 1, r + 1))
        s += sum(map(mul, d[a + 1 : r + 1], map(small.__getitem__, quotients)))
        total += (mertens[last] - mertens[m - 1]) * (2 * s - small[r] ** 2)
        m = last + 1
    if n == 1:
        return total, 0.0
    return total, total / (n * math.log(n) ** 3)
