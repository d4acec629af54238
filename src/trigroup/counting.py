"""Exhaustive censuses of quadruples bounded by height or maximal entry,
and the forest of canonical quadruples that they and root orbits walk.

Reflecting the largest entry reduces every quadruple to exactly one root
(g, g, g, 0), g the gcd of the entries (see reduction.py); the gcd is
invariant, so every quadruple is g times a primitive one.  Run
backwards, the reduction makes the canonical (nonincreasing) quadruples
the forest of the roots (g, g, g, 0), the primitive ones the tree of
(1, 1, 1, 0): _walk walks that tree depth first, _root_layers a root's
tree by levels for the root orbits (orbit.py).  As s^2 = 3h on every
quadruple (s its entry sum, h its squared height), height n is the sum
bound isqrt(3 n^2), and the walks prune on sums.  By the gcd identity a
node q (largest entry a, sum s) stands for its multiples g q,
g <= min(top // a, max_sum // s): full(n) = sum over g of prim(n // g).

Counts and height_sweep read the multiples of _walk's nodes by the gcd
identity.  list_by_height and list_by_max yield sorted rows one chunk
per first entry from _walk_by_largest over the forest: canonical lists
level by level, as level x is the rows with first entry x; ordered
lists after the whole walk, each quadruple filed under its distinct
entries and chunk x laid out from those filed under x.

The group acts trivially mod 3, so a primitive quadruple is (0, 1, 1, 1)
mod 3 in some order and g q is (0, g, g, g) mod 3g: its class entry, the
one = 0, ties no other entry.  So (a, a, b, b) never occurs, and a
canonical quadruple has 24, 12 or 4 orders as 0, 1 or 2 neighbours tie.
_ORDERS lists them by tie pattern, (a == b) + 2 (b == c) + 4 (c == d),
for the ordered weights and rows and the root orbits' layouts.

The primitive quadruples lie on the light cone of a form of signature
(3, 1) as finitely many orbits of a group of finite covolume, so their
count up to a norm bound grows like C n^2 (Duke, Rudnick and Sarnak;
Eskin and McMullen; both Duke Math. J. 71, 1993): canonical, by largest
entry, 0.032115, 0.031959, 0.031892 n^2 at n = 3200, 10000, 16000, still
falling.  height_sweep reports the stated normalization count /
(n^2 ln^3 n); divisor_square_sum grows like n ln^3 n, a separate diagnostic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, chain, permutations, repeat
from operator import floordiv, itemgetter, mul

from .core import Quadruple, Vector4, _require_int

Node = tuple[Quadruple, int, int]  # (q, ties, m), see _walk

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
    # Always None: lists stream from list_by_height and list_by_max.  The
    # field stays so that a report serializes (dataclasses.asdict) with
    # the keys it always had.
    quadruples: None = None


def _orders_table() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Row ties: the distinct orders of a canonical quadruple with tie
    pattern ties, as the indices they read.  Each entry is read from the
    first of its run of equal entries, so equal orders are equal."""
    table = []
    for ties in range(8):
        first = list(accumulate(range(4), lambda f, i: f if ties >> (i - 1) & 1 else i))
        orders = (tuple(map(first.__getitem__, o)) for o in permutations(range(4)))
        table.append(tuple(dict.fromkeys(orders)))
    return tuple(table)


_ORDERS = _orders_table()
# Per tie pattern: its ordered weight, and in _LAYOUTS[p][j] the orders
# with entry j at position p, as the indices they read.  _ROOT_WEIGHTS:
# a quarter of the weight, by number of ties (0, 1, 2).
_WEIGHTS = tuple(map(len, _ORDERS))
_ROOT_WEIGHTS = tuple(_WEIGHTS[ties] // 4 for ties in (0, 1, 1 + 2))
_LAYOUTS = tuple(tuple(
    tuple(itemgetter(*idx) if idx else None
          for idx in ([i for o in row if o[p] == j for i in o] for row in _ORDERS))
    for j in range(4)) for p in range(4))


def _walk(top: int, max_sum: int) -> Iterator[Node]:
    """Yield (q, ties, m), for the counts and height_sweep: q the primitive
    canonical quadruples with largest entry at most top and entry sum at
    most max_sum, ties their tie pattern, m their multiples g q in both bounds.

    A child of q = (a, b, c, d) (sum s) replaces b, c or d, but no value
    equal to its left neighbour, by w = s - 2v when w >= a (2v <= s - a):
    reflecting the child's largest entry w gives back q, its unique
    parent under reduce_step.  Neither w nor the sum 2s - 3v decreases
    along an edge, so lo, the least v with w <= top and 2s - 3v <= max_sum,
    prunes a subtree at its root.  Only the stack is held.
    """
    stack = [(1, 1, 1, 0)] if max_sum >= 3 else []
    push = stack.append
    while stack:
        a, b, c, d = q = stack.pop()
        s = a + b + c + d
        yield q, (a == b) + 2 * (b == c) + 4 * (c == d), min(top // a, max_sum // s)
        r = s - a
        lo = max((s - top + 1) // 2, (2 * s - max_sum + 2) // 3)
        if lo <= b < a and 2 * b <= r:
            push((s - 2 * b, a, c, d))
        if lo <= c < b and 2 * c <= r:
            push((s - 2 * c, a, b, d))
        if lo <= d < c and 2 * d <= r:
            push((s - 2 * d, a, b, c))


def _root_layers(
    start: Vector4, max_sum: int | None, sizes: bool
) -> Iterator[list[Vector4]] | Iterator[int]:
    """The BFS layers of a root (0, g, g, g), zero at position p: level n
    of the tree of (g, g, g, 0), n reduction steps down, each quadruple
    in its orders with its class entry (= 0 mod 3g) at p, or with sizes
    set their number.  Children are _walk's, with lo the least v whose
    child's sum 2s - 3v is at most max_sum: a child over it is dropped
    with its subtree."""
    g = max(start)
    p = start.index(0)
    k = 3 * g
    cur = [(g, g, g, 0)]
    while True:
        if sizes:
            yield sum(_ROOT_WEIGHTS[(a == b) + (b == c) + (c == d)] for a, b, c, d in cur)
        else:
            yield _layout(cur, p, [0 if a % k == 0 else 1 if b % k == 0 else 2 if c % k == 0 else 3
                                   for a, b, c, d in cur])
        nxt: list[Vector4] = []
        push = nxt.append
        for a, b, c, d in cur:
            s = a + b + c + d
            r = s - a
            lo = 0 if max_sum is None else (2 * s - max_sum + 2) // 3
            if lo <= b < a and 2 * b <= r:
                push((s - 2 * b, a, c, d))
            if lo <= c < b and 2 * c <= r:
                push((s - 2 * c, a, b, d))
            if lo <= d < c and 2 * d <= r:
                push((s - 2 * d, a, b, c))
        cur = nxt


def _layout(level: Iterable[Vector4], p: int, index: Iterable[int]) -> list[Vector4]:
    """The orders of each canonical v in level with v[j] at p, j from index
    and the first of its run: _LAYOUTS[p][j] by v's tie pattern."""
    layouts = _LAYOUTS[p]
    entries: list[int] = []
    for v, j in zip(level, index):
        a, b, c, d = v
        entries += layouts[j][(a == b) + 2 * (b == c) + 4 * (c == d)](v)
    it = iter(entries)
    return list(zip(it, it, it, it))


def _walk_by_largest(top: int, max_sum: int, primitive: bool) -> Iterator[list[Quadruple]]:
    """Yield, for the census lists and x = 1..top, the canonical
    quadruples with first entry x and entry sum at most max_sum, unsorted:
    the forest of the roots (g, g, g, 0), g <= min(top, max_sum // 3), or
    (1, 1, 1, 0) alone when primitive, children built by _walk's three
    tests, walked from buckets by largest entry (a monotone bucket queue).
    A child's largest entry w is at least its parent's, so bucket x is
    whole once buckets 1..x-1 are expanded; it grows while it is read, by
    children with w = x.  New entries are read from one list ints, so
    equal entries are one object.  The buckets above x hold at most 39.2%
    of the forest at height 5000 (289 757 of 739 297 nodes)."""
    ints = list(range(top + 1))
    buckets: list = [[] for _ in range(top + 1)]
    for g in ints[1 : min(1 if primitive else top, max_sum // 3) + 1]:
        buckets[g].append((g, g, g, 0))
    for x in range(1, top + 1):
        level = buckets[x]
        for a, b, c, d in level:
            s = a + b + c + d
            r = s - a
            lo = max((s - top + 1) // 2, (2 * s - max_sum + 2) // 3)
            if lo <= b < a and 2 * b <= r:
                buckets[s - 2 * b].append((ints[s - 2 * b], a, c, d))
            if lo <= c < b and 2 * c <= r:
                buckets[s - 2 * c].append((ints[s - 2 * c], a, b, d))
            if lo <= d < c and 2 * d <= r:
                buckets[s - 2 * d].append((ints[s - 2 * d], a, b, c))
        buckets[x] = None
        yield level


def _canonical_chunks(top: int, max_sum: int, primitive: bool) -> Iterator[list[Quadruple]]:
    """Level x of _walk_by_largest, sorted: the canonical rows with first entry x."""
    for level in _walk_by_largest(top, max_sum, primitive):
        level.sort()
        yield level


def _ordered_chunks(top: int, max_sum: int, primitive: bool) -> Iterator[list[Quadruple]]:
    """For x = 0..top, the sorted orders of the quadruples with first
    entry x.  Any entry may come first, so the whole forest is filed
    first, each quadruple under each of its distinct entries (run starts)."""
    filed: list = [[] for _ in range(top + 1)]
    for q in chain.from_iterable(_walk_by_largest(top, max_sum, primitive)):
        a, b, c, d = q
        filed[a].append(q)
        if b != a:
            filed[b].append(q)
        if c != b:
            filed[c].append(q)
        if d != c:
            filed[d].append(q)
    for x in range(top + 1):
        chunk = _layout(filed[x], 0, map(tuple.index, filed[x], repeat(x)))
        filed[x] = None
        chunk.sort()
        yield chunk


def _check_args(bound: int, mode: str, max_bound: int) -> None:
    _require_int("bound", bound, 1, cap=_require_int("max_bound", max_bound, 1))
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _report(walk: Iterable[Node], bound: int, mode: str, primitive: bool) -> CensusReport:
    """The count of a walk's multiples, or of its nodes when primitive."""
    weights = _WEIGHTS if mode == "ordered" else (1,) * 8
    if primitive:
        count = sum(weights[ties] for _, ties, _ in walk)
    else:
        count = sum(weights[ties] * m for _, ties, m in walk)
    return CensusReport(bound=bound, mode=mode, count=count)


def _listing(top: int, max_sum: int, mode: str, primitive: bool) -> Iterator[Quadruple]:
    chunks = _ordered_chunks if mode == "ordered" else _canonical_chunks
    return chain.from_iterable(chunks(top, max_sum, primitive))


def count_by_height(
    n: int,
    mode: str = "canonical",
    primitive: bool = False,
    max_bound: int = DEFAULT_BOUND_CAP,
) -> CensusReport:
    """Census of quadruples whose height is at most n.

    Height is the Euclidean norm sqrt(a^2 + b^2 + c^2 + d^2); membership
    is decided on the entry sum, s <= isqrt(3 n^2), exact as s^2 = 3h.
    Canonical mode counts nonincreasing multiset representatives;
    ordered mode every distinct arrangement.
    """
    _check_args(n, mode, max_bound)
    # height <= n exactly when sum <= isqrt(3 n^2), as 3h = s^2
    return _report(_walk(n, math.isqrt(3 * n * n)), n, mode, primitive)


def count_by_max(
    n: int,
    mode: str = "canonical",
    primitive: bool = False,
    max_bound: int = DEFAULT_BOUND_CAP,
) -> CensusReport:
    """Census of quadruples whose maximal entry is at most n."""
    _check_args(n, mode, max_bound)
    # s <= 3 max always (3a = s on roots, 3a > s else), so the sum never prunes
    return _report(_walk(n, 3 * n), n, mode, primitive)


def list_by_height(
    n: int,
    mode: str = "canonical",
    primitive: bool = False,
    max_bound: int = DEFAULT_BOUND_CAP,
) -> Iterator[Quadruple]:
    """The quadruples that count_by_height counts, in sorted order.

    The arguments are checked when it is called.  Canonical rows come one
    first entry at a time, each chunk sorted once the walk has passed it,
    so the first row leaves before the census is built; ordered rows come
    after the whole walk, one chunk per first entry laid out in turn.
    """
    _check_args(n, mode, max_bound)
    return _listing(n, math.isqrt(3 * n * n), mode, primitive)


def list_by_max(
    n: int,
    mode: str = "canonical",
    primitive: bool = False,
    max_bound: int = DEFAULT_BOUND_CAP,
) -> Iterator[Quadruple]:
    """The quadruples that count_by_max counts, in sorted order, as
    list_by_height lists them."""
    _check_args(n, mode, max_bound)
    return _listing(n, 3 * n, mode, primitive)


def height_sweep(
    max_n: int,
    mode: str = "canonical",
    max_bound: int = DEFAULT_BOUND_CAP,
) -> list[tuple[int, int, float]]:
    """Rows (n, count of height <= n, count / (n^2 ln^3 n)) for n = 1..max_n.

    The third column is the stated normalization; the counts themselves
    grow like C n^2 (see the module docstring), so it falls with n.

    A single walk at the top bound is bucketed by entry sum: height n is
    the sum bound isqrt(3 n^2), so the count at n is the running total up
    to that sum.  The sweep costs one census and holds one counter per sum.
    """
    _check_args(max_n, mode, max_bound)
    weights = _WEIGHTS if mode == "ordered" else (1,) * 8
    max_sum = math.isqrt(3 * max_n * max_n)
    buckets = [0] * (max_sum + 1)
    for (a, b, c, d), ties, m in _walk(max_n, max_sum):
        s = a + b + c + d
        for gs in range(s, m * s + 1, s):
            buckets[gs] += weights[ties]
    totals = list(accumulate(buckets))
    counts = (totals[math.isqrt(3 * n * n)] for n in range(1, max_n + 1))
    return [(n, total, 0.0 if n == 1 else total / (n * n * math.log(n) ** 3))
            for n, total in enumerate(counts, 1)]


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
