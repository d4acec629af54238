import bisect
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

import pytest

from trigroup import counting
from trigroup.core import ResourceLimitError, is_triangle_quadruple, norm_form_substitution
from trigroup.counting import (
    canonicalize,
    count_by_height,
    count_by_max,
    divisor_square_sum,
    height_sweep,
    list_by_height,
    list_by_max,
)
from trigroup.reduction import is_primitive, reduce_to_root
from census_oracle import all_roots_walk, expected_list, ordered_multiplicity, scan_census

LISTINGS = {count_by_height: list_by_height, count_by_max: list_by_max}


def naive_census(bound, by="height"):
    """Independent oracle: plain quadruple loop, no quadratic solving."""
    found = set()
    for a in range(bound + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                for d in range(c + 1):
                    q = (a, b, c, d)
                    if not is_triangle_quadruple(q):
                        continue
                    if by == "height" and a * a + b * b + c * c + d * d > bound * bound:
                        continue
                    found.add(q)
    return found


def test_enumerate_all_bound_5():
    rows = tuple(list_by_height(5))
    assert count_by_height(5).count == len(rows) == 3
    assert set(rows) == {(1, 1, 1, 0), (2, 2, 2, 0), (3, 1, 1, 1)}
    assert (4, 3, 1, 1) not in rows  # height sqrt(27) > 5


def test_enumerate_all_bound_2():
    assert count_by_height(2).count == 1
    assert tuple(list_by_height(2)) == ((1, 1, 1, 0),)


def test_count_by_height_values():
    assert count_by_height(5).count == 3
    assert count_by_height(5, mode="ordered").count == 12
    assert count_by_height(1).count == 0


def test_count_by_max_values():
    rows = tuple(list_by_max(3))
    assert count_by_max(3).count == len(rows) == 4
    assert set(rows) == {
        (1, 1, 1, 0),
        (2, 2, 2, 0),
        (3, 3, 3, 0),
        (3, 1, 1, 1),
    }
    assert count_by_max(1).count == 1


@pytest.mark.parametrize("bound", [1, 2, 5, 10, 17, 25])
def test_height_census_matches_naive_oracle(bound):
    oracle = naive_census(bound, by="height")
    assert set(list_by_height(bound)) == oracle
    ordered = count_by_height(bound, mode="ordered")
    assert ordered.count == sum(ordered_multiplicity(q) for q in oracle)
    assert len(tuple(list_by_height(bound, mode="ordered"))) == ordered.count


@pytest.mark.parametrize("bound", [1, 3, 8, 15, 25])
def test_max_census_matches_naive_oracle(bound):
    oracle = naive_census(bound, by="max")
    assert set(list_by_max(bound)) == oracle
    assert count_by_max(bound, mode="ordered").count == sum(
        ordered_multiplicity(q) for q in oracle
    )


@pytest.mark.parametrize("mode", ["canonical", "ordered"])
@pytest.mark.parametrize("primitive", [False, True])
@pytest.mark.parametrize("bound", [100, 146, 200])
def test_height_census_matches_scan_oracle(bound, primitive, mode):
    expected = expected_list(scan_census(bound, "height"), mode, primitive)
    assert tuple(list_by_height(bound, mode=mode, primitive=primitive)) == expected
    assert count_by_height(bound, mode=mode, primitive=primitive).count == len(expected)


@pytest.mark.parametrize("mode", ["canonical", "ordered"])
@pytest.mark.parametrize("primitive", [False, True])
@pytest.mark.parametrize("bound", [121, 200])
def test_max_census_matches_scan_oracle(bound, primitive, mode):
    expected = expected_list(scan_census(bound, "max"), mode, primitive)
    assert tuple(list_by_max(bound, mode=mode, primitive=primitive)) == expected
    assert count_by_max(bound, mode=mode, primitive=primitive).count == len(expected)


@pytest.mark.parametrize("mode", ["canonical", "ordered"])
def test_height_sweep_matches_scan_oracle(mode):
    norms = sorted(
        (sum(x * x for x in q), ordered_multiplicity(q) if mode == "ordered" else 1)
        for q in scan_census(146, "height")
    )
    rows = height_sweep(146, mode=mode)
    assert [n for n, _, _ in rows] == list(range(1, 147))
    for n, count, ratio in rows:
        assert count == sum(w for norm, w in norms if norm <= n * n)
        if n == 1:
            assert ratio == 0.0
        else:
            assert ratio == pytest.approx(count / (n * n * math.log(n) ** 3))


@pytest.mark.parametrize("mode", ["canonical", "ordered"])
def test_gcd_decomposition_at_height_1000(mode):
    # A quadruple of gcd g is g times a primitive one, so the count with
    # squared height <= N is the sum over g of the primitive count with
    # squared height <= N // g^2 (scaling keeps the ordered multiplicity).
    bound_sq = 1000 * 1000
    primitive = tuple(list_by_height(1000, primitive=True))
    weighted = sorted(
        (sum(x * x for x in q), ordered_multiplicity(q) if mode == "ordered" else 1)
        for q in primitive
    )
    norms = [norm for norm, _ in weighted]
    prefix = [0]
    for _, w in weighted:
        prefix.append(prefix[-1] + w)
    total = sum(
        prefix[bisect.bisect_right(norms, bound_sq // (g * g))]
        for g in range(1, 1001)
    )
    assert count_by_height(1000, mode=mode).count == total


# Full census counts at n = 300 (by max entry, by height).
CENSUS_300 = {"canonical": (5217, 3021), "ordered": (111244, 63352)}


@pytest.mark.parametrize("mode", ["canonical", "ordered"])
@pytest.mark.parametrize("n", [50, 300])
def test_gcd_identity_by_max_entry_and_height(n, mode):
    # the gcd is invariant, so every quadruple is g times a primitive one:
    # by max entry full(n) = sum_g prim(n // g), by squared height
    # full(n^2) = sum_g prim(n^2 // g^2).  counting reads full censuses
    # off the primitive tree by this identity; the oracle walks the tree
    # of every root (g, g, g, 0) and weighs by factorials.
    def count(walk):
        return sum(ordered_multiplicity(q) if mode == "ordered" else 1 for q, _ in walk)

    by_max = count(all_roots_walk(n, 4 * n * n, False))
    assert by_max == count_by_max(n, mode).count
    assert by_max == sum(count_by_max(n // g, mode, True).count for g in range(1, n + 1))
    by_height = count(all_roots_walk(n, n * n, False))
    assert by_height == count_by_height(n, mode).count
    primitive = (all_roots_walk(n // g, n * n // (g * g), True) for g in range(1, n + 1))
    assert by_height == sum(map(count, primitive))
    if n == 300:
        assert (by_max, by_height) == CENSUS_300[mode]


@pytest.mark.parametrize("primitive", [False, True])
@pytest.mark.parametrize("top,max_norm", [(300, 300 * 300), (200, 4 * 200 * 200)])
def test_walk_carries_squared_height_within_both_bounds(top, max_norm, primitive):
    # censuses by height 300 and by max 200: the walk prunes on the sum,
    # and s^2 = 3h makes isqrt(3 max_norm) the same bound as max_norm on
    # the squared height, so check both against each yielded quadruple.
    # The walk yields the primitive tree; with its multiples g q, g <= m,
    # it is the oracle's height-pruned walk over every root's tree.
    nodes = list(counting._walk(top, math.isqrt(3 * max_norm)))
    assert nodes
    pairs = []
    for q, ties, m in nodes:
        assert list(q) == sorted(q, reverse=True), q
        assert math.gcd(*q) == 1, q
        h = sum(x * x for x in q)
        assert sum(q) ** 2 == 3 * h and h <= max_norm, q
        assert max(q) <= top, q
        assert ties == _ties(q), q
        # m is the last multiple within both bounds
        assert m * q[0] <= top and m * m * h <= max_norm, q
        assert (m + 1) * q[0] > top or (m + 1) ** 2 * h > max_norm, q
        multiples = [1] if primitive else range(1, m + 1)
        pairs += [(tuple(g * x for x in q), g * g * h) for g in multiples]
    assert len({q for q, _ in pairs}) == len(pairs)
    assert sorted(pairs) == sorted(all_roots_walk(top, max_norm, primitive))
    if (top, primitive) == (300, False):
        assert len(pairs) == CENSUS_300["canonical"][1]


def _ties(q):
    a, b, c, d = q
    return (a == b) + 2 * (b == c) + 4 * (c == d)


@pytest.mark.parametrize("primitive", [False, True])
def test_class_entry_ties_nothing_so_six_tie_patterns(primitive):
    # g q is (0, g, g, g) mod 3g in some order, so exactly one entry is
    # = 0 (mod 3g) and it equals no other; (a, a, b, b) never occurs, and
    # the orders table weighs each quadruple as the factorials do
    patterns = set()
    for q, _ in all_roots_walk(1200, 1200 * 1200, primitive):
        k = 3 * math.gcd(*q)
        assert sum(x % k == 0 for x in q) == 1, q
        ties = _ties(q)
        assert ties != 1 + 4, q
        assert counting._WEIGHTS[ties] == ordered_multiplicity(q), q
        patterns.add(ties)
    assert patterns == {0, 1, 2, 4, 1 + 2, 2 + 4}
    assert sorted(counting._WEIGHTS[t] for t in patterns) == [4, 4, 12, 12, 12, 24]


@pytest.mark.parametrize("census", [count_by_height, count_by_max])
def test_ordered_rows_are_the_distinct_permutations(census):
    # the one itemgetter per tie pattern lays out exactly the orders that
    # set(permutations(q)) finds (primitive lists: the scan oracle tests)
    listing = LISTINGS[census]
    canonical = tuple(listing(300))
    ordered = tuple(listing(300, mode="ordered"))
    assert ordered == expected_list(canonical, "ordered", False)


def test_census_properties_over_walk():
    # Every listed quadruple is valid (the walk does not re-check its
    # output) and obeys max(Q) <= H(Q) <= 2 max(Q), exactly on squares.
    for rows in (
        tuple(list_by_height(200)),
        tuple(list_by_height(60, mode="ordered")),
        tuple(list_by_max(200)),
        tuple(list_by_max(60, mode="ordered")),
    ):
        assert rows
        for q in rows:
            assert is_triangle_quadruple(q), q
            top = max(q)
            assert top * top <= sum(x * x for x in q) <= 4 * top * top, q


@pytest.mark.parametrize("mode", ["canonical", "ordered"])
@pytest.mark.parametrize("census", [count_by_height, count_by_max])
def test_listed_entries_are_at_most_the_bound(census, mode):
    # the CLI decides 53-bit quoting of a census list from its bound alone
    for bound in range(1, 61):
        rows = tuple(LISTINGS[census](bound, mode=mode))
        assert len(rows) == census(bound, mode=mode).count, bound
        assert all(0 <= x <= bound for q in rows for x in q), bound


def test_mode_checked_before_enumerating(monkeypatch):
    def no_walk(*args):
        raise AssertionError("census walked before the mode was checked")

    monkeypatch.setattr(counting, "_walk", no_walk)
    monkeypatch.setattr(counting, "_walk_by_largest", no_walk)
    for call in (
        lambda: list_by_height(300, mode="bogus"),
        lambda: list_by_max(300, mode="bogus"),
        lambda: count_by_height(300, mode="bogus"),
        lambda: count_by_max(300, mode="bogus"),
        lambda: height_sweep(300, mode="bogus"),
    ):
        with pytest.raises(ValueError, match="mode"):
            call()


def test_census_monotone_and_sandwiched():
    heights = [count_by_height(n).count for n in range(1, 30)]
    maxima = [count_by_max(n).count for n in range(1, 30)]
    assert heights == sorted(heights)
    assert maxima == sorted(maxima)
    for n in range(1, 15):
        assert count_by_height(n).count <= count_by_max(n).count
        assert count_by_max(n).count <= count_by_height(2 * n).count


def test_census_primitives_reduce_to_unit_root():
    rows = tuple(list_by_height(30, primitive=True))
    assert rows
    for q in rows:
        assert is_primitive(q)
        assert sorted(reduce_to_root(q).root) == [0, 1, 1, 1]


def test_census_substitution_consistency():
    for q in list_by_height(40):
        x, y, z, w = norm_form_substitution(q)
        assert z * z - z * w + w * w == 3 * x * y


def test_primitive_filter():
    full = tuple(list_by_height(20))
    prim = tuple(list_by_height(20, primitive=True))
    assert set(prim) == {q for q in full if is_primitive(q)}


def test_height_sweep_consistent_with_counts():
    rows = height_sweep(25)
    assert len(rows) == 25
    for n, count, ratio in rows[4::5]:
        assert count == count_by_height(n).count
        if n > 1:
            assert ratio == pytest.approx(count / (n * n * math.log(n) ** 3))


def test_census_respects_bound_cap():
    with pytest.raises(ResourceLimitError):
        count_by_height(100, max_bound=50)
    with pytest.raises(ValueError):
        count_by_height(0)


def test_canonicalize_and_multiplicity():
    assert canonicalize((0, 1, 1, 1)) == (1, 1, 1, 0)
    for q, weight in (((1, 1, 1, 0), 4), ((7, 4, 3, 1), 24), ((2, 2, 2, 2), 1)):
        assert ordered_multiplicity(q) == weight
        assert counting._WEIGHTS[_ties(q)] == weight


@pytest.mark.parametrize(
    "n,expected",
    [(1, 1), (5, 22), (10, 83)],
)
def test_divisor_square_sum_values(n, expected):
    total, _ = divisor_square_sum(n)
    assert total == expected


def sieve_divisor_square_sum(n):
    """Independent oracle: sieve d(k) for all k <= n, pairing each divisor
    i <= sqrt(k) with k // i (squares counted once)."""
    counts = [0] * (n + 1)
    for i in range(1, math.isqrt(n) + 1):
        counts[i * i] += 1
        for j in range(i * i + i, n + 1, i):
            counts[j] += 2
    return sum(c * c for c in counts)


def test_divisor_square_sum_against_sieve():
    for n in list(range(1, 2000)) + [10**5 - 1, 10**5, 2 * 10**5 + 3]:
        assert divisor_square_sum(n)[0] == sieve_divisor_square_sum(n), n


def test_divisor_square_sum_imports_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, trigroup; trigroup.divisor_square_sum(10**4); print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        check=True,
        text=True,
        timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_divisor_square_sum_against_naive():
    def d(k):
        return sum(1 for i in range(1, k + 1) if k % i == 0)

    for n in (50, 333, 1000):
        total, ratio = divisor_square_sum(n)
        assert total == sum(d(k) ** 2 for k in range(1, n + 1))
        assert ratio == pytest.approx(total / (n * math.log(n) ** 3))


@pytest.mark.parametrize("n", [True, False, 2.5, 10.0, "10", None])
def test_divisor_square_sum_rejects_non_int(n):
    with pytest.raises(ValueError):
        divisor_square_sum(n)


def test_divisor_square_sum_cap_raises_before_work():
    assert counting.DIVISOR_SUM_CAP == 10**10
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        divisor_square_sum(10**10 + 1)
    assert time.perf_counter() - start < 0.1


def _pair_count(y):
    r = math.isqrt(y)
    return 2 * sum(y // i for i in range(1, r + 1)) - r * r


def hyperbola_divisor_square_sum(n):
    """Second path: Ramanujan's identity with every D(y) computed from
    scratch by the hyperbola method, about 4.3 n^(3/4) steps."""
    root = math.isqrt(n)
    d = [0] * (root + 1)
    for i in range(1, root + 1):
        for j in range(i, root + 1, i):
            d[j] += 1
    mu = [1] * (root + 1)
    for p in range(2, root + 1):
        if d[p] == 2:
            for j in range(p, root + 1, p):
                mu[j] = -mu[j]
            for j in range(p * p, root + 1, p * p):
                mu[j] = 0
    total = 0
    for m in range(1, root + 1):
        if mu[m]:
            x = n // (m * m)
            r = math.isqrt(x)
            d4 = 2 * sum(d[a] * _pair_count(x // a) for a in range(1, r + 1)) - _pair_count(r) ** 2
            total += mu[m] * d4
    return total


def test_divisor_square_sum_against_hyperbola_oracle():
    for n in range(1, 3001):
        assert divisor_square_sum(n)[0] == hyperbola_divisor_square_sum(n), n


@pytest.mark.parametrize("cap", [1, 7, 64, counting.DIVISOR_TABLE_CAP])
def test_divisor_square_sum_at_table_boundaries(monkeypatch, cap):
    # The table holds d(k) for k <= L = min(round(n^(2/3)), cap), or
    # isqrt(n) if that is larger; D(y) for y > L comes from _pair_count.
    # Near n = c^3 (L = c^2) the quotient n // c runs through L and L + 1,
    # and near n = cap^(3/2) the cap starts to bind (2^30 for the default
    # cap, too far for the oracle).
    monkeypatch.setattr(counting, "DIVISOR_TABLE_CAP", cap)
    ns = {c**3 + j for c in (2, 3, 10, 37) for j in range(-2, 2 * c + 2)}
    if 1 < cap < 100:
        ns |= {math.isqrt(cap**3) + j for j in range(-3, 4)}
    for n in sorted(ns):
        assert divisor_square_sum(n)[0] == hyperbola_divisor_square_sum(n), n


def test_divisor_square_sum_against_hyperbola_oracle_at_random():
    rng = random.Random(17)
    for n in sorted(rng.randint(1, 10**7) for _ in range(20)):
        assert divisor_square_sum(n)[0] == hyperbola_divisor_square_sum(n), n


def test_divisor_square_sum_work_and_memory_at_10_8(monkeypatch):
    n = 10**8
    table = round(n ** (2 / 3))  # 215443 entries, under DIVISOR_TABLE_CAP
    args = []
    hyperbola = counting._pair_count
    monkeypatch.setattr(counting, "_pair_count", lambda y: args.append(y) or hyperbola(y))
    tracemalloc.start()
    try:
        total, _ = divisor_square_sum(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == hyperbola_divisor_square_sum(n)
    # Each D(y) above the table is computed once, and only there.
    assert len(args) == len(set(args)) <= n // table + 1
    assert min(args) > table
    # Measured 1.3 MiB.  An 8-byte prefix sum per table entry would add
    # 1.6 MiB on its own.
    assert peak < 2 * 2**20


def test_divisor_table_fits_in_bytes():
    # Ramanujan's highly composite numbers (1915): 720720 has 240
    # divisors, the most below 1081080, which has 256.
    def d(k):
        return sum(2 - (i * i == k) for i in range(1, math.isqrt(k) + 1) if k % i == 0)

    assert (d(720720), d(1081080)) == (240, 256)
    assert counting.DIVISOR_TABLE_CAP < 1081080


def _peak(call):
    """The traced peak of memory allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_only_census_holds_no_list():
    # The walk is consumed as it goes: a count needs only the walk's stack,
    # a list needs the whole census.
    listed = _peak(lambda: tuple(list_by_height(400)))
    for call in (
        lambda: count_by_height(400),
        lambda: count_by_height(400, mode="ordered"),
        lambda: count_by_max(400, primitive=True),
    ):
        assert _peak(call) < listed / 10


@pytest.mark.parametrize("listing", [list_by_max, list_by_height])
def test_streamed_canonical_list_holds_under_two_fifths_of_it(listing):
    # A canonical list read row by row holds the levels of its forest
    # not yet listed, one node per row, and no second copy of them.  An
    # untraced first read keeps one-time allocations out of both peaks.
    deque(listing(600), maxlen=0)
    held = _peak(lambda: deque(listing(600), maxlen=0))
    assert held < 0.4 * _peak(lambda: tuple(listing(600)))


@pytest.mark.parametrize("listing", [list_by_max, list_by_height])
def test_streamed_ordered_list_holds_under_a_fifth_of_it(listing):
    # An ordered list read row by row holds its forest, each canonical
    # quadruple filed once under each of its distinct entries, and one
    # chunk of rows at a time: about 24 rows per quadruple are never held
    # at once.  An untraced first read keeps one-time allocations out of
    # both peaks.
    deque(listing(300, "ordered"), maxlen=0)
    held = _peak(lambda: deque(listing(300, "ordered"), maxlen=0))
    assert held < 0.2 * _peak(lambda: tuple(listing(300, "ordered")))
