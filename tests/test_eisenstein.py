import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from trigroup import eisenstein
from trigroup.core import is_triangle_quadruple
from trigroup.eisenstein import (
    _PSI,
    _is_prime,
    _split_prime,
    divisor_character_sum,
    factorize,
    quadruples_with_pair,
    representation_count,
    solve_norm_form,
)
from factor_oracle import LIMIT, trial_factorize


def brute_solutions(k):
    """Independent oracle: scan the whole box."""
    bound = math.isqrt(4 * k // 3) + 2
    return sorted(
        (z, w)
        for z in range(-bound, bound + 1)
        for w in range(-bound, bound + 1)
        if z * z - z * w + w * w == k
    )


def scan_solutions(k):
    """Independent oracle: the O(sqrt k) scan over w.

    Completing the square gives (2z - w)^2 + 3w^2 = 4k, so |w| is at most
    2*sqrt(k/3); for each w the discriminant 4k - 3w^2 must be a perfect
    square.
    """
    if k == 0:
        return [(0, 0)]
    solutions = []
    wmax = math.isqrt(4 * k // 3) + 1
    for w in range(-wmax, wmax + 1):
        disc = 4 * k - 3 * w * w
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        if (w + s) % 2 == 0:
            solutions.append(((w + s) // 2, w))
            if s != 0:
                solutions.append(((w - s) // 2, w))
    solutions.sort()
    return solutions


def prime_at_most(n, residue):
    """Largest prime p <= n with p = residue mod 3 (n must be at least 7)."""
    while not (n % 3 == residue and _is_prime(n)):
        n -= 1
    return n


def brute_divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisor_count(n):
    """Number of divisors of n, from the factorization."""
    result = 1
    for e in factorize(n).values():
        result *= e + 1
    return result


def test_solve_norm_form_examples():
    assert solve_norm_form(1) == brute_solutions(1)
    assert len(solve_norm_form(1)) == 6
    assert set(solve_norm_form(1)) == {(0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1)}
    assert solve_norm_form(2) == []
    sols3 = solve_norm_form(3)
    assert len(sols3) == 6
    assert {(1, 2), (2, 1), (1, -1)} <= set(sols3)
    assert solve_norm_form(0) == [(0, 0)]


def test_solve_norm_form_against_oracle():
    for k in range(0, 400):
        assert solve_norm_form(k) == brute_solutions(k), k


def test_solve_norm_form_against_scan():
    for k in range(0, 10**4 + 1):
        assert solve_norm_form(k) == scan_solutions(k), k


_smooth = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=6).map(math.prod)
_cofactor = st.sampled_from((1, 2, 3, 4, 7, 9, 12, 21, 91))
_norm_targets = st.one_of(
    # smooth times a prime of either class
    _smooth.flatmap(
        lambda s: st.tuples(st.integers(7, 10**9 // s), st.sampled_from((1, 2))).map(
            lambda t: s * prime_at_most(*t)
        )
    ),
    st.integers(0, 18).map(lambda e: 3**e),
    # an inert prime to an odd or even power
    st.integers(1, 6).flatmap(
        lambda e: st.tuples(st.integers(7, int(10 ** (7 / e))), _cofactor).map(
            lambda t: prime_at_most(t[0], 2) ** e * t[1]
        )
    ),
    # the square of a split prime
    st.tuples(st.integers(7, 3300), _cofactor).map(lambda t: prime_at_most(t[0], 1) ** 2 * t[1]),
)


@settings(max_examples=50, deadline=None)
@given(_norm_targets)
def test_solve_norm_form_against_scan_large(k):
    assert 1 <= k <= 10**9
    assert solve_norm_form(k) == scan_solutions(k), k


@pytest.mark.parametrize(
    "k",
    [
        # 2^2 * 3 * 7^4 * 13^3 * 19^2 * 31 * 37 * 43 * 61 * 67 * 73
        336_255_995_207_176_455_684,
        # 7^2 * 13^2 * 19 * 10000141 * 100000039
        157_341_279_842_975_207_161,
        3 * 10**20,
    ],
)
def test_solve_norm_form_near_1e20(k):
    sols = solve_norm_form(k)
    assert sols == sorted(set(sols))
    assert len(sols) == representation_count(k)
    assert all(z * z - z * w + w * w == k for z, w in sols)
    closed = set(sols)
    for z, w in sols:
        assert (-w, z - w) in closed  # times omega
        assert (-z, -w) in closed
        assert (w, z) in closed


@pytest.mark.parametrize("e", [50, 200])
def test_prime_power_solutions_take_linear_work(monkeypatch, e):
    # the e + 1 factors of 7^e come from one running power, so the
    # products are about 9(e + 1): e powers, e + 1 factors, e + 1
    # elements and 6(e + 1) unit multiples
    products = []

    def counted(a, b, mul=eisenstein._mul):
        products.append(None)
        return mul(a, b)

    expected = solve_norm_form(7**e)
    monkeypatch.setattr(eisenstein, "_mul", counted)
    assert solve_norm_form(7**e) == expected
    assert len(expected) == 6 * (e + 1)
    assert len(products) <= 9 * (e + 1)


def test_solution_set_symmetries():
    for k in (1, 3, 7, 12, 21, 49, 91):
        sols = set(solve_norm_form(k))
        for z, w in sols:
            assert (w, z) in sols
            assert (-z, -w) in sols


@pytest.mark.parametrize("m,expected", [(7, 2), (4, 1), (9, 1), (1, 1), (2, 0)])
def test_divisor_character_sum_values(m, expected):
    assert divisor_character_sum(m) == expected


def test_character_sum_equals_naive_divisor_sum():
    def chi(d):
        return {0: 0, 1: 1, 2: -1}[d % 3]

    for m in range(1, 600):
        naive = sum(chi(d) for d in range(1, m + 1) if m % d == 0)
        assert divisor_character_sum(m) == naive, m


def test_representation_count_matches_brute_force():
    for k in range(1, 600):
        assert representation_count(k) == len(brute_solutions(k)), k


def test_representation_count_bounded_by_divisors():
    for k in range(1, 600):
        assert representation_count(k) <= 6 * brute_divisor_count(k), k


@settings(max_examples=60)
@given(st.integers(1, 3000), st.integers(1, 3000))
def test_character_sum_multiplicative(m, n):
    if math.gcd(m, n) != 1:
        return
    assert divisor_character_sum(m * n) == divisor_character_sum(m) * divisor_character_sum(n)


def test_quadruples_with_pair_unit_example():
    exts = quadruples_with_pair(1, 1)
    assert len(exts) == 6
    assert {q[2:] for q in exts} == {(1, 0), (0, 1), (3, 1), (1, 3), (4, 3), (3, 4)}


def test_quadruples_with_pair_properties():
    for p in range(1, 8):
        for q in range(1, 8):
            exts = quadruples_with_pair(p, q)
            assert len(exts) == representation_count(3 * p * q)
            for quad in exts:
                assert quad[0] == p and quad[1] == q
                assert quad[2] >= 0 and quad[3] >= 0
                assert is_triangle_quadruple(quad)


def test_quadruples_with_pair_spec_cases():
    exts = quadruples_with_pair(2, 2)
    assert (2, 2, 2, 0) in exts
    assert (2, 2, 6, 2) in exts
    assert len(exts) == representation_count(12) == 6
    assert len(quadruples_with_pair(1, 3)) == representation_count(9) == 6


def test_quadruples_with_pair_order():
    for p in range(1, 13):
        for q in range(1, 13):
            s = p + q
            expected = [(p, q, s - z, s - w) for z, w in scan_solutions(3 * p * q)]
            assert quadruples_with_pair(p, q) == expected, (p, q)


def test_quadruples_with_pair_large():
    # p = 7 * 13^2 * 19 * 31 * 37 * 43 and the prime q = 1 mod 3
    p, q = 1_108_588_117, 1_000_000_009
    exts = quadruples_with_pair(p, q)
    assert len(exts) == representation_count(3 * p * q) == 1152
    for quad in exts:
        assert quad[:2] == (p, q)
        assert quad[2] >= 0 and quad[3] >= 0
        assert is_triangle_quadruple(quad)


@pytest.mark.parametrize("p,q,count", [(100_000_000_019, 114_000_000_061, 0),
                                       (100_000_000_003, 114_000_000_061, 24)])
def test_quadruples_with_pair_factors_its_entries_apart(monkeypatch, p, q, count):
    # p and q are primes near 1e11 (p = 2 mod 3 in the first pair, so no
    # solutions); each factors without rho, their product 3pq would not
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(eisenstein, "_pollard_rho", no_rho)
    exts = quadruples_with_pair(p, q)
    assert len(exts) == count
    for quad in exts:
        assert quad[:2] == (p, q) and is_triangle_quadruple(quad)


def test_quadruples_with_pair_equals_the_solver_on_3pq():
    for p in range(1, 41):
        for q in range(1, 41):
            s = p + q
            expected = [(p, q, s - z, s - w) for z, w in solve_norm_form(3 * p * q)]
            assert quadruples_with_pair(p, q) == expected, (p, q)


@pytest.mark.parametrize(
    "fn,args",
    [
        (solve_norm_form, (True,)),
        (solve_norm_form, (2.5,)),
        (solve_norm_form, (7.0,)),
        (factorize, (12.0,)),
        (factorize, (True,)),
        (divisor_character_sum, (7.0,)),
        (divisor_character_sum, (True,)),
        (representation_count, (7.0,)),
        (representation_count, (True,)),
        (quadruples_with_pair, (True, 1)),
        (quadruples_with_pair, (1, 2.0)),
        (quadruples_with_pair, (1, "2")),
    ],
)
def test_non_int_input_rejected(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_split_prime_has_norm_p():
    # every prime p = 1 mod 3 below 10^5, and those in a window above 10^13
    # (10^13 = 1 mod 3, so the odd numbers 10^13 + 3 + 6j are all 1 mod 3)
    small = [p for p in range(7, 10**5, 6) if _is_prime(p)]
    large = [p for p in range(10**13 + 3, 10**13 + 3000, 6) if _is_prime(p)]
    assert len(small) > 4000 and len(large) > 20
    for p in small + large:
        z, w = _split_prime(p)
        assert z * z - z * w + w * w == p


def test_pair_extensions_against_direct_scan():
    # independent oracle: scan (c, d) boxes directly
    for p, q in [(1, 1), (1, 3), (2, 2), (3, 5)]:
        box = 12 * (p + q)
        scanned = {
            (p, q, c, d)
            for c in range(box)
            for d in range(box)
            if is_triangle_quadruple((p, q, c, d))
        }
        assert set(quadruples_with_pair(p, q)) == scanned


@pytest.mark.parametrize(
    "k,expected",
    [(84, {2: 2, 3: 1, 7: 1}), (1, {}), (97, {97: 1}), (561, {3: 1, 11: 1, 17: 1})],
)
def test_factorize_examples(k, expected):
    assert factorize(k) == expected


def test_factorize_reconstructs():
    for k in list(range(1, 500)) + [10**12 + 39, 2**31 - 1, 10403]:
        product = 1
        for p, e in factorize(k).items():
            assert _is_prime(p)
            product *= p**e
        assert product == k


@pytest.mark.parametrize(
    "expected",
    [
        {1009: 1, 1013: 1},
        {41: 3, 99991: 2},
        {3: 1, 65537: 1, 65539: 1},
        {2: 5, 997: 1, 1009: 3},
        {99989: 1, 99991: 1},
        {7: 1, 1000000007: 1},
    ],
)
def test_factorize_medium_primes(expected):
    # primes above 1000 are left after the primorial gcd and split by Pollard-Brent
    k = 1
    for p, e in expected.items():
        k *= p**e
    assert factorize(k) == expected


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert _is_prime(n) is (n in primes)
    assert _is_prime(2**61 - 1)
    assert not _is_prime(561)  # Carmichael
    assert not _is_prime(10403)  # 101 * 103


def test_divisor_count_matches_naive():
    for n in range(1, 300):
        assert divisor_count(n) == brute_divisor_count(n)


def test_factorize_matches_trial_division_below_2e4():
    for k in range(1, 2 * 10**4 + 1):
        assert factorize(k) == trial_factorize(k), k


def test_factorize_matches_trial_division_on_random_k():
    # about 40 k per decade from 10^4 to 10^14
    rng = random.Random(20170112)
    ks = [rng.randrange(10**e, 10 ** (e + 1)) for e in range(4, 14) for _ in range(40)]
    assert max(ks) < LIMIT
    for k in ks:
        assert factorize(k) == trial_factorize(k), k


PRIME_SQUARE = 1_000_003**2  # above 10^12


@pytest.mark.parametrize(
    "k",
    [
        # edges of the shortcut: a cofactor with no prime factor below
        # 1000 is prime below 1009^2
        997, 1009, 997 * 1009, 1009 * 1013, 1009**2, 999983,
        # Carmichael numbers
        561, 41041, 825265,
        # strong pseudoprimes to base 2
        2047, 3277, 4033,
        PRIME_SQUARE,
    ],
)
def test_factorize_matches_trial_division_at_the_edges(k):
    assert factorize(k) == trial_factorize(k)


def test_trial_oracle_edge_values():
    assert trial_factorize(PRIME_SQUARE) == {1_000_003: 2}
    assert trial_factorize(999983) == {999983: 1}
    assert trial_factorize(825265) == {5: 1, 7: 1, 17: 1, 19: 1, 73: 1}


def strong_probable_prime(n, a):
    """Whether odd n passes the strong (Miller-Rabin) test to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_strong_pseudoprimes_to_the_first_prime_bases_are_composite():
    # psi_k (OEIS A014233) passes the strong test to each of the first k
    # prime bases; psi_12 passed all twelve bases 2..37 that _is_prime
    # once ran at every size
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert len(_PSI) == 13
    for k, psi in enumerate(_PSI, 1):
        assert all(strong_probable_prime(psi, a) for a in bases[:k]), k
        assert not _is_prime(psi), k
    psi_12 = 318665857834031151167461
    factors = factorize(psi_12)
    assert factors == {399165290221: 1, 798330580441: 1}
    assert all(trial_factorize(p) == {p: 1} for p in factors)
