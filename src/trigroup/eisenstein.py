"""Representations by the norm form z^2 - zw + w^2.

The form is the norm of the ring of Eisenstein integers Z[omega], where
N(z + w*omega) = z^2 - zw + w^2.  Z[omega] has unique factorization and
six units, so the solutions of N = k are read off the factorization of
k: each split prime p = 1 mod 3 is a norm pi * conj(pi), found with
Cornacchia's algorithm; 3 is the norm of 1 - omega; an inert prime
p = 2 mod 3 must occur to an even power.  Their number is six times a
multiplicative divisor sum: A(k) = 6 * sum over d | k of chi(d), where
chi is the nontrivial character mod 3.  Solving the form also counts the
quadruples containing a fixed positive pair (p, q), via the unimodular
substitution that sends the quadruple equation to z^2 - zw + w^2 = 3pq.

Every query starts with factorize(k).  One gcd of k with the product of
the 168 primes below 1000 names the small primes that divide k, and k
is divided by those alone.  A cofactor with no prime factor below 1000
is prime below 1009^2; above, Miller-Rabin decides with the first j
prime bases, j the least index with n < psi_j in the table of strong
pseudoprimes (OEIS A014233), which makes it deterministic below
psi_13 = 3.3e24, and Pollard-Brent rho splits what is composite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, repeat

from .core import Quadruple, ResourceLimitError, _require_int


def _sieve(n: int) -> bytearray:
    """flags[i] == 1 exactly when i < n is prime (sieve of Eratosthenes)."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return flags


_IS_SMALL_PRIME = _sieve(1000)
# The 168 primes below 1000, and their product: one gcd with k finds
# every prime below 1000 that divides k.
_PRIMES = tuple(i for i, flag in enumerate(_IS_SMALL_PRIME) if flag)
_PRIMORIAL = math.prod(_PRIMES)
# A number > 1 with no prime factor below 1000 is prime below 1009^2.
_UNSPLIT_BOUND = 1009**2

# psi_k (OEIS A014233): the least odd composite that passes the strong
# test to each of the first k prime bases.  Below psi_k those k bases
# decide primality; psi_12 and psi_13 are from J. Sorenson and J. Webster,
# Strong pseudoprimes to twelve prime bases, Math. Comp. 86 (2017).
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
# Past psi_13, a strong test to more bases, with no proof behind it.
_EXTRA_BASES = _PRIMES[:12] + tuple(range(41, 160, 2))

# The six units of Z[omega] as (z, w) pairs for z + w*omega.
_UNITS = ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))

# Rho iterations on one number before _pollard_rho gives up (about 10 s).
RHO_ITERATION_CAP = 10_000_000

# Norm-form solutions built for one k (about 160 bytes each at peak).
SOLUTION_CAP = 10**6


def _is_prime(n: int) -> bool:
    """Primality, deterministic below psi_13 = 3.3e24.

    A prime factor below 1000 shows in gcd(n, _PRIMORIAL); without one,
    n > 1 is prime below 1009^2.  Above, Miller-Rabin with the first k
    prime bases, k the least index with n < psi_k: 4 bases below 3.2e9
    and 13 (2 to 41) below psi_13; past psi_13, _EXTRA_BASES.
    """
    if math.gcd(n, _PRIMORIAL) != 1:
        return n < 1000 and _IS_SMALL_PRIME[n] == 1
    if n < _UNSPLIT_BOUND:
        return n > 1
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = bisect_right(_PSI, n)
    witnesses = _PRIMES[: k + 1] if k < len(_PSI) else _EXTRA_BASES
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle rho; returns a nontrivial factor of composite odd n."""
    spent = 0
    for c in range(1, 1000):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            spent += r
            if spent > RHO_ITERATION_CAP:
                raise ResourceLimitError(f"factorization gave up on {n}")
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ResourceLimitError(f"factorization gave up on {n}")


def factorize(k: int) -> dict[int, int]:
    """Exact prime factorization as {prime: exponent}; factorize(1) == {}.

    One gcd with _PRIMORIAL gives the primes below 1000 that divide k,
    and k is divided by those alone.  What is left is tested by _is_prime
    (with no prime factor below 1000, it is prime below 1009^2) and split
    by Pollard-Brent where it is not prime.  Raises ResourceLimitError
    when one number takes more than RHO_ITERATION_CAP rho iterations,
    rather than running unbounded.
    """
    _require_int("factorize argument", k, 1)
    factors: dict[int, int] = {}
    g = math.gcd(k, _PRIMORIAL)
    for p in _PRIMES:
        if g == 1:
            break
        if g < p * p:  # no prime below p divides g, so g is prime
            p = g
        if g % p == 0:
            g //= p
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            factors[p] = e
    stack = [k] if k > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return dict(sorted(factors.items()))


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Product of a0 + a1*omega and b0 + b1*omega, using omega^2 = -1 - omega."""
    (a0, a1), (b0, b1) = a, b
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 - a1 * b1)


def _powers(z: tuple[int, int], e: int) -> list[tuple[int, int]]:
    """z^0, z^1, ..., z^e by one running product."""
    return list(accumulate(repeat(z, e), _mul, initial=(1, 0)))


def _split_prime(p: int) -> tuple[int, int]:
    """(z, w) with N(z + w*omega) = p, for a prime p = 1 mod 3.

    A cube root of unity u != 1 mod p is g^((p-1)/3) for the first
    g = 2, 3, ... that does not give 1; it solves u^2 + u + 1 = 0, so
    (2u + 1)^2 = -3 mod p.
    Cornacchia's algorithm (H. Cohen, A Course in Computational Algebraic
    Number Theory, 1993, section 1.5): from r = 2u + 1, run Euclid on
    (p, r) until the remainder x is below sqrt(p); then p = x^2 + 3y^2,
    and pi = (x + y) + 2y*omega has norm x^2 + 3y^2.
    """
    g = 2
    while (u := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    a, x = p, (2 * u + 1) % p
    while x * x > p:
        a, x = x, a % x
    y2, rest = divmod(p - x * x, 3)
    y = math.isqrt(y2)
    if rest or y * y != y2:
        raise ArithmeticError(f"Cornacchia found no x^2 + 3y^2 = {p}")
    return (x + y, 2 * y)


def solve_norm_form(k: int) -> list[tuple[int, int]]:
    """All integer (z, w) with z^2 - zw + w^2 = k, sorted lexicographically.

    Built from factorize(k) over Z[omega], where z + w*omega has norm
    z^2 - zw + w^2.  A split prime p = 1 mod 3 with exponent e is
    pi * conj(pi) (see _split_prime) and contributes one of the e + 1
    factors pi^a * conj(pi)^(e - a); the ramified prime 3 contributes
    (1 - omega)^e; an inert prime p = 2 mod 3 contributes p^(e/2), and
    an odd e leaves no solutions.  Every product of one choice per prime
    times each of the six units is a solution, each exactly once by
    unique factorization, so there are 6 * divisor_character_sum(k).
    The work is that of factorize plus the output, linear in each
    exponent: conj(pi)^(e - a) = conj(pi^(e - a)), so one running power
    of pi gives all e + 1 factors.  ResourceLimitError when factorize
    cannot split a number, or past SOLUTION_CAP solutions, before any
    solution is built.
    """
    if _require_int("norm form target", k, 0) == 0:
        return [(0, 0)]
    return _solve(factorize(k))


def _solve(factors: dict[int, int]) -> list[tuple[int, int]]:
    """solve_norm_form for the k > 0 whose factorization is factors."""
    _require_int("norm form solution count", 6 * _character_sum(factors), cap=SOLUTION_CAP)
    elements = [(1, 0)]
    for p, e in factors.items():
        if p % 3 == 2:
            if e % 2:
                return []
            choices = [(p ** (e // 2), 0)]
        elif p == 3:
            choices = [_powers((1, -1), e)[-1]]
        else:
            powers = _powers(_split_prime(p), e)
            choices = [_mul(z, (x - y, -y)) for z, (x, y) in zip(powers, reversed(powers))]
        elements = [_mul(x, c) for x in elements for c in choices]
    return sorted(_mul(x, u) for x in elements for u in _UNITS)


def divisor_character_sum(m: int) -> int:
    """Sum of chi(d) over divisors d of m, chi the nontrivial character mod 3.

    chi(d) is +1, -1, 0 for d congruent to 1, 2, 0 mod 3.  Computed
    multiplicatively: a prime p = 1 mod 3 with exponent e contributes
    e + 1, p = 2 mod 3 contributes 1 for even e and 0 for odd e, and
    p = 3 contributes 1.  Six times this value is the number of norm
    form representations of m, which the tests cross-check against
    solve_norm_form.
    """
    return _character_sum(factorize(_require_int("argument", m, 1)))


def _character_sum(factors: dict[int, int]) -> int:
    """divisor_character_sum for the m whose factorization is factors."""
    result = 1
    for p, e in factors.items():
        if p == 3:
            continue
        if p % 3 == 1:
            result *= e + 1
        elif e % 2 == 1:
            return 0
    return result


def quadruples_with_pair(p: int, q: int) -> list[Quadruple]:
    """All quadruples (p, q, c, d) containing the positive pair (p, q).

    Each norm form solution (z, w) of z^2 - zw + w^2 = 3pq (p and q are
    factored apart) maps to the extension (c, d) = (p + q - z, p + q - w).
    Nonnegativity of c and d and validity of the quadruple are theorems
    for p, q > 0, so they are not filtered; the tests check them.
    Extensions are ordered: (c, d) and (d, c) are distinct when both occur.
    """
    _require_int("pair entry p", p, 1)
    _require_int("pair entry q", q, 1)
    factors = Counter(factorize(p)) + Counter(factorize(q)) + Counter({3: 1})
    return [(p, q, p + q - z, p + q - w) for z, w in _solve(factors)]
