"""An independent factorization oracle: trial division by every prime up
to the square root, for k below 10**14.

trigroup.eisenstein.factorize decides primality by Miller-Rabin, so a
test that checks its factors with its own _is_prime would pass a
primality bug on both sides.  This oracle tests no number for primality:
its divisors come from a sieve, and what is left of k once every prime
up to sqrt(k) is divided out has at most one prime factor.
"""

import functools
import math
from itertools import compress

LIMIT = 10**14


@functools.cache
def primes_to_sqrt_limit() -> list[int]:
    """Every prime up to sqrt(LIMIT), by the sieve of Eratosthenes."""
    n = math.isqrt(LIMIT) + 1
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), flags))


def trial_factorize(k: int) -> dict[int, int]:
    """{prime: exponent} of 1 <= k < LIMIT, in increasing order."""
    assert 1 <= k < LIMIT
    factors = {}
    for p in primes_to_sqrt_limit():
        if p * p > k:
            break
        if k % p == 0:
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            factors[p] = e
    if k > 1:
        factors[k] = 1
    return factors
