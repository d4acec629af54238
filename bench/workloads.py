"""Seeded operation lists for the three benchmark workloads.

Every workload is a closed loop with one client: the worker runs the ops
of a round one after another, each starting when the previous one has
returned.  The seed fixes the exact arguments; the op mix and the
argument strata are fixed, so that the work of a round varies little
from seed to seed and a change in the program, not in the draw, moves
the figures.

An op is either a CLI call (target ``"cli"``, args = argv for
``trigroup.cli.main``) or a library call (target ``"module.function"``,
args = positional arguments).  ``expect`` is the outcome the program
must produce: ``"exit:N"`` for CLI calls, ``"ok"`` or ``"raise:Name"``
for library calls.  ``meta`` carries what the checker needs and the
program never sees (for example the factorization the generator used to
build a norm-form target).

This module imports nothing from the program, so the parent process can
generate and check without loading it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("census", "group", "queries")


@dataclass(frozen=True)
class Op:
    target: str
    args: tuple
    expect: str
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def layer(self) -> str:
        return self.target.split(".", 1)[0]


def cli(*argv, expect: str = "exit:0") -> Op:
    return Op("cli", tuple(str(a) for a in argv), expect)


def strata(rng: random.Random, n: int, lo: float, hi: float, jitter: float = 0.5) -> list[float]:
    """n values, one per equal-width stratum of [lo, hi], each drawn within
    +-jitter of a stratum width around the stratum centre."""
    width = (hi - lo) / n
    return [lo + width * (i + 0.5 + rng.uniform(-jitter, jitter)) for i in range(n)]


def istrata(rng, n, lo, hi, jitter=0.5) -> list[int]:
    return [round(x) for x in strata(rng, n, lo, hi, jitter)]


def near(rng: random.Random, centres, spread: int = 1) -> list[int]:
    """Each centre moved by a random integer in [-spread, spread]."""
    return [c + rng.randint(-spread, spread) for c in centres]


# ---------------------------------------------------------------- census
#
# Census cost grows with the cube of the bound, so bounds sit within a
# unit or two of fixed centres: the seed changes which quadruples each op
# lists, while the work of a round stays nearly the same.

def census_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for h in near(rng, (25, 45, 65, 85, 100, 115, 130, 145)):
        ops.append(cli("census-height", h))
    for h in near(rng, (50, 90, 130)):
        ops.append(cli("census-height", h, "--primitive"))
    for h in near(rng, (70, 110, 140)):
        ops.append(cli("census-height", h, "--mode", "ordered"))
    # The list ops sit in one band of sizes (first line after ~50-200 ms)
    # so that their median first-line time moves smoothly, not from one
    # op to another, when the machine's speed changes.
    for h in near(rng, (95, 108, 120, 135)):
        ops.append(cli("census-height", h, "--list"))
    for h in near(rng, (110, 130)):
        ops.append(cli("census-height", h, "--mode", "ordered", "--list"))
    for h in near(rng, (100, 120)):
        ops.append(cli("census-height", h, "--list", "--format", "csv", "--primitive"))
    for h, mode in zip(near(rng, (105, 125)), ("canonical", "ordered")):
        ops.append(cli("census-height", h, "--sweep", "--mode", mode))
    for m in near(rng, (25, 50, 75, 100, 120)):
        ops.append(cli("census-max", m))
    for m in near(rng, (50, 90)):
        ops.append(cli("census-max", m, "--primitive", "--mode", "ordered"))
    for m in near(rng, (75, 85, 95)):
        ops.append(cli("census-max", m, "--list", "--format", rng.choice(("jsonl", "csv"))))
    for n in near(rng, (14, 24)):
        ops.append(cli("divisor-sum", n * 100_000))
    for h in near(rng, (50, 90)):
        ops.append(cli("alpha", "--search", "--height", h, "--max-count", rng.randint(5, 8)))
    # A little of every other layer, so that each one is timed on each workload.
    ops.append(cli("verify", "lie"))
    ops.append(cli("verify", "cartan"))
    ops.append(cli("orbit", "--depth", 6, "--root", *random_root(rng)))
    ops.append(cli("reduce", *_nonroot_quadruple(rng, 6, 12)))
    ops.append(cli("normform", _norm_target(rng, 10**4)[0]))
    ops.append(cli("simplex", "gram", *(str(x) for x in _simplex_tuple(rng, 3))))
    # Rejected inputs: argparse, ValueError and the bound cap.
    ops.append(cli("census-height", "x%d" % rng.randint(1, 99), expect="exit:2"))
    ops.append(cli("census-max", 0, expect="exit:2"))
    ops.append(cli("census-height", rng.randint(5001, 9000), expect="exit:3"))
    return ops


# ----------------------------------------------------------------- group
#
# BFS cost depends on the depth alone, and the orbit of any root
# (0, g, g, g), permuted or scaled, has the same layer sizes; so depths
# are fixed and the seed picks the roots.

def group_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for d in (6, 7, 8, 9):
        ops.append(cli("growth", "--depth", d, "--root", *random_root(rng)))
    for d in (8, 9, 10, 11, 12, 13):
        ops.append(cli("orbit", "--depth", d, "--root", *random_root(rng)))
    for d in (9, 10, 11):
        ops.append(cli("orbit", "--depth", d, "--list", "--root", *random_root(rng)))
    for d in (10, 11):
        root = random_root(rng)
        ops.append(cli("orbit", "--depth", d, "--list", "--max-sum", max(root) * 1000, "--root", *root))
    for d, limit in ((10, 300), (11, 300), (12, 1000), (13, 1000)):
        root = random_root(rng)
        ops.append(cli("orbit", "--depth", d, "--max-sum", max(root) * limit, "--root", *root))
    for d in (15, 20, 25, 40, 55):
        ops.append(cli("stabilizer", "--depth", d))
    for length in (4, 5, 6, 7, 8):
        ops.append(cli("extremal", length, "--exhaustive", "--root", 0, *[rng.randint(1, 9)] * 3))
    for target in ("coxeter", "cartan", "lie", "a1"):
        ops.append(cli("verify", target))
    ops.append(cli("verify", "a1", "--max-n", rng.randint(5, 40)))
    ops.append(cli("extremal", rng.randint(9, 40), "--root", 0, *[rng.randint(1, 9)] * 3))
    # A little of every other layer.
    ops.append(cli("census-height", rng.randint(29, 31)))
    ops.append(cli("divisor-sum", rng.randint(4, 6) * 10_000))
    ops.append(cli("reduce", *_nonroot_quadruple(rng, 6, 12)))
    ops.append(cli("normform", _norm_target(rng, 10**4)[0]))
    ops.append(cli("simplex", "verify", *(str(x) for x in _simplex_tuple(rng, 2))))
    # Rejected inputs: argparse, ValueError and the element cap.
    ops.append(cli("verify", "coxeter%d" % rng.randint(1, 9), expect="exit:2"))
    ops.append(cli("extremal", -rng.randint(1, 9), expect="exit:2"))
    ops.append(cli("growth", "--depth", 12, "--max-elements", rng.randint(400, 420), expect="exit:3"))
    return ops


def random_root(rng: random.Random) -> tuple[int, int, int, int]:
    """A root quadruple: (0, g, g, g) with g in 1..9, entries in random order."""
    g = rng.randint(1, 9)
    q = [g, g, g, g]
    q[rng.randrange(4)] = 0
    return tuple(q)


# --------------------------------------------------------------- queries

_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, int(p**0.5) + 1))]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _norm_target(rng: random.Random, target: int) -> tuple[int, dict[int, int]]:
    """A number near target with known factorization: a smooth part times
    a prime cofactor found by searching upward."""
    factors: dict[int, int] = {}
    smooth = 1
    for _ in range(rng.randint(0, 4)):
        p = rng.choice(_PRIMES[:20])
        if smooth * p * 1000 > target:
            break
        smooth *= p
        factors[p] = factors.get(p, 0) + 1
    q = max(2, target // smooth)
    while not is_prime(q):
        q += 1
    factors[q] = factors.get(q, 0) + 1
    return smooth * q, factors


def _random_quadruple(rng: random.Random, length: int, scale: int) -> tuple[int, int, int, int]:
    g = rng.randint(1, scale)
    q = [g, g, g, g]
    q[rng.randrange(4)] = 0
    return tuple(apply_word(tuple(q), random_word(rng, length)))


def _ascending_quadruple(rng: random.Random, length: int, scale: int) -> tuple[int, int, int, int]:
    """A quadruple exactly ``length`` reduction steps above its root: a
    random walk from (0, g, g, g), permuted, in which every step raises
    the entry sum.  Its reduction cost then follows ``length`` alone, so
    the ops near the median latency do not change with the seed."""
    g = rng.randint(1, scale)
    q = [g, g, g, g]
    q[rng.randrange(4)] = 0
    q, last = tuple(q), None
    for _ in range(length):
        last = rng.choice([i for i in (1, 2, 3, 4) if i != last and sum(reflect(q, i)) > sum(q)])
        q = reflect(q, last)
    return q


def _nonroot_quadruple(rng: random.Random, length: int, scale: int) -> tuple[int, int, int, int]:
    """A quadruple at least one reduction step away from its root."""
    while True:
        q = _random_quadruple(rng, length, scale)
        low, mid, _, high = sorted(q)
        if not (low == 0 and mid == high):
            return q


def random_word(rng: random.Random, length: int) -> list[int]:
    """Generator letters 1..4 with no letter repeated twice in a row."""
    word: list[int] = []
    for _ in range(length):
        word.append(rng.choice([i for i in (1, 2, 3, 4) if not word or i != word[-1]]))
    return word


def reflect(q: tuple, i: int) -> tuple:
    """Generator i (1-based): entry i becomes the sum of the others minus itself."""
    s = sum(q)
    return tuple(s - 2 * x if j == i - 1 else x for j, x in enumerate(q))


def apply_word(q: tuple, word: list[int]) -> tuple:
    for i in word:
        q = reflect(q, i)
    return q


def _simplex_tuple(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """(squared side, squared vertex distances) of a point in the affine hull
    of the regular n-simplex with vertices scale * e_i."""
    scale = Fraction(rng.randint(1, 6))
    raw = [Fraction(rng.randint(-3, 6), rng.randint(1, 5)) for _ in range(n)]
    weights = raw + [1 - sum(raw)]
    point = [w * scale for w in weights]
    dists = [sum((point[j] - (scale if j == i else 0)) ** 2 for j in range(n + 1)) for i in range(n + 1)]
    return (2 * scale * scale, *dists)


def queries_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for length in istrata(rng, 50, 10, 400, 0.5):
        ops.append(Op("reduction.reduce_to_root", (_ascending_quadruple(rng, length, 12),), "ok"))
    # A band of ten reductions of nearly equal length sits at the median
    # latency, so that op_p50_ms does not jump from one op to the next.
    for length in istrata(rng, 10, 150, 170):
        ops.append(Op("reduction.reduce_to_root", (_ascending_quadruple(rng, length, 12),), "ok"))
    for _ in range(12):
        q = _random_quadruple(rng, rng.randint(0, 30), 50)
        if rng.random() < 0.4:
            q = tuple(x + (1 if j == rng.randrange(4) else 0) for j, x in enumerate(q))
        ops.append(Op("core.is_triangle_quadruple", (q,), "ok"))
    for _ in range(12):
        a = _random_quadruple(rng, rng.randint(0, 40), 6)
        b = _random_quadruple(rng, rng.randint(0, 40), 6)
        ops.append(Op("reduction.same_orbit", (a, b), "ok"))
    # Norm-form scans are the latency tail: about one op in six, with
    # targets spread evenly in log scale from 1e7 to ~3e11.
    for e in strata(rng, 8, 7.0, 11.0, 0.1):
        p, pf = _norm_target(rng, int(10 ** (e / 2)))
        q, qf = _norm_target(rng, int(10 ** (e / 2)) + rng.randint(0, 50))
        ops.append(Op("eisenstein.quadruples_with_pair", (p, q), "ok", {"pf": pf, "qf": qf}))
    for e in strata(rng, 16, 7.0, 11.5, 0.1):
        k, kf = _norm_target(rng, int(10**e))
        ops.append(Op("eisenstein.solve_norm_form", (k,), "ok", {"kf": kf}))
    # Neighbouring ops of the tail are 1.2-1.9x apart in cost; a band of
    # six scans of nearly equal cost sits at the 90th percentile.
    for e in strata(rng, 6, 8.75, 8.9):
        k, kf = _norm_target(rng, int(10**e))
        ops.append(Op("eisenstein.solve_norm_form", (k,), "ok", {"kf": kf}))
    for _ in range(10):
        ops.append(Op("orbit.prime_factor_count", (_random_quadruple(rng, rng.randint(0, 8), 20),), "ok"))
    for n in (2, 3, 4, 5):
        entries = _simplex_tuple(rng, n)
        ops.append(Op("simplex.identity_residual", (entries,), "ok"))
        ops.append(Op("simplex.reflect", (entries, rng.randint(1, len(entries) - 1)), "ok"))
        ops.append(Op("simplex.gram_det", (entries,), "ok"))
    for _ in range(2):
        bad = tuple(Fraction(rng.randint(0, 9)) for _ in range(rng.randint(4, 7)))
        ops.append(Op("simplex.gram_det", (bad,), "ok"))
    # A little of every other layer.
    ops.append(Op("counting.count_by_height", (rng.randint(29, 31),), "ok"))
    ops.append(Op("counting.divisor_square_sum", (rng.randint(4, 6) * 10_000,), "ok"))
    ops.append(Op("lie.six_matrix_rank", (), "ok"))
    ops.append(Op("linalg.bareiss_rank", ([[rng.randint(-5, 5) for _ in range(5)] for _ in range(4)],), "ok"))
    ops.append(Op("orbit.orbit_vectors", (random_root(rng), 6), "ok"))
    ops.append(cli("check", *_random_quadruple(rng, 3, 9)))
    ops.append(cli("reduce", *_random_quadruple(rng, 6, 9)))
    # Eleven small list ops of neighbouring sizes, for the first-line time.
    # The census bounds are fixed, so that the op at the median first-line
    # time is the same for every seed.
    for h in (21, 23, 25, 27, 29, 31):
        ops.append(cli("census-height", h, "--list"))
    for m in (17, 19, 21):
        ops.append(cli("census-max", m, "--list", "--format", "csv"))
    for d in (5, 6):
        ops.append(cli("orbit", "--depth", d, "--list", "--root", *random_root(rng)))
    # Rejected inputs: about 6% of the ops.
    ops.append(Op("reduction.reduce_to_root", ((1, 2, 3, rng.randint(4, 99)),), "raise:ValueError"))
    ops.append(Op("reduction.same_orbit", ((0, 1, 1, 1), (rng.choice((2, 4, 5, 6, 7)), 1, 1, 1)), "raise:ValueError"))
    ops.append(Op("core.validate_quadruple", ((rng.randint(1, 9), 0, 0, 0),), "raise:ValueError"))
    ops.append(Op("eisenstein.solve_norm_form", (-rng.randint(1, 10**6),), "raise:ValueError"))
    ops.append(Op("eisenstein.quadruples_with_pair", (0, rng.randint(1, 99)), "raise:ValueError"))
    ops.append(Op("eisenstein.factorize", (-rng.randint(0, 99),), "raise:ValueError"))
    ops.append(Op("simplex.reflect", ((Fraction(1), Fraction(2), Fraction(3), Fraction(rng.randint(4, 9))), 1), "raise:ValueError"))
    ops.append(Op("counting.count_by_height", (rng.randint(5001, 9000),), "raise:ResourceLimitError"))
    ops.append(Op("orbit.orbit_vectors", ((0, 1, 1, 1), 20, rng.randint(200, 220)), "raise:ResourceLimitError"))
    ops.append(Op("orbit.bfs_elements", (20, rng.randint(200, 220)), "raise:ResourceLimitError"))
    return ops


_GENERATORS = {"census": census_ops, "group": group_ops, "queries": queries_ops}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one round of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops
