"""Independent checks of every op's outcome and parsed output.

Nothing here imports the program.  Census counts and lists come from a
walk over the reflection graph from the root quadruples (0, g, g, g),
pruned by height or by maximal entry: reduction never raises the sum or
the maximal entry, so the pruned walk reaches every quadruple within
the bound.  Orbit sizes come from a breadth-first walk with one visited
set; growth layers from the Coxeter growth series; norm-form counts from
the factorization the generator built the target from.  The few values
with no cheap independent derivation (divisor-square sums at 10^6, the
exhaustive norm maxima, the Lie ledger) were recorded at the seed
commit in ``expected.json``.

Outputs are compared field by field after parsing: a field the program
adds later is ignored, a field it drops or changes is a failure.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from tracer import coxeter_growth
from workloads import Op, reflect

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


class Mismatch(Exception):
    pass


def need(cond, what) -> None:
    if not cond:
        raise Mismatch(what)


def matches(expected, actual, path="") -> None:
    """Every field of expected is present in actual with an equal value."""
    if isinstance(expected, dict):
        need(isinstance(actual, dict), f"{path}: expected an object")
        for key, value in expected.items():
            need(key in actual, f"{path}.{key}: missing")
            matches(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        need(isinstance(actual, list) and len(actual) == len(expected),
             f"{path}: expected {len(expected)} items")
        for i, (e, a) in enumerate(zip(expected, actual)):
            matches(e, a, f"{path}[{i}]")
    elif isinstance(expected, float):
        need(isinstance(actual, (int, float)) and math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-15),
             f"{path}: {actual!r} != {expected!r}")
    else:
        need(actual == expected and type(actual) is type(expected), f"{path}: {actual!r} != {expected!r}")


# ------------------------------------------------------------ arithmetic

def form(q) -> int:
    return 3 * sum(x * x for x in q) - sum(q) ** 2


def valid(q) -> bool:
    return len(q) == 4 and all(x >= 0 for x in q) and any(q) and form(q) == 0


def omega(n: int) -> int:
    """Prime factors of n with multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1 if p == 2 else 2
    return count + (n > 1)


def trial_factor(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def chi_sum(factors: dict[int, int]) -> int:
    """Sum over divisors d of chi(d), chi the nontrivial character mod 3."""
    result = 1
    for p, e in factors.items():
        if p % 3 == 1:
            result *= e + 1
        elif p % 3 == 2 and e % 2:
            return 0
    return result


def merge(*factor_dicts) -> dict[int, int]:
    out: dict[int, int] = {}
    for f in factor_dicts:
        for p, e in f.items():
            out[p] = out.get(p, 0) + e
    return out


def divisor_square_sum(n: int) -> tuple[int, float]:
    """Sum of d(k)^2 for k <= n by a plain divisor sieve, and its ratio to n ln^3 n."""
    d = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i, n + 1, i):
            d[j] += 1
    total = sum(x * x for x in d)
    return total, total / (n * math.log(n) ** 3)


def extremal_word(n: int) -> list[int]:
    m, i = divmod(n, 4)
    return [[], [1], [2, 1], [3, 2, 1]][i] + [4, 3, 2, 1] * m


def rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ------------------------------------------------------------- oracles

class Oracle:
    """Census sets and orbit layers, computed once per run and reused."""

    def __init__(self):
        self._census: dict[str, tuple[int, list]] = {}
        self._orbits: dict[tuple, tuple[int, list]] = {}

    def census(self, kind: str, bound: int) -> list[tuple]:
        """Canonical (nonincreasing) quadruples with height or maximal entry <= bound, sorted."""
        have = self._census.get(kind)
        if have is None or have[0] < bound:
            top = max(bound, 150)
            inside = ((lambda q: sum(x * x for x in q) <= top * top) if kind == "height"
                      else (lambda q: q[0] <= top))
            roots = [(g, g, g, 0) for g in range(1, top + 1) if inside((g, g, g, 0))]
            seen = set(roots)
            frontier = list(roots)
            while frontier:
                nxt = []
                for q in frontier:
                    for i in range(1, 5):
                        child = tuple(sorted(reflect(q, i), reverse=True))
                        if child[3] >= 0 and child not in seen and inside(child):
                            seen.add(child)
                            nxt.append(child)
                frontier = nxt
            have = self._census[kind] = (top, sorted(seen))
        key = (lambda q: sum(x * x for x in q) <= bound * bound) if kind == "height" else (lambda q: q[0] <= bound)
        return [q for q in have[1] if key(q)]

    def orbit(self, root: tuple, depth: int, max_sum: int | None) -> list[list[tuple]]:
        key = (root, max_sum)
        have = self._orbits.get(key)
        if have is None or have[0] < depth:
            seen = {root}
            layers = [[root]]
            for _ in range(depth):
                nxt = set()
                for v in layers[-1]:
                    for i in range(1, 5):
                        w = reflect(v, i)
                        if (max_sum is None or sum(w) <= max_sum) and w not in seen:
                            nxt.add(w)
                seen |= nxt
                layers.append(sorted(nxt))
            have = self._orbits[key] = (depth, layers)
        return have[1][: depth + 1]


def orderings(q) -> list[tuple]:
    return sorted(set(permutations(q)))


def primitive(q) -> bool:
    return math.gcd(*q) == 1


# ------------------------------------------------------------ CLI checks

_SWITCHES = {"--primitive", "--list", "--sweep", "--exhaustive", "--search"}


def _flags(argv):
    """Split argv into positionals and a flag -> value (or True) dict."""
    pos, flags, i = [], {}, 0
    while i < len(argv):
        a = argv[i]
        if a == "--root":
            flags[a] = tuple(int(x) for x in argv[i + 1:i + 5])
            i += 5
        elif a in _SWITCHES:
            flags[a] = True
            i += 1
        elif a.startswith("--"):
            flags[a] = argv[i + 1]
            i += 2
        else:
            pos.append(a)
            i += 1
    return pos, flags


def _lines(text: str):
    return [json.loads(line) for line in text.splitlines()]


def _one(text: str):
    lines = _lines(text)
    need(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    return lines[0]


def check_trace_json(start, steps, root) -> None:
    """A reduction trace: each step is a generator move that lowers the sum,
    ending at a permutation of (0, g, g, g) with g the gcd."""
    start = tuple(start)
    need(valid(start), "start is not a quadruple")
    cur = start
    for i, result in steps:
        result = tuple(result)
        need(result == reflect(cur, i), f"step {i} does not apply generator {i}")
        need(sum(result) < sum(cur), "step does not lower the sum")
        cur = result
    g = math.gcd(*start)
    need(tuple(root) == cur, "root is not the last step")
    need(sorted(root) == [0, g, g, g], f"root {root} is not a permutation of (0,{g},{g},{g})")


def census_expected(oracle: Oracle, kind: str, bound: int, mode: str, prim: bool):
    canon = oracle.census(kind, bound)
    if prim:
        canon = [q for q in canon if primitive(q)]
    if mode == "canonical":
        return canon
    return sorted(t for q in canon for t in orderings(q))


def check_cli(op: Op, text: str, oracle: Oracle) -> None:
    argv = list(op.args)
    cmd = argv[0]
    pos, fl = _flags(argv[1:])
    if cmd in ("census-height", "census-max"):
        kind = "height" if cmd == "census-height" else "max"
        bound, mode, prim = int(pos[0]), fl.get("--mode", "canonical"), "--primitive" in fl
        if "--sweep" in fl:
            weights = sorted((sum(x * x for x in q), 1 if mode == "canonical" else len(orderings(q)))
                             for q in oracle.census("height", bound))
            rows = _lines(text)
            need(len(rows) == bound, "sweep row count")
            count = i = 0
            for n, row in enumerate(rows, start=1):
                while i < len(weights) and weights[i][0] <= n * n:
                    count += weights[i][1]
                    i += 1
                ratio = 0.0 if n == 1 else count / (n * n * math.log(n) ** 3)
                matches({"bound": n, "count": count, "ratio": ratio}, row, f"sweep[{n}]")
            return
        listed = census_expected(oracle, kind, bound, mode, prim)
        if "--list" in fl:
            if fl.get("--format") == "csv":
                lines = text.splitlines()
                need(lines[0] == "a,b,c,d", "csv header")
                got = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
            else:
                got = [tuple(row["quadruple"]) for row in _lines(text)]
            need(got == listed, f"listed {len(got)} quadruples, expected {len(listed)}")
            return
        matches({"bound": bound, "mode": mode, "primitive": prim, "count": len(listed)}, _one(text))
        return
    if cmd == "divisor-sum":
        n = int(pos[0])
        total, ratio = EXPECTED["divisor_sum"][pos[0]] if n > 10**5 else divisor_square_sum(n)
        matches({"bound": n, "sum": total, "ratio": ratio}, _one(text))
        return
    if cmd == "alpha":
        h, cap = int(fl["--height"]), int(fl["--max-count"])
        found = [q for q in oracle.census("height", h) if primitive(q) and all(q)]
        rows = [{"quadruple": list(q), "prime_factors": sum(omega(x) for x in q)} for q in found]
        rows = [r for r in rows if r["prime_factors"] <= cap]
        matches({"height_bound": h, "max_count": cap, "count": len(rows), "quadruples": rows}, _one(text))
        return
    if cmd == "orbit":
        depth, max_sum, root = int(fl["--depth"]), fl.get("--max-sum"), fl.get("--root", (0, 1, 1, 1))
        layers = oracle.orbit(root, depth, None if max_sum is None else int(max_sum))
        if "--list" in fl:
            got = [(row["depth"], tuple(row["vector"])) for row in _lines(text)]
            need(got == [(d, v) for d, layer in enumerate(layers) for v in layer], "orbit list")
            return
        cumulative = [sum(len(layer) for layer in layers[: d + 1]) for d in range(depth + 1)]
        matches({"root": list(root), "depth": depth, "cumulative_sizes": cumulative,
                 "total": cumulative[-1]}, _one(text))
        return
    if cmd == "growth":
        depth, root = int(fl["--depth"]), fl.get("--root", (0, 1, 1, 1))
        series = coxeter_growth(depth)
        rec = [1, 4, 12]
        while len(rec) <= depth:
            rec.append(2 * rec[-1] + 2 * rec[-2] - 3 * rec[-3])
        layers = oracle.orbit(root, depth, None)
        rows = [{"depth": n, "layer": series[n], "recurrence": rec[n],
                 "cumulative": sum(series[: n + 1]),
                 "orbit": sum(len(layer) for layer in layers[: n + 1])} for n in range(depth + 1)]
        matches({"root": list(root), "rows": rows}, _one(text))
        return
    if cmd == "stabilizer":
        depth = int(fl["--depth"])
        layers = [1] + [3 * n for n in range(1, depth + 1)]
        cumulative = [{"n": n, "count": 6 * n * n + 3 * n + 1, "closed_form": 6 * n * n + 3 * n + 1}
                      for n in range(depth // 2 + 1)]
        matches({"layer_sizes": layers, "expected_layers": layers, "layers_match": True,
                 "cumulative_through_even_lengths": cumulative}, _one(text))
        return
    if cmd == "extremal":
        length, root = int(pos[0]), fl.get("--root", (0, 1, 1, 1))
        word = extremal_word(length)
        v = root
        for letter in reversed(word):
            v = reflect(v, letter)
        expected = {"length": length, "word": word, "norm": max(v), "root": list(root)}
        if "--exhaustive" in fl:
            # Recorded for the root (0, 1, 1, 1); the action is linear, so a
            # root (0, g, g, g) scales the maximum by g.
            need(root[0] == 0 and root[1] == root[2] == root[3], "exhaustive check needs root (0,g,g,g)")
            recorded = EXPECTED["extremal_exhaustive"][pos[0]]
            best = root[1] * recorded["exhaustive_max"]
            expected.update(exhaustive_max=best, attaining_words=recorded["attaining_words"],
                            extremal_attains_max=best == max(v))
        matches(expected, _one(text))
        return
    if cmd == "verify":
        target = pos[0]
        got = _one(text)
        if target == "coxeter":
            names = [f"S{i}^2" for i in range(1, 5)] + [
                f"(S{i}S{j})^3" for i in range(1, 5) for j in range(1, 5) if i != j]
            matches({"checks": [{"relation": n, "holds": True} for n in names], "all_pass": True}, got)
        elif target == "cartan":
            matches({"signature": [3, 1, 0], "all_pass": True}, got)
        elif target == "lie":
            matches(EXPECTED["verify_lie"], got)
        else:
            max_n = int(fl.get("--max-n", 20))
            ledger = [{"n": n, "row": 2, "col": 3, "computed": 3 * n * n - 2 * n, "formula": 6 * n * n - 2 * n}
                      for n in range(1, max_n + 1)]
            matches({"matrix_matches_display": True, "derivative_matches": True, "max_n": max_n,
                     "mismatch_count": max_n, "mismatches": ledger}, got)
        return
    if cmd == "reduce":
        q = tuple(int(x) for x in pos)
        got = _one(text)
        check_trace_json(got["start"], [(s["generator"], s["result"]) for s in got["steps"]], got["root"])
        g = math.gcd(*q)
        matches({"start": list(q), "gcd": g, "primitive": g == 1}, got)
        return
    if cmd == "normform":
        k = int(pos[0])
        got = _one(text)
        check_solutions(k, [tuple(s) for s in got["solutions"]], trial_factor(k))
        matches({"k": k, "count": len(got["solutions"]), "character_sum": chi_sum(trial_factor(k))}, got)
        return
    if cmd == "check":
        q = tuple(int(x) for x in pos)
        matches({"quadruple": list(q), "valid": valid(q), "form_value": form(q)}, _one(text))
        return
    if cmd == "simplex":
        action, entries = pos[0], [Fraction(x) for x in pos[1:]]
        got = _one(text)
        if action == "verify":
            res = residual(entries)
            matches({"entries": [str(e) for e in entries], "residual": str(res), "valid": res == 0}, got)
        else:
            closed = gram_closed(entries)
            matches({"entries": [str(e) for e in entries], "determinant": str(closed),
                     "closed_form": str(closed), "match": True}, got)
        return
    raise Mismatch(f"no check for CLI command {cmd!r}")


def residual(entries) -> Fraction:
    n = len(entries) - 2
    return (n + 1) * sum(e * e for e in entries) - sum(entries) ** 2


def gram_closed(entries) -> Fraction:
    n = len(entries) - 2
    return entries[0] ** (n - 1) * (sum(entries) ** 2 - (n + 1) * sum(e * e for e in entries))


def check_solutions(k: int, sols: list[tuple], factors: dict[int, int]) -> None:
    need(all(z * z - z * w + w * w == k for z, w in sols), "a solution misses the norm form")
    need(sols == sorted(set(sols)), "solutions not sorted and distinct")
    need(len(sols) == 6 * chi_sum(factors), f"{len(sols)} solutions, expected {6 * chi_sum(factors)}")


# -------------------------------------------------------- library checks

def check_call(op: Op, text: str, oracle: Oracle) -> None:
    got = json.loads(text)
    fn, args = op.target, op.args
    if fn == "reduction.reduce_to_root":
        need(tuple(got["start"]) == tuple(args[0]), "trace start")
        check_trace_json(got["start"], got["steps"], got["root"])
    elif fn == "core.is_triangle_quadruple":
        need(got is valid(args[0]), "validity")
    elif fn == "reduction.same_orbit":
        need(got is (math.gcd(*args[0]) == math.gcd(*args[1])), "orbit equality")
    elif fn == "eisenstein.quadruples_with_pair":
        p, q = args
        quads = [tuple(x) for x in got]
        need(all(t[:2] == (p, q) and valid(t) for t in quads), "an extension is not a quadruple")
        need(len(set(quads)) == len(quads), "repeated extension")
        need(len(quads) == 6 * chi_sum(merge(op.meta["pf"], op.meta["qf"], {3: 1})), "extension count")
    elif fn == "eisenstein.solve_norm_form":
        check_solutions(args[0], [tuple(s) for s in got], op.meta["kf"])
    elif fn == "orbit.prime_factor_count":
        q = args[0]
        need(got == (None if 0 in q else sum(omega(x) for x in q)), "prime factor count")
    elif fn == "simplex.identity_residual":
        need(Fraction(got) == residual(args[0]), "residual")
    elif fn == "simplex.reflect":
        entries, i = args
        n = len(entries) - 2
        new = Fraction(2, n) * (sum(entries) - entries[i]) - entries[i]
        need([Fraction(x) for x in got] == list(entries[:i]) + [new] + list(entries[i + 1:]), "reflection")
    elif fn == "simplex.gram_det":
        need(Fraction(got) == gram_closed(args[0]), "Gram determinant")
    elif fn == "counting.count_by_height":
        matches({"bound": args[0], "mode": "canonical", "count": len(oracle.census("height", args[0]))}, got)
    elif fn == "counting.divisor_square_sum":
        matches(list(divisor_square_sum(args[0])), got)
    elif fn == "lie.six_matrix_rank":
        need(got == 6, "rank")
    elif fn == "linalg.bareiss_rank":
        need(got == rank(args[0]), "rank")
    elif fn == "orbit.orbit_vectors":
        root, depth = args[0], args[1]
        layers = oracle.orbit(tuple(root), depth, None)
        need([[tuple(v) for v in layer] for layer in got["layers"]] == layers, "orbit layers")
        need(got["cumulative_sizes"] == [sum(len(x) for x in layers[: d + 1]) for d in range(depth + 1)],
             "orbit sizes")
    else:
        raise Mismatch(f"no check for {fn}")


def check(op: Op, outcome: str, text: str, oracle: Oracle) -> str | None:
    """None if the op did what it should, else the reason it failed."""
    try:
        need(outcome == op.expect, f"outcome {outcome}, expected {op.expect}")
        if op.expect.startswith("raise:"):
            return None
        if op.expect not in ("ok", "exit:0"):
            need(text == "", "a rejected call wrote to stdout")
            return None
        (check_cli if op.target == "cli" else check_call)(op, text, oracle)
    except Exception as exc:  # any checker error on this output fails the op
        return f"{type(exc).__name__}: {exc}"
    return None

