"""Command-line interface: every library operation as a subcommand.

Each handler returns its output, a dict or preformatted text, and
main passes it to _emit, the one stdout writer.  A dict is one JSON
document; list outputs are JSON lines (or CSV), written in batches after
the first line.  orbit --list streams: each sorted layer is built when
the writer reaches it, so the root's line leaves before layer 1 exists.
A canonical census list streams one first entry at a time, each chunk
sorted once the walk has passed it, so its first row leaves before the
census is built; an ordered census list walks the whole forest before
its first row, then lays out one first entry at a time.  The reduce
steps and the normform solutions are streamed into their documents.
Integers whose magnitude exceeds 53 bits are serialized as strings to
survive double-precision JSON consumers.  A --list row, a --sweep row,
a reduce step and a normform solution is one %-template applied to a
tuple (_rows); whether to quote is decided once per census from its bound,
once per orbit layer from a bound on its sums, once per reduction from
the start's sum and once per normform from k, with the bytes json.dumps
gives.  Exit codes: 0 success, 1 a verify ledger with a failing
identity, 2 invalid input, 3 resource cap exceeded, or an output
integer of more than EXPONENT_CAP digits, which Python cannot write; an
orbit --list that meets the element cap has written the layers under
it, and one that meets the digit limit the rows before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import accumulate, chain, islice

from . import counting, eisenstein, lie, orbit, reduction, simplex
from .core import (
    EXPONENT_CAP,
    ResourceLimitError,
    _is_int,
    form_signature,
    is_triangle_quadruple,
    quadratic_form,
    verify_coxeter_relations,
)

_BIG = 2**53
_BATCH = 256
# Python's default int/str digit limit: no int this large can be written.
_UNWRITABLE = 10**EXPONENT_CAP


def _decimal(x: int) -> str:
    """str(x); ResourceLimitError when x has more than EXPONENT_CAP digits,
    a limit that is only met once the work is done."""
    if x >= _UNWRITABLE or x <= -_UNWRITABLE:
        raise ResourceLimitError(f"an output integer exceeds {EXPONENT_CAP} digits")
    return str(x)


def _fraction(x) -> str:
    """str(x) for a Fraction, each part written through _decimal."""
    top = _decimal(x.numerator)
    return top if x.denominator == 1 else f"{top}/{_decimal(x.denominator)}"


def _json_safe(obj):
    if _is_int(obj):  # bools fall through unchanged
        return _decimal(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return obj


def _line(doc: dict) -> str:
    return json.dumps(_json_safe(doc), sort_keys=True) + "\n"


def _json_int(x: int) -> str:
    """An integer as _line writes it: a string beyond 53 bits."""
    return f'"{_decimal(x)}"' if x > _BIG or x < -_BIG else str(x)


def _rows(template: str, rows, top: int):
    """The lines template % row for rows of ints of magnitude at most top.
    Each %s is the entry as _line writes it: only when top exceeds 53
    bits is each entry put through _json_int."""
    if top <= _BIG:
        return map(template.__mod__, rows)
    return (template % tuple(map(_json_int, row)) for row in rows)


def _document(doc: dict, rows):
    """The pieces of _line(doc), whose last sorted key holds an empty
    list, with rows streamed into that list: the document is cut open
    before its "]}\n", and each row carries its ", " separator, which
    the first one drops."""
    first = next(rows, ", ")
    return chain([_line(doc)[:-3] + first[2:]], rows, ["]}\n"])


def _emit(out) -> None:
    """The CLI's one stdout writer.  A dict is one sorted-key JSON line;
    any other output is preformatted pieces, lines or the parts of one
    long line, the first written alone so that it leaves at once and the
    rest _BATCH at a time.  Pieces are made as they are written, so a
    cap met part way (an orbit layer past the element cap) is raised
    after every piece made before it is written."""
    lines = iter([_line(out)] if isinstance(out, dict) else out)
    write = sys.stdout.write
    for line in lines:
        write(line)
        break
    batch: list[str] = []
    try:
        while True:
            # extend keeps the lines taken before a raise, for the finally
            batch.extend(islice(lines, _BATCH))
            if len(batch) < _BATCH:
                break
            write("".join(batch))
            batch.clear()
    finally:
        if batch:
            write("".join(batch))


def _cmd_check(args):
    q = tuple(args.entries)
    return {
        "quadruple": list(q), "valid": is_triangle_quadruple(q), "form_value": quadratic_form(q)
    }


def _cmd_reduce(args):
    trace = reduction.reduce_to_root(tuple(args.entries))
    start = trace.start
    g = math.gcd(*start)
    # "steps" sorts last; sums only fall and entries are nonnegative, so
    # no entry exceeds sum(start)
    steps = _rows(', {"generator": %s, "result": [%s, %s, %s, %s]}',
                  ((i, *q) for i, q in trace.steps), sum(start))
    return _document({
        "start": list(start), "steps": [], "root": list(trace.root), "gcd": g, "primitive": g == 1
    }, steps)


def _cmd_orbit(args):
    bounds = (tuple(args.root), args.depth, args.max_elements, args.max_sum)
    if args.list:
        # one sorted layer at a time, each built when _emit asks for its rows
        layers = orbit.orbit_layers(*bounds)
        # a reflection takes the sum s to 2s - 3v <= 2s, and no entry
        # exceeds its sum, so no entry of layer n exceeds sum(root) << n;
        # past layer 0, the root, no sum exceeds max_sum either
        total = sum(args.root)
        top = math.inf if args.max_sum is None else max(total, args.max_sum)
        return chain.from_iterable(
            _rows(f'{{"depth": {depth}, "vector": [%s, %s, %s, %s]}}\n', layer,
                  min(total << depth, top))
            for depth, layer in enumerate(layers)
        )
    sizes = orbit.orbit_sizes(*bounds).cumulative_sizes
    return {
        "root": list(args.root),
        "depth": args.depth,
        "cumulative_sizes": list(sizes),
        "total": sizes[-1],
    }


def _cmd_growth(args):
    recurrence = orbit.growth_recurrence_terms(args.depth)
    table = orbit.bfs_elements(args.depth, max_elements=args.max_elements)
    sizes = orbit.orbit_sizes(tuple(args.root), args.depth, args.max_elements).cumulative_sizes
    rows = [
        {
            "depth": n,
            "layer": table.layer_sizes[n],
            "recurrence": recurrence[n],
            "cumulative": table.cumulative_sizes[n],
            "orbit": sizes[n],
        }
        for n in range(args.depth + 1)
    ]
    return {"root": list(args.root), "rows": rows}


def _census_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("bound", type=int)
    parser.add_argument("--mode", choices=counting.MODES, default="canonical")
    parser.add_argument("--primitive", action="store_true")
    parser.add_argument("--list", action="store_true", help="stream the quadruples")
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    parser.add_argument(
        "--max-bound",
        type=int,
        default=counting.DEFAULT_BOUND_CAP,
        help="feasibility cap on the bound",
    )


def _census(census, listing, args):
    """Run census (count_by_height or count_by_max) for its count
    document or, under --list, return the rows of listing (list_by_height
    or list_by_max), made as _emit writes them."""
    if args.format != "jsonl" and not args.list:
        raise ValueError("--format csv needs --list")
    bounds = (args.bound, args.mode, args.primitive, args.max_bound)
    if not args.list:
        report = census(*bounds)
        return dict(
            bound=report.bound, mode=report.mode, primitive=args.primitive, count=report.count
        )
    rows = listing(*bounds)
    if args.format == "csv":
        return chain(["a,b,c,d\n"], map("%s,%s,%s,%s\n".__mod__, rows))
    # by height or by largest entry, no entry exceeds the bound
    return _rows('{"quadruple": [%s, %s, %s, %s]}\n', rows, args.bound)


def _cmd_census_height(args):
    if args.sweep:
        if args.primitive or args.list or args.format != "jsonl":
            raise ValueError("--sweep takes no --primitive, --list or --format csv")
        rows = counting.height_sweep(args.bound, mode=args.mode, max_bound=args.max_bound)
        # counts only grow, and %s writes a float as json.dumps does, by repr
        return _rows('{"bound": %s, "count": %s, "ratio": %s}\n', rows,
                     max(args.bound, rows[-1][1]))
    return _census(counting.count_by_height, counting.list_by_height, args)


def _cmd_census_max(args):
    return _census(counting.count_by_max, counting.list_by_max, args)


def _cmd_divisor_sum(args):
    total, ratio = counting.divisor_square_sum(args.bound)
    return {"bound": args.bound, "sum": total, "ratio": ratio}


def _cmd_pair(args):
    extensions = [list(q) for q in eisenstein.quadruples_with_pair(args.p, args.q)]
    return {"pair": [args.p, args.q], "count": len(extensions), "extensions": extensions}


def _cmd_normform(args):
    solutions = eisenstein.solve_norm_form(args.k)
    payload = {"k": args.k, "count": len(solutions), "solutions": []}
    if args.k:  # k >= 1: the six units act freely, so count = 6 * character sum
        payload["character_sum"] = len(solutions) // 6
    # "solutions" sorts last; z^2 - zw + w^2 = k gives |z|, |w| <= k
    return _document(payload, _rows(", [%s, %s]", solutions, args.k))


def _cmd_stabilizer(args):
    layers = orbit.stabilizer_counts(args.depth)
    expected = [1] + [3 * n for n in range(1, args.depth + 1)]
    totals = list(accumulate(layers))
    cumulative = [
        {
            "n": n,
            "count": totals[2 * n],
            "closed_form": orbit.stabilizer_cumulative_closed_form(n),
        }
        for n in range(args.depth // 2 + 1)
    ]
    return {
        "layer_sizes": layers,
        "expected_layers": expected,
        "layers_match": layers == expected,
        "cumulative_through_even_lengths": cumulative,
    }


def _cmd_extremal(args):
    if args.max_elements is not None and not args.exhaustive:
        raise ValueError("--max-elements needs --exhaustive")
    word = orbit.extremal_word(args.length)
    norm = orbit.word_norm(word, tuple(args.root))
    payload = {"length": args.length, "word": list(word), "norm": norm, "root": list(args.root)}
    if args.exhaustive:
        best, attaining = orbit.max_norm_at_length(
            args.length, tuple(args.root), max_elements=args.max_elements
        )
        payload["exhaustive_max"] = best
        payload["attaining_words"] = [list(w) for w in attaining]
        payload["extremal_attains_max"] = best == norm
    return payload


def _cmd_verify(args):
    """A ledger; main exits 1 when a coxeter, cartan or lie ledger has
    all_pass false."""
    if args.target != "a1" and args.max_n is not None:
        raise ValueError("--max-n applies only to verify a1")
    if args.target == "coxeter":
        checks = verify_coxeter_relations()
        return {
            "checks": [{"relation": name, "holds": ok} for name, ok in checks],
            "all_pass": all(ok for _, ok in checks),
        }
    if args.target == "cartan":
        signature = form_signature()
        return {"signature": list(signature), "all_pass": signature == (3, 1, 0)}
    if args.target == "lie":
        displays = lie.display_comparison()
        infinitesimal = [
            (name, lie.preserves_form_infinitesimally(m))
            for name, m in (("D1", lie.DERIVATIVE_MATRIX), *lie.six_spanning_matrices())
        ]
        rank = lie.six_matrix_rank()
        return {
            "display_comparison": [{"matrix": name, "matches": ok} for name, ok in displays],
            "infinitesimal_checks": [{"matrix": name, "holds": ok} for name, ok in infinitesimal],
            "rank": rank,
            "all_pass": all(ok for _, ok in displays + infinitesimal) and rank == 6,
        }
    # target == "a1": the comparison ledger itself is the product, so a
    # recorded mismatch is reported, not treated as a failure;
    # power_formula_report raises if the translation matrix has changed.
    max_n = 20 if args.max_n is None else args.max_n
    mismatches = lie.power_formula_report(max_n)
    return {
        "matrix_matches_display": True,
        "derivative_matches": lie.formula_derivative_at_zero() == lie.DERIVATIVE_MATRIX,
        "max_n": max_n,
        "mismatch_count": len(mismatches),
        "mismatches": [dict(vars(m)) for m in mismatches],
    }


def _cmd_simplex(args):
    if args.config is not None:
        if args.entries:
            raise ValueError("provide tuple entries or --config, not both")
        entries = simplex.tuple_from_configuration(simplex.load_configuration(args.config))
    elif args.entries:
        entries = simplex.as_entries(args.entries)
    else:
        raise ValueError("provide tuple entries or --config")
    if (args.index is None) == (args.action == "reflect"):
        raise ValueError("reflect requires --index, and only reflect takes it")
    payload = {"entries": list(map(_fraction, entries))}
    if args.action == "verify":
        residual = simplex.identity_residual(entries)
        payload.update(residual=_fraction(residual), valid=residual == 0)
    elif args.action == "reflect":
        result = simplex.reflect(entries, args.index)
        payload.update(
            index=args.index,
            result=list(map(_fraction, result)),
            negative=any(e < 0 for e in result),
        )
    else:
        det = simplex.gram_det(entries)
        closed = simplex.gram_closed_form(entries)
        payload.update(determinant=_fraction(det), closed_form=_fraction(closed), match=det == closed)
    return payload


def _cmd_alpha(args):
    if args.search:
        if args.entries:
            raise ValueError("--search takes no entries")
        if args.height is None or args.max_count is None:
            raise ValueError("search needs --height and --max-count")
        found = orbit.search_prime_factor_count(args.height, args.max_count)
        return {
            "height_bound": args.height,
            "max_count": args.max_count,
            "count": len(found),
            "quadruples": [{"quadruple": list(q), "prime_factors": count} for q, count in found],
        }
    if args.height is not None or args.max_count is not None:
        raise ValueError("--height and --max-count need --search")
    if len(args.entries) != 4:
        raise ValueError("expected 4 integers")
    q = tuple(args.entries)
    return {
        "quadruple": list(q),
        "product": q[0] * q[1] * q[2] * q[3],
        "prime_factors": orbit.prime_factor_count(q),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused; each
    subcommand's handler is _cmd_<name>, looked up when main runs."""
    parser = argparse.ArgumentParser(
        prog="trigroup",
        description="Exact arithmetic for quadruples under the four-reflection group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a 4-tuple against the quadruple equation")
    p.add_argument("entries", type=int, nargs=4)

    p = sub.add_parser("reduce", help="reduce a quadruple to its root, recording the trace")
    p.add_argument("entries", type=int, nargs=4)

    p = sub.add_parser("orbit", help="breadth-first orbit of a quadruple under the generators")
    p.add_argument("--root", type=int, nargs=4, default=[0, 1, 1, 1])
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-sum", type=int, default=None, help="discard vectors with larger entry sum")
    p.add_argument("--max-elements", type=int, default=None)
    p.add_argument("--list", action="store_true", help="stream vectors as JSON lines")

    p = sub.add_parser("growth", help="per-length element counts: BFS against the closed recurrence")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--root", type=int, nargs=4, default=[0, 1, 1, 1])
    p.add_argument("--max-elements", type=int, default=None)

    p = sub.add_parser("census-height", help="census of quadruples with bounded height")
    _census_args(p)
    p.add_argument("--sweep", action="store_true", help="emit (n, count, ratio) rows up to the bound")

    p = sub.add_parser("census-max", help="census of quadruples with bounded maximal entry")
    _census_args(p)

    p = sub.add_parser("divisor-sum", help="exact sum of squared divisor counts")
    p.add_argument("bound", type=int)

    p = sub.add_parser("pair", help="all quadruples containing a fixed positive pair")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser("normform", help="integer representations by z^2 - zw + w^2")
    p.add_argument("k", type=int)

    p = sub.add_parser("stabilizer", help="growth of the root-fixing subgroup")
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("extremal", help="norm-extremal words and exhaustive norm maxima")
    p.add_argument("length", type=int)
    p.add_argument("--root", type=int, nargs=4, default=[0, 1, 1, 1])
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-elements", type=int, default=None)

    p = sub.add_parser("verify", help="pass/fail ledgers for the exact matrix identities")
    p.add_argument("target", choices=("coxeter", "cartan", "lie", "a1"))
    p.add_argument("--max-n", type=int, default=None, help="a1 ledger power range (default 20)")

    p = sub.add_parser("simplex", help="the n-dimensional identity, reflection, and Gram check")
    p.add_argument("action", choices=("verify", "reflect", "gram"))
    p.add_argument("entries", nargs="*", help="tuple entries as integers or fractions like 3/8")
    p.add_argument("--index", type=int, default=None, help="1-based distance entry to reflect")
    p.add_argument("--config", default=None, help="JSON file with a point configuration")

    p = sub.add_parser("alpha", help="prime factors (with multiplicity) of the entry product")
    p.add_argument("entries", type=int, nargs="*")
    p.add_argument("--search", action="store_true")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--max-count", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a wrapped module-level handler is the one run
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        out = handler(args)
        _emit(out)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(isinstance(out, dict) and out.get("all_pass") is False)


if __name__ == "__main__":
    sys.exit(main())
