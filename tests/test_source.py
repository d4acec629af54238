import ast
import math
from pathlib import Path

import pytest

import trigroup

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trigroup").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so no runtime guarantee may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _isinstance_types(node):
    """Names of the types an isinstance(x, T) call tests against."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
        return set()
    spec = node.args[1]
    elts = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    return {e.id for e in elts if isinstance(e, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_int_rule_lives_only_in_core(path):
    # core._is_int / core._require_int are the one definition of an int
    # input; no other module tests for int or bool itself or keeps a
    # private _require_* copy
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    tested = set().union(*(_isinstance_types(node) for node in ast.walk(tree)))
    checks = {node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_require")}
    if path.name == "core.py":
        assert checks == {"_require_int"}
    else:
        assert tested.isdisjoint({"bool", "int"}), f"{path.name} tests isinstance against {tested}"
        assert checks == set(), f"{path.name} defines {checks}"


def _calls_to(tree, name):
    """Calls of name(...) or of module.name(...)."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _reads(tree, name):
    """Loads of name or of module.name."""
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load) and name in (getattr(node, "id", None), getattr(node, "attr", None))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_element_caps_feed_the_one_bfs_loop(path):
    # _bfs is the one loop that counts elements against a cap, and the one
    # place that resolves it: the caller's argument, else the default.  No
    # module reads the environment, and only _bfs reads the default.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    env = [node.lineno for node in _reads(tree, "environ") + _calls_to(tree, "getenv")]
    assert env == [], f"{path.name}: environment read at lines {env}"
    bfs = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_bfs"
           and path.name == "orbit.py" for node in ast.walk(fn)}
    default = _reads(tree, "DEFAULT_MAX_ELEMENTS")
    lines = [node.lineno for node in default if id(node) not in bfs]
    assert lines == [], f"{path.name}: DEFAULT_MAX_ELEMENTS read outside orbit._bfs at lines {lines}"
    if path.name == "orbit.py":
        assert default, "orbit._bfs no longer reads DEFAULT_MAX_ELEMENTS"


def _defs(stem):
    path = next(p for p in SOURCES if p.stem == stem)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}


def test_bfs_loop_neither_sorts_nor_calls_reflect():
    # the counts read unordered layers, and the loops reflect in place
    # from one entry sum per vector; the sorts are outside them, in
    # orbit.orbit_layers and the census lists' chunks.  The loops are
    # orbit._bfs, counting._walk, counting._walk_by_largest and
    # reduction.reduce_to_root, and every function they name, followed
    # from orbit into counting (counting.<name>) and on; the reduction
    # runs reduce_step's step inline, so it calls neither that step nor
    # the reflection.
    defs = {stem: _defs(stem) for stem in ("orbit", "counting", "reduction")}
    todo = [("orbit", "_bfs"), ("counting", "_walk"), ("counting", "_walk_by_largest"),
            ("reduction", "reduce_to_root")]
    seen = set()
    while todo:
        stem, name = todo.pop()
        if (stem, name) in seen:
            continue
        seen.add((stem, name))
        fn = defs[stem][name]
        for call in ("sorted", "_reflect", "reduce_step"):
            assert _calls_to(fn, call) == [], f"{stem}.{name} calls {call}"
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in defs[stem]:
                todo.append((stem, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in defs and node.attr in defs[node.value.id]):
                todo.append((node.value.id, node.attr))
    kernels = {("orbit", "_set_layers"), ("counting", "_root_layers"), ("counting", "_layout"),
               ("reduction", "reduce_to_root")}
    assert kernels <= seen, f"kernels not followed: {kernels - seen}"


def test_one_elimination_computes_every_matrix_invariant():
    # linalg._bareiss is the one elimination: char_poly is defined once,
    # in linalg, and runs it on the principal minors; simplex.gram_det
    # runs it on the matrix it builds, and no bareiss_det is left; orbit
    # keeps no characteristic-polynomial recurrence, and no mat_mul to
    # run one
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    defining = {name: sorted(stem for stem, tree in trees.items() for fn in ast.walk(tree)
                             if isinstance(fn, ast.FunctionDef) and fn.name == name)
                for name in ("char_poly", "bareiss_det")}
    assert defining == {"char_poly": ["linalg"], "bareiss_det": []}, defining
    assert _calls_to(_defs("linalg")["char_poly"], "_bareiss")
    assert _calls_to(_defs("simplex")["gram_det"], "_bareiss")
    imported = {alias.name for node in ast.walk(trees["orbit"]) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "mat_mul" not in imported and "char_poly" in imported
    for path in SOURCES:
        text = path.read_text(encoding="utf-8").lower()
        assert "inexact division" not in text and "leverrier" not in text, path.name


def test_orders_come_from_one_table():
    # ordered weights, ordered rows and root-orbit layouts all read
    # counting._ORDERS: no factorial anywhere, and permutations only in
    # the builder of that table
    calls = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert _calls_to(tree, "factorial") == [], f"{path.name} calls factorial"
        if _calls_to(tree, "permutations"):
            calls[path.stem] = len(_calls_to(tree, "permutations"))
    assert calls == {"counting": len(_calls_to(_defs("counting")["_orders_table"], "permutations"))}


def test_census_and_root_orbits_build_children_by_one_rule():
    # counting._walk, counting._walk_by_largest and counting._root_layers
    # build the children of (a, b, c, d) by the same three tests, each
    # walk with its own lower bound lo on the replaced entry; the census
    # functions read a node's tie pattern from the walk instead of
    # computing it again
    defs = _defs("counting")
    rules = [[ast.unparse(node) for node in ast.walk(defs[name])
              if isinstance(node, ast.If) and _calls_to(node, "push")]
             for name in ("_walk", "_root_layers")]
    assert len(rules[0]) == 3 and rules[0] == rules[1], rules
    # _walk_by_largest files each child under its largest entry in place
    # of push: the same tests, and the same child in each, but for its
    # new entry, which it reads from its table ints
    def child(name, node):
        new, *rest = node.body[0].value.args[0].elts
        if name == "_walk_by_largest":
            assert isinstance(new, ast.Subscript) and ast.unparse(new.value) == "ints", ast.unparse(new)
            new = new.slice
        return ast.unparse(ast.Tuple([new, *rest], ast.Load()))

    children = {name: [(ast.unparse(node.test), child(name, node))
                       for node in ast.walk(defs[name])
                       if isinstance(node, ast.If) and _reads(node.test, "lo")]
                for name in ("_walk", "_walk_by_largest", "_root_layers")}
    assert len(children["_walk"]) == 3, children
    assert children["_walk_by_largest"] == children["_root_layers"] == children["_walk"], children
    # the tie pattern is computed by _walk for the counts and by _layout
    # for the rows of root orbits and ordered lists, and nowhere else
    ties = "(a == b) + 2 * (b == c) + 4 * (c == d)"
    computing = {name for name, fn in defs.items() if ties in ast.unparse(fn)}
    assert computing == {"_walk", "_layout"}, computing


def test_ordered_rows_and_root_orbits_share_one_layout():
    # ordered lists read the forest of roots that canonical lists read,
    # not _walk, and lay out their rows by the one helper that lays out
    # root orbits: only _layout reads the layout table, and no tail table
    # is left
    defs = _defs("counting")
    ordered = defs["_ordered_chunks"]
    assert _calls_to(ordered, "_walk_by_largest") and not _calls_to(ordered, "_walk")
    callers = {name for name, fn in defs.items() if _calls_to(fn, "_layout")}
    assert callers == {"_root_layers", "_ordered_chunks"}, callers
    readers = {name for name, fn in defs.items() if _reads(fn, "_LAYOUTS")}
    assert readers == {"_layout"}, readers
    tails = [path.name for path in SOURCES if "_TAILS" in path.read_text(encoding="utf-8")]
    assert tails == [], tails


def test_census_lists_sort_one_first_entry_at_a_time():
    # a census list is sorted chunk by chunk, one chunk per first entry,
    # never whole: no sorted() in counting at all, and list.sort only on
    # the chunks.  The CLI lists from list_by_height and list_by_max, not
    # from a report.
    path = next(p for p in SOURCES if p.name == "counting.py")
    lines = [node.lineno for node in _calls_to(ast.parse(path.read_text(encoding="utf-8")), "sorted")]
    assert lines == [], f"counting.py calls sorted() at lines {lines}"
    defs = _defs("counting")
    chunks = {name for name, fn in defs.items() if _calls_to(fn, "sort")}
    assert chunks == {"_canonical_chunks", "_ordered_chunks"}, chunks
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in _reads(tree, "quadruples")]
    assert lines == [], f"cli.py reads quadruples at lines {lines}"
    for name in ("list_by_height", "list_by_max"):
        assert _reads(tree, name), f"cli.py does not read {name}"


def test_no_group_element_walk_left():
    # the group's elements are counted from the growth series only: every
    # _bfs from the chamber vector (1, 1, 1, 1) asks for sizes
    calls = [node for path in SOURCES
             for node in _calls_to(ast.parse(path.read_text(encoding="utf-8")), "_bfs")
             if node.args and ast.unparse(node.args[0]) in ("_CHAMBER_VECTOR", "(1, 1, 1, 1)")]
    assert calls
    for node in calls:
        sizes = [ast.unparse(k.value) for k in node.keywords if k.arg == "sizes"]
        assert sizes == ["True"], f"element walk: {ast.unparse(node)}"


def test_list_rows_quote_entries_only_past_53_bits():
    # _cmd_orbit and _census write list rows through _rows, which puts
    # each entry through _json_int only after its test of the caller's
    # bound against 2**53 has failed
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    for name in ("_cmd_orbit", "_census", "_cmd_census_height"):
        assert _calls_to(defs[name], "_rows"), f"cli.{name} does not call _rows"
    readers = {name for name, fn in defs.items() if _reads(fn, "_json_int")}
    assert readers == {"_rows"}, f"cli functions reading _json_int: {readers}"
    body = defs["_rows"].body
    guard = next(i for i, node in enumerate(body) if isinstance(node, ast.If))
    assert ast.unparse(body[guard].test) == "top <= _BIG"
    assert isinstance(body[guard].body[-1], ast.Return)
    quoting = [i for i, node in enumerate(body) if _reads(node, "_json_int")]
    assert quoting and min(quoting) > guard, f"_rows reads _json_int in statements {quoting}"


def test_input_caps_go_through_require_int():
    # an input cap is core._require_int(..., cap=...); the only other
    # ResourceLimitError raises are the work caps of the BFS loop, of
    # the factorization and of the reduction loop, and cli._decimal's
    # limit on the digits of an output integer
    raising = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Raise) and _calls_to(node, "ResourceLimitError")
                for node in ast.walk(fn)
            ):
                raising.add(f"{path.stem}.{fn.name}")
    assert raising == {
        "core._require_int", "orbit._bfs", "eisenstein._pollard_rho", "reduction.reduce_to_root",
        "cli._decimal",
    }


def test_every_public_function_has_a_caller():
    # a public top-level function, or a public method of a public class,
    # is exported or called from src/; an extension point or a helper
    # that only the tests use is deleted
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)}
    scopes = list(trees.items()) + [
        (f"{stem}.{cls.name}", cls) for stem, tree in trees.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
    ]
    uncalled = sorted(
        f"{scope}.{fn.name}" for scope, node in scopes for fn in node.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and fn.name not in trigroup.__all__ and fn.name not in called
    )
    assert uncalled == [], f"public functions with no caller: {uncalled}"


def test_cli_reads_no_private_library_name():
    # the CLI calls each library module through its public functions only
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    assert "eisenstein" in modules
    private = sorted(ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in modules
                     and node.attr.startswith("_"))
    assert private == [], f"cli.py reads {private}"


def test_cli_lists_orbits_layer_by_layer():
    # orbit --list streams from orbit.orbit_layers; orbit_vectors builds
    # and sorts every layer before the first row could be written
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _calls_to(tree, "orbit_layers")
    lines = [node.lineno for node in _reads(tree, "orbit_vectors")]
    assert lines == [], f"cli.py reads orbit_vectors at lines {lines}"


def test_one_length_cap_bounds_every_length():
    # each cap is one module constant; the one cap on a word length or a
    # BFS depth is core.LENGTH_CAP, and every length input is checked
    # against it by core._require_int, as core._rational checks a fraction
    # string's exponent against core.EXPONENT_CAP
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    caps = {f"{stem}.{target.id}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_CAP")}
    assert caps == {
        "core.EXPONENT_CAP", "core.LENGTH_CAP", "counting.DEFAULT_BOUND_CAP", "counting.DIVISOR_SUM_CAP",
        "counting.DIVISOR_TABLE_CAP", "eisenstein.RHO_ITERATION_CAP", "eisenstein.SOLUTION_CAP",
        "linalg.BAREISS_BITS_CAP", "linalg.CHAR_POLY_SIZE_CAP", "reduction.REDUCTION_STEP_CAP",
    }
    assigned = {stem for stem, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store)
                and "LENGTH_CAP" in (getattr(node, "id", None), getattr(node, "attr", None))}
    assert assigned == {"core"}
    defs = {**_defs("orbit"), **_defs("lie")}
    exponent = [ast.unparse(k.value) for call in _calls_to(_defs("core")["_rational"], "_require_int")
                for k in call.keywords if k.arg == "cap"]
    assert exponent == ["EXPONENT_CAP"], exponent
    # the one elimination checks its work cap the same way, on every matrix
    elimination = [ast.unparse(k.value) for call in _calls_to(_defs("linalg")["_bareiss"], "_require_int")
                   for k in call.keywords if k.arg == "cap"]
    assert elimination == ["BAREISS_BITS_CAP"], elimination
    for name in ("_bfs", "word_norm", "growth_recurrence_terms", "extremal_word",
                 "stabilizer_counts", "power_formula_report"):
        caps = [ast.unparse(k.value) for call in _calls_to(defs[name], "_require_int")
                for k in call.keywords if k.arg == "cap"]
        assert caps == ["LENGTH_CAP"], f"{name} checks caps {caps}"


def test_factorization_tables():
    # factorize divides k by the primes below 1000 that divide
    # gcd(k, _PRIMORIAL), and _is_prime sizes its Miller-Rabin bases by
    # the table of psi_k, OEIS A014233, written out here
    from trigroup import eisenstein

    primes = [n for n in range(2, 1000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert list(eisenstein._PRIMES) == primes and len(primes) == 168
    assert eisenstein._PRIMORIAL == math.prod(primes)
    assert eisenstein._PSI == (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
    )
    names = {node.id for path in SOURCES for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name)}
    assert not names & {"_TRIAL_DIVISORS", "_SMALL_PRIMES", "_MR_DETERMINISTIC_BOUND"}
