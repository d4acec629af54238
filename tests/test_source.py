import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trigroup").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so no runtime guarantee may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_element_caps_feed_the_one_bfs_loop(path):
    # _bfs is the one loop that counts elements against a cap: every
    # element_cap(...) call is an argument of a _bfs(...) call, so no
    # function keeps a cap for a loop of its own
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    fed = {id(arg) for call in _calls_to(tree, "_bfs") for arg in call.args + [k.value for k in call.keywords]}
    lines = [call.lineno for call in _calls_to(tree, "element_cap") if id(call) not in fed]
    assert lines == [], f"{path.name}: element_cap(...) outside _bfs(...) at lines {lines}"


def test_input_caps_go_through_require_int():
    # an input cap is core._require_int(..., cap=...); the only other
    # ResourceLimitError raises are the work caps of the BFS loop and of
    # the factorization
    raising = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Raise) and _calls_to(node, "ResourceLimitError")
                for node in ast.walk(fn)
            ):
                raising.add(f"{path.stem}.{fn.name}")
    assert raising == {"core._require_int", "orbit._bfs", "eisenstein._pollard_rho"}
