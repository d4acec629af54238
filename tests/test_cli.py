import io
import json
import math
import os
import subprocess
import sys
import time
from itertools import accumulate
from pathlib import Path

import pytest

from trigroup import cli, counting, eisenstein, lie, orbit, reduction
from trigroup.cli import _BATCH, _json_safe, main
from trigroup.counting import list_by_height, list_by_max
from trigroup.eisenstein import divisor_character_sum, factorize
from trigroup.orbit import orbit_vectors
from trigroup.reduction import reduce_to_root
from census_oracle import expected_list, scan_census
from conftest import configuration_json, cusp_quadruple

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def run_jsonl(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return [json.loads(line) for line in out.splitlines()]


def test_check(capsys):
    payload = run_json(capsys, "check", "7", "4", "3", "1")
    assert payload == {"quadruple": [7, 4, 3, 1], "valid": True, "form_value": 0}
    payload = run_json(capsys, "check", "1", "1", "1", "1")
    assert payload["valid"] is False
    assert payload["form_value"] == -4


def test_reduce_worked_example(capsys):
    payload = run_json(capsys, "reduce", "1", "1", "3", "4")
    assert payload["root"] == [1, 1, 0, 1]
    assert sorted(payload["root"]) == [0, 1, 1, 1]
    assert payload["gcd"] == 1
    assert payload["primitive"] is True
    assert payload["steps"] == [
        {"generator": 4, "result": [1, 1, 3, 1]},
        {"generator": 3, "result": [1, 1, 0, 1]},
    ]


@pytest.mark.parametrize(
    "q",
    [(0, 5, 5, 5), (7, 4, 9, 1), cusp_quadruple(1000),
     tuple(2**50 * x for x in (7, 4, 9, 1)), tuple(10**16 * x for x in (7, 4, 9, 1))],
    ids=lambda q: str(q)[:40],
)
def test_reduce_output_is_the_line_of_its_document(capsys, q):
    # the steps go through one row template, quoted past 2**53 as _line
    # quotes them; 2**50 (7, 4, 9, 1) mixes quoted and unquoted entries
    trace = reduce_to_root(q)
    g = math.gcd(*q)
    code, out, _ = run_cli(capsys, "reduce", *map(str, q))
    assert code == 0
    assert out == cli._line({
        "start": list(q),
        "steps": [{"generator": i, "result": list(r)} for i, r in trace.steps],
        "root": list(trace.root),
        "gcd": g,
        "primitive": g == 1,
    })


def test_reduce_invalid_exits_2(capsys):
    code, _, err = run_cli(capsys, "reduce", "1", "1", "1", "1")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_orbit_summary_and_list(capsys):
    payload = run_json(capsys, "orbit", "--depth", "2")
    assert payload["cumulative_sizes"] == [1, 2, 5]
    rows = run_jsonl(capsys, "orbit", "--depth", "1", "--list")
    assert {"depth": 0, "vector": [0, 1, 1, 1]} in rows
    assert {"depth": 1, "vector": [3, 1, 1, 1]} in rows


def test_growth_rows(capsys):
    payload = run_json(capsys, "growth", "--depth", "4")
    rows = payload["rows"]
    assert [r["layer"] for r in rows] == [1, 4, 12, 30, 72]
    assert [r["recurrence"] for r in rows] == [1, 4, 12, 29, 70]
    assert [r["orbit"] for r in rows] == [1, 2, 5, 11, 26]
    assert rows[4]["cumulative"] == 119


def test_growth_recurrence_steps_are_linear_in_depth(capsys, monkeypatch):
    # each recurrence step does five arithmetic operations on its terms;
    # one pass over the depth, not one per row, keeps them O(depth)
    ops = []

    class Counted(int):
        def _op(self, result):
            ops.append(1)
            return Counted(result)

        def __add__(self, other):
            return self._op(int(self) + other)

        def __sub__(self, other):
            return self._op(int(self) - other)

        def __rmul__(self, other):
            return self._op(other * int(self))

    before = run_json(capsys, "growth", "--depth", "300", "--max-elements", str(10**200))
    monkeypatch.setattr(orbit, "RECURRENCE_SEEDS", tuple(map(Counted, orbit.RECURRENCE_SEEDS)))
    assert run_json(capsys, "growth", "--depth", "300", "--max-elements", str(10**200)) == before
    assert 0 < len(ops) <= 5 * 300


def test_growth_at_depth_200_under_a_large_cap(capsys):
    # the counts come from the growth series, so depth 200 builds no
    # vectors; the default element cap still counts every element
    payload = run_json(capsys, "growth", "--depth", "200", "--max-elements", str(10**100))
    layers = orbit.bfs_elements(200, 10**100)
    sizes = orbit.orbit_sizes((0, 1, 1, 1), 200, 10**100)
    assert [int(r["cumulative"]) for r in payload["rows"]] == list(accumulate(layers))
    assert [int(r["orbit"]) for r in payload["rows"]] == list(accumulate(sizes))
    assert len(str(layers[200])) == 73
    code, out, err = run_cli(capsys, "growth", "--depth", "200")
    assert (code, out) == (3, "")
    assert "BFS exceeded cap of 2000000 elements" in err


def test_census_height_report_and_list(capsys):
    payload = run_json(capsys, "census-height", "5")
    assert payload["count"] == 3
    rows = run_jsonl(capsys, "census-height", "5", "--list")
    assert {"quadruple": [3, 1, 1, 1]} in rows
    assert len(rows) == 3


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census-height", "5", "--list", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,c,d"
    assert "3,1,1,1" in lines


def test_census_sweep(capsys):
    rows = run_jsonl(capsys, "census-height", "6", "--sweep")
    assert len(rows) == 6
    assert rows[4]["count"] == 3


@pytest.mark.parametrize("mode", ["canonical", "ordered"])
@pytest.mark.parametrize("big", [False, True], ids=["plain", "quoted"])
def test_census_sweep_rows_are_the_line_bytes(capsys, monkeypatch, mode, big):
    if big:  # every int past "53 bits" is quoted, through _rows's other path
        monkeypatch.setattr(cli, "_BIG", 10)
    code, out, _ = run_cli(capsys, "census-height", "125", "--sweep", "--mode", mode)
    assert code == 0
    rows = counting.height_sweep(125, mode=mode)
    assert out == "".join(cli._line({"bound": n, "count": c, "ratio": r}) for n, c, r in rows)
    assert ('"count": "' in out) is big


def test_census_max(capsys):
    payload = run_json(capsys, "census-max", "3")
    assert payload["count"] == 4


def test_census_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, "census-height", "100", "--max-bound", "10")
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--depth", "-1"),
        ("orbit", "--depth", "-2"),
        ("orbit", "--depth", "-1", "--list"),
        ("stabilizer", "--depth", "-1"),
    ],
)
def test_negative_depth_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "depth" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--depth", "3", "--max-elements", "0"),
        ("orbit", "--depth", "3", "--max-sum", "-1"),
        ("extremal", "2", "--exhaustive", "--max-elements", "-1"),
        ("census-height", "10", "--max-bound", "0"),
        ("verify", "a1", "--max-n", "-1"),
        ("alpha", "--search", "--height", "10", "--max-count", "-1"),
        ("simplex", "reflect", "1", "3/8", "3/8", "3/8", "3/8", "--index", "0"),
    ],
)
def test_out_of_range_int_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "must be an int" in err


@pytest.mark.parametrize(
    "argv",
    [("census-height", "3.0"), ("extremal", "2.0"), ("orbit", "--depth", "True"), ("pair", "1", "2.5")],
)
def test_non_int_argument_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_parser_built_once_and_handler_looked_up_per_call(capsys, monkeypatch):
    for _ in range(3):
        assert main(["check", "7", "4", "3", "1"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    # a handler replaced in the module globals is the one main runs
    seen = []
    monkeypatch.setattr(cli, "_cmd_check", lambda args: seen.append(args.entries) or {})
    assert main(["check", "7", "4", "3", "1"]) == 0
    assert seen == [[7, 4, 3, 1]]
    assert capsys.readouterr().out.splitlines()[-1] == "{}"


def test_orbit_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, "orbit", "--depth", "8", "--max-elements", "5")
    assert code == 3
    assert "resource limit" in err


def test_pair(capsys):
    payload = run_json(capsys, "pair", "1", "1")
    assert payload["count"] == 6
    assert [1, 1, 1, 0] in payload["extensions"]


def test_normform(capsys):
    payload = run_json(capsys, "normform", "7")
    assert payload["count"] == 12
    assert payload["character_sum"] == 2
    assert [3, 1] in payload["solutions"]


@pytest.mark.parametrize(
    "argv,count",
    [
        (("normform", "300000000000000000000"), 6),
        # two primes = 1 mod 3 near 1e10: pq is about 1e20
        (("pair", "10000000033", "10001000011"), 24),
    ],
)
def test_normform_and_pair_near_1e20(capsys, argv, count):
    start = time.perf_counter()
    payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert payload["count"] == count


def test_normform_of_psi_12(capsys):
    # psi_12 = 399165290221 * 798330580441 passes the strong test to the
    # twelve bases 2..37; taken for a prime, it failed in Cornacchia
    payload = run_json(capsys, "normform", "318665857834031151167461")
    assert (payload["count"], payload["character_sum"]) == (24, 4)
    k = 318665857834031151167461
    assert all(int(z) ** 2 - int(z) * int(w) + int(w) ** 2 == k for z, w in payload["solutions"])


def test_normform_unfactorable_exits_3(capsys, monkeypatch):
    # the default cap gives up only after about 10 s, so lower it here
    monkeypatch.setattr(eisenstein, "RHO_ITERATION_CAP", 10_000)
    # 100000000000000000039 * 300000000000000000053, both prime
    semiprime = "30000000000000000017000000000000000002067"
    code, out, err = run_cli(capsys, "normform", semiprime)
    assert code == 3
    assert out == ""
    assert "resource limit" in err


@pytest.mark.parametrize("argv", [("normform", "91"), ("pair", "2", "2")])
def test_output_unchanged_under_optimize_flag(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*flags):
        cmd = [sys.executable, *flags, "-m", "trigroup.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=60).stdout

    plain = run()
    assert json.loads(plain)["count"] > 0
    assert run("-O") == plain


def test_stabilizer(capsys):
    payload = run_json(capsys, "stabilizer", "--depth", "6")
    assert payload["layer_sizes"] == [1, 3, 6, 9, 12, 15, 18]
    assert payload["layers_match"] is True
    assert payload["cumulative_through_even_lengths"][2] == {
        "n": 2,
        "count": 31,
        "closed_form": 31,
    }


def test_stabilizer_rows_at_depth_2000_and_over_the_length_cap(capsys):
    payload = run_json(capsys, "stabilizer", "--depth", "2000")
    rows = payload["cumulative_through_even_lengths"]
    assert [row["count"] for row in rows] == [6 * n * n + 3 * n + 1 for n in range(1001)]
    assert all(row["count"] == row["closed_form"] for row in rows)
    depth = str(orbit.LENGTH_CAP + 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stabilizer", "--depth", depth)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "resource limit" in err


def test_stabilizer_is_bounded_by_the_length_cap_alone(capsys):
    # its sizes are read off the series: no element cap applies, and
    # stabilizer takes no --max-elements
    start = time.perf_counter()
    payload = run_json(capsys, "stabilizer", "--depth", str(orbit.LENGTH_CAP))
    assert time.perf_counter() - start < 1.0
    assert payload["layer_sizes"][-1] == 30000
    with pytest.raises(SystemExit) as exc:
        main(["stabilizer", "--depth", "3", "--max-elements", "5"])
    assert exc.value.code == 2


def test_reduce_over_the_step_cap_exits_3(capsys, monkeypatch):
    # cusp_quadruple(40) takes 121 steps
    monkeypatch.setattr(reduction, "REDUCTION_STEP_CAP", 100)
    code, out, err = run_cli(capsys, "reduce", *map(str, cusp_quadruple(40)))
    assert (code, out) == (3, "")
    assert "resource limit" in err


def test_normform_of_zero_and_of_a_negative(capsys):
    # 0 = N(0, 0) only, and no divisor sum is defined for it
    assert run_json(capsys, "normform", "0") == {"k": 0, "count": 1, "solutions": [[0, 0]]}
    code, out, err = run_cli(capsys, "normform", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [("alpha", "--search", "--height", "10"), ("alpha", "1", "2", "3")],
)
def test_alpha_incomplete_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_extremal(capsys):
    payload = run_json(capsys, "extremal", "4")
    assert payload["word"] == [4, 3, 2, 1]
    assert payload["norm"] == 13
    payload = run_json(capsys, "extremal", "4", "--exhaustive")
    assert payload["exhaustive_max"] == 13
    assert payload["extremal_attains_max"] is True


def test_extremal_exhaustive_cap_counts_elements_through_length_n(capsys):
    # 3653 group elements have length at most 8
    code, out, err = run_cli(capsys, "extremal", "8", "--exhaustive", "--max-elements", "3652")
    assert (code, out) == (3, "")
    assert "BFS exceeded cap of 3652 elements" in err
    payload = run_json(capsys, "extremal", "8", "--exhaustive", "--max-elements", "3653")
    assert payload["exhaustive_max"] == 109


def test_extremal_exhaustive_over_default_cap_exits_3_before_any_work(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "extremal", "10000", "--exhaustive")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "BFS exceeded cap of 2000000 elements" in err


def test_extremal_big_int_serialized_as_string(capsys):
    payload = run_json(capsys, "extremal", "80")
    assert isinstance(payload["norm"], str)
    assert int(payload["norm"]) > 2**53


def test_verify_coxeter(capsys):
    payload = run_json(capsys, "verify", "coxeter")
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 16


def test_verify_cartan(capsys):
    payload = run_json(capsys, "verify", "cartan")
    assert payload["signature"] == [3, 1, 0]


def test_verify_lie(capsys):
    payload = run_json(capsys, "verify", "lie")
    assert payload["rank"] == 6
    assert payload["all_pass"] is True
    assert len(payload["infinitesimal_checks"]) == 7


def test_verify_a1_documents_discrepancy(capsys):
    payload = run_json(capsys, "verify", "a1", "--max-n", "5")
    assert payload["matrix_matches_display"] is True
    assert payload["derivative_matches"] is True
    assert payload["mismatch_count"] == 5
    assert all(m["row"] == 2 and m["col"] == 3 for m in payload["mismatches"])


def test_group_counts_and_the_a1_ledger_are_plain_values(capsys):
    # the size queries return the layer sizes themselves, for a root and
    # for a non-root, and verify a1 writes the library's ledger as it is
    for root in ((0, 1, 1, 1), (7, 4, 3, 1)):
        sizes = orbit.orbit_sizes(root, 9, max_sum=500)
        assert type(sizes) is tuple and all(type(x) is int for x in sizes)
        assert len(sizes) == 10
    layers = orbit.bfs_elements(9)
    assert type(layers) is tuple and all(type(x) is int for x in layers)
    assert len(layers) == 10
    ledger = lie.power_formula_report(5)
    assert ledger == run_json(capsys, "verify", "a1", "--max-n", "5")["mismatches"]


def test_verify_a1_max_n_defaults_to_20(capsys):
    payload = run_json(capsys, "verify", "a1")
    assert (payload["max_n"], payload["mismatch_count"]) == (20, 20)


def test_simplex_verify(capsys):
    payload = run_json(capsys, "simplex", "verify", "1", "3/8", "3/8", "3/8", "3/8")
    assert payload["valid"] is True
    assert payload["residual"] == "0"


@pytest.mark.parametrize("text", ["1e10000000", "-1E+10000000", "1e-10000000"])
def test_simplex_huge_exponent_exits_3_at_once(capsys, text):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simplex", "verify", "--", text, "0", "0", "0")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "exponent 10000000 exceeds cap" in err


def test_simplex_output_past_the_digit_limit_exits_3(capsys):
    # 1e2200 passes the exponent cap, but its residual has about 4400 digits
    code, out, err = run_cli(capsys, "simplex", "verify", "1e2200", "0", "0", "0")
    assert (code, out) == (3, "")
    assert "exceeds 4300 digits" in err


def test_simplex_gram_past_the_elimination_cap_exits_3_at_once(capsys):
    # 50 entries over distinct 6-digit prime denominators: scaled by the
    # lcm, the Gram matrix has 49 rows of ~850-bit entries
    primes = [p for p in range(100_001, 102_000, 2) if all(p % d for d in range(3, 320, 2))][:50]
    entries = [f"{(p * 7919) % 10**6}/{p}" for p in primes]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simplex", "gram", *entries)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (3, "")
    assert "exceeds cap" in err


def test_orbit_list_past_the_digit_limit_keeps_its_rows_and_exits_3(capsys):
    g = 10**4299
    code, out, err = run_cli(capsys, "orbit", "--root", str(g), str(g), str(g), "0",
                             "--depth", "5", "--list")
    assert code == 3
    assert "exceeds 4300 digits" in err
    rows = [json.loads(line) for line in out.splitlines()]
    expected = [(d, v) for d, layer in enumerate(orbit.orbit_layers((g, g, g, 0), 5))
                for v in layer]
    # every row before the first unwritable entry was written
    assert [(r["depth"], tuple(map(int, r["vector"]))) for r in rows] == expected[: len(rows)]
    assert rows[0]["vector"] == [str(g)] * 3 + [0]
    assert max(map(abs, expected[len(rows)][1])) >= 10**4300
    assert all(max(map(abs, v)) < 10**4300 for _, v in expected[: len(rows)])


def test_simplex_reflect(capsys):
    payload = run_json(
        capsys, "simplex", "reflect", "1", "3/8", "3/8", "3/8", "3/8", "--index", "4"
    )
    assert payload["result"] == ["1", "3/8", "3/8", "3/8", "25/24"]


def test_simplex_gram(capsys):
    payload = run_json(capsys, "simplex", "gram", "7", "4", "3", "1")
    assert payload["determinant"] == "0"
    assert payload["match"] is True


def test_simplex_gram_from_config(capsys, tmp_path):
    from trigroup.simplex import standard_configuration

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(configuration_json(standard_configuration(3))))
    payload = run_json(capsys, "simplex", "gram", "--config", str(path))
    assert payload["determinant"] == "0"
    assert payload["match"] is True


@pytest.mark.parametrize(
    "config",
    [
        {"vertices": [[[1, 1], [0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 1]]], "point": [[0.5, 1], [0, 1]]},
        {"vertices": [[[1, 1], [0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 1]]]},
        {"vertices": [[[1, 1], [0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 1]]], "point": [["1/2", "1/3"], [0, 1]]},
        {"vertices": [[[1, 1], [0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 1]]], "point": [["0.5", 1], [0, 1]]},
        {"vertices": [[[1, 1], [0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 1]]], "point": [[1, "2"], [0, 1]]},
        {"vertices": [[[1, 1], [0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 1]]], "point": [[True, 1], [0, 1]]},
    ],
    ids=["float-in-pair", "no-point", "fraction-strings", "decimal-string", "string-denominator", "bool-in-pair"],
)
def test_simplex_bad_config_exits_2(capsys, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "simplex", "verify", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "a1", "--max-n", "10001"),
        ("growth", "--depth", "10001"),
        ("extremal", "10001"),
        # a root and a non-root start; with a max_sum each empty layer past
        # the orbit's last costs a loop step, so only the depth bounds them
        *(("orbit", "--depth", "10001", "--root", *root, *flags)
          for root in (("0", "1", "1", "1"), ("7", "4", "3", "1"))
          for flags in ((), ("--max-sum", "20"), ("--list",), ("--max-sum", "20", "--list"))),
    ],
)
def test_work_caps_exit_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 3
    assert out == ""
    assert "exceeds cap 10000" in err


def test_orbit_and_verify_a1_at_the_length_cap(capsys):
    payload = run_json(capsys, "orbit", "--depth", "10000", "--max-sum", "10")
    assert len(payload["cumulative_sizes"]) == 10001
    assert payload["total"] == 5
    assert run_json(capsys, "verify", "a1", "--max-n", "10000")["mismatch_count"] == 10000


# Its divisor character sum is 43 * 19 * 17 * 3 * 2 * 2 = 166668, so
# z^2 - zw + w^2 = k has 1 000 008 solutions; 3 * p * q = 3k for the pair.
_OVER_SOLUTION_CAP = (7**42 * 13**18, 19**16 * 31**2 * 37 * 43)


@pytest.mark.parametrize(
    "argv",
    [
        ("normform", str(math.prod(_OVER_SOLUTION_CAP))),
        ("pair", *map(str, _OVER_SOLUTION_CAP)),
    ],
)
def test_norm_form_over_the_solution_cap_exits_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert "norm form solution count 1000008 exceeds cap 1000000" in err


@pytest.mark.parametrize("argv", [("normform", "91"), ("pair", "2", "2")])
def test_norm_form_at_the_solution_cap(capsys, monkeypatch, argv):
    # solving at the real cap builds a million solutions, so it is
    # lowered to this call's own count
    count = run_json(capsys, *argv)["count"]
    monkeypatch.setattr(eisenstein, "SOLUTION_CAP", count)
    assert run_json(capsys, *argv)["count"] == count
    monkeypatch.setattr(eisenstein, "SOLUTION_CAP", count - 1)
    assert run_cli(capsys, *argv)[:2] == (3, "")


def test_simplex_missing_entries_exits_2(capsys):
    code, _, err = run_cli(capsys, "simplex", "verify")
    assert code == 2


def test_alpha(capsys):
    payload = run_json(capsys, "alpha", "7", "4", "3", "1")
    assert payload["prime_factors"] == 4
    payload = run_json(capsys, "alpha", "0", "1", "1", "1")
    assert payload["prime_factors"] is None


def test_alpha_search(capsys):
    payload = run_json(capsys, "alpha", "--search", "--height", "10", "--max-count", "1")
    assert payload["count"] == 1
    assert payload["quadruples"][0]["quadruple"] == [3, 1, 1, 1]


def test_output_deterministic(capsys):
    first = run_cli(capsys, "growth", "--depth", "5")
    second = run_cli(capsys, "growth", "--depth", "5")
    assert first == second


# --- list rows: the per-row json.dumps path kept as the oracle ---------------


def emit_oracle(payload):
    """One list row as the CLI wrote it before rows were preformatted."""
    return json.dumps(_json_safe(payload), sort_keys=True) + "\n"


def orbit_oracle(root, depth, max_sum=None):
    result = orbit_vectors(tuple(root), depth, max_sum=max_sum)
    return "".join(
        emit_oracle({"depth": d, "vector": list(v)})
        for d, layer in enumerate(result.layers)
        for v in layer
    )


def census_list_oracle(rows, fmt):
    if fmt == "csv":
        return "a,b,c,d\n" + "".join(",".join(str(x) for x in q) + "\n" for q in rows)
    return "".join(emit_oracle({"quadruple": list(q)}) for q in rows)


@pytest.mark.parametrize("max_sum", [None, 60])
@pytest.mark.parametrize("root", [(0, 1, 1, 1), (3, 0, 3, 3)])
def test_orbit_list_matches_emit_oracle(capsys, root, max_sum):
    for depth in range(8):
        argv = ["orbit", "--depth", str(depth), "--list", "--root", *map(str, root)]
        if max_sum is not None:
            argv += ["--max-sum", str(max_sum)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == orbit_oracle(root, depth, max_sum), (argv, depth)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize(
    "mode,primitive", [("canonical", False), ("ordered", False), ("canonical", True), ("ordered", True)]
)
@pytest.mark.parametrize("command,bound", [("census-height", 101), ("census-max", 60)])
def test_census_list_matches_emit_oracle(capsys, command, bound, mode, primitive, fmt):
    # rows from the discriminant scan, which shares no code with the
    # listing; the ordered lists hold 2528 to 7260 rows, with 246 to 357
    # of them in their largest chunk, so chunks cross the 256-line batches
    argv = [command, str(bound), "--list", "--mode", mode, "--format", fmt]
    if primitive:
        argv.append("--primitive")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    canonical = scan_census(bound, "height" if command == "census-height" else "max")
    assert out == census_list_oracle(expected_list(canonical, mode, primitive), fmt)


def test_orbit_list_53_bit_boundary(capsys):
    g = 2**53
    code, out, _ = run_cli(capsys, "orbit", "--depth", "1", "--list", "--root", "0", *[str(g)] * 3)
    assert code == 0
    assert out == orbit_oracle((0, g, g, g), 1)
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"depth": 0, "vector": [0, g, g, g]}
    assert {"depth": 1, "vector": [str(3 * g), g, g, g]} in rows


def test_orbit_list_quoting_switches_between_layers(capsys):
    # layer 1 stays below 2**53, layer 2 reaches exactly 2**53 = 4g
    # (unquoted), and layer 3 mixes a quoted 7g with an unquoted g in one
    # row
    g = 2**51
    code, out, _ = run_cli(capsys, "orbit", "--depth", "3", "--list", "--root", "0", *[str(g)] * 3)
    assert code == 0
    assert out == orbit_oracle((0, g, g, g), 3)
    layers = orbit_vectors((0, g, g, g), 3).layers
    assert max(map(max, layers[1])) < 2**53
    assert max(map(max, layers[2])) == 2**53
    rows = [json.loads(line) for line in out.splitlines()]
    assert {"depth": 2, "vector": [3 * g, g, g, 2**53]} in rows
    assert {"depth": 3, "vector": [3 * g, g, 4 * g, str(7 * g)]} in rows


@pytest.mark.parametrize("root", [(0, 2**47, 2**47, 2**47), tuple(2**44 * x for x in (7, 4, 9, 1))], ids=str)
def test_orbit_list_layers_cross_53_bits_partway(capsys, root):
    # layer n is quoted by the bound sum(root) << n: some layers take the
    # quoting path with every entry still within 2**53, and later ones
    # hold entries past it; each row is as one _line per row writes it
    code, out, _ = run_cli(capsys, "orbit", "--depth", "9", "--list", "--root", *map(str, root))
    assert code == 0
    layers = orbit_vectors(root, 9).layers
    assert out == "".join(
        cli._line({"depth": n, "vector": list(v)}) for n, layer in enumerate(layers) for v in layer
    )
    largest = [max(map(max, layer)) for layer in layers]
    bounds = [sum(root) << n for n in range(10)]
    assert all(m <= b for m, b in zip(largest, bounds))
    assert any(m <= 2**53 < b for m, b in zip(largest, bounds))
    assert largest[0] <= 2**53 < largest[-1]


@pytest.mark.parametrize(
    "g,max_sum,quoting",
    [
        # past layer 0 no sum exceeds max_sum = 256g, though 3g << n
        # does from layer 7 on
        (2**45, 2**53, False),
        (2**45, 2**54, True),
        # the root alone, over max_sum, is quoted by its own sum
        (2**53 + 1, 1, True),
    ],
)
def test_orbit_list_under_max_sum_quotes_by_the_smaller_bound(
    capsys, monkeypatch, g, max_sum, quoting
):
    json_int, quoted = cli._json_int, []
    monkeypatch.setattr(cli, "_json_int", lambda x: quoted.append(x) or json_int(x))
    root = (0, g, g, g)
    code, out, _ = run_cli(capsys, "orbit", "--depth", "10", "--list", "--max-sum", str(max_sum),
                           "--root", *map(str, root))
    assert code == 0
    assert out == orbit_oracle(root, 10, max_sum)
    assert bool(quoted) == quoting


@pytest.mark.parametrize("top", [2**53, 2**53 + 1])
def test_rows_quote_only_past_53_bits(top):
    template = '{"depth": 5, "vector": [%s, %s, %s, %s]}\n'
    rows = [(top, 0, 1, 2**53), (2**53 - 1, top, 7, 1)]
    assert list(cli._rows(template, rows, top)) == [
        emit_oracle({"depth": 5, "vector": list(row)}) for row in rows
    ]


def test_orbit_start_is_always_layer_0(capsys):
    # max_sum drops every vector reached from the start, never the start
    code, out, _ = run_cli(capsys, "orbit", "--depth", "3", "--list", "--max-sum", "1")
    assert code == 0
    assert out == '{"depth": 0, "vector": [0, 1, 1, 1]}\n'
    payload = run_json(capsys, "orbit", "--depth", "3", "--max-sum", "1")
    assert payload["cumulative_sizes"] == [1, 1, 1, 1]
    assert orbit_vectors((0, 1, 1, 1), 3, max_sum=1).layers == (((0, 1, 1, 1),), (), (), ())
    assert orbit.orbit_sizes((0, 1, 1, 1), 3, max_sum=1) == (1, 0, 0, 0)


class RecordingStdout(io.TextIOBase):
    """Stand-in for sys.stdout that keeps every write call apart."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, s):
        self.writes.append(s)
        return len(s)


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--depth", "7", "--list"),
        ("census-height", "101", "--list"),
        ("census-height", "60", "--mode", "ordered", "--list", "--format", "csv"),
        ("census-max", "60", "--list", "--mode", "ordered", "--primitive"),
        # entries past 53 bits, which take the quoting path
        ("orbit", "--depth", "7", "--list", "--root", "0", *[str(2**53)] * 3),
        ("orbit", "--depth", "12", "--list", "--root", "0", *[str(2**53)] * 3,
         "--max-sum", str(100 * 2**53)),
    ],
)
def test_list_first_row_written_alone(monkeypatch, argv):
    stream = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(list(argv)) == 0
    writes = stream.writes
    if "csv" in argv:
        assert writes[0] == "a,b,c,d\n"
    lines = "".join(writes).splitlines(keepends=True)
    assert len(lines) > _BATCH
    assert writes[0] == lines[0]
    assert len(writes) == 1 + -(-(len(lines) - 1) // _BATCH)
    assert all(w.endswith("\n") for w in writes)


@pytest.mark.parametrize(
    "root,depth,max_sum",
    [((0, 1, 1, 1), 12, None), ((7, 4, 3, 1), 6, None), ((0, 1, 1, 1), 10, 500)],
)
def test_orbit_list_writes_its_first_line_before_layer_1(monkeypatch, root, depth, max_sum):
    # no timing: _bfs counts the layers it has yielded, and stdout notes
    # that count at each write
    bfs, built = orbit._bfs, []

    def counted(*args, **kwargs):
        for layer in bfs(*args, **kwargs):
            built.append(len(layer))
            yield layer

    class CountingStdout(RecordingStdout):
        def write(self, s):
            self.writes.append((len(built), s))
            return len(s)

    stream = CountingStdout()
    monkeypatch.setattr(orbit, "_bfs", counted)
    monkeypatch.setattr(sys, "stdout", stream)
    argv = ["orbit", "--depth", str(depth), "--list", "--root", *map(str, root)]
    assert main(argv + (["--max-sum", str(max_sum)] if max_sum else [])) == 0
    assert stream.writes[0][0] == 1
    assert len(built) == depth + 1
    assert "".join(s for _, s in stream.writes) == orbit_oracle(root, depth, max_sum)


@pytest.mark.parametrize("command,listing", [("census-height", list_by_height),
                                             ("census-max", list_by_max)])
def test_census_list_writes_its_first_row_before_the_walk_ends(monkeypatch, command, listing):
    # no timing: each census walk notes the largest entries of the nodes
    # it has handed on (_walk a node before it expands it, _walk_by_largest
    # a level after), and stdout notes the largest of them at each write
    expanded = []

    def watch(name, largest):
        walk = getattr(counting, name)

        def watched(*args):
            for item in walk(*args):
                expanded.append(largest(item))
                yield item

        monkeypatch.setattr(counting, name, watched)

    watch("_walk", lambda node: node[0][0])
    watch("_walk_by_largest", lambda level: max((q[0] for q in level), default=0))

    class WatchingStdout(RecordingStdout):
        def write(self, s):
            self.writes.append((max(expanded, default=0), s))
            return len(s)

    stream = WatchingStdout()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main([command, "300", "--list"]) == 0
    reached, first = stream.writes[0]
    assert first == '{"quadruple": [1, 1, 1, 0]}\n'
    assert reached <= 1
    assert max(expanded) > 250
    rows = listing(300)
    assert "".join(s for _, s in stream.writes) == census_list_oracle(rows, "jsonl")


@pytest.mark.parametrize(
    "root,cap", [((0, 1, 1, 1), c) for c in (1, 4, 100, 314, 500, 724)] + [((7, 4, 3, 1), 60)]
)
def test_orbit_list_over_the_element_cap_writes_the_layers_under_it(capsys, root, cap):
    # the layers whose running total is within the cap are written, more
    # than one batch of them at 500 and 724, and the layer that crosses
    # it exits 3
    code, out, err = run_cli(capsys, "orbit", "--depth", "8", "--list", "--max-elements", str(cap),
                             "--root", *map(str, root))
    assert code == 3
    assert "resource limit" in err
    totals = tuple(accumulate(orbit.orbit_sizes(root, 8)))
    depth = sum(total <= cap for total in totals) - 1
    assert 0 <= depth < 8
    assert out == orbit_oracle(root, depth)


@pytest.mark.parametrize("max_sum", [None, 0, 60])
@pytest.mark.parametrize("root", [(0, 1, 1, 1), (3, 0, 3, 3), (7, 4, 3, 1), (7, 4, 9, 1)])
def test_orbit_layers_are_the_layers_of_orbit_vectors(root, max_sum):
    # the CLI lists what orbit_layers yields, one sorted layer at a time
    layers = orbit.orbit_layers(root, 7, max_sum=max_sum)
    assert next(layers) == [root]
    whole = orbit_vectors(root, 7, max_sum=max_sum).layers
    assert [[root], *layers] == [list(layer) for layer in whole]


@pytest.mark.parametrize(
    "k", [0, 1, 7, 91, 1000, 2**53, 7 * 2**60, 3 * 2**106, 7**40, 13**12 * 2**80], ids=str
)
def test_normform_output_is_the_line_of_its_document(capsys, k):
    # the solutions go through one row template, quoted past 2**53 as
    # _line quotes them; 7**40 mixes quoted and unquoted entries, and the
    # k past 2**53 with small solutions take the quoting path unquoted
    solutions = eisenstein.solve_norm_form(k)
    doc = {"k": k, "count": len(solutions), "solutions": [list(s) for s in solutions]}
    if k:
        doc["character_sum"] = len(solutions) // 6
    code, out, _ = run_cli(capsys, "normform", str(k))
    assert code == 0
    assert out == cli._line(doc)
    if k == 7**40:
        entries = [abs(x) for s in solutions for x in s]
        assert min(entries) <= 2**53 < max(entries)


def test_normform_factorizes_once(capsys, monkeypatch):
    code, before, _ = run_cli(capsys, "normform", "91")
    calls = []

    def counted(k, *args, **kwargs):
        calls.append(k)
        return factorize(k, *args, **kwargs)

    monkeypatch.setattr(eisenstein, "factorize", counted)
    code, after, _ = run_cli(capsys, "normform", "91")
    assert code == 0
    assert calls == [91]
    assert after == before
    assert json.loads(after)["character_sum"] == 4


@pytest.mark.parametrize("k", [*range(201), 3**12, 2**10, 7**20])
def test_normform_character_sum_is_a_sixth_of_the_count(capsys, k):
    # the six units act freely on the nonzero solutions, one orbit per
    # choice of prime factors; divisor_character_sum is the independent
    # count from the factorization
    payload = run_json(capsys, "normform", str(k))
    if k == 0:
        assert "character_sum" not in payload and payload["count"] == 1
    else:
        assert payload["count"] == 6 * divisor_character_sum(k)
        assert payload["character_sum"] == divisor_character_sum(k)
    if k == 2:
        assert (payload["count"], payload["character_sum"]) == (0, 0)


def test_alpha_search_factorizes_each_row_once(capsys, monkeypatch):
    argv = ("alpha", "--search", "--height", "40", "--max-count", "7")
    code, before, _ = run_cli(capsys, *argv)
    calls = []

    def counted(k, *args, **kwargs):
        calls.append(k)
        return factorize(k, *args, **kwargs)

    monkeypatch.setattr(orbit, "factorize", counted)
    code, after, _ = run_cli(capsys, *argv)
    rows = [q for q in expected_list(scan_census(40, "height"), "canonical", True) if all(q)]
    assert code == 0
    assert after == before
    # each distinct entry of the rows is factored, once
    assert sorted(calls) == sorted({x for q in rows for x in q})
    assert len(rows) > json.loads(after)["count"] > 0


def test_divisor_sum_over_cap_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "divisor-sum", "10000000001")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("census-height", "20", "--sweep", "--primitive"),
        ("census-height", "20", "--sweep", "--list"),
        ("census-height", "20", "--sweep", "--format", "csv"),
        ("alpha", "7", "4", "3", "1", "--search", "--height", "10", "--max-count", "1"),
        ("simplex", "gram", "1", "2", "3", "4", "--config", "CONFIG"),
        ("census-height", "20", "--format", "csv"),
        ("census-max", "20", "--format", "csv"),
        ("alpha", "7", "4", "3", "1", "--height", "10", "--max-count", "1"),
        ("simplex", "verify", "1", "3/8", "3/8", "3/8", "3/8", "--index", "2"),
        ("simplex", "gram", "1", "3/8", "3/8", "3/8", "3/8", "--index", "2"),
        ("extremal", "8", "--max-elements", "5"),
        ("verify", "coxeter", "--max-n", "5"),
        ("verify", "cartan", "--max-n", "5"),
        ("verify", "lie", "--max-n", "5"),
    ],
)
def test_dropped_flag_combinations_exit_2(capsys, tmp_path, argv):
    # each of these once answered as if a flag or the entries were absent
    from trigroup.simplex import standard_configuration

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(configuration_json(standard_configuration(3))))
    code, out, err = run_cli(capsys, *(str(path) if a == "CONFIG" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


WRITER_ARGVS = [
    ("check", "7", "4", "3", "1"),
    ("reduce", "1", "1", "3", "4"),
    ("orbit", "--depth", "3"),
    ("orbit", "--depth", "7", "--list"),
    ("growth", "--depth", "4"),
    ("census-height", "20"),
    ("census-height", "60", "--list"),
    ("census-height", "60", "--list", "--format", "csv"),
    ("census-height", "20", "--sweep"),
    ("census-max", "20"),
    ("census-max", "30", "--list", "--mode", "ordered", "--format", "csv"),
    ("divisor-sum", "100"),
    ("pair", "1", "1"),
    ("normform", "91"),
    ("stabilizer", "--depth", "4"),
    ("extremal", "4", "--exhaustive"),
    ("verify", "coxeter"),
    ("verify", "cartan"),
    ("verify", "lie"),
    ("verify", "a1", "--max-n", "3"),
    ("simplex", "gram", "7", "4", "3", "1"),
    ("alpha", "7", "4", "3", "1"),
    ("alpha", "--search", "--height", "10", "--max-count", "1"),
]


def test_writer_argvs_cover_every_subcommand():
    handlers = {name[5:].replace("_", "-") for name in vars(cli) if name.startswith("_cmd_")}
    assert {argv[0] for argv in WRITER_ARGVS} == handlers


@pytest.mark.parametrize("argv", WRITER_ARGVS, ids=" ".join)
def test_emit_is_the_one_writer(capsys, monkeypatch, argv):
    emit, calls = cli._emit, []
    monkeypatch.setattr(cli, "_emit", lambda out: calls.append(out) or emit(out))
    code, out, _ = run_cli(capsys, *argv)
    assert (code, len(calls)) == (0, 1)
    assert out.endswith("\n")
    # with the writer stubbed out, nothing else reaches stdout
    monkeypatch.setattr(cli, "_emit", lambda out: None)
    assert run_cli(capsys, *argv) == (0, "", "")


def test_failing_ledger_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "form_signature", lambda: (2, 2, 0))
    code, out, _ = run_cli(capsys, "verify", "cartan")
    assert code == 1
    assert json.loads(out) == {"signature": [2, 2, 0], "all_pass": False}
