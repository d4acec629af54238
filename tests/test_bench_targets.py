"""Every op the benchmark generates names something the program has.

bench/workloads.py imports nothing from the program, so a deletion in
src/ that removes a name a bench op calls would surface only when a
bench run fails on it.  Here each op of the three workloads, at two
seeds, is resolved the way bench/worker.py resolves it: a library op
"layer.name" as getattr(trigroup.<layer>, name), a CLI op as
trigroup.cli.main with a subcommand that build_parser() offers.
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from trigroup import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _subcommands():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return set(action.choices)


@pytest.mark.parametrize("seed", (7, 31))
@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_bench_op_resolves(workload, seed):
    subcommands = _subcommands()
    missing = set()
    for op in WORKLOADS.generate(workload, seed):
        name = "main" if op.target == "cli" else op.target.split(".")[1]
        if not callable(getattr(importlib.import_module("trigroup." + op.layer), name, None)):
            missing.add(op.target)
        elif op.target == "cli" and op.args[0] not in subcommands:
            missing.add(f"cli {op.args[0]}")
    assert missing == set(), f"bench ops with no target in src/: {sorted(missing)}"
