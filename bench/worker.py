"""One benchmark run of one workload, in a fresh process spawned by run.py.

Regenerates the op list from the seed, then runs it as rounds in a
closed loop until the time is up: the same op list every round, one op
at a time.  CLI ops call ``trigroup.cli.main(argv)`` with ``sys.stdout``
pointed at a file in the checkout; library ops call the function and
their result is serialized to the same file after the op's clock has
stopped.  With ``--trace 1`` the rounds alternate untraced and traced,
so the tracing overhead is measured on the same process and machine
state.

Between ops, at most every ``CALIBRATE_EVERY_S``, the worker runs the
reference kernel of ``calibrate.py`` and notes when and how long it
took, so that run.py can express each op's time in reference seconds.

Prints one JSON object on its real standard output: per round, per op
``[seconds, cpu seconds, seconds to first stdout byte or null, outcome,
output start offset, output end offset, start time]``, plus the
per-layer figures of traced rounds, the kernel samples ``[time,
seconds]`` and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import os
import resource
import sys
import warnings
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
CALIBRATE_EVERY_S = 0.2
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Capture(io.TextIOBase):
    """Text stream that forwards to a binary file and notes its first write."""

    def __init__(self, fh):
        self.fh = fh
        self.first: float | None = None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if self.first is None and s:
            self.first = perf_counter()
        self.fh.write(s.encode())
        return len(s)


def encode(result) -> str:
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    return json.dumps(result, default=str, sort_keys=True)


def calibrate_if_due(samples: list) -> None:
    if perf_counter() - samples[-1][0] >= CALIBRATE_EVERY_S:
        t = perf_counter()
        samples.append([t, calibrate.kernel()])


def run_round(ops, package, fh, capture, tracer, samples):
    """Run every op once; return the per-op records and, if traced, layer sums.
    Kernel samples taken between ops are appended to ``samples``."""
    if tracer is not None:
        tracer.install(package)
    modules = {name: importlib.import_module("trigroup." + name)
               for name in {op.layer for op in ops}}
    calls = [getattr(modules[op.layer], "main" if op.target == "cli" else op.target.split(".")[1])
             for op in ops]
    records = []
    layers: dict[str, float] = {}
    try:
        for op, fn in zip(ops, calls):
            calibrate_if_due(samples)
            args = (list(op.args),) if op.target == "cli" else op.args
            capture.first = None
            start = fh.tell()
            result = None
            c0 = process_time()
            t0 = perf_counter()
            try:
                result = fn(*args) if tracer is None else tracer.op_span(op.layer, fn, *args)
                outcome = f"exit:{result}" if op.target == "cli" else "ok"
            except SystemExit as exc:
                outcome = f"exit:{exc.code}"
            except Exception as exc:  # recorded as the op's outcome and checked
                outcome = "raise:" + type(exc).__name__
            t1 = perf_counter()
            c1 = process_time()
            if op.target != "cli" and outcome == "ok":
                fh.write(encode(result).encode() + b"\n")
            first = None if capture.first is None else capture.first - t0
            records.append([t1 - t0, c1 - c0, first, outcome, start, fh.tell(), t0])
            if tracer is not None:
                for key, value in tracer.drain().items():
                    layers[key] = layers.get(key, 0.0) + value
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="file that receives the program's output")
    args = ap.parse_args(argv)

    import trigroup
    import trigroup.cli  # noqa: F401

    warnings.simplefilter("ignore")
    ops = workloads.generate(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    real_stdout, real_stderr = sys.stdout, sys.stderr
    rounds = []
    calibrate.warm_up()
    samples = [[perf_counter(), calibrate.kernel()]]
    with open(args.out, "wb") as fh, open(os.devnull, "w") as devnull:
        capture = Capture(fh)
        sys.stdout, sys.stderr = capture, devnull
        try:
            began = perf_counter()
            while True:
                traced = tracer is not None and len(rounds) % 2 == 1
                records, layers = run_round(ops, trigroup, fh, capture, tracer if traced else None, samples)
                entry = {"traced": traced, "ops": records}
                if traced:
                    kernels, work, census = tracer.take_counts()
                    entry.update(layers=layers, work=dict(work), census_calls=census,
                                 kernels={f"{span}|{name}": n for (span, name), n in kernels.items()})
                rounds.append(entry)
                done = perf_counter() - began >= args.seconds
                if done and len(rounds) >= 2 and (tracer is None or len(rounds) % 2 == 0):
                    break
        finally:
            sys.stdout, sys.stderr = real_stdout, real_stderr
    samples += [[perf_counter(), calibrate.kernel()] for _ in range(calibrate.Speed.MIN_SAMPLES)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rounds": rounds, "calibration": samples, "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
