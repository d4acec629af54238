"""Benchmark for trigroup: one seeded workload per run, checked and timed.

    python3 bench/run.py --workload census|group|queries --seed N --seconds S --trace 0|1

Run from the repository root.  The program is run from ``src/`` as it is
in the checkout; nothing is installed.

A run does three things:

1. Set-up: spawns a fresh interpreter that imports ``trigroup.cli``
   (``trigroup`` for ``queries``) and says it is ready, ten times (five
   before the measurement, five after); ``setup_s`` is the median
   spawn-to-ready time, each calibrated by a reference spawn made next
   to it (the order alternates).
2. Measurement: one fresh worker process (``worker.py``) regenerates the
   workload's op list from the seed and runs it as rounds, in a closed
   loop with one client, until ``--seconds`` have passed.  Every round is
   the same op list.  Lazy costs stay where users pay them: numpy is
   imported inside ``divisor_square_sum``, so its import lands in the
   first ``divisor-sum`` op of a run and is not warmed away.
3. Checks: every op of the first round is checked against independent
   identities (``checks.py``); every later round must repeat the first
   round's outcome and output byte for byte.  An op fails if its outcome
   or output differs.

On a shared 2-vCPU Xeon VM, the speed of one process switches between
levels up to 2x apart, for seconds to minutes at a time, and a Python
program slows nearly as a whole.  Every time metric is therefore given in
reference seconds (see ``calibrate.py``): each op's time is scaled by
the reference kernel's time measured within a second of the op, in the
same process.  Round times are averaged, op latencies are pooled over
all rounds, and each workload spreads its op sizes so that their
quantiles move smoothly.  A ``raw`` line gives the uncalibrated figures.

With ``--trace 0`` the end-to-end metrics are printed (times calibrated):

  setup_s             s      median spawn-to-ready time of the set-up spawns
  wall_s              s      mean over rounds of the round's summed op time
  cpu_s               s      mean over rounds of the worker's user+sys CPU in its ops
  op_p50_ms           ms     median op latency, all rounds pooled
  op_p90_ms           ms     90th-percentile op latency, all rounds pooled
  list_first_line_ms  ms     median time from op start to the first stdout byte,
                             over ``--list`` and ``--sweep`` ops
  peak_rss_mb         MB     the worker's peak resident set (ru_maxrss)
  error_rate          ratio  failed / attempted ops (printed; the result line
                             carries it as ``failed`` and ``attempted``)

With ``--trace 1`` the rounds alternate untraced and traced, and the
per-layer metrics of the traced rounds are printed (medians over traced
rounds; see ``tracer.py`` and ``round_layers`` below; times are scaled
by their round's calibration), together with ``trace.overhead``: median
traced round time over median untraced round time, both calibrated.
End-to-end metrics come from untraced runs only.

Before the result, a ``context`` line records the Python version, CPU
count and model, load average before and after, the seed, the stdout
digest of one round, the ``src/`` line count and the runtime
dependencies.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tomllib
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

# Half the set-up spawns run before the worker and half after it, so the
# median spans the run rather than one moment of a shared machine.
SETUP_SPAWNS = 10
WORKER_GRACE_S = 110

# Metric names and units come from the benchmark definition itself.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def spawn_time(code: str) -> float:
    """Seconds from spawning an interpreter running ``code`` to its first line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up spawn failed with exit {proc.returncode}")
    return t1 - t0


def setup_time(module: str, i: int) -> tuple[float, float]:
    """Seconds from spawning an interpreter to its reporting ``module``
    imported: raw, and in reference seconds."""
    code = f"import {module}, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    if i % 2:
        ref, raw = spawn_time(calibrate.REFERENCE_SPAWN), spawn_time(code)
    else:
        raw, ref = spawn_time(code), spawn_time(calibrate.REFERENCE_SPAWN)
    return raw, raw * calibrate.REFERENCE_SPAWN_S / ref


def run_worker(args, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def check_rounds(ops, rounds, data: bytes) -> tuple[int, list[str]]:
    """Check the first round against the oracles and later rounds against
    the first; return the failed-op count and the first few reasons."""
    oracle = checks.Oracle()
    failed, reasons = 0, []
    first = rounds[0]["ops"]
    reference = []
    for op, (_, _, _, outcome, start, end, _) in zip(ops, first):
        chunk = data[start:end]
        reason = checks.check(op, outcome, chunk.decode(), oracle)
        reference.append((outcome, hashlib.sha256(chunk).digest()))
        if reason is not None:
            failed += 1
            reasons.append(f"{op.target} {' '.join(map(str, op.args))[:80]}: {reason}")
    for rnd in rounds[1:]:
        for op, ref, (_, _, _, outcome, start, end, _) in zip(ops, reference, rnd["ops"]):
            if (outcome, hashlib.sha256(data[start:end]).digest()) != ref:
                failed += 1
                reasons.append(f"{op.target} {' '.join(map(str, op.args))[:80]}: differs from round 1")
    return failed, reasons


def triples_scanned(kind: str, bound: int) -> int:
    """Size of the (b, c, d) scan the discriminant census makes for one bound."""
    if kind == "max":
        return sum((c + 1) for b in range(bound + 1) for c in range(b + 1))
    total, sq = 0, bound * bound
    for b in range(bound + 1):
        for c in range(b + 1):
            rem = sq - b * b - c * c
            if rem < 0:
                break
            total += min(c, math.isqrt(rem)) + 1
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_layers(rnd: dict, ops, oracle: checks.Oracle, scale: float) -> dict[str, float]:
    """Per-layer figures of one traced round; times are multiplied by ``scale``."""
    lay, work = rnd["layers"], rnd["work"]
    kern: dict[tuple[str, str], int] = {}
    for key, n in rnd["kernels"].items():
        span, name = key.split("|")
        kern[span, name] = n

    def calls(kernel, spans=None):
        return sum(n for (span, name), n in kern.items()
                   if name == kernel and (spans is None or span in spans or span.split(".")[0] in spans))

    quads = sum(len(oracle.census(kind, bound)) for kind, bound in rnd["census_calls"])
    scanned = sum(triples_scanned(kind, bound) for kind, bound in rnd["census_calls"])
    validate_in_reduction = calls("validate_quadruple", {"reduction.reduce_to_root", "reduction.reduce_step"})
    out = {name: lay.get(name, 0.0) * (scale if name.endswith("_s") else 1)
           for name in PER_LAYER_UNITS if name.endswith("_s") or name.endswith(".calls")}
    out.update({
        "counting.quadruples": quads,
        "counting.triples_scanned": scanned,
        "counting.hit_ratio": ratio(quads, scanned),
        "cli.out_bytes": sum(end - start for op, (*_, start, end, _) in zip(ops, rnd["ops"]) if op.target == "cli"),
        "orbit.elements": work.get("orbit.elements", 0),
        "orbit.mat_mul_per_element": ratio(calls("mat_mul", {"orbit"}), work.get("orbit.elements", 0)),
        "core.validate_calls": calls("validate_quadruple"),
        "core.apply_generator_calls": calls("apply_generator"),
        "core.is_triangle_calls": calls("is_triangle_quadruple"),
        "core.mat_mul_calls": calls("mat_mul"),
        "reduction.steps": work.get("reduction.steps", 0),
        "reduction.validate_per_step": ratio(validate_in_reduction, work.get("reduction.steps", 0)),
        "eisenstein.solutions": work.get("eisenstein.solutions", 0),
        "eisenstein.candidates": work.get("eisenstein.candidates", 0),
        "eisenstein.hit_ratio": ratio(work.get("eisenstein.solutions", 0), work.get("eisenstein.candidates", 0)),
    })
    return out


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def context(seed: int, load_before) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "trigroup").glob("*.py")))
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("dependencies", [])
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model,
            "load_before": list(load_before), "load_after": list(os.getloadavg()), "seed": seed,
            "src_lines": src_lines, "runtime_deps": deps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "trigroup" / "cli.py").is_file() or not (ROOT / "pyproject.toml").is_file():
        print(f"error: no trigroup sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    module = "trigroup" if args.workload == "queries" else "trigroup.cli"
    setup = [setup_time(module, i) for i in range(SETUP_SPAWNS // 2)]

    work_dir = HERE / ".work"
    work_dir.mkdir(exist_ok=True)
    out = work_dir / f"{args.workload}-{args.seed}-{os.getpid()}.out"
    try:
        result = run_worker(args, out)
        data = out.read_bytes()
    finally:
        out.unlink(missing_ok=True)
        if not any(work_dir.iterdir()):
            work_dir.rmdir()
    setup += [setup_time(module, i) for i in range(len(setup), SETUP_SPAWNS)]

    ops = workloads.generate(args.workload, args.seed)
    rounds = result["rounds"]
    failed, reasons = check_rounds(ops, rounds, data)
    attempted = len(ops) * len(rounds)
    first = rounds[0]["ops"]
    digest = hashlib.sha256(data[first[0][4]:first[-1][5]]).hexdigest()

    # Per op record: (seconds, cpu seconds, first-line seconds or None),
    # each in reference seconds.
    speed = calibrate.Speed(result["calibration"])
    for rnd in rounds:
        rnd["cal"] = []
        for sec, cpu, first_s, *_, t0 in rnd["ops"]:
            k = speed.scale(t0, t0 + sec)
            rnd["cal"].append((sec * k, cpu * k, None if first_s is None else first_s * k))
    plain = [r for r in rounds if not r["traced"]]
    walls = [sum(o[0] for o in r["cal"]) for r in plain]
    raw_walls = [sum(o[0] for o in r["ops"]) for r in plain]
    if args.trace:
        oracle = checks.Oracle()
        traced = [r for r in rounds if r["traced"]]
        traced_walls = [sum(o[0] for o in r["cal"]) for r in traced]
        per_round = [round_layers(r, ops, oracle, w / sum(o[0] for o in r["ops"]))
                     for r, w in zip(traced, traced_walls)]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        self_sum = statistics.median(
            sum(v for k, v in r.items() if k.endswith(".self_s")) / w for r, w in zip(per_round, traced_walls))
        print(f"traced rounds {len(traced)}, untraced {len(plain)}; "
              f"sum of self_s / traced wall_s = {self_sum:.4f}")
    else:
        latencies = [o[0] for r in plain for o in r["cal"]]
        is_list = ["--list" in op.args or "--sweep" in op.args for op in ops]
        firsts = [o[2] for r in plain for o, listed in zip(r["cal"], is_list) if listed and o[2] is not None]
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "wall_s": statistics.fmean(walls),
            "cpu_s": statistics.fmean(sum(o[1] for o in r["cal"]) for r in plain),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": quantile(latencies, 0.90) * 1e3,
            "list_first_line_ms": statistics.median(firsts) * 1e3,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        print(f"rounds {len(rounds)} x {len(ops)} ops; latency samples {len(latencies)} "
              f"({len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90); "
              f"first-line samples {len(firsts)}; setup spawns {len(setup)}")
        raw_lat = [o[0] for r in plain for o in r["ops"]]
        print(f"raw (uncalibrated): setup_s {statistics.median(r for r, _ in setup):.6g}  "
              f"wall_s {statistics.fmean(raw_walls):.6g}  op_p50_ms {statistics.median(raw_lat) * 1e3:.6g}  "
              f"op_p90_ms {quantile(raw_lat, 0.90) * 1e3:.6g}")
        kernel_s = [k for _, k in result["calibration"]]
        print(f"calibration: {len(kernel_s)} kernel samples, median {statistics.median(kernel_s) * 1e3:.3f} ms, "
              f"range {min(kernel_s) * 1e3:.3f}-{max(kernel_s) * 1e3:.3f} ms "
              f"(reference {calibrate.REFERENCE_S * 1e3:.3f} ms)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:>14.6g} ratio")
    for reason in reasons[:10]:
        print(f"FAILED {reason}")
    print("context " + json.dumps(dict(context(args.seed, load_before), workload=args.workload,
                                       stdout_sha256=digest)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
