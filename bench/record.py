"""Regenerate expected.json: the checked values that have no cheap
independent derivation, taken from the program as it is now.

    python3 bench/record.py

Run it only at a commit whose outputs are trusted; the benchmark then
holds every later commit to these values.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from trigroup import cli  # noqa: E402


def run(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"trigroup {' '.join(map(str, argv))} exited {code}")
    return json.loads(buf.getvalue())


def main() -> None:
    divisor_sum = {}
    for n in range(1_000_000, 3_000_001, 100_000):
        out = run("divisor-sum", n)
        divisor_sum[str(n)] = [out["sum"], out["ratio"]]
    extremal = {}
    for length in range(4, 9):
        out = run("extremal", length, "--exhaustive")
        extremal[str(length)] = {k: out[k] for k in ("exhaustive_max", "attaining_words")}
    expected = {"divisor_sum": divisor_sum, "extremal_exhaustive": extremal, "verify_lie": run("verify", "lie")}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
