"""Spans around the calls into each module of the program, from outside it.

``Tracer.install`` replaces the public functions of the traced modules,
and the CLI's ``main``/``_cmd_*``/``_emit``/``_stream_census`` entry
points, by wrappers in every module namespace that holds them, so that
cross-module calls (``orbit.mat_mul``, ``reduction.apply_generator``,
``counting.enumerate_all`` called from ``orbit``) go through a wrapper.
``uninstall`` puts the originals back.

Each wrapped call records a span ``(id, parent id, parent layer, layer,
name, start, end)``; a layer is a module.  A span's self time is its
duration minus the time its child spans cover.  The core kernels are
hot (millions of calls on the ``group`` workload), so they get a call
counter per calling span and no span: their time stays in the self
time of the layer that called them.  A few functions also carry a probe
that reads work counts off their arguments or results.
"""

from __future__ import annotations

import inspect
import itertools
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("counting", "orbit", "reduction", "eisenstein", "lie", "simplex", "linalg")
CORE_SPANNED = ("verify_coxeter_relations", "form_signature", "norm_form_substitution")
CLI_ENTRY = ("main", "_emit", "_stream_census")
EMIT = ("cli._emit", "cli._stream_census")


def coxeter_growth(n: int) -> list[int]:
    """Coefficients 0..n of (1+2t+2t^2+t^3)/(1-2t-2t^2+3t^3): the number of
    group elements of each word length."""
    num = (1, 2, 2, 1)
    a: list[int] = []
    for i in range(n + 1):
        v = num[i] if i < 4 else 0
        v += 2 * (a[i - 1] if i >= 1 else 0) + 2 * (a[i - 2] if i >= 2 else 0)
        v -= 3 * (a[i - 3] if i >= 3 else 0)
        a.append(v)
    return a


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str | None, str | None]] = [(0, None, None)]
        self.ids = itertools.count(1)
        self.kernels: Counter = Counter()  # (calling span name, kernel) -> calls
        self.work: Counter = Counter()  # probe counts
        self.census_calls: list[tuple[str, int]] = []  # ("height" or "max", bound)
        self._saved: list[tuple[dict, str, object]] = []

    # -------------------------------------------------------- wrappers

    def _span(self, fn, layer: str, name: str, probe=None):
        spans, stack, ids = self.spans, self.stack, self.ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent, parent_layer, _ = stack[-1]
            stack.append((sid, layer, name))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, parent_layer, layer, name, t0, t1))
            if probe is not None:
                probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name: str):
        kernels, stack = self.kernels, self.stack

        def wrapper(*args, **kwargs):
            kernels[stack[-1][2], name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def op_span(self, layer: str, fn, *args):
        """Run one op as a root span of the given layer."""
        return self._span(fn, layer, layer + ".op")(*args)

    # -------------------------------------------------------- probes

    def _probes(self):
        work, census = self.work, self.census_calls

        def census_probe(kind):
            return lambda args, kwargs, result: census.append((kind, args[0]))

        def norm_probe(args, kwargs, result):
            k = args[0]
            work["eisenstein.solutions"] += len(result)
            if k >= 1:
                work["eisenstein.candidates"] += 2 * math.isqrt(4 * k // 3) + 3

        def layers_probe(args, kwargs, result):
            work["orbit.elements"] += sum(len(layer) for layer in result)

        def orbit_probe(args, kwargs, result):
            work["orbit.elements"] += result.cumulative_sizes[-1]

        def profile_probe(args, kwargs, result):
            work["orbit.elements"] += sum(coxeter_growth(args[0] + 1))

        def steps_probe(args, kwargs, result):
            work["reduction.steps"] += len(result.steps)

        return {
            "counting.count_by_height": census_probe("height"),
            "counting.enumerate_all": census_probe("height"),
            "counting.height_sweep": census_probe("height"),
            "counting.count_by_max": census_probe("max"),
            "eisenstein.solve_norm_form": norm_probe,
            "orbit.element_layers": layers_probe,
            "orbit.orbit_vectors": orbit_probe,
            "orbit.max_norm_profile": profile_probe,
            "reduction.reduce_to_root": steps_probe,
        }

    # -------------------------------------------------------- install

    def install(self, package) -> None:
        """Wrap the traced functions of an imported ``trigroup`` package."""
        modules = {name: getattr(package, name) for name in LAYERS + ("core", "cli")}
        probes = self._probes()
        replace: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                qual = f"{layer}.{name}"
                if layer == "core" and not name.startswith("_"):
                    wrapped = (self._span(fn, layer, qual) if name in CORE_SPANNED
                               else self._counter(fn, name))
                elif layer == "cli":
                    if not (name in CLI_ENTRY or name.startswith("_cmd_")):
                        continue
                    wrapped = self._span(fn, layer, qual)
                elif name.startswith("_"):
                    continue
                else:
                    wrapped = self._span(fn, layer, qual, probes.get(qual))
                replace[id(fn)] = wrapped
        for module in list(modules.values()) + [package]:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if id(value) in replace:
                    self._saved.append((namespace, name, value))
                    namespace[name] = replace[id(value)]
        # The argparse tree holds the handlers themselves, but main rebuilds
        # it on every call from the patched module globals.

    def uninstall(self) -> None:
        for namespace, name, value in reversed(self._saved):
            namespace[name] = value
        self._saved.clear()

    # -------------------------------------------------------- aggregation

    def drain(self) -> dict[str, float]:
        """Fold the recorded spans into per-layer figures and clear them."""
        out: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, parent_layer, layer, name, t0, t1 in self.spans:
            dur = t1 - t0
            self_time = dur - covered.pop(sid, 0.0)
            covered[parent] += dur
            out[layer + ".self_s"] += self_time
            if parent_layer != layer:
                out[layer + ".calls"] += 1
            if name == "cli.main":
                out["cli.parse_s"] += self_time
            elif name in EMIT:
                out["cli.emit_s"] += self_time
            elif name == "counting.divisor_square_sum":
                out["counting.divisor_sum_s"] += dur
            elif name == "eisenstein.factorize":
                out["eisenstein.factorize_s"] += dur
        self.spans.clear()
        return out

    def take_counts(self) -> tuple[Counter, Counter, list]:
        """Kernel calls, probe counts and census calls so far; then reset them."""
        taken = (Counter(self.kernels), Counter(self.work), list(self.census_calls))
        self.kernels.clear()
        self.work.clear()
        self.census_calls.clear()
        return taken
