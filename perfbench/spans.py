"""Layer spans for the traced run of the benchmark.

`install()` wraps the public functions of each cktomo module (every module
reference to them, since the modules import each other's names), the
Gauss-Legendre rule construction, grid serialization and each check
suite.  Spans (layer, start, end, parent, items) stay in memory; `summary()`
turns them into per-layer counts and self times at the end of the process.
Worker threads of the grid row pool have no open span of their own, so
their spans are parented to the main thread's innermost open span.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


# (layer, module, function names, items counted per entry into the layer)
_FUNCTIONS = (
    ("cli.command", "cktomo.cli", ("cmd_tomogram", "cmd_wigner", "cmd_figure1", "cmd_check"), None),
    ("numerics.integrate", "cktomo.numerics", ("integrate",), None),
    ("numerics.hermite", "cktomo.numerics", ("hermite", "hermite_gauss"), lambda a, k: _size(a[1])),
    ("dynamics.epsilon", "cktomo.dynamics", ("epsilon", "frame_coeffs"), None),
    ("states.psi", "cktomo.states", ("fock_psi", "coherent_psi"), lambda a, k: _size(a[0])),
    (
        "states.wigner",
        "cktomo.states",
        ("wigner",),
        lambda a, k: int(np.broadcast(np.asarray(a[0]), np.asarray(a[1])).size),
    ),
    (
        "tomography.tomogram",
        "cktomo.tomography",
        ("ground_tomogram", "fock_tomogram", "coherent_tomogram"),
        lambda a, k: int(np.broadcast(np.asarray(a[0].x), np.asarray(a[0].mu), np.asarray(a[0].nu)).size),
    ),
    ("tomography.radon", "cktomo.tomography", ("radon_tomogram",), None),
    ("tomography.normalization", "cktomo.tomography", ("normalization",), None),
    (
        "evolution.residual",
        "cktomo.evolution",
        ("evolution_terms", "evolution_residual", "relative_residual",
         "evolution_residual_tprime", "convergence_study"),
        None,
    ),
    ("invariants.characteristic", "cktomo.invariants", ("tomogram_characteristic",), None),
    (
        "invariants.apply",
        "cktomo.invariants",
        ("number_apply", "number_apply_printed", "eigen_residual"),
        None,
    ),
    ("checks.rk4", "cktomo.checks", ("rk4_epsilon",), None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent span or None, items]
        self.counters: dict[str, int] = {}
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, layer: str, fn, items=None, items_from_result: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = [layer, time.perf_counter(), 0.0, parent, 0]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if items_from_result:
                span[4] = len(result)
            elif items is not None:
                span[4] = items(args, kwargs)
            return result

        return traced

    def count_rows(self, fn):
        @functools.wraps(fn)
        def counted(row_fn, row_args, threads):
            self.counters["cli.rows"] = self.counters.get("cli.rows", 0) + len(row_args)
            return fn(row_fn, row_args, threads)

        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls (entries from another layer), items summed over
        those entries, distinct item values, and self time in ms."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[3] is not None:
                children.setdefault(id(span[3]), []).append((span[1], span[2]))
        out: dict[str, dict] = {}
        for span in self.spans:
            layer, start, end, parent, items = span
            row = out.setdefault(layer, {"calls": 0, "items": 0, "distinct": set(), "self_ms": 0.0})
            if parent is None or parent[0] != layer:
                row["calls"] += 1
                row["items"] += items
            row["distinct"].add(items)
            covered = _covered(children.get(id(span), ()), start, end)
            row["self_ms"] += 1e3 * (end - start - covered)
        for row in out.values():
            row["distinct"] = len(row["distinct"])
        return out


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "cktomo" or name.startswith("cktomo."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every traced layer of an imported cktomo; return the tracer."""
    from cktomo import checks, cli, numerics

    tracer = Tracer()
    for layer, module_name, names, items in _FUNCTIONS:
        module = sys.modules[module_name]
        for name in names:
            original = getattr(module, name)
            _replace_everywhere(original, tracer.wrap(layer, original, items))
    for name in ("to_csv", "to_json"):
        original = getattr(numerics.ScalarGrid, name)
        setattr(
            numerics.ScalarGrid,
            name,
            tracer.wrap("numerics.serialize", original, items_from_result=True),
        )
    legendre = np.polynomial.legendre
    legendre.leggauss = tracer.wrap("numerics.rule_build", legendre.leggauss, lambda a, k: int(a[0]))
    for suite, entries in checks.SUITES.items():
        for i, (name, fn, tol_name, info) in enumerate(entries):
            entries[i] = (name, tracer.wrap(f"checks.{suite}", fn), tol_name, info)
    _replace_everywhere(cli._map_rows, tracer.count_rows(cli._map_rows))
    return tracer
