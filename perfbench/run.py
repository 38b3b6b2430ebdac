#!/usr/bin/env python3
"""Fresh-process benchmark of the `ck-tomo` command line.

    python3 perfbench/run.py --workload tomogram_cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run from the root of a source checkout.  A closed loop with one client:
each request is a fresh child process (child.py) running `cktomo.cli.main`
from `src/`, one at a time, with CK_TOMO_THREADS, OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS unset as users have them.  A run repeats the
workload's whole request list (workloads.py) while another pass fits in
--seconds, checks every output against independent closed forms
(oracles.py) and prints one JSON object as its last line: end-to-end
metrics with --trace 0; per-layer metrics from alternating untraced and
traced passes with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150.0
_UNSET = ("CK_TOMO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span layer or counter, field, unit); each is the
# total over one pass of the request list, median over the traced passes
PER_LAYER = {
    "cli.command_ms": ("cli.command", "self_ms", "ms"),
    "cli.rows": ("cli.rows", "counter", "count"),
    "numerics.serialize_ms": ("numerics.serialize", "self_ms", "ms"),
    "numerics.serialize_bytes": ("numerics.serialize", "items", "bytes"),
    "numerics.rule_builds": ("numerics.rule_build", "calls", "count"),
    "numerics.rule_sizes": ("numerics.rule_build", "distinct", "count"),
    "numerics.rule_build_ms": ("numerics.rule_build", "self_ms", "ms"),
    "numerics.integrate_calls": ("numerics.integrate", "calls", "count"),
    "numerics.integrate_ms": ("numerics.integrate", "self_ms", "ms"),
    "numerics.hermite_calls": ("numerics.hermite", "calls", "count"),
    "numerics.hermite_values": ("numerics.hermite", "items", "count"),
    "numerics.hermite_ms": ("numerics.hermite", "self_ms", "ms"),
    "dynamics.epsilon_calls": ("dynamics.epsilon", "calls", "count"),
    "dynamics.epsilon_ms": ("dynamics.epsilon", "self_ms", "ms"),
    "states.psi_calls": ("states.psi", "calls", "count"),
    "states.psi_values": ("states.psi", "items", "count"),
    "states.psi_ms": ("states.psi", "self_ms", "ms"),
    "states.wigner_calls": ("states.wigner", "calls", "count"),
    "states.wigner_points": ("states.wigner", "items", "count"),
    "states.wigner_ms": ("states.wigner", "self_ms", "ms"),
    "tomography.tomogram_calls": ("tomography.tomogram", "calls", "count"),
    "tomography.tomogram_values": ("tomography.tomogram", "items", "count"),
    "tomography.tomogram_ms": ("tomography.tomogram", "self_ms", "ms"),
    "tomography.radon_calls": ("tomography.radon", "calls", "count"),
    "tomography.radon_ms": ("tomography.radon", "self_ms", "ms"),
    "tomography.normalization_calls": ("tomography.normalization", "calls", "count"),
    "tomography.normalization_ms": ("tomography.normalization", "self_ms", "ms"),
    "evolution.residual_calls": ("evolution.residual", "calls", "count"),
    "evolution.residual_ms": ("evolution.residual", "self_ms", "ms"),
    "invariants.characteristic_calls": ("invariants.characteristic", "calls", "count"),
    "invariants.characteristic_ms": ("invariants.characteristic", "self_ms", "ms"),
    "invariants.apply_calls": ("invariants.apply", "calls", "count"),
    "invariants.apply_ms": ("invariants.apply", "self_ms", "ms"),
    "checks.dynamics_ms": ("checks.dynamics", "self_ms", "ms"),
    "checks.tomography_ms": ("checks.tomography", "self_ms", "ms"),
    "checks.evolution_ms": ("checks.evolution", "self_ms", "ms"),
    "checks.invariants_ms": ("checks.invariants", "self_ms", "ms"),
    "checks.rk4_ms": ("checks.rk4", "self_ms", "ms"),
}
OVERHEAD = "trace.overhead_ms"
# per-request fields kept in run.json
_RECORD_KEYS = ("code", "crashed", "setup_s", "request_s", "peak_rss_kb", "work")


class Checkout:
    """The source tree under test and where the benchmark writes."""

    def __init__(self, root: Path, workload: str) -> None:
        self.root = root
        self.out = root / "perfbench" / "out" / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k not in _UNSET}
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )


def run_request(checkout: Checkout, index: int, request, traced: bool) -> dict:
    """Run one request in a fresh child; return its timings and outputs."""
    base = checkout.out / f"{index:02d}"
    result_path = base.with_suffix(".result.json")
    trace_path = base.with_suffix(".trace.json") if traced else None
    output = base.with_suffix("." + request.fmt) if request.kind != "check" else None
    stdout_path = base.with_suffix(".stdout")
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(result_path),
        str(trace_path) if trace_path else "-",
        *request.command(None if output is None else str(output)),
    ]
    with open(stdout_path, "wb") as out, open(base.with_suffix(".stderr"), "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=checkout.root, env=checkout.env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not result_path.is_file():
        raise RuntimeError(f"child wrote no result for {' '.join(request.argv)} (exit {code})")
    result = json.loads(result_path.read_text())
    text_path = stdout_path if output is None else output
    result.update(
        code=code,
        setup_s=result["command_start"] - spawn,
        request_s=result["end"] - result["command_start"],
        text=text_path.read_text(encoding="utf-8") if text_path.is_file() else "",
    )
    return result


def verify(request, record: dict) -> tuple[int, bool]:
    """Return (work units, failed); raise OracleError on a wrong output."""
    if record["crashed"]:
        return 0, True
    if request.kind == "check":
        if record["code"] not in (0, 1):
            return 0, True
        return oracles.check_report(request, record["text"], record["code"])
    if record["code"] != 0:
        return 0, True
    if request.kind == "wigner":
        return oracles.check_wigner(request, record["text"]), False
    return oracles.check_tomogram(request, record["text"]), False


class Run:
    def __init__(self, checkout: Checkout, requests: list) -> None:
        self.checkout = checkout
        self.requests = requests
        self.passes: list[tuple[bool, list[dict]]] = []
        self.digests: dict[int, str] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def one_pass(self, traced: bool) -> None:
        records = []
        for index, request in enumerate(self.requests):
            record = run_request(self.checkout, index, request, traced)
            self.attempted += 1
            label = " ".join(request.argv)
            digest = hashlib.sha256(record["text"].encode()).hexdigest()
            if self.digests.setdefault(index, digest) != digest:
                self.errors.append(f"output of a repeated request changed: {label}")
            try:
                record["work"], failed = verify(request, record)
            except oracles.OracleError as exc:
                self.errors.append(f"{label}: {exc}")
                record["work"], failed = 0, False
            self.failed += failed
            record.pop("text")
            records.append(record)
        self.passes.append((traced, records))

    def end_to_end(self) -> dict:
        records = [r for traced, rs in self.passes if not traced for r in rs]
        ms = [1e3 * r["request_s"] for r in records]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "op_p50_ms": statistics.median(ms),
            "work_per_s": sum(r["work"] for r in records) / sum(r["request_s"] for r in records),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in records),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def op_p90_ms(self) -> float | None:
        """90th percentile of request time, only when 100 or more requests
        leave at least ten samples above it."""
        ms = [1e3 * r["request_s"] for traced, rs in self.passes if not traced for r in rs]
        return statistics.quantiles(ms, n=10)[-1] if len(ms) >= 100 else None

    def per_layer(self) -> dict:
        totals: dict[str, list[float]] = {name: [] for name in PER_LAYER}
        for traced, records in self.passes:
            if not traced:
                continue
            for name, (layer, field, _) in PER_LAYER.items():
                if field == "counter":
                    value = sum(r["counters"].get(layer, 0) for r in records)
                else:
                    value = sum(r["layers"].get(layer, {}).get(field, 0) for r in records)
                totals[name].append(value)
        out = {
            name: {"value": statistics.median(totals[name]), "unit": unit}
            for name, (_, _, unit) in PER_LAYER.items()
        }
        plain = [1e3 * r["request_s"] for t, rs in self.passes if not t for r in rs]
        traced = [1e3 * r["request_s"] for t, rs in self.passes if t for r in rs]
        out[OVERHEAD] = {
            "value": statistics.median(traced) - statistics.median(plain),
            "unit": "ms",
        }
        return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Run]:
    run = Run(Checkout(root, workload), workloads.requests(workload, seed))
    start = time.monotonic()
    # whole passes while the next one, timed like the last, still ends by
    # the deadline (the first always runs); with tracing, untraced and
    # traced passes alternate so both see the same machine state
    while True:
        began = time.monotonic()
        run.one_pass(traced=False)
        if trace:
            run.one_pass(traced=True)
        now = time.monotonic()
        if now + (now - began) > start + seconds:
            break
    for error in run.errors:
        print(f"{workload}: {error}", file=sys.stderr)
    passes = [
        {"traced": traced, "records": [{k: r[k] for k in _RECORD_KEYS} for r in records]}
        for traced, records in run.passes
    ]
    with open(run.checkout.out / "run.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "requests": [r.argv for r in run.requests], "passes": passes}, fh, indent=1)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.per_layer() if trace else run.end_to_end(),
    }
    return result, run


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "src" / "cktomo" / "cli.py").is_file():
        print(f"error: no cktomo source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    args = _parse_args(argv)
    if args.workload != "all":
        result, _ = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name in workloads.WORKLOADS:
        result, run = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:34s} {value['value']:14.6g} {value['unit']}")
        p90 = None if args.trace else run.op_p90_ms()
        if p90 is not None:
            print(f"  {'op_p90_ms':34s} {p90:14.6g} ms")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
