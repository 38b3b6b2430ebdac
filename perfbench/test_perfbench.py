"""Tests of the benchmark itself: request generation, the oracles (including
that they catch a perturbed grid value and a tampered report), the span
self-time rule and the metric lists in BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cktomo import cli  # noqa: E402


def _emit(request, tmp_path: Path) -> str:
    path = tmp_path / f"out.{request.fmt}"
    assert cli.main(request.command(str(path))) == 0
    return path.read_text()


def _small(kind: str, fmt: str, state: str, gamma: float, t: float, axes, extra=()):
    argv = [kind, "--gamma", repr(gamma), "--t", repr(t), "--state", state, *extra]
    for name, lo, hi, count in axes:
        argv.append(f"--{name}-grid={lo!r}:{hi!r}:{count}")
    argv += ["--format", fmt]
    return workloads.Request(kind, tuple(argv), fmt, tuple(axes), {"state": state, "gamma": gamma, "t": t})


def test_requests_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.requests(name, 7) == workloads.requests(name, 7)
    for name in ("tomogram_cli", "wigner_cli"):
        assert workloads.requests(name, 7) != workloads.requests(name, 8)
    # check_cli runs the same `check all` seeds in every run
    seeds = {r.params["seed"] for r in workloads.requests("check_cli", 7)}
    assert seeds == set(workloads.CHECK_SEEDS)


def test_generated_grids_stay_clear_of_the_axis_fault():
    for name in ("tomogram_cli", "wigner_cli"):
        for seed in range(200):
            workloads.requests(name, seed)  # raises ValueError near the fault
    with pytest.raises(ValueError):
        workloads._grid("x", -6.0, 6.0, 8001)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tomogram_oracle_accepts_the_program_and_catches_a_perturbation(tmp_path, fmt):
    request = _small(
        "tomogram", fmt, "fock:12", 0.2, 3.0, [("phi", 0.0, 3.2, 9), ("x", -30.0, 30.0, 401)], ["--optical"]
    )
    text = _emit(request, tmp_path)
    assert oracles.check_tomogram(request, text) == 9 * 401
    meta, axes, values = oracles.parse_grid(text, fmt)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    old = repr(float(values[i, j])) if fmt == "json" else "%.17g" % values[i, j]
    new = repr(float(values[i, j]) * (1.0 + 1e-9)) if fmt == "json" else "%.17g" % (values[i, j] * (1.0 + 1e-9))
    assert text.count(old) == 1
    with pytest.raises(oracles.OracleError):
        oracles.check_tomogram(request, text.replace(old, new))


def test_tomogram_oracle_checks_mass_and_sign():
    request = _small("tomogram", "csv", "fock:0", 0.0, 0.0, [("x", -8.0, 8.0, 161)], ["--mu", "1", "--nu", "0"])
    request.params.update(mu=1.0, nu=0.0)
    xs = np.linspace(-8.0, 8.0, 161)
    ref = oracles.tomogram("fock:0", 0.0, 0.0, 1.0, 0.0, xs)
    body = "# gamma=0\n# t=0\nx,value\n"
    good = body + "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(xs, ref))
    assert oracles.check_tomogram(request, good) == 161
    shifted = ref.copy()
    shifted[0] = -1e-300
    with pytest.raises(oracles.OracleError):
        oracles.check_tomogram(request, body + "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(xs, shifted)))


def test_mass_rule_is_applied_where_the_window_covers_the_state():
    p = {"state": "fock:0", "gamma": 0.0, "t": 0.0}
    xs = np.linspace(-8.0, 8.0, 161)
    rows = oracles.tomogram("fock:0", 0.0, 0.0, 1.0, 0.0, xs)[None, :]
    oracles._check_mass(p, np.ones(1), np.zeros(1), xs, rows)
    with pytest.raises(oracles.OracleError):
        oracles._check_mass(p, np.ones(1), np.zeros(1), xs, 1.01 * rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wigner_oracle_accepts_the_program_and_catches_a_perturbation(tmp_path, fmt):
    request = _small("wigner", fmt, "coherent:1.2,-0.7", 0.08, 2.5, [("q", -5.0, 5.0, 21), ("p", -5.0, 5.0, 25)])
    text = _emit(request, tmp_path)
    assert oracles.check_wigner(request, text) == 21 * 25
    _, _, values = oracles.parse_grid(text, fmt)
    bumped = values.copy()
    bumped[3, 4] += 1e-7
    if fmt == "json":
        payload = json.loads(text)
        payload["values"] = bumped.reshape(-1).tolist()
        tampered = json.dumps(payload)
    else:
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        row = lines[first + 3 * 25 + 4].split(",")
        row[2] = "%.17g" % bumped[3, 4]
        lines[first + 3 * 25 + 4] = ",".join(row)
        tampered = "\n".join(lines) + "\n"
    with pytest.raises(oracles.OracleError):
        oracles.check_wigner(request, tampered)


def test_wigner_reference_is_the_frictionless_ground_state():
    q, p = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 7))
    assert np.allclose(oracles.wigner("fock:0", 0.0, 0.0, q, p), 2.0 * np.exp(-q * q - p * p), rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def report():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", "all", "--seed", "42"])
    return buf.getvalue(), code


def test_report_oracle_accepts_and_catches_tampering(report):
    text, code = report
    request = workloads.Request("check", ("check", "all", "--seed", "42"), "report", (), {"seed": 42})
    assert oracles.check_report(request, text, code) == (41, False)
    lines = text.splitlines(keepends=True)
    flipped = "".join(lines[:3] + [lines[3].replace("PASS", "FAIL", 1)] + lines[4:])
    dropped = "".join(lines[:3] + lines[4:])
    raised = "".join(lines[:3] + [lines[3].split("value=")[0] + "value=9.000000e+00 tol=1.0e-10\n"] + lines[4:])
    for tampered in (flipped, dropped, raised):
        with pytest.raises(oracles.OracleError):
            oracles.check_report(request, tampered, code)
    with pytest.raises(oracles.OracleError):
        oracles.check_report(request, text, 1)
    other_seed = workloads.Request("check", (), "report", (), {"seed": 41})
    with pytest.raises(oracles.OracleError):
        oracles.check_report(other_seed, text, code)


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = spans.Tracer()
    parent = ["cli.command", 0.0, 10.0, None, 0]
    tracer.spans = [
        parent,
        ["states.psi", 1.0, 4.0, parent, 5],
        ["states.psi", 2.0, 6.0, parent, 7],  # a second worker thread, overlapping
        ["numerics.hermite", 8.0, 9.0, parent, 3],
    ]
    summary = tracer.summary()
    assert summary["cli.command"]["self_ms"] == pytest.approx(1e3 * (10.0 - 5.0 - 1.0))
    assert summary["states.psi"]["calls"] == 2 and summary["states.psi"]["items"] == 12
    assert summary["numerics.hermite"]["self_ms"] == pytest.approx(1e3)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**{k: v[2] for k, v in run.PER_LAYER.items()}, run.OVERHEAD: "ms"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
