"""The benchmark's traced runs (`perfbench/run.py --trace 1`) wrap cktomo
functions by name through `perfbench/spans.py`, and its oracle
`perfbench/oracles.check_report` fixes the lines of a `check all` report; a
rename or deletion of a hooked name, or a check line added or dropped, has
to fail here, not only in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_perfbench_install_resolves_every_hook():
    # install() monkeypatches cktomo's modules, so it runs in a child process
    code = "import sys; sys.path.insert(0, sys.argv[1]); import spans; spans.install()"
    res = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        capture_output=True,
        env=_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()


def test_check_report_passes_the_benchmark_oracle():
    # the oracle counts the scored and INFO lines of a real report, checks
    # each status against its value and the exit code against the FAILs
    pytest.importorskip("scipy")  # perfbench/oracles.py imports it
    report = subprocess.run(
        [sys.executable, "-m", "cktomo", "check", "all", "--seed", "42"],
        capture_output=True,
        env=_env(),
        timeout=300,
    )
    code = (
        "import sys, types; sys.path.insert(0, sys.argv[1]); import oracles; "
        "request = types.SimpleNamespace(params={'seed': 42}); "
        "print(oracles.check_report(request, sys.stdin.read(), int(sys.argv[2])))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(report.returncode)],
        input=report.stdout,
        capture_output=True,
        env=_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().strip() == "(41, False)"


@pytest.mark.parametrize("workload", ["wigner_cli", "tomogram_cli"])
def test_workload_passes_the_benchmark_oracle(workload):
    # one pass of the benchmark's requests of the workload (a few s), each
    # Wigner or tomogram grid checked against perfbench's scipy closed form,
    # so a drift in W or w values fails here and not only as a benchmark's
    # incorrect output
    pytest.importorskip("scipy")  # perfbench/oracles.py imports it
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        env=_env(),
        timeout=300,
    )
    assert res.returncode == 0, res.stderr.decode()
    last = json.loads(res.stdout.decode().strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


@pytest.mark.parametrize(
    "args, shape",
    [
        (["tomogram", "--state", "fock:4", "--optical", "--phi-grid", "0:6.283:300", "--x-grid=-6:6:400"], (300, 400)),
        (["wigner", "--state", "coherent:1,1", "--q-grid=-4:4:201", "--p-grid=-4:4:201"], (201, 201)),
    ],
    ids=["optical", "wigner"],
)
def test_traced_run_counts_one_row_per_block(args, shape, tmp_path):
    # spans.count_rows calls len() on _map_rows' argument, so a generator
    # there would crash every traced run; `cli.rows` counts the tiles
    from cktomo.cli import _BLOCK
    from cktomo.numerics import tiles

    result = tmp_path / "result.json"
    res = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), str(tmp_path / "trace.json"),
            *args, "--output", str(tmp_path / "grid.csv"),
        ],
        capture_output=True,
        env=_env(),
        timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    report = json.loads(result.read_text())
    blocks = len(tiles(*shape, _BLOCK))
    assert report["exit"] == 0 and blocks > 1
    assert report["counters"]["cli.rows"] == blocks
