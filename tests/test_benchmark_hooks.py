"""The benchmark's traced runs (`perfbench/run.py --trace 1`) wrap cktomo
functions by name through `perfbench/spans.py`; a rename or deletion of a
hooked name has to fail here, not only in a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_install_resolves_every_hook():
    # install() monkeypatches cktomo's modules, so it runs in a child process
    code = "import sys; sys.path.insert(0, sys.argv[1]); import spans; spans.install()"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
