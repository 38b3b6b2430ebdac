import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cktomo import ScalarGrid
from cktomo.cli import RunConfig, UsageError, cmd_figure1, cmd_tomogram, main, parse_grid, parse_state
from cktomo.dynamics import make_params
from cktomo.states import Coherent, Fock
from cktomo.tomography import TomographyFrame, optical_frame, tomogram


def run_cli(args, env_extra=None, timeout=300):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "cktomo", *args],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


class TestParsing:
    def test_state_descriptors(self):
        assert parse_state("fock:3") == Fock(3)
        assert parse_state("coherent:1,0.5") == Coherent(1.0 + 0.5j)
        assert parse_state("coherent:-2") == Coherent(-2.0 + 0.0j)

    def test_bad_descriptors(self):
        from cktomo.cli import UsageError

        for bad in ("fock", "fock:x", "fock:99", "coherent:1,2,3", "thermal:1"):
            with pytest.raises(UsageError):
                parse_state(bad)

    def test_grid_spec(self):
        axis = parse_grid("x", "-5:5:11")
        assert axis.values[0] == -5.0 and axis.values[-1] == 5.0 and len(axis) == 11

    def test_bad_grid_spec(self):
        from cktomo.cli import UsageError

        for bad in ("1:2", "2:1:5", "1:2:1", "1:2:200001", "a:b:c"):
            with pytest.raises(UsageError):
                parse_grid("x", bad)


class TestTomogramCommand:
    def test_phi_independence_frictionless_ground(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "tomogram",
                "--gamma", "0",
                "--t", "0",
                "--state", "fock:0",
                "--optical",
                "--phi-grid", "0:6.283:64",
                "--x-grid=-5:5:200",
                "--output", str(out),
            ]
        )
        assert code == 0
        grid = ScalarGrid.from_csv(out.read_text())
        xs = grid.axis2.values
        expected = np.exp(-xs * xs) / math.sqrt(math.pi)
        for row in grid.values:
            assert np.max(np.abs(row - expected)) < 1e-12

    def test_fock1_zero_column(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "tomogram",
                "--gamma", "0",
                "--t", "0",
                "--state", "fock:1",
                "--optical",
                "--phi-grid", "0:6.283:16",
                "--x-grid=-5:5:201",
                "--output", str(out),
            ]
        )
        assert code == 0
        grid = ScalarGrid.from_csv(out.read_text())
        zero_col = int(np.argmin(np.abs(grid.axis2.values)))
        assert grid.axis2.values[zero_col] == 0.0
        assert np.all(grid.values[:, zero_col] == 0.0)

    def test_rows_nonnegative_and_normalized(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(
            [
                "tomogram",
                "--gamma", "0.05",
                "--t", "5",
                "--state", "fock:1",
                "--optical",
                "--phi-grid", "0:6.283:16",
                "--x-grid=-6:6:241",
                "--output", str(out),
            ]
        )
        grid = ScalarGrid.from_csv(out.read_text())
        assert np.all(grid.values >= 0.0)
        xs = grid.axis2.values
        for row in grid.values:
            assert np.trapezoid(row, xs) == pytest.approx(1.0, abs=1e-6)

    def test_symplectic_1d_json_roundtrip(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(
            [
                "tomogram",
                "--gamma", "0.3",
                "--t", "2",
                "--state", "coherent:1,-0.5",
                "--mu", "0.8",
                "--nu=-0.4",
                "--x-grid=-6:6:101",
                "--format", "json",
                "--output", str(out),
            ]
        )
        assert code == 0
        grid = ScalarGrid.from_json(out.read_text())
        assert grid.meta["state"] == "coherent:1,-0.5"
        assert grid.meta["frame"] == "symplectic"
        back = ScalarGrid.from_json(grid.to_json())
        assert np.array_equal(back.values, grid.values)


def _optical_config(state, n_phi: int, n_x: int) -> RunConfig:
    return RunConfig(
        gamma=0.17,
        t=2.3,
        state=state,
        frame_mode="optical",
        phi_axis=parse_grid("phi", f"0:6.283:{n_phi}"),
        x_axis=parse_grid("x", f"-7:7:{n_x}"),
    )


class TestOpticalBroadcast:
    """An optical grid is one broadcast tomogram call; the reference here
    evaluates it one phi row at a time."""

    @staticmethod
    def _row_loop(config: RunConfig) -> np.ndarray:
        params = make_params(config.gamma)
        xs = config.x_axis.values
        rows = []
        for phi in config.phi_axis.values:
            frame = TomographyFrame(xs, *optical_frame(phi))
            rows.append(tomogram(config.state, frame, config.t, params))
        return np.vstack(rows)

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 16])
    def test_fock_bit_identical_to_row_loop(self, n):
        config = _optical_config(Fock(n), 37, 203)
        got = cmd_tomogram(config).values
        assert got.shape == (37, 203)
        assert got.tobytes() == self._row_loop(config).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 1.3 - 0.4j, -2.1 + 2.7j, 8.0j])
    def test_coherent_matches_row_loop(self, alpha):
        config = _optical_config(Coherent(alpha), 37, 203)
        got = cmd_tomogram(config).values
        ref = self._row_loop(config)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(ref)

    def test_value_cap_boundary(self):
        # 1000 x 1000 is exactly the cap; one more X point is refused
        assert cmd_tomogram(_optical_config(Fock(0), 1000, 1000)).values.shape == (1000, 1000)
        with pytest.raises(UsageError, match="capped"):
            cmd_tomogram(_optical_config(Fock(0), 1000, 1001))
        argv = ["tomogram", "--state", "fock:0", "--optical", "--phi-grid", "0:1:1001", "--x-grid=-1:1:1000"]
        assert main(argv) == 2


class TestWignerCommand:
    def test_ground_peak(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(
            [
                "wigner",
                "--gamma", "0",
                "--t", "0",
                "--state", "fock:0",
                "--q-grid=-3:3:25",
                "--p-grid=-3:3:25",
                "--output", str(out),
            ]
        )
        assert code == 0
        grid = ScalarGrid.from_csv(out.read_text())
        assert np.max(grid.values) == pytest.approx(2.0, abs=1e-6)

    def test_fock1_negative_origin(self, tmp_path):
        out = tmp_path / "w.csv"
        main(
            [
                "wigner",
                "--gamma", "0",
                "--t", "0",
                "--state", "fock:1",
                "--q-grid=-3:3:25",
                "--p-grid=-3:3:25",
                "--output", str(out),
            ]
        )
        grid = ScalarGrid.from_csv(out.read_text())
        iq = int(np.argmin(np.abs(grid.axis1.values)))
        ip = int(np.argmin(np.abs(grid.axis2.values)))
        assert grid.values[iq, ip] == pytest.approx(-2.0, abs=1e-5)

    def test_parity_symmetric_grid(self, tmp_path):
        out = tmp_path / "w.csv"
        main(
            [
                "wigner",
                "--gamma", "0.05",
                "--t", "2",
                "--state", "fock:2",
                "--q-grid=-2:2:17",
                "--p-grid=-2:2:17",
                "--output", str(out),
            ]
        )
        grid = ScalarGrid.from_csv(out.read_text())
        assert np.max(np.abs(grid.values - grid.values[::-1, ::-1])) < 1e-8

    def test_axis_cap(self):
        code = main(
            [
                "wigner",
                "--state", "fock:0",
                "--q-grid=-1:1:402",
                "--p-grid=-1:1:5",
            ]
        )
        assert code == 2


@pytest.fixture(scope="module")
def figure1_grid():
    return cmd_figure1()


class TestFigure1:
    @pytest.fixture()
    def grid(self, figure1_grid):
        return figure1_grid

    def test_shape_and_meta(self, grid):
        assert len(grid.axis1) == 64 and len(grid.axis2) == 241
        assert grid.meta["gamma"] == "0.050000000000000003"
        assert grid.meta["t"] == "5"
        assert grid.meta["state"] == "fock:1"

    def test_nonnegative_with_zero_line(self, grid):
        assert np.all(grid.values >= 0.0)
        zero_col = int(np.argmin(np.abs(grid.axis2.values)))
        assert np.all(grid.values[:, zero_col] == 0.0)

    def test_per_phi_normalization(self, grid):
        xs = grid.axis2.values
        for row in grid.values:
            assert np.trapezoid(row, xs) == pytest.approx(1.0, abs=1e-6)

    def test_periodicity(self, grid):
        assert np.max(np.abs(grid.values[0] - grid.values[-1])) < 1e-10

    def test_two_lobe_symmetry(self, grid):
        xs = grid.axis2.values
        dx = xs[1] - xs[0]
        mid = len(xs) // 2
        for row in grid.values:
            x_pos = xs[mid:][np.argmax(row[mid:])]
            x_neg = xs[:mid][np.argmax(row[:mid])]
            assert abs(x_pos + x_neg) <= dx


class TestExitCodes:
    def test_success(self):
        res = run_cli(["tomogram", "--state", "fock:0", "--mu", "1", "--nu", "0", "--x-grid=-1:1:5"])
        assert res.returncode == 0

    def test_usage_error_bad_state(self):
        res = run_cli(["tomogram", "--state", "fock:bad", "--mu", "1", "--nu", "0", "--x-grid=-1:1:5"])
        assert res.returncode == 2

    def test_usage_error_missing_frame(self):
        res = run_cli(["tomogram", "--state", "fock:0", "--x-grid=-1:1:5"])
        assert res.returncode == 2

    def test_usage_error_unknown_tol(self):
        res = run_cli(["check", "dynamics", "--tol", "nonsense=1"])
        assert res.returncode == 2

    def test_numeric_error_degenerate_frame(self):
        res = run_cli(["tomogram", "--state", "fock:0", "--mu", "0", "--nu", "0", "--x-grid=-1:1:5"])
        assert res.returncode == 3

    def test_numeric_error_overdamped(self):
        res = run_cli(["tomogram", "--gamma", "1.5", "--state", "fock:0", "--mu", "1", "--nu", "0", "--x-grid=-1:1:5"])
        assert res.returncode == 3

    def test_usage_error_check_only_options(self):
        # --seed and --tol belong to `check`; the grid commands reject them
        grids = (
            ["tomogram", "--state", "fock:0", "--mu", "1", "--nu", "0", "--x-grid=-1:1:5"],
            ["wigner", "--state", "fock:0", "--q-grid=-1:1:5", "--p-grid=-1:1:5"],
        )
        for argv in grids:
            for extra in (["--seed", "3"], ["--tol", "radon=1e-3"]):
                with pytest.raises(SystemExit) as exc:
                    main([*argv, *extra])
                assert exc.value.code == 2

    def test_x_grid_from_linspace_accepted(self, tmp_path):
        for spec in ("--x-grid=-6:6:8001", "--x-grid=100:101:201"):
            out = tmp_path / "grid.csv"
            code = main(
                ["tomogram", "--state", "fock:1", "--mu", "1", "--nu", "0", spec, "--output", str(out)]
            )
            assert code == 0
            assert np.all(np.isfinite(ScalarGrid.from_csv(out.read_text()).values))

    def test_numeric_error_overflow_no_traceback(self):
        res = run_cli(["tomogram", "--gamma", "0.9", "--t", "500", "--state", "fock:1", "--mu", "1", "--nu", "0", "--x-grid=-1:1:5"])
        assert res.returncode == 3
        assert b"Traceback" not in res.stderr
        assert res.stderr.startswith(b"numeric error:")

    def test_numeric_error_non_finite_grid(self):
        # s2 underflows to 0 or overflows to inf; the true values are finite
        # but leave the range the closed forms can reach, so nothing is written
        for frame in (
            ["--state", "fock:1", "--mu", "1e-300", "--nu", "1e-300"],
            ["--gamma", "0.9", "--t", "300", "--state", "fock:1", "--mu", "1", "--nu", "1"],
            ["--state", "fock:1", "--mu", "1e200", "--nu", "1e200"],
            ["--state", "coherent:1,1", "--mu", "1e200", "--nu", "1e200"],
        ):
            res = run_cli(["tomogram", *frame, "--x-grid=-1:1:3"])
            assert res.returncode == 3, frame
            assert res.stdout == b""
            assert b"Traceback" not in res.stderr
            assert b"RuntimeWarning" not in res.stderr, res.stderr

    def test_coherent_large_gamma_t_finite(self):
        # each factor of the conjugate pair overflows alone; their product is
        # a displaced Gaussian with s2 ~ 6.9e-235, well inside the double range
        res = run_cli(["tomogram", "--gamma", "0.9", "--t", "300", "--state", "coherent:1,1", "--mu", "1", "--nu", "0", "--x-grid=-1:1:3"])
        assert res.returncode == 0, res.stderr
        assert b"RuntimeWarning" not in res.stderr, res.stderr
        values = ScalarGrid.from_csv(res.stdout.decode()).values
        assert values.size == 3 and np.all(np.isfinite(values)) and np.all(values >= 0.0)

    def test_far_tail_is_zero_without_warning(self):
        # x*x/s2 overflows past |X| ~ 1e154; the true values are 0 to double precision
        for state in ("fock:1", "fock:12", "fock:0", "coherent:1,0"):
            res = run_cli(["tomogram", "--state", state, "--mu", "1", "--nu", "0", "--x-grid=1e160:1e161:2"])
            assert res.returncode == 0, (state, res.stderr)
            assert b"RuntimeWarning" not in res.stderr, res.stderr
            values = ScalarGrid.from_csv(res.stdout.decode()).values
            assert values.tolist() == [0.0, 0.0], state

    def test_no_thread_pool_import(self):
        code = "import sys, cktomo.cli; print('concurrent.futures' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert res.stdout.strip() == b"False", res.stderr

    def test_pi_s2_overflow_is_refused_without_warning(self):
        # s2 = 1e308 is a finite double, but pi * s2 in the normalization is not
        res = run_cli(["tomogram", "--state", "fock:0", "--mu", "1e154", "--nu", "0", "--x-grid=1e153:2e154:3"])
        assert res.returncode == 3, res.stderr
        assert res.stdout == b""
        assert b"RuntimeWarning" not in res.stderr, res.stderr
        assert res.stderr.startswith(b"numeric error:"), res.stderr

    def test_numeric_error_rule_cap(self):
        # the u-rule for this strongly squeezed state would need ~1e10 nodes
        res = run_cli(["wigner", "--gamma", "0.9", "--t", "20", "--state", "fock:16", "--q-grid=-1:1:5", "--p-grid=-1:1:5"])
        assert res.returncode == 3
        assert b"Traceback" not in res.stderr
        assert res.stdout == b""

    def test_check_failure_exit_one(self):
        res = run_cli(["check", "dynamics", "--seed", "0", "--tol", "ode_residual=1e-30"])
        assert res.returncode == 1

    def test_check_success_exit_zero(self):
        res = run_cli(["check", "dynamics", "--seed", "0"])
        assert res.returncode == 0


class TestDeterminism:
    def test_check_all_byte_identical(self):
        a = run_cli(["check", "all", "--seed", "42"])
        b = run_cli(["check", "all", "--seed", "42"])
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.count(b"\n") >= 26  # >= 25 checks plus the summary
        # pinned, so a refactor meant to be behaviour-neutral is proven so
        digest = hashlib.sha256(a.stdout).hexdigest()
        assert digest == "96b660cc964f7aa463b3677af38ce3f06937635dece640c8c56f937c3eafde73"

    def test_figure1_csv_sha256(self):
        res = run_cli(["figure1", "--format", "csv"])
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout).hexdigest()
        assert digest == "89ca4f92bd9ad0af33573b7b466b03562f19b8d7b8225b90672b7b1bd2e0989b"

    def test_grid_identical_across_thread_counts(self):
        args = [
            "tomogram", "--gamma", "0.05", "--t", "5", "--state", "fock:1",
            "--optical", "--phi-grid", "0:6.283:24", "--x-grid=-6:6:101",
        ]
        outs = [
            run_cli(args, env_extra={"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n})
            for n in ("1", "2")
        ]
        assert outs[0].returncode == 0 and outs[0].stdout.count(b"\n") > 24 * 101
        assert outs[0].stdout == outs[1].stdout

    def test_wigner_identical_across_blas_threads(self):
        # the grid contraction must not depend on how BLAS splits a sum
        args = [
            "wigner", "--gamma", "0.05", "--t", "2", "--state", "coherent:1.2,-0.7",
            "--q-grid=-5:5:201", "--p-grid=-5:5:201",
        ]
        outs = [
            run_cli(args, env_extra={"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n})
            for n in ("1", "2")
        ]
        assert outs[0].returncode == 0 and outs[0].stdout.count(b"\n") > 201 * 201
        assert outs[0].stdout == outs[1].stdout

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        # figure1's CSV text spans many write slices
        out = tmp_path / "fig.csv"
        assert main(["figure1", "--output", str(out)]) == 0
        assert main(["figure1"]) == 0
        text = capsys.readouterr().out
        assert len(text) > 10 * 2**16
        assert out.read_text(encoding="utf-8") == text

    def test_csv_byte_roundtrip(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(
            [
                "tomogram", "--gamma", "0.05", "--t", "5", "--state", "fock:2",
                "--optical", "--phi", "1.2", "--x-grid=-6:6:101",
                "--output", str(out),
            ]
        )
        text = out.read_text()
        grid = ScalarGrid.from_csv(text)
        assert grid.to_csv() == text
