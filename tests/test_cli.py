import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktomo import ScalarGrid
from cktomo.checks import _STREAMS, SUITES, TOLERANCES, _sampler, _wigner_quadrature, run_checks
from cktomo.cli import (
    _BLOCK,
    UsageError,
    _build_parser,
    cmd_figure1,
    cmd_tomogram,
    cmd_wigner,
    main,
    parse_grid,
    parse_state,
)
from cktomo.dynamics import make_params
from cktomo.errors import DomainError
from cktomo.numerics import tiles
from cktomo.states import Coherent, Fock, wigner
from cktomo.tomography import TomographyFrame, optical_frame, tomogram
from test_cli_argv import _FRAMES

# the frames of the argv matrix that the frame rule accepts; a bad grid or a
# zero frame is refused after it
_LEGAL_FRAMES = {"mu_nu", "mu_nu_zero", "optical_phi", "optical_phi_grid", "optical_bad_phi_grid"}


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

        for bad in ("1:2", "2:1:5", "1:2:1", "1:2:1000001", "a:b:c", "-1e308:1e308:3", "0:inf:3", "nan:1:3"):
            with pytest.raises(UsageError):
                parse_grid("x", bad)
        # one axis may hold a whole grid's values, no more
        assert len(parse_grid("x", "1:2:1000000")) == 10**6

    @pytest.mark.parametrize("descriptor", ["coherent:0", "coherent:0,0"])
    @pytest.mark.parametrize(
        "argv, command, equation",
        [
            (["tomogram", "--mu", "1", "--nu", "0", "--x-grid=-1:1:3"], cmd_tomogram, "coherent-tomogram"),
            (["wigner", "--q-grid=-1:1:3", "--p-grid=-1:1:3"], cmd_wigner, "wigner"),
        ],
    )
    def test_alpha_zero_keeps_its_coherent_metadata(self, descriptor, argv, command, equation):
        # coherent:0 is the same state as fock:0, but its grid is labelled
        # by the family that was asked for
        args = _build_parser().parse_args([*argv, "--gamma", "0.1", "--t", "1", "--state", descriptor])
        meta = command(args).meta
        assert (meta["state"], meta["equation"]) == ("coherent:0,0", equation)


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


def _descriptor(state) -> str:
    if state.alpha == 0:
        return f"fock:{state.n}"
    return f"coherent:{state.alpha.real!r},{state.alpha.imag!r}"


def _optical_args(state, n_phi: int, n_x: int):
    return _build_parser().parse_args(
        ["tomogram", "--gamma", "0.17", "--t", "2.3", "--state", _descriptor(state),
         "--optical", "--phi-grid", f"0:6.283:{n_phi}", f"--x-grid=-7:7:{n_x}"]
    )


class TestOpticalBroadcast:
    """An optical grid is evaluated one tile of at most cli._BLOCK values at
    a time; the references here are one phi row at a time and one
    whole-grid broadcast."""

    @staticmethod
    def _row_loop(args) -> np.ndarray:
        params = make_params(args.gamma)
        xs = parse_grid("x", args.x_grid).values
        rows = []
        for phi in parse_grid("phi", args.phi_grid).values:
            frame = TomographyFrame(xs, *optical_frame(phi))
            rows.append(tomogram(parse_state(args.state), frame, args.t, params))
        return np.vstack(rows)

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 16])
    def test_fock_bit_identical_to_row_loop(self, n):
        args = _optical_args(Fock(n), 37, 203)
        got = cmd_tomogram(args).values
        assert got.shape == (37, 203)
        assert got.tobytes() == self._row_loop(args).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 1.3 - 0.4j, -2.1 + 2.7j, 8.0j])
    def test_coherent_matches_row_loop(self, alpha):
        args = _optical_args(Coherent(alpha), 37, 203)
        got = cmd_tomogram(args).values
        ref = self._row_loop(args)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(ref)

    @staticmethod
    def _broadcast(args) -> np.ndarray:
        mu, nu = optical_frame(parse_grid("phi", args.phi_grid).values)
        frame = TomographyFrame(parse_grid("x", args.x_grid).values[None, :], mu[:, None], nu[:, None])
        return tomogram(parse_state(args.state), frame, args.t, make_params(args.gamma))

    @pytest.mark.parametrize("state", [Fock(16), Coherent(2.5 - 1.5j)], ids=["fock16", "coherent"])
    @pytest.mark.parametrize("shape", [(300, 400), (3, 50_000)], ids=["row_tiles", "column_tiles"])
    def test_tiles_bit_identical_to_one_broadcast(self, state, shape):
        # 300 x 400 is 4 tiles of whole rows; a 50 000-point row is 2 tiles
        args = _optical_args(state, *shape)
        assert len(tiles(*shape, _BLOCK)) >= 3
        got = cmd_tomogram(args).values
        assert got.tobytes() == self._broadcast(args).tobytes()

    def test_value_cap_boundary(self):
        # 1000 x 1000 is exactly the cap; one more X point is refused
        assert cmd_tomogram(_optical_args(Fock(0), 1000, 1000)).values.shape == (1000, 1000)
        with pytest.raises(UsageError, match="capped"):
            cmd_tomogram(_optical_args(Fock(0), 1000, 1001))
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

    @pytest.mark.parametrize("state", [Fock(7), Coherent(1.5 + 2.0j)], ids=["fock7", "coherent"])
    def test_tiles_bit_identical_to_one_broadcast(self, state):
        args = _build_parser().parse_args(
            ["wigner", "--gamma", "0.13", "--t", "1.7", "--state", _descriptor(state),
             "--q-grid=-6:6:401", "--p-grid=-6:6:401"]
        )
        assert len(tiles(401, 401, _BLOCK)) >= 3
        qs = ps = np.linspace(-6.0, 6.0, 401)
        ref = wigner(qs[:, None], ps[None, :], 1.7, state, make_params(0.13))
        assert cmd_wigner(args).values.tobytes() == ref.tobytes()

    def test_value_cap_boundary(self, tmp_path, capsys):
        # the one cap counts values, not points per axis
        out = tmp_path / "w.csv"
        argv = ["wigner", "--state", "fock:3", "--q-grid=-4:4:1000", "--output", str(out)]
        assert main([*argv, "--p-grid=-4:4:1000"]) == 0
        assert capsys.readouterr().err == ""
        out.unlink()
        assert main([*argv, "--p-grid=-4:4:1001"]) == 2
        err = capsys.readouterr().err
        assert err == "error: grids are capped at 1000000 values\n"
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "frame",
        [
            *(pytest.param(_FRAMES[name], id=name) for name in sorted(set(_FRAMES) - _LEGAL_FRAMES)),
            pytest.param(["--phi", "1", "--mu", "1", "--nu", "0"], id="phi_mu_nu"),
        ],
    )
    def test_usage_error_one_frame_rule(self, frame):
        # one rule refuses every other mix of the frame options, with one message
        res = run_cli(["tomogram", *frame, "--x-grid=-1:1:3"])
        assert res.returncode == 2
        assert res.stdout == b""
        assert res.stderr.decode().splitlines() == [
            "error: a tomogram takes one frame: --mu with --nu, or --optical with one of --phi and --phi-grid"
        ]

    def test_usage_error_unknown_tol(self):
        # each line's bound is fixed in `checks`: argparse refuses --tol
        res = run_cli(["check", "dynamics", "--tol", "nonsense=1"])
        assert res.returncode == 2 and res.stdout == b""
        assert b"unrecognized arguments" in res.stderr, res.stderr

    def test_numeric_error_degenerate_frame(self):
        res = run_cli(["tomogram", "--state", "fock:0", "--mu", "0", "--nu", "0", "--x-grid=-1:1:5"])
        assert res.returncode == 3

    def test_numeric_error_overdamped(self):
        res = run_cli(["tomogram", "--gamma", "1.5", "--state", "fock:0", "--mu", "1", "--nu", "0", "--x-grid=-1:1:5"])
        assert res.returncode == 3

    def test_usage_error_check_only_options(self):
        # --seed belongs to `check`, and no command takes --tol; the grid
        # commands reject both
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["tomogram", "--mu", "1", "--nu", "0", "--x-grid=-1e308:1e308:3"],
            ["tomogram", "--optical", "--phi-grid=-1e308:1e308:3", "--x-grid=-1:1:3"],
            ["wigner", "--q-grid=-1e308:1e308:3", "--p-grid=-1:1:3"],
            ["wigner", "--q-grid=-1:1:3", "--p-grid=-1.7e308:1.7e308:3"],
        ],
        ids=["x", "phi", "q", "p"],
    )
    def test_usage_error_overflowing_span(self, argv):
        # max - min overflows although both ends are finite doubles: the
        # grid's spacing was inf, numpy warned twice and the axis was exit 3
        res = run_cli(argv, env_extra={"PYTHONWARNINGS": "error"})
        assert res.returncode == 2 and res.stdout == b""
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: grid spec"), lines

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
        # a displaced Gaussian with s2 ~ 6.9e-235, well inside the double
        # range, whose three-factor form overflowed factor by factor
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["-c", "import cktomo"],
            ["-c", "import cktomo.cli"],
            ["-m", "cktomo", "tomogram", "--state", "fock:1", "--mu", "1", "--nu", "0", "--x-grid=-1:1:3"],
            ["-m", "cktomo", "wigner", "--state", "coherent:1", "--q-grid=-1:1:3", "--p-grid=-1:1:3"],
        ],
        ids=["cktomo", "cktomo.cli", "tomogram", "wigner"],
    )
    def test_loads_no_oracle_module(self, argv):
        # a grid request compiles no check suite, finite-difference or
        # dual-space oracle and no thread pool: -X importtime names every
        # module the process imports
        res = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True)
        assert res.returncode == 0, res.stderr
        lines = res.stderr.decode().splitlines()
        loaded = {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}
        assert "cktomo.tomography" in loaded, lines
        oracles = {"cktomo.checks", "cktomo.evolution", "cktomo.invariants", "concurrent.futures"}
        assert loaded.isdisjoint(oracles), sorted(loaded & oracles)

    def test_usage_error_negative_seed(self):
        # random.Random seeds an int by its magnitude, so a negative seed
        # would repeat another seed's draws: seed -1's first line is seed 1's
        assert _sampler(-1, 0).random() == _sampler(1, 0).random()
        res = run_cli(["check", "all", "--seed", "-1"])
        assert res.returncode == 2 and res.stdout == b""
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: seed must be"), lines

    def test_run_checks_refuses_negative_seed(self):
        with pytest.raises(UsageError):
            run_checks("all", -1)

    def test_pi_s2_overflow_is_refused_without_warning(self):
        # s2 = 1e308 is a finite double, but pi * s2 in the normalization is not
        res = run_cli(["tomogram", "--state", "fock:0", "--mu", "1e154", "--nu", "0", "--x-grid=1e153:2e154:3"])
        assert res.returncode == 3, res.stderr
        assert res.stdout == b""
        assert b"RuntimeWarning" not in res.stderr, res.stderr
        assert res.stderr.startswith(b"numeric error:"), res.stderr

    def test_top_of_scale_range_matches_closed_form(self):
        # s2 = mu**2 = 4.0e307 is inside the cap and X*X overflows at these
        # X; at gamma = t = 0 the Fock 0 tomogram is exp(-(X/mu)**2) / (sqrt(pi) mu)
        mu = 6.32e153
        res = run_cli(
            ["tomogram", "--state", "fock:0", "--mu", "6.32e153", "--nu", "0", "--x-grid=1.4e154:1.5e154:2"],
            env_extra={"PYTHONWARNINGS": "error"},
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == b""
        grid = ScalarGrid.from_csv(res.stdout.decode())
        exact = [math.exp(-((x / mu) ** 2)) / (math.sqrt(math.pi) * mu) for x in grid.axis1.values.tolist()]
        assert grid.values.tolist() == pytest.approx(exact, rel=1e-13)

    def test_numeric_error_rule_cap(self):
        # the quadrature oracle's u-rule for this strongly squeezed state
        # would need ~1e10 nodes; the closed form the CLI evaluates needs none
        with pytest.raises(DomainError, match="exceeds the cap"):
            axis = np.linspace(-1.0, 1.0, 5)
            _wigner_quadrature(axis, axis, 20.0, Fock(16), make_params(0.9))
        res = run_cli(["wigner", "--gamma", "0.9", "--t", "20", "--state", "fock:16", "--q-grid=-1:1:5", "--p-grid=-1:1:5"])
        assert res.returncode == 0, res.stderr
        assert np.all(np.isfinite(ScalarGrid.from_csv(res.stdout.decode()).values))

    @pytest.mark.parametrize(
        "args",
        [
            # the quadrature's u-rule needed 2179 nodes here, over the cap
            ["--gamma", "0.9", "--t", "0", "--state", "fock:8", "--q-grid=-17.7:17.7:5", "--p-grid=-17.7:17.7:5"],
            ["--state", "coherent:5,5", "--q-grid=-1e300:1e300:5", "--p-grid=-2:2:5"],
            ["--gamma", "0.9", "--t", "8", "--state", "fock:16", "--q-grid=-1e300:1e300:5", "--p-grid=-1e300:1e300:5"],
        ],
    )
    def test_wigner_inside_the_states_exits_zero(self, args):
        res = run_cli(["wigner", *args], env_extra={"PYTHONWARNINGS": "error"})
        assert res.returncode == 0, res.stderr
        assert res.stderr == b""
        values = ScalarGrid.from_csv(res.stdout.decode()).values
        assert values.shape == (5, 5) and np.all(np.isfinite(values))

    def test_check_failure_exit_one(self, monkeypatch, capsys):
        # a finite value over its bound FAILs its line alone (TestNaNFails
        # covers nan), and the report exits 1
        monkeypatch.setattr("cktomo.checks.epsilon_residual", lambda t, params: 1.0)
        assert main(["check", "dynamics", "--seed", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split() for line in lines if line.startswith("FAIL")]
        assert failed == [["FAIL", "ode_residual", "value=1.000000e+00", "tol=1.0e-10"]], lines
        assert lines[-1] == "7/8 checks passed (suite=dynamics, seed=0)"

    def test_check_success_exit_zero(self):
        res = run_cli(["check", "dynamics", "--seed", "0"])
        assert res.returncode == 0

    @pytest.mark.parametrize("args", [["figure1"], ["check", "all", "--seed", "0"]])
    def test_closed_stdout_pipe_exits_quietly(self, args):
        # the reader goes away before the first write, as `| head -0` would
        proc = subprocess.Popen(
            [sys.executable, "-m", "cktomo", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 141, err
        assert err == b""


    @pytest.mark.parametrize(
        "args",
        [
            ["figure1"],
            ["wigner", "--state", "fock:3", "--q-grid=-4:4:201", "--p-grid=-4:4:201", "--format", "json"],
        ],
        ids=["figure1_csv", "wigner_json"],
    )
    def test_pipe_closed_mid_stream_exits_quietly(self, args):
        # the reader takes the first line (of ~1 MB of CSV) or the first
        # 4 KiB (of one ~0.8 MB JSON line), then goes away, as `| head -1`
        # would; both outputs are far larger than a pipe buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "cktomo", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        first = proc.stdout.readline() if args[0] == "figure1" else proc.stdout.read(4096)
        assert first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 141, err
        assert err == b""

    @pytest.mark.parametrize(
        "args, sink",
        [
            (["figure1", "--output", "{tmp}/no/such/dir/f.csv"], None),
            (["figure1", "--output", "{tmp}"], None),
            (["figure1"], "/dev/full"),
            (["check", "dynamics", "--seed", "0"], "/dev/full"),
        ],
        ids=["missing_directory", "directory", "figure1_dev_full", "check_dev_full"],
    )
    def test_unwritable_output_exits_two(self, args, sink, tmp_path):
        if sink is not None and not os.path.exists(sink):
            pytest.skip(f"no {sink}")
        argv = [sys.executable, "-m", "cktomo", *(a.format(tmp=tmp_path) for a in args)]
        with contextlib.ExitStack() as stack:
            stdout = subprocess.PIPE if sink is None else stack.enter_context(open(sink, "w"))
            res = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, timeout=300)
        err = res.stderr.decode()
        assert res.returncode == 2, err
        assert "Traceback" not in err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "fmt, command",
        [("csv", "tomogram"), ("json", "tomogram"), ("csv", "wigner"), ("json", "wigner")],
        ids=["csv", "json", "wigner-csv", "wigner-json"],
    )
    def test_peak_memory_at_the_cap(self, fmt, command, tmp_path):
        # 10**6 values: the values array is 8 MB; tiled evaluation and
        # writing keep the rest to a few MB over what the imports cost
        if not _has_vmhwm():
            pytest.skip("no VmHWM in /proc/self/status")
        code = (
            "import sys\n"
            "def hwm():\n"
            "    for line in open('/proc/self/status'):\n"
            "        if line.startswith('VmHWM:'):\n"
            "            return int(line.split()[1])\n"
            "import cktomo.cli\n"
            "base = hwm()\n"
            "assert cktomo.cli.main(sys.argv[1:]) == 0\n"
            "print(hwm() - base)\n"
        )
        out = tmp_path / f"cap.{fmt}"
        grid = {
            "tomogram": ["--optical", "--phi-grid", "0:6.283:1000", "--x-grid=-9:9:1000"],
            "wigner": ["--gamma", "0.3", "--t", "1", "--q-grid=-9:9:1000", "--p-grid=-9:9:1000"],
        }[command]
        argv = [command, "--state", "fock:16", *grid, "--format", fmt, "--output", str(out)]
        res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, timeout=300)
        assert res.returncode == 0, res.stderr.decode()
        assert out.stat().st_size > 10**7
        assert int(res.stdout) < 30 * 1024  # kB


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


# lo and hi anywhere in the double range, near the origin, or inf/nan
# text, put in order half of the time; counts around both ends of
# parse_grid's range
_GRID_ENDS = st.one_of(
    st.floats(-1e308, 1e308), st.floats(-10.0, 10.0), st.sampled_from([math.inf, -math.inf, math.nan])
)
_GRID_COUNTS = st.integers(-1, 2001).map(lambda n: 1000001 if n == 2001 else n)


@st.composite
def _grid_specs(draw):
    ends = [draw(_GRID_ENDS), draw(_GRID_ENDS)]
    lo, hi = sorted(ends) if draw(st.booleans()) else ends
    return f"{lo!r}:{hi!r}:{draw(_GRID_COUNTS)}"


class TestFuzzedGrids:
    @given(st.sampled_from(["tomogram", "wigner"]), _grid_specs(), _grid_specs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_grid_spec_ends_cleanly(self, command, first, second):
        if command == "tomogram":
            argv = ["tomogram", "--state", "fock:3", "--mu", "0.8", "--nu=-0.6", f"--x-grid={first}"]
        else:
            argv = ["wigner", "--gamma", "0.3", "--state", "coherent:1,1", f"--q-grid={first}", f"--p-grid={second}"]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([*argv, "--output", os.devnull])
        assert code in (0, 2, 3), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err.getvalue()
        # a refusal is one line, and a grid that was written says nothing
        assert err.getvalue().count("\n") == (0 if code == 0 else 1), err.getvalue()


class TestDeterminism:
    def test_check_all_byte_identical(self):
        a = run_cli(["check", "all", "--seed", "42"])
        b = run_cli(["check", "all", "--seed", "42"])
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.count(b"\n") == 44  # 41 scored lines, 2 INFO and the summary
        # pinned, so a refactor meant to be behaviour-neutral is proven so
        digest = hashlib.sha256(a.stdout).hexdigest()
        assert digest == "815d26d4fcf2594831ed0ca2d697b811316cf875094e0a261050db653b6ca11e"

    @pytest.mark.parametrize(
        "seed, pin",
        [
            ("0", "36c5cf607555ccb2970caa1b16b238df91b9ba67e9cb0d721fc918d82a4bb761"),
            ("1", "778c5808ff7eb478a7a6d0eb6ea5e6f924a698a5d7008a7f8e7da81f262536b7"),
            ("2", "4d6a4fcdecabf88a22352c9797ef18f9f4e987fc136795af6dffed73acf49a2b"),
            ("3", "84b03cbfa2a90e984adab76dd30d0da6f6d5af157b0098993e3e81e0d609ebbe"),
            ("4", "03f0b1c69e56c9786c7a23b1f74f9d6299aeea626d3472d5ddeeee7579d08e27"),
        ],
        ids=["0", "1", "2", "3", "4"],  # by seed, so a re-pin keeps each test's name
    )
    def test_benchmark_seeds_sha256(self, seed, pin, capsys):
        # the seeds of perfbench's check_cli workload, in-process
        assert main(["check", "all", "--seed", seed]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pin

    def test_each_line_carries_one_name_and_bound(self, capsys):
        # the report prints each scored line's TOLERANCES entry under the
        # same name, and only the two printed_* lines are INFO
        main(["check", "all", "--seed", "0"])
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[:-1]]
        scored = [(name, tol) for status, name, _, tol in rows if status != "INFO"]
        assert [tol for _, tol in scored] == ["tol=%.1e" % TOLERANCES[name] for name, _ in scored]
        assert len(scored) == 41 and set(TOLERANCES) == {name for name, _ in scored}
        info = {name for status, name, _, _ in rows if status == "INFO"}
        assert info == {"printed_direct_residual", "printed_conjugate_residual"}

    @pytest.mark.parametrize("seed", ["0", "17", "42"])
    def test_suite_lines_match_check_all(self, seed, capsys):
        # a suite run draws the same samples as `check all`, so a FAIL in
        # the full report reproduces in its own suite
        main(["check", "all", "--seed", seed])
        all_lines = capsys.readouterr().out.splitlines()[:-1]
        suite_lines = []
        for suite in SUITES:
            main(["check", suite, "--seed", seed])
            suite_lines += capsys.readouterr().out.splitlines()[:-1]
        assert suite_lines == all_lines

    def test_parser_suites_are_checks_suites(self):
        # the parser names the suites by hand, so parsing never loads
        # `checks`; a suite added in one place only fails here
        commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in commands.choices["check"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == ("all", *SUITES)

    @pytest.mark.parametrize(
        "seed, index, draws",
        [
            (0, 0, [0.8444218515250481, 0.7579544029403025, 0.420571580830845]),
            (42, 5, [0.7178940414592093, 0.3723760790119186, 0.3018554223548796]),
        ],
    )
    def test_sampler_first_draws(self, seed, index, draws):
        # the stream behind every check line: a change to it, or to the
        # (seed, line) mapping, fails here by name, not only as a digest
        rng = _sampler(seed, index)
        assert [rng.random() for _ in range(3)] == draws

    def test_sampler_streams_are_distinct(self):
        # seed * _STREAMS + index is one-to-one while the suites hold at
        # most _STREAMS lines
        assert sum(map(len, SUITES.values())) <= _STREAMS

    def test_check_loads_no_numpy_random_or_openssl(self):
        # the samplers are the standard library's: a whole `check all` never
        # imports numpy.random, nor the OpenSSL _hashlib it pulls in
        # through secrets and hmac
        code = (
            "import contextlib, io, sys\n"
            "from cktomo import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['check', 'all', '--seed', '0'])\n"
            "print(code, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
        assert res.stdout.split() == [b"0", b"False", b"False"], res.stderr

    @pytest.mark.parametrize(
        "argv, loads",
        [
            (["tomogram", "--state", "fock:1", "--mu", "1", "--nu", "0", "--x-grid=-1:1:3"], False),
            (["check", "all", "--seed", "0"], False),
            (["tomogram", "--state", "fock:1", "--mu", "1", "--nu", "0", "--x-grid=-1:1:3", "--format", "json"], True),
        ],
        ids=["tomogram-csv", "check", "tomogram-json"],
    )
    def test_only_json_grids_load_json(self, argv, loads):
        code = (
            "import contextlib, io, sys\n"
            "from cktomo import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(code, 'json' in sys.modules)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
        assert res.stdout.split() == [b"0", str(loads).encode()], res.stderr

    def test_check_calls_no_lapack(self, monkeypatch, capsys):
        # the 2x2 inverse of the Radon window and the convergence slopes are
        # closed forms: every numpy.linalg routine and np.polyfit runs its
        # LAPACK through these ufuncs, so each is made to raise
        from numpy.linalg import _umath_linalg

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK routine called")

        for name in dir(_umath_linalg):
            if isinstance(getattr(_umath_linalg, name), np.ufunc):
                monkeypatch.setattr(_umath_linalg, name, refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        with pytest.raises(AssertionError):
            np.linalg.solve(np.eye(2), np.ones(2))
        assert main(["check", "all", "--seed", "0"]) == 0
        assert capsys.readouterr().out.endswith("41/41 checks passed (suite=all, seed=0)\n")

    def test_figure1_csv_sha256(self):
        res = run_cli(["figure1", "--format", "csv"])
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout).hexdigest()
        assert digest == "d915e66d036edfdb146ac83f8e637644c3c32ca483406dcc7c5ce54b60874250"

    def test_coherent_grid_csv_sha256(self):
        # figure1 is Fock 1 and the check report prints 7 digits, so neither
        # pin sees a change in the coherent closed form; the metadata carries
        # alpha with 17 digits (state=coherent:1.3,-0.40000000000000002)
        res = run_cli(
            [
                "tomogram", "--gamma", "0.05", "--t", "5", "--state", "coherent:1.3,-0.4",
                "--optical", "--phi-grid", "0:6.2832:64", "--x-grid=-6:6:241",
            ]
        )
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout).hexdigest()
        assert digest == "cef9d0681df95d14839028cf273ae75e4b833baa1c536344406f2055f0f8d100"

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


def _nan_once(fn, nth, when):
    """fn, except that the nth of its calls whose arguments satisfy `when`
    returns nan at one sample: in place of a scalar, or at one array element."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if when(*args) and next(calls) == nth:
            if np.ndim(out) == 0:
                return math.nan
            out = np.array(out)
            out.flat[out.size // 2] = math.nan
        return out

    return wrapped


class TestNaNFails:
    # a NaN at one sample makes its line FAIL with value=nan, and `check`
    # exit 1, in each suite; Python's max(worst, nan) alone would drop it
    @pytest.mark.parametrize(
        "suite, module, name, nth, when, line",
        [
            ("dynamics", "cktomo.checks", "epsilon_residual", 7, lambda *_: True, "ode_residual"),
            # the one check that evaluates tomogram grids over X
            ("tomography", "cktomo.checks", "tomogram", 5, lambda state, frame, *_: np.ndim(frame.x) > 0, "nonnegativity"),
            ("evolution", "cktomo.checks", "relative_residual", 7, lambda *_: True, "evolution_residual_rel"),
            # one w~ of a Fock 2 stencil, read by `invariants.eigen_residual`
            ("invariants", "cktomo.invariants", "characteristic", 4, lambda state, *_: state.n == 2, "eigen_n2"),
        ],
    )
    def test_nan_sample_fails_its_line(self, suite, module, name, nth, when, line, monkeypatch, capsys):
        target = importlib.import_module(module)
        monkeypatch.setattr(target, name, _nan_once(getattr(target, name), nth, when))
        assert main(["check", suite, "--seed", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [text for text in lines if text.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].split()[1] == line, lines
        assert " value=nan " in failed[0]


def _raise_domain_error(rng):
    raise DomainError("quadrature rule of 2100 nodes exceeds the cap 2048")


def _raise_math_domain_error(rng):
    return math.sqrt(-rng.random())


def _raise_overflow(rng):
    return math.exp(1e3 * (1.0 + rng.random()))


class TestRaisingCheck:
    # a check that raises FAILs its own line as value=nan and names the
    # line and the error on stderr; the rest of the report still prints
    @pytest.mark.parametrize(
        "check, error",
        [
            (_raise_domain_error, "DomainError: quadrature rule of 2100 nodes exceeds the cap 2048"),
            (_raise_math_domain_error, "ValueError: math domain error"),
            (_raise_overflow, "OverflowError: math range error"),
        ],
        ids=["DomainError", "ValueError", "ArithmeticError"],
    )
    @pytest.mark.parametrize("index", [3, 8], ids=["scored", "info"])
    def test_raising_check_fails_its_line_alone(self, check, error, index, monkeypatch, capsys):
        suite = "dynamics" if index == 3 else "invariants"
        assert main(["check", suite, "--seed", "0"]) == 0
        expected = capsys.readouterr().out.splitlines()
        rows = list(SUITES[suite])
        name, _, tol, info = rows[index]
        rows[index] = (name, check, tol, info)
        monkeypatch.setitem(SUITES, suite, rows)
        assert main(["check", suite, "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        tol_text = "-" if info else "%.1e" % tol
        expected[index] = f"FAIL {name:<28s} value=nan tol={tol_text}"
        scored = sum(not row[3] for row in rows)
        expected[-1] = f"{scored - (not info)}/{scored} checks passed (suite={suite}, seed=0)"
        assert lines == expected
        assert err.splitlines() == [f"check {name}: {error}"]

    def test_results_of_a_raising_check(self, monkeypatch):
        rows = list(SUITES["dynamics"])
        name, _, tol, _ = rows[0]
        rows[0] = (name, _raise_math_domain_error, tol, False)
        monkeypatch.setitem(SUITES, "dynamics", rows)
        results = run_checks("dynamics", 0)
        assert [r.passed for r in results] == [False] + [True] * 7
        assert math.isnan(results[0].value) and results[0].name == name
