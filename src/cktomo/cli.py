"""Command-line surface: grid emission for tomograms and Wigner maps, the
reference two-lobe figure, and the seeded verification suites.

    ck-tomo tomogram --gamma 0.05 --t 5 --state fock:1 --optical \
        --phi-grid 0:6.2832:64 --x-grid -6:6:241
    ck-tomo wigner --gamma 0 --t 0 --state fock:0 --q-grid -4:4:81 --p-grid -4:4:81
    ck-tomo figure1 --format csv --output fig1.csv
    ck-tomo check all --seed 42

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 numeric
domain error.  An optical `tomogram` grid is one broadcast over (phi, X) of
at most _MAX_TOMOGRAM_VALUES values.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import checks
from .dynamics import make_params
from .errors import CkTomoError, DomainError, NonFinite
from .numerics import Axis, ScalarGrid
from .states import Coherent, Fock, QuantumState, _wigner_grid
from .tomography import TomographyFrame, optical_frame, tomogram

__all__ = ["main", "UsageError", "parse_state", "parse_grid", "RunConfig"]

_MAX_GRID_POINTS = 100_000
# bounds the broadcast's temporaries: peak RSS at the cap is in the README
_MAX_TOMOGRAM_VALUES = 1_000_000
_MAX_WIGNER_AXIS = 401
_WRITE_SLICE = 1 << 16  # characters

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(CkTomoError):
    """Bad configuration that is the caller's fault, not a numeric failure."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed command configuration for grid-emitting commands."""

    gamma: float
    t: float
    state: QuantumState
    frame_mode: str  # "symplectic" | "optical"
    mu: float | None = None
    nu: float | None = None
    phi: float | None = None
    phi_axis: Axis | None = None
    x_axis: Axis | None = None
    q_axis: Axis | None = None
    p_axis: Axis | None = None
    fmt: str = "csv"
    output: str | None = None


def parse_state(text: str) -> QuantumState:
    """Parse a state descriptor: 'fock:N' or 'coherent:RE,IM'."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "fock":
            return Fock(int(rest))
        if kind == "coherent":
            parts = rest.split(",")
            if len(parts) == 1:
                return Coherent(complex(float(parts[0]), 0.0))
            if len(parts) == 2:
                return Coherent(complex(float(parts[0]), float(parts[1])))
            raise ValueError("expected RE or RE,IM")
    except (ValueError, DomainError) as exc:
        raise UsageError(f"invalid state descriptor {text!r}: {exc}") from exc
    raise UsageError(f"invalid state descriptor {text!r}: unknown kind {kind!r}")


def parse_grid(name: str, text: str) -> Axis:
    """Parse an axis spec 'min:max:count' (inclusive endpoints)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec {text!r} must look like min:max:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid spec {text!r}: {exc}") from exc
    if not (2 <= count <= _MAX_GRID_POINTS):
        raise UsageError(f"grid counts must lie in [2, {_MAX_GRID_POINTS}], got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"grid spec {text!r} must have min < max")
    return Axis(name, np.linspace(lo, hi, count))


def _parse_tol(items) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--tol expects name=value, got {item!r}")
        if name not in checks.TOLERANCES:
            raise UsageError(f"unknown tolerance name {name!r}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise UsageError(f"--tol {item!r}: {exc}") from exc
    return overrides


def _map_rows(fn, row_args, threads: int):
    """fn over row_args, in order.  perfbench's `cli.rows` hook counts the
    blocks (one per optical grid) and passes `threads`, which is unused."""
    return [fn(arg) for arg in row_args]


def _emit(grid: ScalarGrid, fmt: str, output: str | None) -> None:
    if not np.all(np.isfinite(grid.values)):
        raise NonFinite("grid contains non-finite values; nothing was written")
    text = grid.to_csv() if fmt == "csv" else grid.to_json()
    sink = (
        contextlib.nullcontext(sys.stdout) if output is None else open(output, "w", encoding="utf-8")
    )
    with sink as fh:
        # one slice at a time, so encoding never holds a second copy of the text
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start : start + _WRITE_SLICE])


def _state_descriptor(state: QuantumState) -> str:
    if isinstance(state, Fock):
        return f"fock:{state.n}"
    return f"coherent:{state.alpha.real:g},{state.alpha.imag:g}"


# --------------------------------------------------------------------------
# commands


def cmd_tomogram(config: RunConfig) -> ScalarGrid:
    """Evaluate the selected tomogram over the requested grid."""
    params = make_params(config.gamma)
    if config.x_axis is None:
        raise UsageError("tomogram requires --x-grid")
    xs = config.x_axis.values
    meta = {
        "gamma": "%.17g" % config.gamma,
        "t": "%.17g" % config.t,
        "state": _state_descriptor(config.state),
        "equation": "fock-tomogram" if isinstance(config.state, Fock) else "coherent-tomogram",
    }
    if config.frame_mode == "optical" and config.phi_axis is not None:
        meta["frame"] = "optical"
        if len(config.phi_axis) * len(xs) > _MAX_TOMOGRAM_VALUES:
            raise UsageError(f"tomogram grids are capped at {_MAX_TOMOGRAM_VALUES} values")

        def grid(phis: np.ndarray) -> np.ndarray:
            mu, nu = optical_frame(phis)
            frame = TomographyFrame(xs[None, :], mu[:, None], nu[:, None])
            return tomogram(config.state, frame, config.t, params)

        (values,) = _map_rows(grid, [config.phi_axis.values], 0)
        return ScalarGrid(axis1=config.phi_axis, axis2=config.x_axis, values=values, meta=meta)
    if config.frame_mode == "optical":
        mu, nu = optical_frame(config.phi)
        meta["frame"] = "optical"
        meta["phi"] = "%.17g" % config.phi
    else:
        mu, nu = config.mu, config.nu
        meta["frame"] = "symplectic"
        meta["mu"] = "%.17g" % mu
        meta["nu"] = "%.17g" % nu
    frame = TomographyFrame(xs, mu, nu)
    values = np.asarray(tomogram(config.state, frame, config.t, params))
    return ScalarGrid(axis1=config.x_axis, values=values, meta=meta)


def cmd_wigner(config: RunConfig) -> ScalarGrid:
    """Evaluate the Wigner function over the requested (q, p) grid."""
    params = make_params(config.gamma)
    if config.q_axis is None or config.p_axis is None:
        raise UsageError("wigner requires --q-grid and --p-grid")
    if len(config.q_axis) > _MAX_WIGNER_AXIS or len(config.p_axis) > _MAX_WIGNER_AXIS:
        raise UsageError(f"wigner grids are capped at {_MAX_WIGNER_AXIS} points per axis")
    values = _wigner_grid(
        config.state, config.q_axis.values, config.p_axis.values, config.t, params
    )
    meta = {
        "gamma": "%.17g" % config.gamma,
        "t": "%.17g" % config.t,
        "state": _state_descriptor(config.state),
        "equation": "wigner",
    }
    return ScalarGrid(axis1=config.q_axis, axis2=config.p_axis, values=values, meta=meta)


def cmd_figure1(fmt: str = "csv", output: str | None = None) -> ScalarGrid:
    """Reference map: first-excited-state tomogram over the optical frame.

    Fixed parameters t = 5, gamma = 0.05; phi in [0, 2 pi] with 64 points
    (endpoints included so periodicity is directly assertable), X in
    [-6, 6] with 241 points.  The window choice is a reproduction decision
    recorded in the output metadata.
    """
    config = RunConfig(
        gamma=0.05,
        t=5.0,
        state=Fock(1),
        frame_mode="optical",
        phi_axis=Axis("phi", np.linspace(0.0, 2.0 * math.pi, 64)),
        x_axis=Axis("x", np.linspace(-6.0, 6.0, 241)),
        fmt=fmt,
        output=output,
    )
    grid = cmd_tomogram(config)
    grid.meta["window"] = "phi:0:6.2831853071795865:64;x:-6:6:241"
    return grid


def cmd_check(suite: str, seed: int, tol_overrides: dict[str, float], stream=None) -> int:
    """Run the named check suites and print one line per check."""
    stream = stream or sys.stdout
    results = checks.run_checks(suite, seed, tol_overrides)
    n_pass = 0
    n_scored = 0
    for res in results:
        if res.info:
            status = "INFO"
            tol_text = "-"
        else:
            n_scored += 1
            n_pass += int(res.passed)
            status = "PASS" if res.passed else "FAIL"
            tol_text = "%.1e" % res.tol
        stream.write(f"{status} {res.name:<28s} value={res.value:.6e} tol={tol_text}\n")
    stream.write(f"{n_pass}/{n_scored} checks passed (suite={suite}, seed={seed})\n")
    return EXIT_OK if n_pass == n_scored else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ck-tomo",
        description="Quadrature tomograms and Wigner maps of the damped oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--gamma", type=float, default=0.0, help="friction coefficient")
        p.add_argument("--t", type=float, default=0.0, help="evolution time")
        p.add_argument("--state", type=str, default="fock:0", help="fock:N or coherent:RE,IM")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--output", type=str, default=None, help="output path (default stdout)")

    p_tom = sub.add_parser("tomogram", help="emit a tomogram grid")
    add_common(p_tom)
    p_tom.add_argument("--mu", type=float, default=None)
    p_tom.add_argument("--nu", type=float, default=None)
    p_tom.add_argument("--optical", action="store_true", help="use the homodyne frame")
    p_tom.add_argument("--phi", type=float, default=None, help="optical frame angle")
    p_tom.add_argument("--phi-grid", type=str, default=None, help="min:max:count")
    p_tom.add_argument("--x-grid", type=str, default=None, help="min:max:count")

    p_wig = sub.add_parser("wigner", help="emit a Wigner-function grid")
    add_common(p_wig)
    p_wig.add_argument("--q-grid", type=str, default=None, help="min:max:count")
    p_wig.add_argument("--p-grid", type=str, default=None, help="min:max:count")

    p_fig = sub.add_parser("figure1", help="emit the reference two-lobe tomogram map")
    p_fig.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_fig.add_argument("--output", type=str, default=None)

    p_chk = sub.add_parser("check", help="run verification suites")
    p_chk.add_argument(
        "suite",
        choices=("all", "dynamics", "tomography", "evolution", "invariants"),
    )
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--tol", action="append", default=[], help="name=value override")
    return parser


def _config_from_args(args) -> RunConfig:
    state = parse_state(args.state)
    frame_mode = "optical" if getattr(args, "optical", False) else "symplectic"
    phi_axis = x_axis = q_axis = p_axis = None
    if getattr(args, "phi_grid", None) is not None:
        if not args.optical:
            raise UsageError("--phi-grid requires --optical")
        phi_axis = parse_grid("phi", args.phi_grid)
    if getattr(args, "x_grid", None) is not None:
        x_axis = parse_grid("x", args.x_grid)
    if getattr(args, "q_grid", None) is not None:
        q_axis = parse_grid("q", args.q_grid)
    if getattr(args, "p_grid", None) is not None:
        p_axis = parse_grid("p", args.p_grid)
    mu = getattr(args, "mu", None)
    nu = getattr(args, "nu", None)
    phi = getattr(args, "phi", None)
    if frame_mode == "optical":
        if phi is None and phi_axis is None:
            raise UsageError("--optical requires --phi or --phi-grid")
        if mu is not None or nu is not None:
            raise UsageError("--mu/--nu conflict with --optical")
    elif hasattr(args, "mu") and (mu is not None or nu is not None):
        if mu is None or nu is None:
            raise UsageError("--mu and --nu must be given together")
    elif hasattr(args, "mu"):
        raise UsageError("choose a frame: --mu/--nu or --optical")
    return RunConfig(
        gamma=args.gamma,
        t=args.t,
        state=state,
        frame_mode=frame_mode,
        mu=mu,
        nu=nu,
        phi=phi,
        phi_axis=phi_axis,
        x_axis=x_axis,
        q_axis=q_axis,
        p_axis=p_axis,
        fmt=args.fmt,
        output=args.output,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.suite, args.seed, _parse_tol(args.tol))
        if args.command == "figure1":
            grid = cmd_figure1(fmt=args.fmt, output=args.output)
            _emit(grid, args.fmt, args.output)
            return EXIT_OK
        config = _config_from_args(args)
        if args.command == "tomogram":
            grid = cmd_tomogram(config)
        elif args.command == "wigner":
            grid = cmd_wigner(config)
        else:  # pragma: no cover - argparse restricts the choices
            raise UsageError(f"unknown command {args.command!r}")
        _emit(grid, config.fmt, config.output)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CkTomoError, ArithmeticError) as exc:
        # a residual overflow or floating-point error the library did not type
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
