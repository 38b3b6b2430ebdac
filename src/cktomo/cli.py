"""Command-line surface: grid emission for tomograms and Wigner maps, the
reference two-lobe figure, and the seeded verification suites.

    ck-tomo tomogram --gamma 0.05 --t 5 --state fock:1 --optical \
        --phi-grid 0:6.2832:64 --x-grid=-6:6:241
    ck-tomo wigner --gamma 0 --t 0 --state fock:0 --q-grid=-4:4:81 --p-grid=-4:4:81
    ck-tomo figure1 --format csv --output fig1.csv
    ck-tomo check all --seed 42

Each `cmd_*` parses and checks only its own command's options.  A tomogram
takes one frame: --mu with --nu, or --optical with --phi or --phi-grid.
`check` takes a suite and --seed alone: each report line's bound is fixed
in `checks` (`checks.TOLERANCES`, by the printed name).
Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 numeric
domain error, 141 the reader of stdout went away (`ck-tomo figure1 | head
-1`): the command stops there without a traceback, and 141 = 128 + SIGPIPE
is the status a shell shows for a writer that a closed pipe stopped; an
output that cannot be written (no such directory, a full disk) is exit 2.
Every grid holds at most _MAX_GRID_VALUES values and is evaluated (`_fill`)
and written one fixed tile at a time, so memory is set by the values array.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .dynamics import make_params
from .errors import CkTomoError, DomainError, NonFinite, UsageError
from .numerics import _FMT, Axis, ScalarGrid, tiles
from .states import Coherent, Fock, QuantumState, wigner
from .tomography import TomographyFrame, optical_frame, tomogram

__all__ = ["main", "UsageError", "parse_state", "parse_grid"]

_MAX_GRID_VALUES = 1_000_000  # values per grid: peak RSS at the cap is in the README
_BLOCK = 1 << 15  # values per evaluated tile: bounds the broadcast temporaries

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141


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
    if not (2 <= count <= _MAX_GRID_VALUES):  # so linspace never holds more than one grid
        raise UsageError(f"grid counts must lie in [2, {_MAX_GRID_VALUES}], got {count}")
    if not (lo < hi and math.isfinite(hi - lo)):  # false for a nan, an inf or an overflowing span
        raise UsageError(f"grid spec {text!r} must have min < max and a finite max - min")
    return Axis(name, np.linspace(lo, hi, count))


def _axis(name: str, text: str | None) -> Axis | None:
    return None if text is None else parse_grid(name, text)


def _map_rows(fn, row_args, threads: int):
    """fn over row_args, in order.  perfbench's `cli.rows` hook counts the
    blocks (the tiles of `_fill`) and passes `threads`, which is unused."""
    return [fn(arg) for arg in row_args]


def _fill(rows: Axis | None, cols: Axis, kernel, meta: dict[str, str]) -> ScalarGrid:
    """The one grid path: kernel(r[:, None], c[None, :]) over rows x cols, or
    over cols alone with a dummy r = 0.0 when rows is None.  A grid of more
    than _MAX_GRID_VALUES values is refused before anything is allocated; the
    rest is evaluated one tile of at most _BLOCK values at a time, and every
    kernel is elementwise, so the tiles hold the bits of one broadcast."""
    r = np.zeros(1) if rows is None else rows.values
    if len(r) * len(cols) > _MAX_GRID_VALUES:
        raise UsageError(f"grids are capped at {_MAX_GRID_VALUES} values")
    c, values = cols.values, np.empty((len(r), len(cols)))
    blocks = tiles(len(r), len(c), _BLOCK)
    _map_rows(lambda tile: np.copyto(values[tile], kernel(r[tile[0], None], c[None, tile[1]])), blocks, 0)
    if rows is None:
        return ScalarGrid(axis1=cols, values=values[0], meta=meta)
    return ScalarGrid(axis1=rows, axis2=cols, values=values, meta=meta)


def _emit(grid: ScalarGrid, fmt: str, output: str | None) -> None:
    if not np.isfinite(grid.values).all():
        raise NonFinite("grid contains non-finite values; nothing was written")
    if output is None:
        return grid.write(sys.stdout, fmt)
    with open(output, "w", encoding="utf-8") as fh:
        grid.write(fh, fmt)


def _meta(args: argparse.Namespace, state: QuantumState, equation: str) -> dict[str, str]:
    """gamma, t and the state's parameters with 17 digits, as the grid's numbers."""
    alpha = state.alpha
    desc = f"fock:{state.n}" if isinstance(state, Fock) else f"coherent:{_FMT % alpha.real},{_FMT % alpha.imag}"
    return dict(gamma=_FMT % args.gamma, t=_FMT % args.t, state=desc, equation=equation)


# --------------------------------------------------------------------------
# commands


def cmd_tomogram(args: argparse.Namespace) -> ScalarGrid:
    """Evaluate the tomogram of `args` (the parsed `tomogram` options) over
    its X grid, in one frame: --mu/--nu, --optical --phi, or an
    --optical --phi-grid of angles, one row per angle."""
    state = parse_state(args.state)
    if args.phi_grid is not None and not args.optical:
        raise UsageError("--phi-grid requires --optical")
    phi_axis, x_axis = _axis("phi", args.phi_grid), _axis("x", args.x_grid)
    if args.phi is not None and not args.optical:
        raise UsageError("--phi requires --optical")
    if args.phi is not None and phi_axis is not None:
        raise UsageError("--phi and --phi-grid conflict: give one")
    if args.optical and args.phi is None and phi_axis is None:
        raise UsageError("--optical requires --phi or --phi-grid")
    if args.optical and (args.mu is not None or args.nu is not None):
        raise UsageError("--mu/--nu conflict with --optical")
    if not args.optical and (args.mu is None) != (args.nu is None):
        raise UsageError("--mu and --nu must be given together")
    if not args.optical and args.mu is None:
        raise UsageError("choose a frame: --mu/--nu or --optical")
    params = make_params(args.gamma)
    if x_axis is None:
        raise UsageError("tomogram requires --x-grid")
    meta = _meta(args, state, "fock-tomogram" if isinstance(state, Fock) else "coherent-tomogram")
    if phi_axis is not None:  # one row, and one frame, per angle
        meta["frame"], frame = "optical", optical_frame
    elif args.optical:
        meta.update(frame="optical", phi=_FMT % args.phi)
        frame = lambda _: optical_frame(args.phi)
    else:
        meta.update(frame="symplectic", mu=_FMT % args.mu, nu=_FMT % args.nu)
        frame = lambda _: (args.mu, args.nu)
    block = lambda r, x: tomogram(state, TomographyFrame(x, *frame(r)), args.t, params)
    return _fill(phi_axis, x_axis, block, meta)


def cmd_wigner(args: argparse.Namespace) -> ScalarGrid:
    """Evaluate the Wigner function of `args` (the parsed `wigner` options)
    over its (q, p) grid."""
    state = parse_state(args.state)
    q_axis, p_axis = _axis("q", args.q_grid), _axis("p", args.p_grid)
    params = make_params(args.gamma)
    if q_axis is None or p_axis is None:
        raise UsageError("wigner requires --q-grid and --p-grid")
    return _fill(q_axis, p_axis, lambda q, p: wigner(q, p, args.t, state, params), _meta(args, state, "wigner"))


def cmd_figure1() -> ScalarGrid:
    """Reference map: first-excited-state tomogram over the optical frame.

    Fixed parameters t = 5, gamma = 0.05; phi in [0, 2 pi] with 64 points
    (endpoints included so periodicity is directly assertable), X in
    [-6, 6] with 241 points.  The window choice is a reproduction decision
    recorded in the output metadata.
    """
    args = argparse.Namespace(
        gamma=0.05, t=5.0, state="fock:1", optical=True, phi=None, mu=None, nu=None,
        phi_grid=f"0:{2.0 * math.pi!r}:64", x_grid="-6:6:241",
    )
    grid = cmd_tomogram(args)
    grid.meta["window"] = "phi:0:6.2831853071795865:64;x:-6:6:241"
    return grid


def cmd_check(suite: str, seed: int) -> int:
    """Run the named check suite (or all) and print one line per check."""
    from . import checks  # the oracle suites load only for `check`

    results = checks.run_checks(suite, seed)
    n_pass = n_scored = 0
    for res in results:
        if res.info:
            status = "INFO"
            tol_text = "-"
        else:
            n_scored += 1
            n_pass += int(res.passed)
            status = "PASS" if res.passed else "FAIL"
            tol_text = "%.1e" % res.tol
        sys.stdout.write(f"{status} {res.name:<28s} value={res.value:.6e} tol={tol_text}\n")
    sys.stdout.write(f"{n_pass}/{n_scored} checks passed (suite={suite}, seed={seed})\n")
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
    p_chk.add_argument("suite", choices=("all", "dynamics", "tomography", "evolution", "invariants"))
    p_chk.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _run(args)
        # inside the try, so a closed pipe shows here, not in the exit flush
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit cannot fail
        # again and print "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        # from the sink (open, write or flush): no such directory, a full disk
        target = getattr(args, "output", None) or "stdout"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CkTomoError, ArithmeticError) as exc:
        # a residual overflow or floating-point error the library did not type
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _run(args) -> int:
    # each cmd_* is looked up when called, so a wrapper set in its place runs
    if args.command == "check":
        return cmd_check(args.suite, args.seed)
    if args.command == "figure1":
        grid = cmd_figure1()
    elif args.command == "tomogram":
        grid = cmd_tomogram(args)
    else:  # argparse restricts the commands
        grid = cmd_wigner(args)
    _emit(grid, args.fmt, args.output)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
