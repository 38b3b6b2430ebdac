"""Independent checks of ck-tomo outputs.

Nothing here imports cktomo.  Grids are parsed with the standard library's
`csv` and `json`, and reference values come from the mode function alone,

    eps(t) = exp(-gamma t) exp(i Omega t) / sqrt(Omega),  eps' = (i Omega - gamma) eps,

through the ground-like phase-space covariance

    C_qq = |eps|^2 / 2,  C_qp = e^{2 gamma t} Re(eps* eps') / 2,  C_pp = e^{4 gamma t} |eps'|^2 / 2.

The tomogram at frame (mu, nu) is a Gaussian in X with s^2 = 2 (mu, nu) C (mu, nu)^T
centred on mu q0 + nu p0 (the coherent mean, zero for Fock states), times
H_n(X/s)^2 / (2^n n!) for Fock n.  The Wigner function is
2 (-1)^n L_n(r) exp(-r/2) with r = z^T C^-1 z, z = (q - q0, p - p0).
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import re

import numpy as np
from scipy import special

# Relative to max(1, max |reference|).  The program agrees with these closed
# forms to ~1e-14 (tomogram: rounding only) and ~3e-14 (Wigner: one
# quadrature); the bounds leave room for reordered arithmetic and, for the
# Wigner grid, the library's own 1e-9 single-quadrature tier.
TOMOGRAM_TOL = 1e-11
WIGNER_TOL = 1e-9
MASS_TOL = 1e-6
# mass is checked only where the X window holds centre +- 8 sigma (widened
# by sqrt(2n+1) for Fock n) and the step resolves sigma
MASS_SIGMAS = 8.0
MASS_MAX_STEP_PER_SIGMA = 0.4
# `ck-tomo check all` prints 41 scored checks and 2 INFO lines
CHECK_SCORED = 41
CHECK_INFO = 2

_SQRT2 = math.sqrt(2.0)


class OracleError(Exception):
    """An output disagrees with its independent reference."""


def _float(text, what: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise OracleError(f"{what} is not a number: {text!r}") from exc


# --------------------------------------------------------------------------
# closed forms


def parse_state(text: str) -> tuple[int, complex]:
    """'fock:N' -> (N, 0); 'coherent:RE,IM' -> (0, alpha)."""
    kind, _, rest = text.partition(":")
    if kind == "fock":
        return int(rest), 0j
    re_part, _, im_part = rest.partition(",")
    return 0, complex(float(re_part), float(im_part or 0.0))


def mode(gamma: float, t: float) -> tuple[complex, complex]:
    omega = math.sqrt(1.0 - gamma * gamma)
    eps = math.exp(-gamma * t) * cmath.exp(1j * omega * t) / math.sqrt(omega)
    return eps, complex(-gamma, omega) * eps


def covariance(gamma: float, t: float) -> np.ndarray:
    eps, eps_dot = mode(gamma, t)
    e2 = math.exp(2.0 * gamma * t)
    c_qq = abs(eps) ** 2 / 2.0
    c_qp = e2 * (eps.conjugate() * eps_dot).real / 2.0
    c_pp = e2 * e2 * abs(eps_dot) ** 2 / 2.0
    return np.array([[c_qq, c_qp], [c_qp, c_pp]])


def mean(alpha: complex, gamma: float, t: float) -> np.ndarray:
    eps, eps_dot = mode(gamma, t)
    e2 = math.exp(2.0 * gamma * t)
    return np.array(
        [
            _SQRT2 * (alpha * eps.conjugate()).real,
            _SQRT2 * e2 * (alpha * eps_dot.conjugate()).real,
        ]
    )


def tomogram_scale(state: str, gamma, t, mu, nu):
    """(centre, s) of the tomogram Gaussian for frame arrays mu, nu."""
    n, alpha = parse_state(state)
    cov = covariance(gamma, t)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    s2 = 2.0 * (cov[0, 0] * mu * mu + 2.0 * cov[0, 1] * mu * nu + cov[1, 1] * nu * nu)
    q0, p0 = mean(alpha, gamma, t)
    return mu * q0 + nu * p0, np.sqrt(s2)


def tomogram(state: str, gamma, t, mu, nu, x):
    """Reference tomogram w(X, mu, nu, t), broadcast over mu, nu, x."""
    n, _ = parse_state(state)
    centre, s = tomogram_scale(state, gamma, t, mu, nu)
    y = (np.asarray(x, dtype=float) - centre) / s
    w = np.exp(-y * y) / (math.sqrt(math.pi) * s)
    if n:
        w = w * special.eval_hermite(n, y) ** 2 / (2.0**n * math.factorial(n))
    return w


def wigner(state: str, gamma, t, q, p):
    """Reference Wigner function, normalized to 2 pi over phase space."""
    n, alpha = parse_state(state)
    inv = np.linalg.inv(covariance(gamma, t))
    q0, p0 = mean(alpha, gamma, t)
    zq = np.asarray(q, dtype=float) - q0
    zp = np.asarray(p, dtype=float) - p0
    r = inv[0, 0] * zq * zq + 2.0 * inv[0, 1] * zq * zp + inv[1, 1] * zp * zp
    return 2.0 * (-1.0) ** n * special.eval_laguerre(n, r) * np.exp(-0.5 * r)


# --------------------------------------------------------------------------
# grid parsing (standard library only)


def parse_grid(text: str, fmt: str):
    """Return (meta, [(axis name, values)...], values array) from ck-tomo output."""
    try:
        return _parse_grid(text, fmt)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        raise OracleError(f"unreadable {fmt} grid: {exc!r}") from exc


def _parse_grid(text: str, fmt: str):
    if fmt == "json":
        payload = json.loads(text)
        axes = [(payload["axis1"]["name"], np.array(payload["axis1"]["values"], dtype=float))]
        if payload["axis2"] is not None:
            axes.append(
                (payload["axis2"]["name"], np.array(payload["axis2"]["values"], dtype=float))
            )
        shape = tuple(len(v) for _, v in axes)
        values = np.array(payload["values"], dtype=float)
        if values.size != math.prod(shape):
            raise OracleError(f"json holds {values.size} values for axes {shape}")
        return dict(payload["meta"]), axes, values.reshape(shape)
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    reader = csv.reader(body)
    header = next(reader)
    rows = np.array([[float(cell) for cell in row] for row in reader], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise OracleError(f"csv rows do not match header {header}")
    if len(header) == 2:
        return meta, [(header[0], rows[:, 0])], rows[:, 1]
    # long form, axis1 outer: the first axis2 run gives the inner length
    first = rows[:, 0]
    n2 = int(np.argmax(first != first[0])) if np.any(first != first[0]) else len(first)
    if n2 == 0 or len(rows) % n2:
        raise OracleError("csv rows do not form a rectangular grid")
    grid = rows.reshape(-1, n2, 3)
    ax1 = grid[:, 0, 0]
    ax2 = grid[0, :, 1]
    if not (np.all(grid[:, :, 0] == ax1[:, None]) and np.all(grid[:, :, 1] == ax2[None, :])):
        raise OracleError("csv axis columns are not a row-major product grid")
    return meta, [(header[0], ax1), (header[1], ax2)], grid[:, :, 2]


# --------------------------------------------------------------------------
# per-request verification


def _expect_axes(axes, specs) -> None:
    """Each parsed axis must be the requested (name, lo, hi, count)."""
    if len(axes) != len(specs):
        raise OracleError(f"grid has {len(axes)} axes, expected {len(specs)}")
    for (name, values), (want_name, lo, hi, count) in zip(axes, specs):
        if name != want_name or len(values) != count:
            raise OracleError(f"axis {name!r} has {len(values)} points, expected {want_name!r} x {count}")
        ref = lo + (hi - lo) * np.arange(count) / (count - 1)
        if np.max(np.abs(values - ref)) > 1e-12 * max(abs(lo), abs(hi), 1.0):
            raise OracleError(f"axis {name!r} is not the requested {lo}:{hi}:{count}")


def _compare(label: str, got: np.ndarray, ref: np.ndarray, tol: float) -> None:
    if not np.all(np.isfinite(got)):
        raise OracleError(f"{label}: non-finite values")
    err = float(np.max(np.abs(got - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if err > tol * scale:
        raise OracleError(f"{label}: max |value - reference| = {err:.3e} > {tol:.0e} x {scale:.3g}")


def check_tomogram(request, text: str) -> int:
    """Verify a tomogram or figure1 grid; return the number of values."""
    meta, axes, values = parse_grid(text, request.fmt)
    p = request.params
    for key in ("gamma", "t"):
        if _float(meta.get(key), f"meta {key}") != p[key]:
            raise OracleError(f"meta {key}={meta.get(key)!r}, expected {p[key]!r}")
    _expect_axes(axes, request.axes)
    xs = axes[-1][1]
    if len(axes) == 2:
        phis = axes[0][1][:, None]
        mu, nu = np.cos(phis), -np.sin(phis)
    else:
        mu, nu = np.full((1, 1), p["mu"]), np.full((1, 1), p["nu"])
    ref = tomogram(p["state"], p["gamma"], p["t"], mu, nu, xs[None, :])
    got = values.reshape(ref.shape)
    _compare("tomogram", got, ref, TOMOGRAM_TOL)
    if np.any(got < 0.0):
        raise OracleError(f"tomogram has negative values (min {float(np.min(got)):.3e})")
    _check_mass(p, mu[:, 0], nu[:, 0], xs, got)
    return int(got.size)


def _check_mass(p, mu, nu, xs, rows) -> None:
    n, _ = parse_state(p["state"])
    centre, s = tomogram_scale(p["state"], p["gamma"], p["t"], mu, nu)
    sigma = s / _SQRT2
    reach = MASS_SIGMAS * sigma * math.sqrt(2 * n + 1)
    step = xs[1] - xs[0]
    covered = (
        (xs[0] <= centre - reach) & (xs[-1] >= centre + reach) & (step <= MASS_MAX_STEP_PER_SIGMA * sigma)
    )
    for row, ok in zip(rows, covered):
        if ok:
            mass = step * (float(np.sum(row)) - 0.5 * (row[0] + row[-1]))
            if abs(mass - 1.0) > MASS_TOL:
                raise OracleError(f"tomogram row mass {mass!r} is not 1")


def check_wigner(request, text: str) -> int:
    """Verify a Wigner grid; return the number of values."""
    meta, axes, values = parse_grid(text, request.fmt)
    p = request.params
    if meta.get("equation") != "wigner" or _float(meta.get("t"), "meta t") != p["t"]:
        raise OracleError(f"unexpected wigner metadata {meta}")
    _expect_axes(axes, request.axes)
    ref = wigner(p["state"], p["gamma"], p["t"], axes[0][1][:, None], axes[1][1][None, :])
    _compare("wigner", values, ref, WIGNER_TOL)
    return int(values.size)


_LINE = re.compile(r"^(PASS|FAIL|INFO) (\S+) +value=(\S+) tol=(\S+)$")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed \(suite=all, seed=(-?\d+)\)$")


def check_report(request, text: str, exit_code: int) -> tuple[int, bool]:
    """Verify a `check all` report; return (scored checks, any FAIL)."""
    lines = text.splitlines()
    if not lines or not text.endswith("\n"):
        raise OracleError("empty or unterminated check report")
    summary = _SUMMARY.match(lines[-1])
    if summary is None or int(summary.group(3)) != request.params["seed"]:
        raise OracleError(f"bad summary line {lines[-1]!r}")
    statuses = []
    for line in lines[:-1]:
        m = _LINE.match(line)
        if m is None:
            raise OracleError(f"unparsable report line {line!r}")
        status, name, value, tol = m.groups()
        statuses.append(status)
        if status == "INFO":
            if tol != "-":
                raise OracleError(f"INFO line carries a tolerance: {line!r}")
            continue
        v, t = _float(value, name), _float(tol, name)
        # printed to 7 and 2 digits: a value printing equal to its tolerance
        # may legitimately carry either status
        if v != t and (status == "PASS") != (v <= t):
            raise OracleError(f"status disagrees with value <= tol: {line!r}")
    n_fail = statuses.count("FAIL")
    n_scored = statuses.count("PASS") + n_fail
    if n_scored != CHECK_SCORED or statuses.count("INFO") != CHECK_INFO:
        raise OracleError(f"report holds {n_scored} scored / {statuses.count('INFO')} INFO lines")
    if (int(summary.group(1)), int(summary.group(2))) != (n_scored - n_fail, n_scored):
        raise OracleError(f"summary {lines[-1]!r} disagrees with the lines")
    if exit_code != (1 if n_fail else 0):
        raise OracleError(f"exit code {exit_code} with {n_fail} FAIL lines")
    return n_scored, n_fail > 0
