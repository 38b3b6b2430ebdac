"""Request lists of the benchmark's workloads.

Every workload is a fixed list of slots.  A slot fixes what sets a
request's cost (command, grid size, state family, output format); the
benchmark seed draws the physics inside it (gamma, t, Fock n within the
slot's Hermite path, alpha, frame, windows).  Each run repeats the whole
list, so every run does the same mix of requests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from oracles import MASS_SIGMAS, covariance, mean, mode, parse_state

# `numerics.Axis` rejects np.linspace grids whose spacing varies by more
# than 1e-12 of the step, which long or off-centre grids do by rounding
# alone (see CHANGES.md).  Grids here keep this factor inside that test.
_AXIS_NOISE_MARGIN = 2.0


@dataclass(frozen=True)
class Request:
    """One ck-tomo invocation and what its output must contain."""

    kind: str  # "tomogram" | "figure1" | "wigner" | "check"
    argv: tuple[str, ...]
    fmt: str = "csv"  # output format; "report" for check
    # per-axis (name, lo, hi, count) of the emitted grid
    axes: tuple[tuple[str, float, float, int], ...] = ()
    params: dict = field(default_factory=dict)

    def command(self, output: str | None) -> list[str]:
        if output is None:
            return list(self.argv)
        return [*self.argv, "--output", output]


def _num(x: float) -> str:
    return repr(float(x))


def _grid(name: str, lo: float, hi: float, count: int) -> tuple[str, float, float, int]:
    lo, hi = round(lo, 3), round(hi, 3)
    d = np.diff(np.linspace(lo, hi, count))
    if _AXIS_NOISE_MARGIN * np.max(np.abs(d - d[0])) > 1e-12 * d[0]:
        raise ValueError(f"grid {lo}:{hi}:{count} is too close to the axis uniformity test")
    return name, lo, hi, count


def _spec(axis: tuple[str, float, float, int]) -> str:
    _, lo, hi, count = axis
    return f"{_num(lo)}:{_num(hi)}:{count}"


def _state(rng: random.Random, family: str) -> str:
    if family == "fock_low":  # plain Hermite recurrence
        return f"fock:{rng.randint(0, 9)}"
    if family == "fock_high":  # rescaled Gaussian-weighted recurrence
        return f"fock:{rng.randint(10, 16)}"
    radius = rng.uniform(0.5, 3.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return f"coherent:{radius * math.cos(angle):.4f},{radius * math.sin(angle):.4f}"


def _reach(state: str, gamma: float, t: float, mu, nu) -> float:
    """Largest |centre| + 8 sigma sqrt(2n+1) of the tomogram over the frames."""
    n, alpha = parse_state(state)
    cov = covariance(gamma, t)
    q0, p0 = mean(alpha, gamma, t)
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    sigma = np.sqrt(cov[0, 0] * mu * mu + 2.0 * cov[0, 1] * mu * nu + cov[1, 1] * nu * nu)
    return float(np.max(np.abs(mu * q0 + nu * p0) + MASS_SIGMAS * sigma * math.sqrt(2 * n + 1)))


# tomogram_cli slots: (frame, family, format, phi count, X count).  Two short
# X scans, then eleven grids of one cost: CSV grids of figure1's size
# (about 15.4k values) and JSON grids of about 28k values, which cost the
# same to write.  The median request lands inside that cluster; a median
# taken where request costs are sparse jumps between neighbours from run
# to run.
_TOMOGRAM_SLOTS = (
    ("symplectic", "fock_low", "csv", 0, 2001),
    ("symplectic", "coherent", "json", 0, 1601),
    ("optical", "fock_high", "csv", 64, 241),
    ("optical", "coherent", "json", 96, 291),
    ("optical", "fock_low", "csv", 48, 321),
    ("optical", "fock_high", "json", 112, 251),
    ("optical", "coherent", "csv", 96, 161),
    ("optical", "fock_low", "json", 80, 351),
    ("optical", "fock_high", "csv", 32, 481),
    ("optical", "coherent", "json", 64, 441),
    ("optical", "fock_low", "csv", 72, 213),
    ("optical", "fock_high", "json", 128, 219),
    ("optical", "coherent", "csv", 80, 193),
)


def tomogram_requests(rng: random.Random) -> list[Request]:
    figure1 = Request(
        kind="figure1",
        argv=("figure1", "--format", "csv"),
        axes=(("phi", 0.0, 2.0 * math.pi, 64), ("x", -6.0, 6.0, 241)),
        params={"state": "fock:1", "gamma": 0.05, "t": 5.0},
    )
    out = [figure1]
    for frame, family, fmt, n_phi, n_x in _TOMOGRAM_SLOTS:
        gamma = round(rng.uniform(0.0, 0.3), 4)
        t = round(rng.uniform(0.0, 5.0), 4)
        state = _state(rng, family)
        params = {"state": state, "gamma": gamma, "t": t}
        argv = ["tomogram", "--gamma", _num(gamma), "--t", _num(t), "--state", state]
        if frame == "optical":
            phi = ("phi", 0.0, round(rng.uniform(3.2, 6.3), 3), n_phi)
            phis = np.linspace(phi[1], phi[2], 256)
            half = 1.1 * _reach(state, gamma, t, np.cos(phis), -np.sin(phis))
            x = _grid("x", -half, half, n_x)
            argv += ["--optical", f"--phi-grid={_spec(phi)}", f"--x-grid={_spec(x)}"]
            axes = (phi, x)
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            size = rng.uniform(0.5, 1.5)
            mu, nu = round(size * math.cos(angle), 4), round(size * math.sin(angle), 4)
            half = 1.2 * _reach(state, gamma, t, mu, nu)
            x = _grid("x", -half, half, n_x)
            argv += ["--mu", _num(mu), "--nu", _num(nu), f"--x-grid={_spec(x)}"]
            params.update(mu=mu, nu=nu)
            axes = (x,)
        argv += ["--format", fmt]
        out.append(Request("tomogram", tuple(argv), fmt, axes, params))
    return out


# wigner_cli slots: (grid points per axis, Fock n or coherent |alpha|).  The
# Fock order and |alpha| are fixed per slot because they set the u-rule
# size and the Hermite loop length; the seed draws gamma, t and the phase
# of alpha.  Two cheap and two dear grids bracket five of one cost, inside
# which the median request lands.
_WIGNER_SLOTS = (
    (61, "fock", 6),
    (101, "fock", 1),
    (141, "coherent", 1.5),
    (141, "coherent", 1.5),
    (141, "coherent", 1.5),
    (141, "coherent", 1.5),
    (141, "coherent", 1.5),
    (181, "fock", 2),
    (201, "coherent", 2.0),
)


def wigner_requests(rng: random.Random) -> list[Request]:
    out = []
    for i, (points, family, size) in enumerate(_WIGNER_SLOTS):
        # gamma t <= 0.3 keeps the u-rule near its frictionless size
        gamma = round(rng.uniform(0.0, 0.1), 4)
        t = round(rng.uniform(0.0, 3.0), 4)
        if family == "fock":
            state = f"fock:{size}"
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            state = f"coherent:{size * math.cos(angle):.4f},{size * math.sin(angle):.4f}"
        n, alpha = parse_state(state)
        cov = covariance(gamma, t)
        eps, eps_dot = mode(gamma, t)
        # windows cover 4 sigma sqrt(2n+1) around any mean of this |alpha|,
        # so their size (and the u-rule) does not depend on its phase
        spread = 4.0 * math.sqrt(2 * n + 1)
        reach = math.sqrt(2.0) * abs(alpha)
        q_half = spread * math.sqrt(cov[0, 0]) + reach * abs(eps)
        p_half = spread * math.sqrt(cov[1, 1]) + reach * math.exp(2.0 * gamma * t) * abs(eps_dot)
        q = _grid("q", -q_half, q_half, points)
        p = _grid("p", -p_half, p_half, points)
        fmt = "json" if i % 2 else "csv"
        argv = (
            "wigner", "--gamma", _num(gamma), "--t", _num(t), "--state", state,
            f"--q-grid={_spec(q)}", f"--p-grid={_spec(p)}", "--format", fmt,
        )
        out.append(Request("wigner", argv, fmt, (q, p), {"state": state, "gamma": gamma, "t": t}))
    return out


# `check all` seeds are fixed: which of them FAIL is a property of the
# program (see README), and the failed share of a run must not depend on
# the benchmark seed.  The benchmark seed only orders them.
CHECK_SEEDS = (0, 1, 2, 3, 4)


def check_requests(rng: random.Random) -> list[Request]:
    seeds = list(CHECK_SEEDS)
    rng.shuffle(seeds)
    return [
        Request("check", ("check", "all", "--seed", str(s)), "report", (), {"seed": s})
        for s in seeds
    ]


WORKLOADS = {
    "tomogram_cli": tomogram_requests,
    "wigner_cli": wigner_requests,
    "check_cli": check_requests,
}


def requests(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
