"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing a single PASS/FAIL line (run with -s to see them).

Criteria:
  1  mode-function dynamics (closed form, Wronskian, RK4 oracle)
  2  tomogram normalization across all families
  3  Radon-oracle equivalence (the keystone: the psi-quadrature W against
     the closed-form W, then the closed-form tomograms against line
     integrals of that W, certify wave functions, Wigner functions,
     tomograms, and frame coefficients jointly)
  4  evolution-equation residual and its convergence order
  5  number-invariant eigenvalues for n = 0, 1, 2, both variants
  6  reference two-lobe figure reproduction
  7  structural identities (homogeneity, frictionless reduction, parity)
  8  byte-level determinism of reports and grids
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cktomo import (
    Coherent,
    DualPoint,
    Fock,
    TomographyFrame,
    coherent_tomogram,
    eigen_residual,
    epsilon,
    epsilon_residual,
    fock_tomogram,
    frame_scale_sq,
    ground_tomogram,
    make_params,
    normalization,
    radon_tomogram,
    tomogram,
    wigner,
    wigner_moments,
)
from cktomo.checks import _evolution_config, _wigner_quadrature, rk4_epsilon
from cktomo.cli import cmd_figure1
from cktomo.evolution import convergence_study, relative_residual


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT[{num}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_epsilon_dynamics():
    rng = np.random.default_rng(1001)
    worst_res, worst_wr = 0.0, 0.0
    for _ in range(200):
        t = rng.uniform(0.0, 20.0)
        g = rng.uniform(0.0, 0.9)
        p = make_params(g)
        worst_res = max(worst_res, epsilon_residual(t, p))
        es = epsilon(t, p)
        wr = math.exp(2.0 * g * t) * (es.eps.conjugate() * es.eps_dot).imag
        worst_wr = max(worst_wr, abs(wr - 1.0))
    worst_ode = 0.0
    for g, t_end in ((0.0, 10.0), (0.05, 10.0), (0.5, 10.0)):
        numeric = rk4_epsilon(g, t_end)
        worst_ode = max(worst_ode, abs(epsilon(t_end, make_params(g)).eps - numeric))
    ok = worst_res < 1e-10 and worst_wr < 1e-10 and worst_ode < 1e-7
    _report(
        1,
        "epsilon dynamics",
        ok,
        f"ode_res={worst_res:.2e} wronskian={worst_wr:.2e} vs_rk4={worst_ode:.2e}",
    )


def test_criterion_2_normalization():
    rng = np.random.default_rng(1002)
    worst = 0.0
    families = [
        lambda: Fock(int(rng.integers(0, 4))),
        lambda: Coherent(complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))),
        lambda: Fock(0),
    ]
    for i in range(30):
        g = float(rng.choice([0.0, 0.05, 0.3, 0.6]))
        t = rng.uniform(0.0, 6.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        scale = rng.uniform(0.4, 1.6)
        mu, nu = scale * math.cos(angle), -scale * math.sin(angle)
        state = families[i % 3]()
        worst = max(worst, abs(normalization(state, mu, nu, t, make_params(g)) - 1.0))
    _report(2, "normalization", worst < 1e-9, f"max |int w dX - 1| = {worst:.2e}")


def test_criterion_3_radon_oracle_equivalence():
    rng = np.random.default_rng(1003)
    gammas = [0.0, 0.05, 0.3]
    times = [0.0, 2.0, 5.0]
    worst = 0.0

    def draw_point(state, g, t):
        p = make_params(g)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        scale = rng.uniform(0.5, 1.5)
        mu, nu = scale * math.cos(angle), -scale * math.sin(angle)
        s2 = frame_scale_sq(mu, nu, t, p)
        x = rng.uniform(-2.5, 2.5) * math.sqrt(s2 / 2.0)
        frame = TomographyFrame(x, mu, nu)
        return abs(tomogram(state, frame, t, p) - radon_tomogram(state, frame, t, p))

    for i in range(30):  # ground-like family
        worst = max(worst, draw_point(Fock(0), gammas[i % 3], times[(i // 3) % 3]))
    for i in range(30):  # Fock family, n in {0, 1, 2}
        worst = max(
            worst, draw_point(Fock(i % 3), gammas[i % 3], times[(i // 3) % 3])
        )
    alphas = [0.0, 1.0 + 0.5j, 2.0 - 1.0j]
    for i in range(30):  # coherent family
        worst = max(
            worst,
            draw_point(Coherent(alphas[i % 3]), gammas[i % 3], times[(i // 3) % 3]),
        )
    # the W those line integrals take is the closed form; it is tied to
    # the wave functions by the psi-quadrature W, on 5 x 5 points within
    # 2 sigma of each state's mean
    worst_w = 0.0
    for i in range(18):
        state = Fock(i % 3) if i < 9 else Coherent(alphas[i % 3] + 5.0j * (i >= 15))
        t, p = times[(i // 3) % 3], make_params(gammas[i % 3])
        mean, cov = wigner_moments(state, t, p)
        unit = np.linspace(-2.0, 2.0, 5)
        qs = mean[0] + math.sqrt(cov[0, 0]) * unit[:, None]
        ps = mean[1] + math.sqrt(cov[1, 1]) * unit[None, :]
        oracle = _wigner_quadrature(qs, ps, t, state, p)
        worst_w = max(worst_w, float(np.max(np.abs(oracle - wigner(qs, ps, t, state, p)))))
    _report(
        3,
        "radon oracle equivalence",
        worst < 1e-5 and worst_w < 1e-8,
        f"max diff = {worst:.2e}, psi-quadrature W vs closed form = {worst_w:.2e}",
    )


def test_criterion_4_evolution_equation():
    rng = np.random.default_rng(1004)
    h = 1e-3
    worst = 0.0
    for _ in range(50):
        state, x, mu, nu, t, p = _evolution_config(rng, [0.0, 0.05, 0.3, 0.7], h)
        worst = max(worst, relative_residual(state, x, mu, nu, t, h, p))
    worst_order = 0.0
    ladder = (1e-2, 5e-3, 2.5e-3)
    for state, point, g in (
        (Fock(1), (0.7, 0.8, -0.6, 5.0), 0.05),
        (Coherent(1.0 + 1.0j), (0.4, 1.1, 0.5, 2.0), 0.3),
        (Fock(2), (0.5, -0.9, 0.8, 3.0), 0.0),
    ):
        report = convergence_study(state, point, ladder, make_params(g))
        worst_order = max(worst_order, abs(report.converged_order - 2.0))
    ok = worst < 1e-5 and worst_order <= 0.3
    _report(
        4,
        "evolution equation",
        ok,
        f"max rel residual = {worst:.2e}, order defect = {worst_order:.2f}",
    )


def test_criterion_5_invariant_eigenvalues():
    rng = np.random.default_rng(1005)
    worst = {0: 0.0, 1: 0.0, 2: 0.0}
    for g in (0.0, 0.05, 0.3):
        p = make_params(g)
        sample = []
        for _ in range(8):
            k = rng.uniform(0.2, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            scale = rng.uniform(0.4, 1.5)
            sample.append(
                DualPoint(
                    k=k,
                    mu=scale * math.cos(angle),
                    nu=-scale * math.sin(angle),
                    t=float(rng.choice([0.0, 1.0, 5.0])),
                )
            )
        for n in (0, 1, 2):
            # eigen_residual runs both operator variants internally
            worst[n] = max(worst[n], eigen_residual(n, sample, 1e-3, p))
    ok = worst[0] < 1e-3 and worst[1] < 1e-3 and worst[2] < 5e-3
    _report(
        5,
        "invariant eigenvalues",
        ok,
        f"n0={worst[0]:.2e} n1={worst[1]:.2e} n2={worst[2]:.2e}",
    )


def test_criterion_6_figure1_reproduction():
    grid = cmd_figure1()
    xs = grid.axis2.values
    nonneg = bool(np.all(grid.values >= 0.0))
    zero_col = int(np.argmin(np.abs(xs)))
    zeros = bool(np.all(grid.values[:, zero_col] == 0.0)) and xs[zero_col] == 0.0
    norms = [np.trapezoid(row, xs) for row in grid.values]
    normed = max(abs(v - 1.0) for v in norms) < 1e-6
    periodic = float(np.max(np.abs(grid.values[0] - grid.values[-1]))) < 1e-10
    dx = xs[1] - xs[0]
    mid = len(xs) // 2
    symmetric = True
    for row in grid.values:
        x_pos = xs[mid:][np.argmax(row[mid:])]
        x_neg = xs[:mid][np.argmax(row[:mid])]
        symmetric = symmetric and abs(x_pos + x_neg) <= dx
    ok = nonneg and zeros and normed and periodic and symmetric
    _report(
        6,
        "figure reproduction",
        ok,
        f"nonneg={nonneg} zeros={zeros} normed={normed} periodic={periodic} lobes={symmetric}",
    )


def test_criterion_7_structural_properties():
    rng = np.random.default_rng(1007)
    worst_h = 0.0
    for lam in (-2.0, 0.5, 3.0):
        for state in (Fock(1), Fock(2), Coherent(1.0 + 0.5j)):
            g = rng.uniform(0.0, 0.6)
            t = rng.uniform(0.0, 5.0)
            p = make_params(g)
            x, mu, nu = rng.uniform(-1.5, 1.5), 0.9, -0.7
            w1 = tomogram(state, TomographyFrame(x, mu, nu), t, p)
            w2 = abs(lam) * tomogram(
                state, TomographyFrame(lam * x, lam * mu, lam * nu), t, p
            )
            worst_h = max(worst_h, abs(w1 - w2) / max(1.0, abs(w1)))
    p0 = make_params(0.0)
    worst_r = 0.0
    for _ in range(20):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        scale = rng.uniform(0.5, 1.5)
        mu, nu = scale * math.cos(angle), -scale * math.sin(angle)
        x = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 6.0)
        ss = mu * mu + nu * nu
        w0 = ground_tomogram(TomographyFrame(x, mu, nu), t, p0)
        worst_r = max(worst_r, abs(w0 - math.exp(-x * x / ss) / math.sqrt(math.pi * ss)))
    p = make_params(0.3)
    xs = np.linspace(0.1, 2.5, 9)
    worst_p = 0.0
    for n in (0, 1, 2, 3):
        a = fock_tomogram(TomographyFrame(xs, 0.8, -0.7), 2.0, n, p)
        b = fock_tomogram(TomographyFrame(-xs, 0.8, -0.7), 2.0, n, p)
        worst_p = max(worst_p, float(np.max(np.abs(a - b))))
    alpha = 1.2 - 0.4j
    a = coherent_tomogram(TomographyFrame(xs, 0.8, -0.7), 2.0, -alpha, p)
    b = coherent_tomogram(TomographyFrame(-xs, 0.8, -0.7), 2.0, alpha, p)
    worst_p = max(worst_p, float(np.max(np.abs(a - b))))
    xs_all = np.linspace(-4.0, 4.0, 41)
    frame = TomographyFrame(xs_all, 0.9, 0.5)
    exact_equal = bool(
        np.all(
            coherent_tomogram(frame, 5.0, 0.0, make_params(0.05))
            == fock_tomogram(frame, 5.0, 0, make_params(0.05))
        )
    )
    ok = worst_h < 1e-10 and worst_r < 1e-10 and worst_p < 1e-10 and exact_equal
    _report(
        7,
        "structural properties",
        ok,
        f"homog={worst_h:.2e} gamma0={worst_r:.2e} parity={worst_p:.2e} alpha0==fock0: {exact_equal}",
    )


def _run(args, threads=None):
    env = dict(os.environ)
    if threads is not None:  # BLAS thread count
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "cktomo", *args], capture_output=True, env=env
    )


def test_criterion_8_determinism():
    a = _run(["check", "all", "--seed", "42"], threads=1)
    b = _run(["check", "all", "--seed", "42"], threads=2)
    reports_equal = a.stdout == b.stdout and a.returncode == 0 == b.returncode
    # the whole report: 41 scored lines, 2 INFO lines and the summary
    lines = a.stdout.decode().splitlines()
    scored = sum(line.startswith("PASS ") for line in lines)
    info = sum(line.startswith("INFO ") for line in lines)
    complete = (scored, info, len(lines)) == (41, 2, 44) and lines[-1].startswith("41/41 checks passed")
    fig_args = ["figure1", "--format", "csv"]
    grids = [_run(fig_args, threads=n).stdout for n in (1, 2)]
    grids_equal = grids[0] == grids[1] and len(grids[0]) > 0
    ok = reports_equal and grids_equal and complete
    _report(
        8,
        "determinism",
        ok,
        f"report_identical={reports_equal} grid_identical={grids_equal} scored={scored} info={info} lines={len(lines)}",
    )
