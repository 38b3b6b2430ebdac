"""Seeded property-check suites behind the `check` CLI command.

Every check draws its sample from a generator seeded by (seed, check
index), computes one scalar residual, and passes iff the residual is at or
below its named tolerance.  The tolerance names in :data:`TOLERANCES` can
be overridden from the command line (`--tol name=value`).

Tolerances follow the error-budget tiering of the library: 1e-10 for
identities among closed forms, 1e-9 for single quadratures, 1e-5 for
anything passing through two nested quadratures (Wigner plus a line
integral), and 1e-3 / 5e-3 for the dual-space eigenvalue checks whose
1/k**2 terms amplify noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    epsilon,
    epsilon_residual,
    frame_coeffs,
    make_params,
    time_backward,
    time_forward,
)
from .errors import DomainError
from .evolution import (
    convergence_study,
    evolution_residual_tprime,
    evolution_terms,
    relative_residual,
)
from .invariants import (
    DualPoint,
    _apply_to_stencil,
    _stencil,
    eigen_residual,
    number_apply_printed,
    tomogram_characteristic,
)
from .numerics import QuadratureSpec, _gauss_legendre, central_diff, hermite, integrate
from .states import (
    Coherent,
    Fock,
    _fock_widening,
    _wigner_grid,
    coherent_psi,
    fock_psi,
    psi,
    wigner,
)
from .tomography import (
    TomographyFrame,
    coherent_tomogram,
    fock_tomogram,
    frame_scale_sq,
    ground_tomogram,
    normalization,
    radon_tomogram,
    tomogram,
    wigner_moments,
)

__all__ = ["CheckResult", "TOLERANCES", "SUITES", "run_checks", "rk4_epsilon"]

_SQRT2 = math.sqrt(2.0)

TOLERANCES: dict[str, float] = {
    "ode_residual": 1e-10,
    "initial_conditions": 1e-14,
    "wronskian": 1e-10,
    "closed_vs_ode": 1e-7,
    "time_roundtrip": 1e-12,
    "time_monotone": 0.0,
    "frame_gamma0": 1e-13,
    "frame_t0": 1e-13,
    "hermite_match": 1e-12,
    "hermite_parity": 1e-12,
    "quad_gauss": 1e-10,
    "quad_doubling": 1e-10,
    "hermite_orthonormal": 1e-9,
    "psi_norm": 1e-9,
    "psi_moments": 1e-8,
    "wigner_ground": 1e-8,
    "wigner_marginal": 1e-7,
    "wigner_parity": 1e-9,
    "normalization": 1e-9,
    "radon_ground": 1e-6,
    "radon": 1e-5,
    "homogeneity": 1e-10,
    "nonnegativity": 1e-12,
    "parity": 1e-10,
    "second_moment": 1e-8,
    "gamma0_reduction": 1e-10,
    "alpha0_equals_fock0": 0.0,
    "first_moment": 1e-7,
    "central_diff_order": 0.1,
    "evolution_rel": 1e-5,
    "convergence_order": 0.3,
    "tprime_consistency": 2e-5,
    "characteristic_gauss": 1e-8,
    "characteristic_unit": 1e-8,
    "characteristic_bound": 1e-10,
    "dual_homogeneity": 1e-8,
    "eigen_n0": 1e-3,
    "eigen_n1": 1e-3,
    "eigen_n2": 5e-3,
    "variant_agreement": 1e-5,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tol: float
    passed: bool
    info: bool = False


def rk4_epsilon(gamma: float, t_end: float, dt: float = 1e-4) -> complex:
    """Classic fixed-step RK4 integration of the mode-function equation
    from its initial data; the independent oracle for the closed form.
    The equation is linear, y' = Ay with A = [[0, 1], [-1, -2 gamma]], so an
    RK4 step is exactly y <- y + E y, E = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.
    N steps are y <- y + D_N y with D_1 = E and D_(a+b) = D_a + D_b + D_a D_b,
    so D_N comes from binary powering in ~2 log2(N) products: the same
    discrete solution as stepping N times.  Carrying the increment D, not
    the step matrix I + E, avoids a ~3e-12 bias."""
    om = math.sqrt(1.0 - gamma * gamma)
    y0 = 1.0 / math.sqrt(om)
    y1 = complex(-gamma, om) / math.sqrt(om)
    steps = max(1, round(t_end / dt))
    ha = (t_end / steps) * np.array([[0.0, 1.0], [-1.0, -2.0 * gamma]])
    e = ha
    for j in (4.0, 3.0, 2.0):  # Horner: hA (I + hA/2 (I + hA/3 (I + hA/4)))
        e = ha + np.einsum("ij,jk->ik", ha, e) / j
    d = (0.0, 0.0, 0.0, 0.0)  # D_0, composed with D_1 exactly to D_1
    power = tuple(e.reshape(-1).tolist())  # D_(2^i), row-major
    while steps:
        if steps & 1:
            d = _compose_increments(d, power)
        power = _compose_increments(power, power)
        steps >>= 1
    d00, d01, d10, d11 = d
    return y0 + (d00 * y0 + d01 * y1)


def _compose_increments(a, b):
    """D_a + D_b + D_a D_b for 2x2 increments stored row-major: the
    increment of (I + D_a)(I + D_b)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 + b00 + (a00 * b00 + a01 * b10),
        a01 + b01 + (a00 * b01 + a01 * b11),
        a10 + b10 + (a10 * b00 + a11 * b10),
        a11 + b11 + (a10 * b01 + a11 * b11),
    )


def coherent_moments_from_psi(alpha: complex, t: float, params) -> tuple[float, float]:
    """<q> and <p> of a coherent state by wave-function quadrature.

    <p> uses Im(psi* dpsi/dq) with dpsi/dq from a central difference, so
    the oracle shares nothing with the tomogram formulas but the mode
    function itself.
    """
    sigma = math.sqrt(epsilon(t, params).ee / 2.0)
    q_center = wigner_moments(Coherent(alpha), t, params)[0][0]
    spec = QuadratureSpec(center=q_center, half_width=8.0 * sigma * (1.0 + abs(alpha)), points=400)
    fd_h = 1e-6

    def density(qs):
        return np.abs(coherent_psi(qs, t, alpha, params)) ** 2

    def p_density(qs):
        dpsi = central_diff(lambda q: coherent_psi(q, t, alpha, params), qs, fd_h)
        return (np.conj(coherent_psi(qs, t, alpha, params)) * dpsi).imag

    q_mean = integrate(lambda qs: qs * density(qs), spec)
    p_mean = integrate(p_density, spec)
    return q_mean, p_mean


# --------------------------------------------------------------------------
# sampling helpers


def _random_frame(rng, lo=0.4, hi=1.6):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    scale = rng.uniform(lo, hi)
    return scale * math.cos(angle), -scale * math.sin(angle)


def _random_state(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Fock(int(rng.integers(0, 4)))
    if kind == 1:
        return Coherent(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    return Coherent(0.0)


def _fd_direction_scales(mu, nu, t, params):
    """Log-variation scales of the tomogram width s2 along t, mu, nu.

    Central differences at step h are trustworthy only when h is far below
    all of these; the evolution sampler rejects configurations where the
    damping exponentials make any direction scale too short for the pinned
    step (the same idea as the StepTooLarge guard, extended beyond X).
    """
    g, om = params.gamma, params.omega_reduced
    e2 = epsilon(t, params).e2
    s2 = frame_scale_sq(mu, nu, t, params)
    d_mu = (2.0 * mu / e2 - 2.0 * g * nu) / om
    d_nu = (-2.0 * g * mu + 2.0 * e2 * nu) / om
    d_t = 2.0 * g * (e2 * nu * nu - mu * mu / e2) / om
    tiny = 1e-300
    return min(
        s2 / max(abs(d_mu), tiny),
        s2 / max(abs(d_nu), tiny),
        s2 / max(abs(d_t), tiny),
    )


def _evolution_config(rng, gammas, h):
    """Draw (state, x, mu, nu, t, params) admissible for step h."""
    states = [Fock(0), Fock(1), Fock(2), Coherent(1.0 + 1.0j), Coherent(0.7 - 0.4j)]
    while True:
        params = make_params(float(rng.choice(gammas)))
        t = rng.uniform(0.1, 8.0)
        mu, nu = _random_frame(rng)
        if _fd_direction_scales(mu, nu, t, params) < 0.5:
            continue
        s2 = frame_scale_sq(mu, nu, t, params)
        if h > 0.1 * min(1.0, math.sqrt(s2)):
            continue
        x = rng.uniform(-2.0, 2.0) * math.sqrt(s2 / 2.0)
        state = states[int(rng.integers(0, len(states)))]
        return state, x, mu, nu, t, params


# --------------------------------------------------------------------------
# individual checks; each returns a residual value


def _check_ode_residual(rng):
    ts = rng.uniform(0.0, 20.0, size=200)
    gs = rng.uniform(0.0, 0.9, size=200)
    return max(epsilon_residual(t, make_params(g)) for t, g in zip(ts, gs))


def _check_initial_conditions(rng):
    worst = 0.0
    for g in rng.uniform(0.0, 0.999, size=20):
        p = make_params(g)
        es = epsilon(0.0, p)
        om = p.omega_reduced
        worst = max(
            worst,
            abs(es.eps - 1.0 / math.sqrt(om)),
            abs(es.eps_dot - complex(-g, om) / math.sqrt(om)),
        )
    return worst


def _check_wronskian(rng):
    worst = 0.0
    for t, g in zip(rng.uniform(0.0, 20.0, size=200), rng.uniform(0.0, 0.9, size=200)):
        p = make_params(g)
        es = epsilon(t, p)
        wr = es.e2 * es.ce.imag
        worst = max(worst, abs(wr - 1.0))
    return worst


def _check_closed_vs_ode(rng):
    worst = 0.0
    for g, t_end in ((0.0, 10.0), (0.05, 5.0), (0.05, 10.0), (0.5, 10.0)):
        numeric = rk4_epsilon(g, t_end, dt=1e-4)
        worst = max(worst, abs(epsilon(t_end, make_params(g)).eps - numeric))
    return worst


def _check_time_roundtrip(rng):
    # the forward map saturates at 1/(2 gamma) like exp(-2 gamma t), so the
    # round trip is conditioned as exp(2 gamma t) * eps_machine; restrict to
    # 2 gamma t <= 9 where the 1e-12 identity is numerically meaningful
    worst = 0.0
    for g in (0.05, 0.3, 0.7):
        for t in (0.1, 1.0, 10.0):
            if 2.0 * g * t <= 9.0:
                worst = max(worst, abs(time_backward(time_forward(t, g), g) - t))
    for _ in range(20):
        g = rng.uniform(0.0, 0.9)
        t = rng.uniform(0.0, min(15.0, 4.5 / max(g, 1e-9)))
        worst = max(worst, abs(time_backward(time_forward(t, g), g) - t))
    return worst


def _check_time_monotone(rng):
    for g in (0.0, 0.05, 0.3, 0.7):
        ts = np.linspace(0.0, 20.0, 200)
        fwd = np.array([time_forward(t, g) for t in ts])
        if np.any(np.diff(fwd) <= 0.0):
            return 1.0
        if g > 0.0:
            tps = np.linspace(0.0, (1.0 / (2.0 * g)) * 0.999, 200)
            back = np.array([time_backward(tp, g) for tp in tps])
            if np.any(np.diff(back) <= 0.0):
                return 1.0
    return 0.0


def _check_frame_gamma0(rng):
    p = make_params(0.0)
    worst = 0.0
    for _ in range(50):
        mu, nu = _random_frame(rng)
        t = rng.uniform(0.0, 10.0)
        fc = frame_coeffs(mu, nu, t, p)
        worst = max(worst, abs(fc.a - mu), abs(fc.b - nu))
    return worst


def _check_frame_t0(rng):
    worst = 0.0
    for _ in range(50):
        g = rng.uniform(0.0, 0.95)
        p = make_params(g)
        mu, nu = _random_frame(rng)
        fc = frame_coeffs(mu, nu, 0.0, p)
        worst = max(
            worst,
            abs(fc.a - (mu - g * nu)),
            abs(fc.b - p.omega_reduced * nu),
        )
    return worst


_EXPLICIT_HERMITE = (
    lambda x: np.ones_like(x),
    lambda x: 2.0 * x,
    lambda x: 4.0 * x**2 - 2.0,
    lambda x: 8.0 * x**3 - 12.0 * x,
    lambda x: 16.0 * x**4 - 48.0 * x**2 + 12.0,
    lambda x: 32.0 * x**5 - 160.0 * x**3 + 120.0 * x,
)


def _check_hermite_match(rng):
    xs = rng.uniform(-5.0, 5.0, size=100)
    worst = 0.0
    for n, explicit in enumerate(_EXPLICIT_HERMITE):
        expected = explicit(xs)
        got = hermite(n, xs)
        scale = np.maximum(1.0, np.abs(expected))
        worst = max(worst, float(np.max(np.abs(got - expected) / scale)))
    return worst


def _check_hermite_parity(rng):
    xs = rng.uniform(-5.0, 5.0, size=50)
    worst = 0.0
    for n in range(0, 9):
        lhs = hermite(n, -xs)
        rhs = (-1.0) ** n * hermite(n, xs)
        scale = np.maximum(1.0, np.abs(rhs))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


def _check_quad_gauss(rng):
    normal = lambda xs: np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    spec = QuadratureSpec(center=0.0, half_width=10.0, points=96)
    err = abs(integrate(normal, spec) - 1.0)
    odd = abs(integrate(lambda xs: xs * np.exp(-xs * xs), spec))
    return max(err, odd)


def _check_quad_doubling(rng):
    normal = lambda xs: np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    a = integrate(normal, QuadratureSpec(0.0, 10.0, 96))
    b = integrate(normal, QuadratureSpec(0.0, 10.0, 192))
    return abs(a - b)


def _check_hermite_orthonormal(rng):
    f = lambda xs: hermite(2, xs) ** 2 * np.exp(-xs * xs) / (4.0 * 2.0 * math.sqrt(math.pi))
    return abs(integrate(f, QuadratureSpec(0.0, 12.0, 260)) - 1.0)


def _check_psi_norm(rng):
    worst = 0.0
    p = make_params(0.05)
    t = 5.0
    sigma = math.sqrt(epsilon(t, p).ee / 2.0)
    for n in range(4):
        spec = QuadratureSpec(0.0, 8.0 * sigma * _fock_widening(n), 300)
        nrm = integrate(lambda qs: np.abs(fock_psi(qs, t, n, p)) ** 2, spec)
        worst = max(worst, abs(nrm - 1.0))
    alpha = 1.0 + 0.5j
    center = wigner_moments(Coherent(alpha), t, p)[0][0]
    spec = QuadratureSpec(center, 8.0 * sigma * (1.0 + abs(alpha)), 400)
    nrm = integrate(lambda qs: np.abs(coherent_psi(qs, t, alpha, p)) ** 2, spec)
    return max(worst, abs(nrm - 1.0))


def _check_psi_moments(rng):
    """|psi_alpha|^2 is a Gaussian: numeric mean/variance vs closed form."""
    worst = 0.0
    for _ in range(5):
        g = rng.uniform(0.0, 0.5)
        t = rng.uniform(0.0, 5.0)
        alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        p = make_params(g)
        mean_exact = wigner_moments(Coherent(alpha), t, p)[0][0]
        var_exact = epsilon(t, p).ee / 2.0
        sigma = math.sqrt(var_exact)
        spec = QuadratureSpec(mean_exact, 9.0 * sigma * (1.0 + abs(alpha)), 400)
        dens = lambda qs: np.abs(coherent_psi(qs, t, alpha, p)) ** 2
        mean = integrate(lambda qs: qs * dens(qs), spec)
        var = integrate(lambda qs: (qs - mean_exact) ** 2 * dens(qs), spec)
        worst = max(worst, abs(mean - mean_exact), abs(var - var_exact))
    return worst


def _check_wigner_ground(rng):
    p = make_params(0.0)
    qs = rng.uniform(-1.5, 1.5, size=12)
    ps = rng.uniform(-1.5, 1.5, size=12)
    got = wigner(qs, ps, 0.0, Fock(0), p)
    expected = 2.0 * np.exp(-qs * qs - ps * ps)
    worst = float(np.max(np.abs(got - expected)))
    return max(worst, abs(wigner(0.0, 0.0, 0.0, Fock(0), p) - 2.0))


def _check_wigner_marginal(rng):
    p = make_params(0.05)
    t = 5.0
    state = Fock(1)
    es = epsilon(t, p)
    sigma_p = math.sqrt(es.e2 / p.omega_reduced / 2.0) * math.sqrt(3.0)
    spec = QuadratureSpec(0.0, 9.0 * sigma_p, 300)
    qs = rng.uniform(-1.0, 1.0, size=20) * math.sqrt(es.ee)
    # the p-integral of every q at once: W on the grid qs x (p nodes)
    nodes, weights = _gauss_legendre(spec.points)
    grid = _wigner_grid(state, qs, spec.center + spec.half_width * nodes, t, p)
    marg = spec.half_width * np.einsum("qp,p->q", grid, weights) / (2.0 * math.pi)
    return float(np.max(np.abs(marg - np.abs(psi(state, qs, t, p)) ** 2)))


def _check_wigner_parity(rng):
    p = make_params(0.05)
    worst = 0.0
    for n in (0, 1, 2):
        qs = rng.uniform(-1.5, 1.5, size=8)
        ps = rng.uniform(-1.5, 1.5, size=8)
        a = wigner(qs, ps, 2.0, Fock(n), p)
        b = wigner(-qs, -ps, 2.0, Fock(n), p)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _check_normalization(rng):
    worst = 0.0
    for _ in range(30):
        g = float(rng.choice([0.0, 0.05, 0.3, 0.6]))
        t = rng.uniform(0.0, 6.0)
        mu, nu = _random_frame(rng)
        state = _random_state(rng)
        worst = max(worst, abs(normalization(state, mu, nu, t, make_params(g)) - 1.0))
    return worst


def _check_radon_ground(rng):
    p = make_params(0.0)
    worst = 0.0
    for _ in range(6):
        mu, nu = _random_frame(rng)
        x = rng.uniform(-1.5, 1.5)
        frame = TomographyFrame(x, mu, nu)
        exact = ground_tomogram(frame, 0.0, p)
        worst = max(worst, abs(radon_tomogram(Fock(0), frame, 0.0, p) - exact))
    return worst


def _radon_family_residual(rng, states, n_points):
    worst = 0.0
    for _ in range(n_points):
        g = float(rng.choice([0.0, 0.05, 0.3]))
        t = float(rng.choice([0.0, 2.0, 5.0]))
        p = make_params(g)
        mu, nu = _random_frame(rng, 0.5, 1.5)
        state = states[int(rng.integers(0, len(states)))]
        s2 = frame_scale_sq(mu, nu, t, p)
        x = rng.uniform(-2.5, 2.5) * math.sqrt(s2 / 2.0)
        frame = TomographyFrame(x, mu, nu)
        worst = max(
            worst, abs(tomogram(state, frame, t, p) - radon_tomogram(state, frame, t, p))
        )
    return worst


def _check_radon_fock(rng):
    return _radon_family_residual(rng, [Fock(0), Fock(1), Fock(2)], 12)


def _check_radon_coherent(rng):
    return _radon_family_residual(
        rng, [Coherent(0.0), Coherent(1.0 + 0.5j), Coherent(2.0 - 1.0j)], 12
    )


def _check_homogeneity(rng):
    worst = 0.0
    states = [Fock(0), Fock(2), Coherent(1.0 + 0.5j)]
    for lam in (-2.0, 0.5, 3.0):
        for state in states:
            g = rng.uniform(0.0, 0.6)
            t = rng.uniform(0.0, 5.0)
            p = make_params(g)
            mu, nu = _random_frame(rng)
            x = rng.uniform(-2.0, 2.0)
            w1 = tomogram(state, TomographyFrame(x, mu, nu), t, p)
            w2 = abs(lam) * tomogram(
                state, TomographyFrame(lam * x, lam * mu, lam * nu), t, p
            )
            worst = max(worst, abs(w1 - w2) / max(1.0, abs(w1)))
    return worst


def _check_nonnegativity(rng):
    lowest = 0.0
    for _ in range(40):
        g = rng.uniform(0.0, 0.7)
        t = rng.uniform(0.0, 6.0)
        p = make_params(g)
        mu, nu = _random_frame(rng)
        state = _random_state(rng)
        s2 = frame_scale_sq(mu, nu, t, p)
        xs = np.linspace(-4.0, 4.0, 41) * math.sqrt(s2 / 2.0)
        vals = tomogram(state, TomographyFrame(xs, mu, nu), t, p)
        lowest = min(lowest, float(np.min(vals)))
    return max(0.0, -lowest)


def _check_parity(rng):
    worst = 0.0
    p = make_params(0.3)
    t = 2.0
    mu, nu = 0.8, -0.7
    xs = rng.uniform(0.1, 2.5, size=10)
    for n in (0, 1, 2, 3):
        a = fock_tomogram(TomographyFrame(xs, mu, nu), t, n, p)
        b = fock_tomogram(TomographyFrame(-xs, mu, nu), t, n, p)
        worst = max(worst, float(np.max(np.abs(a - b))))
    alpha = 1.2 - 0.4j
    a = coherent_tomogram(TomographyFrame(xs, mu, nu), t, -alpha, p)
    b = coherent_tomogram(TomographyFrame(-xs, mu, nu), t, alpha, p)
    return max(worst, float(np.max(np.abs(a - b))))


def _check_second_moment(rng):
    worst = 0.0
    for _ in range(6):
        g = rng.uniform(0.0, 0.6)
        t = rng.uniform(0.0, 5.0)
        p = make_params(g)
        mu, nu = _random_frame(rng)
        s2 = frame_scale_sq(mu, nu, t, p)
        spec = QuadratureSpec(0.0, 9.0 * math.sqrt(s2 / 2.0), 260)
        m2 = integrate(
            lambda xs: xs * xs * ground_tomogram(TomographyFrame(xs, mu, nu), t, p),
            spec,
        )
        worst = max(worst, abs(m2 - s2 / 2.0) / max(1.0, s2 / 2.0))
    return worst


def _check_gamma0_reduction(rng):
    p = make_params(0.0)
    worst = 0.0
    for _ in range(20):
        mu, nu = _random_frame(rng)
        t = rng.uniform(0.0, 6.0)
        x = rng.uniform(-2.0, 2.0)
        ss = mu * mu + nu * nu
        w0 = ground_tomogram(TomographyFrame(x, mu, nu), t, p)
        exact0 = math.exp(-x * x / ss) / math.sqrt(math.pi * ss)
        worst = max(worst, abs(w0 - exact0))
        n = int(rng.integers(0, 4))
        wn = fock_tomogram(TomographyFrame(x, mu, nu), t, n, p)
        y = x / math.sqrt(ss)
        exact_n = exact0 * hermite(n, y) ** 2 / (2.0**n * math.factorial(n))
        worst = max(worst, abs(wn - exact_n))
        alpha = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        wa = coherent_tomogram(TomographyFrame(x, mu, nu), t, alpha, p)
        xbar = _SQRT2 * (alpha * complex(mu, -nu) * complex(math.cos(t), -math.sin(t))).real
        exact_a = math.exp(-((x - xbar) ** 2) / ss) / math.sqrt(math.pi * ss)
        worst = max(worst, abs(wa - exact_a))
    return worst


def _check_alpha0_equals_fock0(rng):
    worst = 0.0
    for g, t in ((0.0, 0.0), (0.05, 5.0), (0.3, 2.0)):
        p = make_params(g)
        mu, nu = _random_frame(rng)
        xs = np.linspace(-3.0, 3.0, 31)
        a = coherent_tomogram(TomographyFrame(xs, mu, nu), t, 0.0, p)
        b = fock_tomogram(TomographyFrame(xs, mu, nu), t, 0, p)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _check_first_moment(rng):
    p = make_params(0.05)
    t, alpha, mu, nu = 2.0, 1.0 + 1.0j, 0.6, -1.1
    s2 = frame_scale_sq(mu, nu, t, p)
    spec = QuadratureSpec(0.0, 9.0 * math.sqrt(s2 / 2.0) * (1.0 + abs(alpha)), 400)
    m1 = integrate(
        lambda xs: xs * coherent_tomogram(TomographyFrame(xs, mu, nu), t, alpha, p),
        spec,
    )
    q_mean, p_mean = coherent_moments_from_psi(alpha, t, p)
    return abs(m1 - (mu * q_mean + nu * p_mean))


def _check_central_diff_order(rng):
    hs = np.logspace(-4, -1, 10)
    errs = [abs(central_diff(math.sin, 0.3, h, order=1) - math.cos(0.3)) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return abs(slope - 2.0)


def _check_evolution_rel(rng):
    h = 1e-3
    worst = 0.0
    for _ in range(50):
        state, x, mu, nu, t, p = _evolution_config(rng, [0.0, 0.05, 0.3, 0.7], h)
        worst = max(worst, relative_residual(state, x, mu, nu, t, h, p))
    return worst


def _check_convergence_order(rng):
    worst = 0.0
    ladder = (1e-2, 5e-3, 2.5e-3)
    cases = [
        (Fock(1), (0.7, 0.8, -0.6, 5.0), 0.05),
        (Fock(1), (0.7, 0.8, -0.6, 5.0), 0.0),
        (Coherent(1.0 + 1.0j), (0.4, 1.1, 0.5, 2.0), 0.3),
    ]
    for state, point, g in cases:
        report = convergence_study(state, point, ladder, make_params(g))
        worst = max(worst, abs(report.converged_order - 2.0))
    return worst


def _check_tprime_consistency(rng):
    # the t'-side truncation carries an extra exp(4 gamma t) through the
    # chain rule, so the two discretizations agree "up to FD noise" only
    # where 2 gamma t is moderate; sample 2 gamma t <= 1
    h = 1e-3
    worst = 0.0
    for _ in range(10):
        while True:
            state, x, mu, nu, t, p = _evolution_config(rng, [0.0, 0.05, 0.3], h)
            if 2.0 * p.gamma * t <= 1.0:
                break
        # both forms approximate the same identity: the t-form replaces
        # d/dt' by e^{2 gamma t} d/dt via the chain rule
        terms = evolution_terms(state, x, mu, nu, t, h, p)
        r_t = sum(terms)
        r_tp = evolution_residual_tprime(state, x, mu, nu, t, h, p)
        scale = max(1.0, *[abs(term) for term in terms])
        worst = max(worst, abs(r_t - r_tp) / scale)
    return worst


def _check_characteristic_gauss(rng):
    p = make_params(0.0)
    worst = 0.0
    for k in (0.3, 1.0, 2.0):
        got = tomogram_characteristic(Fock(0), k, 1.0, 0.0, 0.0, p)
        worst = max(worst, abs(got - math.exp(-k * k / 4.0)))
    return worst


def _check_characteristic_unit(rng):
    # w~(k -> 0) -> 1 (normalization); at finite small k a displaced state
    # keeps a genuine linear term i k <X>, so test |w~ - 1| for Fock states
    # (<X> = 0 by parity) and the k-even real part for coherent ones
    worst = 0.0
    for _ in range(5):
        g = rng.uniform(0.0, 0.5)
        t = rng.uniform(0.0, 4.0)
        mu, nu = _random_frame(rng)
        state = _random_state(rng)
        got = tomogram_characteristic(state, 1e-6, mu, nu, t, make_params(g))
        if isinstance(state, Fock):
            worst = max(worst, abs(got - 1.0))
        else:
            worst = max(worst, abs(got.real - 1.0))
    return worst


def _check_characteristic_bound(rng):
    worst = 0.0
    for _ in range(10):
        g = rng.uniform(0.0, 0.5)
        t = rng.uniform(0.0, 4.0)
        mu, nu = _random_frame(rng)
        k = rng.uniform(0.1, 4.0)
        state = _random_state(rng)
        mag = abs(tomogram_characteristic(state, k, mu, nu, t, make_params(g)))
        worst = max(worst, mag - 1.0)
    return max(0.0, worst)


def _check_dual_homogeneity(rng):
    worst = 0.0
    for k in (0.5, 2.0):
        for _ in range(4):
            g = rng.uniform(0.0, 0.4)
            t = rng.uniform(0.0, 4.0)
            p = make_params(g)
            mu, nu = _random_frame(rng)
            state = _random_state(rng)
            lhs = tomogram_characteristic(state, k, mu, nu, t, p)
            rhs = tomogram_characteristic(state, 1.0, k * mu, k * nu, t, p)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _eigen_sample(rng, n_points, ts):
    pts = []
    for _ in range(n_points):
        k = rng.uniform(0.2, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        mu, nu = _random_frame(rng, 0.4, 1.5)
        pts.append(DualPoint(k=k, mu=mu, nu=nu, t=float(rng.choice(ts))))
    return pts


def _check_eigen(n):
    def check(rng):
        worst = 0.0
        for g in (0.0, 0.05, 0.3):
            sample = _eigen_sample(rng, 7, [0.0, 1.0, 5.0])
            worst = max(worst, eigen_residual(n, sample, 1e-3, make_params(g)))
        return worst

    return check


def _check_variant_agreement(rng):
    """Fock tomograms are even in X, so w~ is real and the two variants'
    first-order brackets must cancel identically."""
    worst = 0.0
    p = make_params(0.3)
    for point in _eigen_sample(rng, 5, [0.0, 2.0]):
        state = Fock(1)
        a, b = _apply_to_stencil(point, p, _stencil(state, point, 1e-3, p))
        w00 = tomogram_characteristic(state, point.k, point.mu, point.nu, point.t, p)
        worst = max(worst, abs(a - b) / max(abs(w00), 1e-3))
    return worst


def _check_printed_forms(variant):
    def check(rng):
        p = make_params(0.0)
        point = DualPoint(k=1.0, mu=1.0, nu=0.5, t=0.0)
        state = Fock(1)
        value = number_apply_printed(variant, state, point, 1e-3, p)
        w00 = tomogram_characteristic(state, 1.0, 1.0, 0.5, 0.0, p)
        return abs(value - 1.0 * w00) / abs(w00)

    return check


# --------------------------------------------------------------------------
# suite wiring

_DYNAMICS = [
    ("ode_residual", _check_ode_residual, "ode_residual", False),
    ("initial_conditions", _check_initial_conditions, "initial_conditions", False),
    ("wronskian", _check_wronskian, "wronskian", False),
    ("closed_vs_ode_rk4", _check_closed_vs_ode, "closed_vs_ode", False),
    ("time_roundtrip", _check_time_roundtrip, "time_roundtrip", False),
    ("time_monotone", _check_time_monotone, "time_monotone", False),
    ("frame_coeffs_gamma0", _check_frame_gamma0, "frame_gamma0", False),
    ("frame_coeffs_t0", _check_frame_t0, "frame_t0", False),
]

_TOMOGRAPHY = [
    ("hermite_recurrence", _check_hermite_match, "hermite_match", False),
    ("hermite_parity", _check_hermite_parity, "hermite_parity", False),
    ("quadrature_gaussian", _check_quad_gauss, "quad_gauss", False),
    ("quadrature_doubling", _check_quad_doubling, "quad_doubling", False),
    ("hermite_orthonormality", _check_hermite_orthonormal, "hermite_orthonormal", False),
    ("psi_normalization", _check_psi_norm, "psi_norm", False),
    ("psi_gaussian_moments", _check_psi_moments, "psi_moments", False),
    ("wigner_ground_value", _check_wigner_ground, "wigner_ground", False),
    ("wigner_marginal", _check_wigner_marginal, "wigner_marginal", False),
    ("wigner_parity", _check_wigner_parity, "wigner_parity", False),
    ("normalization_families", _check_normalization, "normalization", False),
    ("radon_ground_closed_form", _check_radon_ground, "radon_ground", False),
    ("radon_vs_fock", _check_radon_fock, "radon", False),
    ("radon_vs_coherent", _check_radon_coherent, "radon", False),
    ("homogeneity", _check_homogeneity, "homogeneity", False),
    ("nonnegativity", _check_nonnegativity, "nonnegativity", False),
    ("parity_identities", _check_parity, "parity", False),
    ("second_moment", _check_second_moment, "second_moment", False),
    ("gamma0_reduction", _check_gamma0_reduction, "gamma0_reduction", False),
    ("alpha0_equals_fock0", _check_alpha0_equals_fock0, "alpha0_equals_fock0", False),
    ("coherent_first_moment", _check_first_moment, "first_moment", False),
]

_EVOLUTION = [
    ("central_diff_order", _check_central_diff_order, "central_diff_order", False),
    ("evolution_residual_rel", _check_evolution_rel, "evolution_rel", False),
    ("evolution_convergence", _check_convergence_order, "convergence_order", False),
    ("tprime_consistency", _check_tprime_consistency, "tprime_consistency", False),
]

_INVARIANTS = [
    ("characteristic_gaussian", _check_characteristic_gauss, "characteristic_gauss", False),
    ("characteristic_unit_k0", _check_characteristic_unit, "characteristic_unit", False),
    ("characteristic_bound", _check_characteristic_bound, "characteristic_bound", False),
    ("dual_homogeneity", _check_dual_homogeneity, "dual_homogeneity", False),
    ("eigen_n0", _check_eigen(0), "eigen_n0", False),
    ("eigen_n1", _check_eigen(1), "eigen_n1", False),
    ("eigen_n2", _check_eigen(2), "eigen_n2", False),
    ("variant_agreement", _check_variant_agreement, "variant_agreement", False),
    ("printed_direct_residual", _check_printed_forms("direct"), None, True),
    ("printed_conjugate_residual", _check_printed_forms("conjugate"), None, True),
]

SUITES: dict[str, list] = {
    "dynamics": _DYNAMICS,
    "tomography": _TOMOGRAPHY,
    "evolution": _EVOLUTION,
    "invariants": _INVARIANTS,
}


def run_checks(
    suites, seed: int, tol_overrides: dict[str, float] | None = None
) -> list[CheckResult]:
    """Run the named suites with a seeded sampler and return one result per
    check.  `suites` is an iterable of suite names, or the string "all"."""
    if isinstance(suites, str):
        suites = list(SUITES) if suites == "all" else [suites]
    overrides = dict(tol_overrides or {})
    for name in overrides:
        if name not in TOLERANCES:
            raise DomainError(f"unknown tolerance name {name!r}")
    results: list[CheckResult] = []
    index = 0
    for suite in suites:
        if suite not in SUITES:
            raise DomainError(f"unknown suite {suite!r}")
        for name, fn, tol_name, info in SUITES[suite]:
            rng = np.random.default_rng([int(seed), index])
            value = float(fn(rng))
            if info:
                results.append(
                    CheckResult(name=name, value=value, tol=math.nan, passed=True, info=True)
                )
            else:
                tol = overrides.get(tol_name, TOLERANCES[tol_name])
                results.append(
                    CheckResult(name=name, value=value, tol=tol, passed=value <= tol)
                )
            index += 1
    return results
