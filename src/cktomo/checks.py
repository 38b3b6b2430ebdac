"""Seeded property-check suites behind the `check` CLI command.

Every check draws its sample from its own stream of the standard library's
Mersenne Twister, `random.Random(seed * 64 + index)` with index its
position in the full SUITES order (43 lines), so a suite run alone draws
the samples of `check all`.  It draws only through `random()` and
`uniform(a, b)`, whose streams Python keeps for a given seed, so a report
does not depend on the numpy version; an array of draws is `_uniforms`, n
`uniform` draws in order.  A check yields its residuals, one per sample or
the largest of an array; the line's value is the largest of them, folded
from 0.0 (`numerics._worst`), or nan if any residual is NaN, and the line
passes iff that value is at or below its tolerance (a nan never is).  Each
line's tolerance is a constant in its suite row, and :data:`TOLERANCES`
lists them by the name the report prints.

Tolerances follow the error-budget tiering of the library: 1e-10 for
identities among closed forms, 1e-9 for single quadratures, 1e-5 for the
Radon line integrals, and 1e-3 / 5e-3 for the dual-space eigenvalue
checks whose 1/k**2 terms amplify finite-difference noise.  Each
quadrature oracle is compared directly with its closed form, in
`wigner_ground_value` (W) and `characteristic_gaussian` (w~).  The
oracles only these checks use live here: the psi-quadrature W and RK4.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (
    epsilon,
    epsilon_residual,
    frame_coeffs,
    make_params,
    time_backward,
    time_forward,
)
from .errors import DomainError, UsageError
from .evolution import (
    _max_step,
    _terms,
    convergence_study,
    evolution_residual_tprime,
    relative_residual,
)
from .invariants import (
    DualPoint,
    _apply_to_stencil,
    _stencil,
    characteristic,
    eigen_residual,
    number_apply_printed,
    tomogram_characteristic,
)
from .numerics import QuadratureSpec, _worst, central_diff, hermite, hermite_gauss, integrate
from .states import _MAX_ALPHA, Coherent, Fock, _amplitude, coherent_psi, psi, wigner, wigner_moments
from .tomography import (
    TomographyFrame,
    _frame_scale_in_range,
    _x_window,
    coherent_tomogram,
    fock_tomogram,
    frame_scale_sq,
    ground_tomogram,
    normalization,
    radon_tomogram,
    tomogram,
)

__all__ = ["CheckResult", "TOLERANCES", "SUITES", "run_checks", "rk4_epsilon"]

_SQRT2 = math.sqrt(2.0)
# RK4 step of the mode-function oracle: its O(dt**4) error stays far inside
# the closed_vs_ode_rk4 tolerance out to t = 10
_RK4_DT = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tol: float
    passed: bool
    info: bool = False


def rk4_epsilon(gamma: float, t_end: float) -> complex:
    """Classic RK4 integration, at the fixed step _RK4_DT, of the mode-function
    equation from its initial data; the independent oracle for the closed form.
    The equation is linear, y' = Ay with A = [[0, 1], [-1, -2 gamma]], so an
    RK4 step is exactly y <- y + E y, E = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.
    N steps are y <- y + D_N y with D_1 = E and D_(a+b) = D_a + D_b + D_a D_b,
    so D_N comes from binary powering in ~2 log2(N) products: the same
    discrete solution as stepping N times.  Carrying the increment D, not
    the step matrix I + E, avoids a ~3e-12 bias."""
    om = math.sqrt(1.0 - gamma * gamma)
    y0 = 1.0 / math.sqrt(om)
    y1 = complex(-gamma, om) / math.sqrt(om)
    steps = max(1, round(t_end / _RK4_DT))
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
    spec = _x_window(Coherent(alpha), 1.0, 0.0, t, params)
    fd_h = 1e-6

    def density(qs):
        return np.abs(coherent_psi(qs, t, alpha, params)) ** 2

    def p_density(qs):
        dpsi = central_diff(lambda q: coherent_psi(q, t, alpha, params), qs, fd_h)
        return (np.conj(coherent_psi(qs, t, alpha, params)) * dpsi).imag

    q_mean = integrate(lambda qs: qs * density(qs), spec)
    p_mean = integrate(p_density, spec)
    return q_mean, p_mean


def _wigner_u_window(state, q, p, t: float, params) -> QuadratureSpec:
    """Window and node count of the relative-coordinate integral of W, one
    for all the points (q, p) of a call.

    The |psi(q+u/2) psi*(q-u/2)| envelope is the q-envelope stretched by 2
    in u (a displacement alpha does not move it), so the window is 8 sigma_u
    with sigma_u = 2 sqrt(Sigma_qq), Sigma_qq from `wigner_moments` (which
    carries the 2n+1 of Fock n).  The node count tracks the faster of the
    phase exp(-i p u) on the points and the Hermite oscillation
    sqrt(2n+1)/|eps| of Fock n (all there is at a lone point near the
    origin), plus the drift of alpha; `integrate` rounds it up to a
    multiple of 16, so nearby frequencies share one cached rule.
    """
    es = epsilon(t, params)
    _, cov = wigner_moments(state, t, params)
    half_width = 16.0 * math.sqrt(cov[0, 0])
    scale = math.sqrt(es.ee)
    phase = float(np.max(np.abs(p))) + params.gamma * es.e2 * float(np.max(np.abs(q)))
    freq = max(phase, math.sqrt(2.0 * state.n + 1.0) / scale) + _SQRT2 * abs(state.alpha) / scale
    return QuadratureSpec(0.0, half_width, 96 + 8 * state.n + int(0.85 * half_width * freq))


def _wigner_quadrature(q, p, t: float, state, params):
    """The oracle of `states.wigner`: W by `numerics.integrate` of
    psi(q+u/2) psi*(q-u/2) exp(-i p u) over the u-window, point by point,
    from the psi split of `states._amplitude` alone.  The integrand at -u is
    the conjugate of the one at u, and every rule `integrate` takes is
    exactly mirrored (a multiple of 16 nodes), so its imaginary part sums to
    zero and only the real part is integrated:
    |c|**2 R(q+u/2) R(q-u/2) cos(u (2 theta q + kappa - p)).  A u-rule over
    the 2048-node cap raises DomainError, a non-finite value NonFinite.
    """
    qa, pa = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    if not (np.isfinite(qa).all() and np.isfinite(pa).all()):
        raise DomainError("q and p must be finite")
    c, theta, kappa, r = _amplitude(state, t, params)
    spec, weight = _wigner_u_window(state, qa, pa, t, params), abs(c) ** 2

    def point(qv, pv):
        # R(q+u/2) R(q-u/2) first: the product is symmetric in the pair,
        # so W(-q, -p) of a Fock state repeats W(q, p) bit for bit
        rate = 2.0 * theta * qv + kappa - pv
        return integrate(lambda us: weight * (r(qv + 0.5 * us) * r(qv - 0.5 * us) * np.cos(rate * us)), spec)

    out = np.array([point(qv, pv) for qv, pv in zip(qa.ravel().tolist(), pa.ravel().tolist())]).reshape(qa.shape)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# sampling helpers


# streams per seed: seed * _STREAMS + index is one-to-one while the suites
# hold at most _STREAMS lines
_STREAMS = 64


def _sampler(seed: int, index: int) -> random.Random:
    """The stream of line `index` (its position in the full SUITES order)
    of `check all --seed seed`."""
    return random.Random(seed * _STREAMS + index)


def _uniforms(rng, lo, hi, n):
    """n `uniform(lo, hi)` draws, in order, as an array."""
    return np.array([rng.uniform(lo, hi) for _ in range(n)])


def _pick(rng, items):
    return items[int(len(items) * rng.random())]


def _random_frame(rng, lo=0.4, hi=1.6):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    scale = rng.uniform(lo, hi)
    return scale * math.cos(angle), -scale * math.sin(angle)


def _random_setting(rng, g_hi, t_hi):
    """(params, t, mu, nu): gamma in [0, g_hi], then t in [0, t_hi], then a frame."""
    g = rng.uniform(0.0, g_hi)
    t = rng.uniform(0.0, t_hi)
    return (make_params(g), t, *_random_frame(rng))


def _random_state(rng):
    kind = int(3 * rng.random())
    if kind == 0:
        return Fock(int(4 * rng.random()))
    if kind == 1:
        return Coherent(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    return Coherent(0.0)


# the oracle checks draw Fock 0-2 (each order sets its oracle's rule sizes),
# coherent |alpha| <= _MAX_ALPHA, gamma in [0, 0.9] and t in [0, 5], 2 gamma t <= 4
def _random_fock(rng):
    return Fock(int(3 * rng.random()))


def _random_coherent(rng):
    return Coherent(cmath.rect(rng.uniform(0.0, _MAX_ALPHA), rng.uniform(0.0, 2.0 * math.pi)))


def _random_damping(rng):
    g = rng.uniform(0.0, 0.9)
    return make_params(g), rng.uniform(0.0, min(5.0, 2.0 / max(g, 0.4)))


def _fd_direction_scales(mu, nu, es, params, s2):
    """Log-variation scales of the tomogram width s2 along t, mu, nu.

    Central differences at step h are trustworthy only when h is far below
    all of these; the evolution sampler rejects configurations where the
    damping exponentials make any direction scale too short for the pinned
    step (the same idea as the StepTooLarge guard, extended beyond X).
    """
    g, om, e2 = params.gamma, params.omega_reduced, es.e2
    d_mu = (2.0 * mu / e2 - 2.0 * g * nu) / om
    d_nu = (-2.0 * g * mu + 2.0 * e2 * nu) / om
    d_t = 2.0 * g * (e2 * nu * nu - mu * mu / e2) / om
    tiny = 1e-300
    return min(
        s2 / max(abs(d_mu), tiny),
        s2 / max(abs(d_nu), tiny),
        s2 / max(abs(d_t), tiny),
    )


_EVOLUTION_STATES = (Fock(0), Fock(1), Fock(2), Coherent(1.0 + 1.0j), Coherent(0.7 - 0.4j))


def _evolution_config(rng, gammas, h):
    """Draw (state, x, mu, nu, t, params) admissible for step h."""
    while True:
        params = make_params(_pick(rng, gammas))
        t = rng.uniform(0.1, 8.0)
        mu, nu = _random_frame(rng)
        es = epsilon(t, params)
        s2 = _frame_scale_in_range(mu, nu, es)
        if _fd_direction_scales(mu, nu, es, params, s2) < 0.5 or h > _max_step(s2):
            continue
        x = rng.uniform(-2.0, 2.0) * math.sqrt(s2 / 2.0)
        state = _pick(rng, _EVOLUTION_STATES)
        return state, x, mu, nu, t, params


# --------------------------------------------------------------------------
# individual checks; each yields its residuals, and `_worst` folds them


def _check_ode_residual(rng):
    ts = _uniforms(rng, 0.0, 20.0, 200)
    gs = _uniforms(rng, 0.0, 0.9, 200)
    for t, g in zip(ts, gs):
        yield epsilon_residual(t, make_params(g))


def _check_initial_conditions(rng):
    for g in _uniforms(rng, 0.0, 0.999, 20):
        p = make_params(g)
        es = epsilon(0.0, p)
        om = p.omega_reduced
        yield abs(es.eps - 1.0 / math.sqrt(om))
        yield abs(es.eps_dot - complex(-g, om) / math.sqrt(om))


def _check_wronskian(rng):
    for t, g in zip(_uniforms(rng, 0.0, 20.0, 200), _uniforms(rng, 0.0, 0.9, 200)):
        es = epsilon(t, make_params(g))
        yield abs(es.e2 * es.ce.imag - 1.0)


def _check_closed_vs_ode(rng):
    for g, t_end in ((0.0, 10.0), (0.05, 5.0), (0.05, 10.0), (0.5, 10.0)):
        yield abs(epsilon(t_end, make_params(g)).eps - rk4_epsilon(g, t_end))


def _check_time_roundtrip(rng):
    # the forward map saturates at 1/(2 gamma) like exp(-2 gamma t), so the
    # round trip is conditioned as exp(2 gamma t) * eps_machine; restrict to
    # 2 gamma t <= 9 where the 1e-12 identity is numerically meaningful
    for g in (0.05, 0.3, 0.7):
        for t in (0.1, 1.0, 10.0):
            if 2.0 * g * t <= 9.0:
                yield abs(time_backward(time_forward(t, g), g) - t)
    for _ in range(20):
        g = rng.uniform(0.0, 0.9)
        t = rng.uniform(0.0, min(15.0, 4.5 / max(g, 1e-9)))
        yield abs(time_backward(time_forward(t, g), g) - t)


def _not_increasing(values):
    """1.0 if some step of `values` fails to increase, else 0.0; nan on a NaN step."""
    step = float(np.min(np.diff(values)))
    return step if math.isnan(step) else float(step <= 0.0)


def _check_time_monotone(rng):
    for g in (0.0, 0.05, 0.3, 0.7):
        ts = np.linspace(0.0, 20.0, 200)
        yield _not_increasing([time_forward(t, g) for t in ts])
        if g > 0.0:
            tps = np.linspace(0.0, (1.0 / (2.0 * g)) * 0.999, 200)
            yield _not_increasing([time_backward(tp, g) for tp in tps])


def _check_frame_gamma0(rng):
    p = make_params(0.0)
    for _ in range(50):
        mu, nu = _random_frame(rng)
        t = rng.uniform(0.0, 10.0)
        fc = frame_coeffs(mu, nu, t, p)
        yield abs(fc.a - mu)
        yield abs(fc.b - nu)


def _check_frame_t0(rng):
    for _ in range(50):
        g = rng.uniform(0.0, 0.95)
        p = make_params(g)
        mu, nu = _random_frame(rng)
        fc = frame_coeffs(mu, nu, 0.0, p)
        yield abs(fc.a - (mu - g * nu))
        yield abs(fc.b - p.omega_reduced * nu)


_EXPLICIT_HERMITE = (
    lambda x: np.ones_like(x),
    lambda x: 2.0 * x,
    lambda x: 4.0 * x**2 - 2.0,
    lambda x: 8.0 * x**3 - 12.0 * x,
    lambda x: 16.0 * x**4 - 48.0 * x**2 + 12.0,
    lambda x: 32.0 * x**5 - 160.0 * x**3 + 120.0 * x,
)


def _check_hermite_match(rng):
    """`hermite_gauss` against the explicit H_n exp(-x**2/2) / sqrt(2**n n! sqrt(pi))."""
    xs = _uniforms(rng, -5.0, 5.0, 100)
    for n, explicit in enumerate(_EXPLICIT_HERMITE):
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        expected = explicit(xs) * np.exp(-0.5 * xs * xs) / norm
        yield float(np.max(np.abs(hermite_gauss(n, xs) - expected)))


def _check_hermite_parity(rng):
    xs = _uniforms(rng, -5.0, 5.0, 50)
    for n in range(0, 9):
        yield float(np.max(np.abs(hermite_gauss(n, -xs) - (-1.0) ** n * hermite_gauss(n, xs))))


def _check_quad_gauss(rng):
    normal = lambda xs: np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    spec = QuadratureSpec(center=0.0, half_width=10.0, points=96)
    yield abs(integrate(normal, spec) - 1.0)
    yield abs(integrate(lambda xs: xs * np.exp(-xs * xs), spec))


def _check_quad_doubling(rng):
    normal = lambda xs: np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    a = integrate(normal, QuadratureSpec(0.0, 10.0, 96))
    b = integrate(normal, QuadratureSpec(0.0, 10.0, 192))
    yield abs(a - b)


def _check_hermite_orthonormal(rng):
    f = lambda xs: hermite_gauss(2, xs) ** 2
    yield abs(integrate(f, QuadratureSpec(0.0, 12.0, 260)) - 1.0)


def _check_psi_norm(rng):
    p = make_params(0.05)
    t = 5.0
    for state in (Fock(0), Fock(1), Fock(2), Fock(3), Coherent(1.0 + 0.5j)):
        spec = _x_window(state, 1.0, 0.0, t, p)
        yield abs(integrate(lambda qs: np.abs(psi(state, qs, t, p)) ** 2, spec) - 1.0)


def _check_psi_moments(rng):
    """|psi_alpha|^2 is a Gaussian: numeric mean/variance vs closed form."""
    for _ in range(5):
        g = rng.uniform(0.0, 0.5)
        t = rng.uniform(0.0, 5.0)
        alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        p = make_params(g)
        spec = _x_window(Coherent(alpha), 1.0, 0.0, t, p)
        mean_exact = spec.center  # the window's center is the closed-form <q>
        var_exact = epsilon(t, p).ee / 2.0
        dens = lambda qs: np.abs(coherent_psi(qs, t, alpha, p)) ** 2
        mean = integrate(lambda qs: qs * dens(qs), spec)
        var = integrate(lambda qs: (qs - mean_exact) ** 2 * dens(qs), spec)
        yield abs(mean - mean_exact)
        yield abs(var - var_exact)


def _check_wigner_ground(rng):
    # psi-quadrature W against 2 exp(-q**2 - p**2), then `wigner` within 2 sigma
    p = make_params(0.0)
    qs = _uniforms(rng, -1.5, 1.5, 12)
    ps = _uniforms(rng, -1.5, 1.5, 12)
    got = _wigner_quadrature(qs, ps, 0.0, Fock(0), p)
    expected = 2.0 * np.exp(-qs * qs - ps * ps)
    yield float(np.max(np.abs(got - expected)))
    yield abs(_wigner_quadrature(0.0, 0.0, 0.0, Fock(0), p) - 2.0)
    for _ in range(12):
        state = (_random_fock if rng.random() < 0.5 else _random_coherent)(rng)
        p, t = _random_damping(rng)
        mean, cov = wigner_moments(state, t, p)
        q, pv = mean + np.sqrt(np.diag(cov)) * _uniforms(rng, -2.0, 2.0, 2)
        yield abs(_wigner_quadrature(q, pv, t, state, p) - wigner(q, pv, t, state, p))


def _check_wigner_marginal(rng):
    p = make_params(0.05)
    t = 5.0
    state = Fock(1)
    spec = _x_window(state, 0.0, 1.0, t, p)
    qs = _uniforms(rng, -1.0, 1.0, 20) * math.sqrt(epsilon(t, p).ee)
    # the p-integral of the closed-form W at each q
    marg = np.array([integrate(lambda ps: wigner(q, ps, t, state, p), spec) for q in qs]) / (2.0 * math.pi)
    yield float(np.max(np.abs(marg - np.abs(psi(state, qs, t, p)) ** 2)))


def _check_wigner_parity(rng):
    p = make_params(0.05)
    for n in (0, 1, 2):
        qs = _uniforms(rng, -1.5, 1.5, 8)
        ps = _uniforms(rng, -1.5, 1.5, 8)
        a = _wigner_quadrature(qs, ps, 2.0, Fock(n), p)
        b = _wigner_quadrature(-qs, -ps, 2.0, Fock(n), p)
        yield float(np.max(np.abs(a - b)))


def _check_normalization(rng):
    for _ in range(30):
        g = _pick(rng, [0.0, 0.05, 0.3, 0.6])
        t = rng.uniform(0.0, 6.0)
        mu, nu = _random_frame(rng)
        state = _random_state(rng)
        yield abs(normalization(state, mu, nu, t, make_params(g)) - 1.0)


def _check_radon_ground(rng):
    p = make_params(0.0)
    for _ in range(6):
        mu, nu = _random_frame(rng)
        x = rng.uniform(-1.5, 1.5)
        frame = TomographyFrame(x, mu, nu)
        yield abs(radon_tomogram(Fock(0), frame, 0.0, p) - ground_tomogram(frame, 0.0, p))


def _check_radon_family(draw_state, rng):
    # X within 2.5 sigma of the state's mean (its X window spans 8 sigma)
    for _ in range(12):
        p, t = _random_damping(rng)
        mu, nu = _random_frame(rng, 0.5, 1.5)
        state = draw_state(rng)
        spec = _x_window(state, mu, nu, t, p)
        frame = TomographyFrame(spec.center + rng.uniform(-2.5, 2.5) * spec.half_width / 8.0, mu, nu)
        yield abs(tomogram(state, frame, t, p) - radon_tomogram(state, frame, t, p))


def _check_homogeneity(rng):
    states = [Fock(0), Fock(2), Coherent(1.0 + 0.5j)]
    for lam in (-2.0, 0.5, 3.0):
        for state in states:
            p, t, mu, nu = _random_setting(rng, 0.6, 5.0)
            x = rng.uniform(-2.0, 2.0)
            w1 = tomogram(state, TomographyFrame(x, mu, nu), t, p)
            w2 = abs(lam) * tomogram(
                state, TomographyFrame(lam * x, lam * mu, lam * nu), t, p
            )
            yield abs(w1 - w2) / max(1.0, abs(w1))


def _check_nonnegativity(rng):
    # each grid's residual is how far its lowest value falls below zero
    for _ in range(40):
        p, t, mu, nu = _random_setting(rng, 0.7, 6.0)
        state = _random_state(rng)
        s2 = frame_scale_sq(mu, nu, t, p)
        xs = np.linspace(-4.0, 4.0, 41) * math.sqrt(s2 / 2.0)
        yield -float(np.min(tomogram(state, TomographyFrame(xs, mu, nu), t, p)))


def _check_parity(rng):
    p = make_params(0.3)
    t = 2.0
    mu, nu = 0.8, -0.7
    xs = _uniforms(rng, 0.1, 2.5, 10)
    for n in (0, 1, 2, 3):
        a = fock_tomogram(TomographyFrame(xs, mu, nu), t, n, p)
        b = fock_tomogram(TomographyFrame(-xs, mu, nu), t, n, p)
        yield float(np.max(np.abs(a - b)))
    alpha = 1.2 - 0.4j
    a = coherent_tomogram(TomographyFrame(xs, mu, nu), t, -alpha, p)
    b = coherent_tomogram(TomographyFrame(-xs, mu, nu), t, alpha, p)
    yield float(np.max(np.abs(a - b)))


def _check_second_moment(rng):
    for _ in range(6):
        p, t, mu, nu = _random_setting(rng, 0.6, 5.0)
        s2 = frame_scale_sq(mu, nu, t, p)
        m2 = integrate(
            lambda xs: xs * xs * ground_tomogram(TomographyFrame(xs, mu, nu), t, p),
            _x_window(Fock(0), mu, nu, t, p),
        )
        yield abs(m2 - s2 / 2.0) / max(1.0, s2 / 2.0)


def _check_gamma0_reduction(rng):
    p = make_params(0.0)
    for _ in range(20):
        mu, nu = _random_frame(rng)
        t = rng.uniform(0.0, 6.0)
        x = rng.uniform(-2.0, 2.0)
        ss = mu * mu + nu * nu
        w0 = ground_tomogram(TomographyFrame(x, mu, nu), t, p)
        exact0 = math.exp(-x * x / ss) / math.sqrt(math.pi * ss)
        yield abs(w0 - exact0)
        n = int(4 * rng.random())
        wn = fock_tomogram(TomographyFrame(x, mu, nu), t, n, p)
        y = x / math.sqrt(ss)
        yield abs(wn - exact0 * hermite(n, y) ** 2 / (2.0**n * math.factorial(n)))
        alpha = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        wa = coherent_tomogram(TomographyFrame(x, mu, nu), t, alpha, p)
        xbar = _SQRT2 * (alpha * complex(mu, -nu) * complex(math.cos(t), -math.sin(t))).real
        yield abs(wa - math.exp(-((x - xbar) ** 2) / ss) / math.sqrt(math.pi * ss))


def _check_alpha0_equals_fock0(rng):
    for g, t in ((0.0, 0.0), (0.05, 5.0), (0.3, 2.0)):
        p = make_params(g)
        mu, nu = _random_frame(rng)
        xs = np.linspace(-3.0, 3.0, 31)
        a = coherent_tomogram(TomographyFrame(xs, mu, nu), t, 0.0, p)
        b = fock_tomogram(TomographyFrame(xs, mu, nu), t, 0, p)
        yield float(np.max(np.abs(a - b)))


def _check_first_moment(rng):
    p = make_params(0.05)
    t, alpha, mu, nu = 2.0, 1.0 + 1.0j, 0.6, -1.1
    m1 = integrate(
        lambda xs: xs * coherent_tomogram(TomographyFrame(xs, mu, nu), t, alpha, p),
        _x_window(Coherent(alpha), mu, nu, t, p),
    )
    q_mean, p_mean = coherent_moments_from_psi(alpha, t, p)
    yield abs(m1 - (mu * q_mean + nu * p_mean))


def _check_central_diff_order(rng):
    hs = np.logspace(-4, -1, 10)
    errs = [abs(central_diff(np.sin, 0.3, h) - math.cos(0.3)) for h in hs]
    yield abs(float(np.polyfit(np.log(hs), np.log(errs), 1)[0]) - 2.0)


def _check_evolution_rel(rng):
    h = 1e-3
    for _ in range(50):
        state, x, mu, nu, t, p = _evolution_config(rng, [0.0, 0.05, 0.3, 0.7], h)
        yield relative_residual(state, x, mu, nu, t, h, p)


def _check_convergence_order(rng):
    ladder = (1e-2, 5e-3, 2.5e-3)
    cases = [
        (Fock(1), (0.7, 0.8, -0.6, 5.0), 0.05),
        (Fock(1), (0.7, 0.8, -0.6, 5.0), 0.0),
        (Coherent(1.0 + 1.0j), (0.4, 1.1, 0.5, 2.0), 0.3),
    ]
    for state, point, g in cases:
        yield abs(convergence_study(state, point, ladder, make_params(g)).converged_order - 2.0)


def _check_tprime_consistency(rng):
    # the t'-side truncation carries an extra exp(4 gamma t) through the
    # chain rule, so the two discretizations agree "up to FD noise" only
    # where 2 gamma t is moderate; sample 2 gamma t <= 1
    h = 1e-3
    for _ in range(10):
        while True:
            state, x, mu, nu, t, p = _evolution_config(rng, [0.0, 0.05, 0.3], h)
            if 2.0 * p.gamma * t <= 1.0:
                break
        # both forms approximate the same identity: the t-form replaces
        # d/dt' by e^{2 gamma t} d/dt via the chain rule; both take D4
        _, terms = _terms(state, x, mu, nu, t, h, p, richardson=True)
        r_t = sum(terms)
        r_tp = evolution_residual_tprime(state, x, mu, nu, t, h, p)
        scale = max(1.0, *[abs(term) for term in terms])
        yield abs(r_t - r_tp) / scale


def _check_characteristic_gauss(rng):
    # quadrature w~ against exp(-k**2/4), then against `characteristic`
    p = make_params(0.0)
    for k in (0.3, 1.0, 2.0):
        got = tomogram_characteristic(Fock(0), k, 1.0, 0.0, 0.0, p)
        yield abs(got - math.exp(-k * k / 4.0))
    for _ in range(12):
        p, t, mu, nu = _random_setting(rng, 0.5, 4.0)
        k, state = rng.uniform(0.1, 4.0), _random_state(rng)
        oracle = tomogram_characteristic(state, k, mu, nu, t, p)
        yield abs(oracle - characteristic(state, k, mu, nu, t, p))


def _check_characteristic_unit(rng):
    # w~(k -> 0) -> 1 (normalization); at finite small k a displaced state
    # keeps a genuine linear term i k <X>, so test |w~ - 1| for Fock states
    # (<X> = 0 by parity) and the k-even real part for displaced ones
    for _ in range(5):
        p, t, mu, nu = _random_setting(rng, 0.5, 4.0)
        state = _random_state(rng)
        got = tomogram_characteristic(state, 1e-6, mu, nu, t, p)
        yield abs(got - 1.0) if state.alpha == 0 else abs(got.real - 1.0)


def _check_characteristic_bound(rng):
    # each sample's residual is how far |w~| exceeds 1
    for _ in range(10):
        p, t, mu, nu = _random_setting(rng, 0.5, 4.0)
        k = rng.uniform(0.1, 4.0)
        state = _random_state(rng)
        yield abs(tomogram_characteristic(state, k, mu, nu, t, p)) - 1.0


def _check_dual_homogeneity(rng):
    for k in (0.5, 2.0):
        for _ in range(4):
            p, t, mu, nu = _random_setting(rng, 0.4, 4.0)
            state = _random_state(rng)
            lhs = tomogram_characteristic(state, k, mu, nu, t, p)
            rhs = tomogram_characteristic(state, 1.0, k * mu, k * nu, t, p)
            yield abs(lhs - rhs)


def _eigen_sample(rng, n_points, ts):
    pts = []
    for _ in range(n_points):
        k = rng.uniform(0.2, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        mu, nu = _random_frame(rng, 0.4, 1.5)
        pts.append(DualPoint(k=k, mu=mu, nu=nu, t=_pick(rng, ts)))
    return pts


def _check_eigen(n, rng):
    for g in (0.0, 0.05, 0.3):
        yield eigen_residual(n, _eigen_sample(rng, 7, [0.0, 1.0, 5.0]), 1e-3, make_params(g))


def _check_variant_agreement(rng):
    """Fock tomograms are even in X, so w~ is real and the two variants'
    first-order brackets must cancel identically."""
    p = make_params(0.3)
    for point in _eigen_sample(rng, 5, [0.0, 2.0]):
        state = Fock(1)
        stencil = _stencil(state, point, 1e-3, p)
        a, b = _apply_to_stencil(point, p, stencil)
        yield abs(a - b) / max(abs(stencil[0]), 1e-3)


def _check_printed_forms(variant, rng):
    p = make_params(0.0)
    point = DualPoint(k=1.0, mu=1.0, nu=0.5, t=0.0)
    state = Fock(1)
    value = number_apply_printed(variant, state, point, 1e-3, p)
    w00 = characteristic(state, 1.0, 1.0, 0.5, 0.0, p)
    yield abs(value - 1.0 * w00) / abs(w00)


# --------------------------------------------------------------------------
# suite wiring

_DYNAMICS = [
    ("ode_residual", _check_ode_residual, 1e-10),
    ("initial_conditions", _check_initial_conditions, 1e-14),
    ("wronskian", _check_wronskian, 1e-10),
    ("closed_vs_ode_rk4", _check_closed_vs_ode, 1e-7),
    ("time_roundtrip", _check_time_roundtrip, 1e-12),
    ("time_monotone", _check_time_monotone, 0.0),
    ("frame_coeffs_gamma0", _check_frame_gamma0, 1e-13),
    ("frame_coeffs_t0", _check_frame_t0, 1e-13),
]

_TOMOGRAPHY = [
    ("hermite_recurrence", _check_hermite_match, 1e-12),
    ("hermite_parity", _check_hermite_parity, 1e-12),
    ("quadrature_gaussian", _check_quad_gauss, 1e-10),
    ("quadrature_doubling", _check_quad_doubling, 1e-10),
    ("hermite_orthonormality", _check_hermite_orthonormal, 1e-9),
    ("psi_normalization", _check_psi_norm, 1e-9),
    ("psi_gaussian_moments", _check_psi_moments, 1e-8),
    ("wigner_ground_value", _check_wigner_ground, 1e-8),
    ("wigner_marginal", _check_wigner_marginal, 1e-7),
    ("wigner_parity", _check_wigner_parity, 1e-9),
    ("normalization_families", _check_normalization, 1e-9),
    ("radon_ground_closed_form", _check_radon_ground, 1e-6),
    ("radon_vs_fock", partial(_check_radon_family, _random_fock), 1e-5),
    ("radon_vs_coherent", partial(_check_radon_family, _random_coherent), 1e-5),
    ("homogeneity", _check_homogeneity, 1e-10),
    ("nonnegativity", _check_nonnegativity, 1e-12),
    ("parity_identities", _check_parity, 1e-10),
    ("second_moment", _check_second_moment, 1e-8),
    ("gamma0_reduction", _check_gamma0_reduction, 1e-10),
    ("alpha0_equals_fock0", _check_alpha0_equals_fock0, 0.0),
    ("coherent_first_moment", _check_first_moment, 1e-7),
]

_EVOLUTION = [
    ("central_diff_order", _check_central_diff_order, 0.1),
    ("evolution_residual_rel", _check_evolution_rel, 1e-5),
    ("evolution_convergence", _check_convergence_order, 0.3),
    ("tprime_consistency", _check_tprime_consistency, 2e-5),
]

_INVARIANTS = [
    ("characteristic_gaussian", _check_characteristic_gauss, 1e-8),
    ("characteristic_unit_k0", _check_characteristic_unit, 1e-8),
    ("characteristic_bound", _check_characteristic_bound, 1e-10),
    ("dual_homogeneity", _check_dual_homogeneity, 1e-8),
    ("eigen_n0", partial(_check_eigen, 0), 1e-3),
    ("eigen_n1", partial(_check_eigen, 1), 1e-3),
    ("eigen_n2", partial(_check_eigen, 2), 5e-3),
    ("variant_agreement", _check_variant_agreement, 1e-5),
    ("printed_direct_residual", partial(_check_printed_forms, "direct"), None),
    ("printed_conjugate_residual", partial(_check_printed_forms, "conjugate"), None),
]


def _line_value(check, rng):
    """A line's value: `_worst` of all the residuals the check yields, drawn
    inside this one call."""
    return _worst(check(rng))


# every entry's callable returns its line's value, a float, so a wrapper
# around it (perfbench's traced runs time each suite so) sees all its work;
# an INFO line (tolerance None) reports a value and carries tolerance nan
SUITES: dict[str, list] = {
    suite: [
        (name, partial(_line_value, check), math.nan if tol is None else tol, tol is None)
        for name, check, tol in entries
    ]
    for suite, entries in (
        ("dynamics", _DYNAMICS),
        ("tomography", _TOMOGRAPHY),
        ("evolution", _EVOLUTION),
        ("invariants", _INVARIANTS),
    )
}
# position of each suite's first check in the full SUITES order
_FIRST_INDEX = dict(zip(SUITES, itertools.accumulate(map(len, SUITES.values()), initial=0)))
# every scored line's tolerance, by the name the report prints
TOLERANCES: dict[str, float] = {name: tol for rows in SUITES.values() for name, _, tol, info in rows if not info}


def run_checks(suite: str, seed: int) -> list[CheckResult]:
    """Run one suite, or "all" of them in order, with the seeded samplers
    and return one result per check."""
    if suite != "all" and suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}")
    if int(seed) < 0:  # Random seeds an int by its magnitude: -s would repeat another seed's draws
        raise UsageError(f"seed must be a nonnegative integer, got {seed}")
    results: list[CheckResult] = []
    for name in list(SUITES) if suite == "all" else [suite]:
        for index, (check, fn, tol, info) in enumerate(SUITES[name], _FIRST_INDEX[name]):
            value = float(fn(_sampler(int(seed), index)))
            results.append(CheckResult(check, value, tol, passed=info or value <= tol, info=info))
    return results
