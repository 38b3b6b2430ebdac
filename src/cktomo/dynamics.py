"""Classical mode function of the damped oscillator and derived frame data.

Every time dependence in the library flows through the complex mode
function eps(t), the solution of

    eps'' + 2*gamma*eps' + eps = 0,
    eps(0) = 1/sqrt(Omega),   eps'(0) = (i*Omega - gamma)/sqrt(Omega),

with the reduced frequency Omega = sqrt(1 - gamma**2).  In closed form

    eps(t) = exp(-gamma*t) * (cos(Omega*t) + i*sin(Omega*t)) / sqrt(Omega),

so eps'(t) = (i*Omega - gamma) * eps(t).  Units are fixed to
hbar = m = omega = 1; the friction coefficient gamma is the only free
physical parameter and only the underdamped regime 0 <= gamma < 1 is
supported (Omega must be real).

Useful exact consequences used throughout:

    |eps|^2            = exp(-2*gamma*t) / Omega
    Re(eps* eps')      = -gamma * |eps|^2
    Im(eps* eps')      = exp(-2*gamma*t)        (conserved Wronskian form)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFrame, DomainError

__all__ = [
    "DampingParams",
    "EpsilonState",
    "FrameCoeffs",
    "make_params",
    "epsilon",
    "epsilon_residual",
    "time_forward",
    "time_backward",
    "frame_coeffs",
    "frame_quantities",
]

# largest x with exp(x) finite in double precision
_LOG_MAX = math.log(sys.float_info.max)
# below this |2*gamma*t|, the time maps are the identity to the last bit
_IDENTITY = 2.0**-54


@dataclass(frozen=True)
class DampingParams:
    """Friction coefficient gamma, 0 <= gamma < 1, and the reduced frequency
    Omega = sqrt(1 - gamma**2) derived from it, so the two cannot disagree.
    Construct via :func:`make_params`.
    """

    gamma: float
    omega_reduced: float = field(init=False)

    def __post_init__(self) -> None:
        g = _require_gamma(self.gamma)
        object.__setattr__(self, "omega_reduced", math.sqrt(1.0 - g * g))


@dataclass(frozen=True)
class EpsilonState:
    """Mode function eps, its analytic derivative and, computed only here,
    ee = eps eps*, dd = eps' eps'*, ce = eps* eps' and e2 = exp(2*gamma*t)."""

    t: float
    eps: complex
    eps_dot: complex
    ee: float
    dd: float
    ce: complex
    e2: float


@dataclass(frozen=True)
class FrameCoeffs:
    """Damping-dressed frame coefficients (a, b).

    b equals nu / (eps eps*) exactly; a is affine in (mu, nu) at fixed t.
    At gamma = 0 they reduce to (mu, nu).
    """

    a: float
    b: float


def make_params(gamma: float) -> DampingParams:
    """DampingParams of a real gamma; it refuses a gamma outside [0, 1)."""
    try:
        g = float(gamma)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"gamma must be a real number, got {gamma!r}") from exc
    return DampingParams(g)


def _require_gamma(gamma: float) -> float:
    if not 0.0 <= gamma < 1.0:  # false for nan and +-inf too
        raise DomainError(f"underdamped regime requires 0 <= gamma < 1, got {gamma!r}")
    return gamma


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def epsilon(t: float, params: DampingParams) -> EpsilonState:
    """Evaluate the closed-form mode function and its derivative at time t.

    The derivative is obtained analytically, eps' = (i*Omega - gamma)*eps,
    never by numerical differentiation; at t = 0 the initial data
    (1/sqrt(Omega), (i*Omega - gamma)/sqrt(Omega)) is reproduced exactly.
    Times at which exp(2*gamma*t) or exp(-gamma*t) leaves the double range
    raise DomainError.
    """
    t = _require_finite("t", t)
    g, om = params.gamma, params.omega_reduced
    if 2.0 * g * t > _LOG_MAX or -g * t > _LOG_MAX:
        raise DomainError(
            f"gamma*t = {g * t!r} puts exp(2*gamma*t) or exp(-gamma*t) "
            "outside the double range"
        )
    eps = (
        math.exp(-g * t)
        * complex(math.cos(om * t), math.sin(om * t))
        / math.sqrt(om)
    )
    eps_dot = complex(-g, om) * eps
    ee, dd = (eps * eps.conjugate()).real, (eps_dot * eps_dot.conjugate()).real
    ce = eps.conjugate() * eps_dot
    return EpsilonState(t, eps, eps_dot, ee, dd, ce, math.exp(2.0 * g * t))


def epsilon_residual(t: float, params: DampingParams) -> float:
    """|eps'' + 2*gamma*eps' + eps| with eps'' in closed form.

    eps'' = (i*Omega - gamma)**2 * eps; the residual is pure rounding noise
    and must stay below 1e-10 on the whole supported domain.
    """
    es = epsilon(t, params)
    lam = complex(-params.gamma, params.omega_reduced)
    eps_ddot = lam * lam * es.eps
    return abs(eps_ddot + 2.0 * params.gamma * es.eps_dot + es.eps)


def time_forward(t: float, gamma: float) -> float:
    """Reparameterized time t' = (1 - exp(-2*gamma*t)) / (2*gamma).

    Where |2*gamma*t| < 2**-54 (gamma = 0 included) t' rounds to t, which is
    returned.  For t > 0 the expm1 value takes one Newton step on
    time_backward(t') = t, with dt'/dt = exp(-2*gamma*t), so the round trip
    holds to the rounding of t' alone; at t < 0 that factor exceeds 1 and
    would amplify the rounding of time_backward instead.  Where
    exp(-2*gamma*t) overflows, t' = -exp(-2*gamma*t) / (2*gamma) (the 1 of
    expm1 is below its last digit) is formed as a product of two halves, and
    is finite up to -2*gamma*t = ln(max double) + ln(2*gamma); a t' outside
    the double range raises DomainError.
    """
    t = _require_finite("t", t)
    gamma = _require_gamma(float(gamma))
    y = 2.0 * gamma * t
    if abs(y) < _IDENTITY:
        return t
    if -y > _LOG_MAX:
        half = math.exp(min(-0.5 * y, _LOG_MAX))
        t_prime = -(half / (2.0 * gamma)) * half
        if math.isinf(t_prime):
            raise DomainError(f"2*gamma*t = {y!r} puts t' outside the double range")
        return t_prime
    t_prime = -math.expm1(-y) / (2.0 * gamma)
    if t <= 0.0 or 2.0 * gamma * t_prime >= 1.0:  # or t' saturated at 1/(2 gamma)
        return t_prime
    return t_prime + (t - time_backward(t_prime, gamma)) * math.exp(-y)


def time_backward(t_prime: float, gamma: float) -> float:
    """Inverse map t = -ln(1 - 2*gamma*t') / (2*gamma).

    The forward map takes every real t onto (-inf, 1/(2*gamma)), with t < 0
    onto t' < 0; outside that image the logarithm has no real branch and a
    DomainError is raised.  Where |2*gamma*t'| < 2**-54 (gamma = 0 included)
    t rounds to t', which is returned.  From 2*gamma*t' = 1/2 on, 1 - 2*gamma*t'
    cancels: it is formed from the exact product hi + lo = 2*gamma*t' as
    (1 - hi) - lo, with 1 - hi exact (Sterbenz), so it carries one rounding.
    """
    t_prime = _require_finite("t_prime", t_prime)
    gamma = _require_gamma(float(gamma))
    x = 2.0 * gamma * t_prime
    if abs(x) < _IDENTITY:
        return t_prime
    if x >= 1.0:
        raise DomainError(
            f"t_prime={t_prime} outside the image of the forward map "
            f"(-inf, 1/(2*gamma)) = (-inf, {1.0 / (2.0 * gamma)})"
        )
    if x == -math.inf:  # 2*gamma*|t'| overflows; the 1 is far below its last digit
        return -(math.log(2.0 * gamma) + math.log(-t_prime)) / (2.0 * gamma)
    if x < 0.5:
        return -math.log1p(-x) / (2.0 * gamma)
    hi, lo = _two_product(2.0 * gamma, t_prime)
    return -math.log((1.0 - hi) - lo) / (2.0 * gamma)


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of 53 bits into 26 + 27


def _two_product(a: float, b: float) -> tuple[float, float]:
    """hi + lo = a*b exactly, hi the rounded product (Dekker, Numer. Math. 18
    (1971) 224), split at the frexp mantissas so no partial product over- or
    underflows; exact while hi and lo are normal doubles."""
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    ca, cb = _SPLIT * ma, _SPLIT * mb
    a1, b1 = ca - (ca - ma), cb - (cb - mb)
    a2, b2 = ma - a1, mb - b1
    hi = ma * mb
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    return math.ldexp(hi, ea + eb), math.ldexp(lo, ea + eb)


def frame_quantities(mu, nu, es: EpsilonState):
    """Frame coefficients and tomogram scale for scalar or array mu, nu:

        a  = exp(2*gamma*t) * nu * (eps* eps' + eps eps'*) / (2 eps eps*) + mu
        b  = nu / (eps eps*),    s2 = eps eps* (a**2 + b**2)

    All are built from manifestly real bilinears of eps, so exactly real.
    Python-float mu and nu stay Python floats, with the same IEEE operations.
    """
    if type(mu) is not float or type(nu) is not float:
        mu, nu = np.asarray(mu, float), np.asarray(nu, float)
    a = es.e2 * nu * es.ce.real / es.ee + mu
    b = nu / es.ee
    return a, b, es.ee * (a * a + b * b)


def frame_coeffs(mu: float, nu: float, t: float, params: DampingParams) -> FrameCoeffs:
    """Validated scalar view of :func:`frame_quantities`: the frame
    coefficients a, b of the (mu, nu) quadrature at time t."""
    mu = _require_finite("mu", mu)
    nu = _require_finite("nu", nu)
    if mu == 0.0 and nu == 0.0:
        raise DegenerateFrame("frame direction (mu, nu) = (0, 0) is degenerate")
    a, b, _ = frame_quantities(mu, nu, epsilon(t, params))
    return FrameCoeffs(a=float(a), b=float(b))
