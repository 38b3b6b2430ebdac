"""Wave functions and Wigner functions of the damped oscillator, in
closed form.

Every state here is a displaced number state D(alpha)|n> of the damped
oscillator, with n = 0 (`Coherent`) or alpha = 0 (`Fock`); both classes
carry both numbers, so one closed form covers each observable.

Conventions
-----------
The Wigner function is

    W(q, p, t) = Integral  psi(q + u/2) psi*(q - u/2) exp(-i p u) du,

which fixes the normalization Integral W dq dp = 2*pi.  That is the unique
choice consistent with the Radon relation between W and the quadrature
distribution together with the normalization of the latter; it is pinned by
the frictionless ground state, W = 2 exp(-q**2 - p**2).  `wigner` is
Groenewold's closed form of this integral; the integral itself, from psi,
is its oracle `checks._wigner_quadrature`.

Branch tracking: eps(t) = |eps| exp(i*Omega*t) with a positive modulus, so
complex powers of eps are taken with the phase unwrapped as Omega*t rather
than folded into (-pi, pi].  Any fixed branch would cancel in observables;
the continuous one keeps wave-function-level cross-checks simple.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .dynamics import DampingParams, epsilon
from .errors import DomainError
from .numerics import _laguerre, hermite_gauss

__all__ = [
    "Coherent",
    "Fock",
    "QuantumState",
    "coherent_psi",
    "fock_psi",
    "psi",
    "wigner",
    "wigner_moments",
]

_SQRT2 = math.sqrt(2.0)
_MAX_FOCK = 16
_MAX_ALPHA = 8.0
# every W here (n <= 16) is 0.0 from r**2 = 746 on, where exp(-r**2)
# underflows while L_n(2 r**2) stays finite; clipping r**2 there moves no value
_R2_TAIL = 1.0e3


@dataclass(frozen=True)
class Coherent:
    """Coherent state |alpha> of the damped oscillator."""

    alpha: complex
    n: ClassVar[int] = 0

    def __post_init__(self) -> None:
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise DomainError(f"alpha must be finite, got {a!r}")
        if abs(a) > _MAX_ALPHA:
            raise DomainError(f"|alpha| <= {_MAX_ALPHA} required, got |{a}| = {abs(a)}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class Fock:
    """Number (loss-energy) state |n> of the damped oscillator."""

    n: int
    alpha: ClassVar[complex] = 0j

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise DomainError(f"Fock index must be an integer, got {self.n!r}")
        if not (0 <= self.n <= _MAX_FOCK):
            raise DomainError(f"Fock index must lie in [0, {_MAX_FOCK}], got {self.n}")
        object.__setattr__(self, "n", int(self.n))


QuantumState = Union[Coherent, Fock]


def _mean(state: QuantumState, es) -> tuple[float, float]:
    """The state's Wigner mean (qbar, pbar) =
    (sqrt(2) Re(alpha eps*), sqrt(2) e^{2 gamma t} Re(alpha eps'*)), from the
    `dynamics.EpsilonState` the caller already holds."""
    # Re(alpha z*) = Re(alpha) Re(z) + Im(alpha) Im(z), for z = eps, eps'
    ar, ai = state.alpha.real, state.alpha.imag
    qbar = _SQRT2 * (ar * es.eps.real + ai * es.eps.imag)
    return qbar, _SQRT2 * es.e2 * (ar * es.eps_dot.real + ai * es.eps_dot.imag)


def _amplitude(state: QuantumState, t: float, params: DampingParams):
    """The one home of the wave functions: the split
    psi(q) = c R(q) exp(i (theta q**2 + kappa q)) with R real, returned as
    (c, theta, kappa, R).  The paper prints, with beta = sqrt(2) alpha / eps
    and C = -eps* alpha**2 / (2 eps),

        coherent: psi = pi**(-1/4) eps**(-1/2)
                        * exp( i eps' e^{2 gamma t} q**2 / (2 eps) + beta q + C - |alpha|**2/2 )
        Fock n:   psi = pi**(-1/4) eps**(-1/2) (eps*/(2 eps))**(n/2) / sqrt(n!)
                        * exp( i eps' e^{2 gamma t} q**2 / (2 eps) ) H_n(q / |eps|)

    Both are D(alpha)|n> (alpha = 0 or n = 0), written once: the q**2
    coefficient is -1/(2 |eps|**2) + i theta, theta = -gamma e^{2 gamma t}/2;
    kappa = Im beta; R = phi_n((q - qbar) / |eps|) (`numerics.hermite_gauss`)
    with qbar of `_mean`, since the coherent real exponent is exactly
    -(q - qbar)**2 / (2 |eps|**2); c = Omega**(1/4) e^{gamma t/2}
    e^{-i (n + 1/2) Omega t} e^{i Im C}, with (eps*/eps)**(n/2) =
    e^{-i n Omega t} on the tracked branch.  Fock states have qbar = 0 and
    C = 0.  The alpha**2 term uses eps*, not eps'*: with the dotted
    coefficient the state is not normalized for alpha != 0.
    """
    es = epsilon(t, params)
    om, theta = params.omega_reduced, -0.5 * params.gamma * es.e2
    n, alpha, scale, qbar = state.n, state.alpha, math.sqrt(es.ee), _mean(state, es)[0]
    beta = _SQRT2 * alpha / es.eps
    const = -es.eps.conjugate() * alpha * alpha / (2.0 * es.eps)
    # eps**(-1/2) on the tracked branch: Omega**(1/4) exp(gamma t / 2) exp(-i Omega t / 2)
    c = om**0.25 * math.exp(0.5 * params.gamma * t) * cmath.exp(-0.5j * om * t)
    c *= cmath.exp(-1j * n * om * t)
    c *= cmath.exp(1j * const.imag)
    return c, theta, beta.imag, lambda q: hermite_gauss(n, (q - qbar) / scale)


def _psi(state: QuantumState, q, t: float, params: DampingParams) -> complex | np.ndarray:
    c, theta, kappa, r = _amplitude(state, t, params)
    qa = np.asarray(q, dtype=float)
    out = c * r(qa) * np.exp(1j * (theta * qa + kappa) * qa)
    return complex(out) if qa.ndim == 0 else out


def coherent_psi(q, t: float, alpha: complex, params: DampingParams) -> complex | np.ndarray:
    """Coherent-state wave function at position(s) q and time t (formula in
    `_amplitude`)."""
    return _psi(Coherent(alpha), q, t, params)


def fock_psi(q, t: float, n: int, params: DampingParams) -> complex | np.ndarray:
    """Fock-state wave function at position(s) q and time t (formula in
    `_amplitude`)."""
    return _psi(Fock(n), q, t, params)


def psi(state: QuantumState, q, t: float, params: DampingParams):
    """Wave function of either state family."""
    if isinstance(state, Fock):
        return fock_psi(q, t, state.n, params)
    if isinstance(state, Coherent):
        return coherent_psi(q, t, state.alpha, params)
    raise DomainError(f"unknown state {state!r}")


def wigner_moments(state: QuantumState, t: float, params: DampingParams):
    """Phase-space mean (q, p) and symmetrized covariance of the state's
    Wigner function, in closed form.

    Every state here shares the ground-like covariance
        [[e^{-2 gamma t}, -gamma], [-gamma, e^{2 gamma t}]] / (2 Omega)
    times 2n+1, and the mean of `_mean`.
    Every quadrature window of the library is sized from these moments.
    """
    es = epsilon(t, params)
    g, om, e2 = params.gamma, params.omega_reduced, es.e2
    cov = np.array([[1.0 / (e2 * om), -g / om], [-g / om, e2 / om]]) / 2.0
    mean = np.array(_mean(state, es))
    return mean, cov * (2.0 * state.n + 1.0)


def wigner(q, p, t: float, state: QuantumState, params: DampingParams):
    """Wigner quasidistribution W(q, p, t), normalized so its full
    phase-space integral equals 2*pi, in Groenewold's closed form

        W = 2 (-1)**n exp(-r**2) L_n(2 r**2),
        r**2 = |eps (p - pbar) - e^{2 gamma t} eps' (q - qbar)|**2,

    with the mean (qbar, pbar) of `_mean` and L_n the Laguerre
    polynomial (`numerics._laguerre`).  r**2 is 2 |A|**2 of the
    invariant A(t) of `cktomo.invariants`, a modulus, so it has no
    cancellation; it is clipped at _R2_TAIL, past which W is 0.0.  Accepts
    scalar or ndarray q, p (broadcast together).
    """
    qa, pa = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    if not (np.isfinite(qa).all() and np.isfinite(pa).all()):
        raise DomainError("q and p must be finite")
    es = epsilon(t, params)
    qbar, pbar = _mean(state, es)
    # q and p broadcast only here, so a (Q, 1) x (1, P) grid builds no
    # (Q, P) copy of either axis
    dq, dp = qa - qbar, pa - pbar
    eps, drift = es.eps, es.e2 * es.eps_dot
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = np.square(eps.real * dp - drift.real * dq)
        r2 += np.square(eps.imag * dp - drift.imag * dq)
        # fmin also maps the nan of an overflowed inf - inf, a point as far out
        r2 = np.fmin(r2, _R2_TAIL)
    out = np.exp(-r2)
    if state.n:
        out *= _laguerre(state.n, 2.0 * r2)
    out *= 2.0 * (-1.0) ** state.n
    return float(out) if out.ndim == 0 else out

