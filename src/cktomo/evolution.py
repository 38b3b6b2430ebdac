"""Finite-difference verification that the analytic tomograms satisfy the
classical-like evolution equation of the damped oscillator.

In reparameterized time t' the equation reads

    dw/dt' - mu dw/dnu + exp(4 gamma t) nu dw/dmu = 0,

and since dt/dt' = exp(2 gamma t) its exact physical-time form is

    R = exp(2 gamma t) dw/dt - mu dw/dnu + exp(4 gamma t) nu dw/dmu = 0.

The residual R is evaluated with order-1 central differences of the
closed-form tomograms (step h in each variable) and must vanish as
O(h**2); this module checks the identity rather than time-stepping it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DampingParams, epsilon, time_backward, time_forward
from .errors import DomainError, StepTooLarge
from .numerics import central_diff
from .states import QuantumState
from .tomography import TomographyFrame, frame_scale_sq, tomogram

__all__ = [
    "ResidualReport",
    "evolution_terms",
    "evolution_residual",
    "evolution_residual_tprime",
    "relative_residual",
    "convergence_study",
]


@dataclass(frozen=True)
class ResidualReport:
    """Result of a step-ladder residual study at one tomography point."""

    point: tuple[float, float, float, float]  # (X, mu, nu, t)
    step: float
    residual: float
    converged_order: float


def _frame_terms(state: QuantumState, x, mu, nu, t, h, params: DampingParams):
    """Step guard and the stencil shared by both residual forms: returns the
    tomogram evaluator w(x, mu, nu, t), exp(2 gamma t) and the frame terms
    (-mu dw/dnu, e^{4gt} nu dw/dmu), each from a central difference."""
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"step h must be positive and finite, got {h}")
    if t - h < 0.0:
        raise DomainError(f"t - h = {t - h} < 0: backward time node leaves the domain")
    scale = math.sqrt(frame_scale_sq(mu, nu, t, params))
    if h > 0.1 * min(1.0, scale):
        raise StepTooLarge(
            f"h = {h} exceeds 0.1 * min(1, sqrt(s2)) = {0.1 * min(1.0, scale)}"
        )
    e2 = epsilon(t, params).e2

    def w(x_, mu_, nu_, t_):
        return float(tomogram(state, TomographyFrame(x_, mu_, nu_), t_, params))

    dw_dnu = central_diff(lambda nu_: w(x, mu, nu_, t), nu, h)
    dw_dmu = central_diff(lambda mu_: w(x, mu_, nu, t), mu, h)
    return w, e2, -mu * dw_dnu, e2 * e2 * nu * dw_dmu


def evolution_terms(
    state: QuantumState,
    x: float,
    mu: float,
    nu: float,
    t: float,
    h: float,
    params: DampingParams,
) -> tuple[float, float, float]:
    """The three residual terms (e^{2gt} dw/dt, -mu dw/dnu, e^{4gt} nu dw/dmu),
    each from an order-1 central difference with step h."""
    w, e2, mu_term, nu_term = _frame_terms(state, x, mu, nu, t, h, params)
    dw_dt = central_diff(lambda t_: w(x, mu, nu, t_), t, h)
    return e2 * dw_dt, mu_term, nu_term


def evolution_residual(
    state: QuantumState,
    x: float,
    mu: float,
    nu: float,
    t: float,
    h: float,
    params: DampingParams,
) -> float:
    """Signed finite-difference residual R of the evolution equation."""
    return sum(evolution_terms(state, x, mu, nu, t, h, params))


def relative_residual(
    state: QuantumState,
    x: float,
    mu: float,
    nu: float,
    t: float,
    h: float,
    params: DampingParams,
) -> float:
    """|R| normalized by the natural scale of the identity.

    The scale is max(1, w, |each term|): at strong damping the individual
    terms carry exp(2 gamma t) and exp(4 gamma t) factors that cancel in
    the sum, so measuring |R| against the terms (not only against w) is
    what makes the check meaningful uniformly in gamma and t.
    """
    terms = evolution_terms(state, x, mu, nu, t, h, params)
    w0 = float(tomogram(state, TomographyFrame(x, mu, nu), t, params))
    scale = max(1.0, abs(w0), *[abs(term) for term in terms])
    return abs(sum(terms)) / scale


def evolution_residual_tprime(
    state: QuantumState,
    x: float,
    mu: float,
    nu: float,
    t: float,
    h: float,
    params: DampingParams,
) -> float:
    """Residual with the time derivative taken in t' coordinates.

    Differences w(t(t')) around t' = t'(t) with step h; by the chain rule
    this must agree with :func:`evolution_residual` up to finite-difference
    noise, cross-checking the time reparameterization maps.
    """
    w, _, mu_term, nu_term = _frame_terms(state, x, mu, nu, t, h, params)
    g = params.gamma
    dw_dtp = central_diff(lambda tp: w(x, mu, nu, time_backward(tp, g)), time_forward(t, g), h)
    return dw_dtp + mu_term + nu_term


def convergence_study(
    state: QuantumState,
    point: tuple[float, float, float, float],
    steps,
    params: DampingParams,
) -> ResidualReport:
    """Fit the order of convergence of |R| over a decreasing step ladder.

    Requires at least 3 strictly decreasing steps; returns the residual at
    the smallest step and the fitted slope of log|R| against log h
    (expected close to 2, the central-difference truncation order).
    """
    x, mu, nu, t = (float(v) for v in point)
    hs = [float(h) for h in steps]
    if len(hs) < 3:
        raise DomainError("convergence_study needs at least 3 steps")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise DomainError("steps must be strictly decreasing")
    residuals = [
        abs(evolution_residual(state, x, mu, nu, t, h, params)) for h in hs
    ]
    if any(r == 0.0 for r in residuals):
        raise DomainError("zero residual in ladder; cannot fit a convergence order")
    slope = float(np.polyfit(np.log(hs), np.log(residuals), 1)[0])
    return ResidualReport(
        point=(x, mu, nu, t),
        step=hs[-1],
        residual=residuals[-1],
        converged_order=slope,
    )
