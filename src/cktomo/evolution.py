"""Finite-difference verification that the analytic tomograms satisfy the
classical-like evolution equation of the damped oscillator.

In reparameterized time t' the equation reads

    dw/dt' - mu dw/dnu + exp(4 gamma t) nu dw/dmu = 0,

and since dt/dt' = exp(2 gamma t) its exact physical-time form is

    R = exp(2 gamma t) dw/dt - mu dw/dnu + exp(4 gamma t) nu dw/dmu = 0.

The residual R is evaluated with first differences of the closed-form
tomograms (step h in each variable, `numerics.central_diff`'s rule): the
relative and the t'-form residuals extrapolate them by Richardson's rule
and vanish as O(h**4); the step ladder of `convergence_study` and the raw
terms keep the plain central difference, O(h**2).  This module checks the
identity rather than time-stepping it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _LAZY
from .dynamics import DampingParams, epsilon, time_backward, time_forward
from .errors import DomainError, StepTooLarge
from .numerics import _stencil_points, central_diff, diff_from_values, diff_offsets
from .states import State
from .tomography import TomographyFrame, frame_scale_sq, tomogram

__all__ = list(_LAZY["evolution"])  # listed in the package, which loads this module on first use


@dataclass(frozen=True)
class ResidualReport:
    """Result of a step-ladder residual study at one tomography point."""

    point: tuple[float, float, float, float]  # (X, mu, nu, t)
    step: float
    residual: float
    converged_order: float


def _max_step(s2: float) -> float:
    """Largest step h the residuals accept, 0.1 min(1, sqrt(s2)) with s2 from
    `frame_scale_sq`: the stencil has to stay well inside its width sqrt(s2)."""
    return 0.1 * min(1.0, math.sqrt(s2))


def _frame_terms(state: State, x, mu, nu, t, h, params: DampingParams, richardson=False):
    """Step guard and the (mu, nu) stencil shared by both residual forms,
    as one tomogram broadcast: returns w, exp(2 gamma t) and the frame terms
    (-mu dw/dnu, e^{4gt} nu dw/dmu), each from the first-difference rule."""
    offsets = diff_offsets(h, richardson)
    limit = _max_step(frame_scale_sq(mu, nu, t, params))
    if h > limit:
        raise StepTooLarge(f"h = {h} exceeds 0.1 * min(1, sqrt(s2)) = {limit}")
    e2 = epsilon(t, params).e2
    ws = tomogram(state, TomographyFrame(x, *_stencil_points(mu, nu, offsets, 2)), t, params)
    m = offsets.size
    dw_dmu = diff_from_values(ws[1 : m + 1], h, richardson)
    dw_dnu = diff_from_values(ws[m + 1 :], h, richardson)
    return ws[0], e2, -mu * dw_dnu, e2 * e2 * nu * dw_dmu


def _terms(state: State, x, mu, nu, t, h, params: DampingParams, richardson):
    """w and the three residual terms (e^{2gt} dw/dt, -mu dw/dnu,
    e^{4gt} nu dw/dmu), from one first-difference rule."""
    w, e2, mu_term, nu_term = _frame_terms(state, x, mu, nu, t, h, params, richardson)
    frame = TomographyFrame(x, mu, nu)  # one call per time node: epsilon is per t
    dw_dt = central_diff(
        lambda ts: [tomogram(state, frame, s, params) for s in ts], t, h, richardson
    )
    return w, (e2 * dw_dt, mu_term, nu_term)


def evolution_terms(
    state: State,
    x: float,
    mu: float,
    nu: float,
    t: float,
    h: float,
    params: DampingParams,
) -> tuple[float, float, float]:
    """The three residual terms (e^{2gt} dw/dt, -mu dw/dnu, e^{4gt} nu dw/dmu),
    each from the plain central difference with step h, O(h**2)."""
    return _terms(state, x, mu, nu, t, h, params, richardson=False)[1]


def evolution_residual(
    state: State,
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
    state: State,
    x: float,
    mu: float,
    nu: float,
    t: float,
    h: float,
    params: DampingParams,
) -> float:
    """|R| normalized by the natural scale of the identity, with every term
    from Richardson's extrapolated difference, so R is O(h**4).

    The scale is max(1, w, |each term|): at strong damping the individual
    terms carry exp(2 gamma t) and exp(4 gamma t) factors that cancel in
    the sum, so measuring |R| against the terms (not only against w) is
    what makes the check meaningful uniformly in gamma and t.
    """
    w, terms = _terms(state, x, mu, nu, t, h, params, richardson=True)
    scale = max(1.0, abs(w), *[abs(term) for term in terms])
    return abs(sum(terms)) / scale


def evolution_residual_tprime(
    state: State,
    x: float,
    mu: float,
    nu: float,
    t: float,
    h: float,
    params: DampingParams,
) -> float:
    """Residual with the time derivative taken in t' coordinates.

    Differences w(t(t')) around t' = t'(t) with step h, every term by
    Richardson's rule, O(h**4); by the chain rule this must agree with the
    t-form residual up to finite-difference noise, cross-checking the time
    reparameterization maps.
    """
    _, _, mu_term, nu_term = _frame_terms(state, x, mu, nu, t, h, params, richardson=True)
    g, frame = params.gamma, TomographyFrame(x, mu, nu)
    dw_dtp = central_diff(
        lambda tps: [tomogram(state, frame, time_backward(tp, g), params) for tp in tps],
        time_forward(t, g),
        h,
        richardson=True,
    )
    return dw_dtp + mu_term + nu_term


def convergence_study(
    state: State,
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
