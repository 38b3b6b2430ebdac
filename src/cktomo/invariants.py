"""Number-operator invariants of the damped oscillator acting on Fock
tomograms, verified in the Fourier-dual (characteristic-function)
representation.

Representation
--------------
The operators contain the inverse derivative (d/dX)**(-2), ill-defined on
generic functions; on the X-Fourier transform

    w~(k, mu, nu, t) = Integral w(X, mu, nu, t) exp(+i k X) dX

every X-derivative becomes multiplication: d/dX -> -i k, so
(d/dX)**(-2) -> -1/k**2, a bounded factor for k != 0.  The eigenvalue
identity is then checked pointwise at dual points with |k| above a
configurable floor (the 1/k**2 terms amplify quadrature noise as k -> 0).
mu- and nu-derivatives of w~ are taken by central differences.

Operator form
-------------
With E2 = exp(2 gamma t), E4 = E2**2 and the real bilinear
S = eps* eps' + eps eps'*, the number invariant acting on w~ from the
left (direct variant) is

  N = (1/2) { (d/dX)^{-2} [ ee d2/dnu2 + dd E4 d2/dmu2 - E2 S d2/dmu dnu ]
            - (1/4) d2/dX2 [ ee mu^2 + dd E4 nu^2 + E2 S mu nu ]
            + i [ ee mu d/dnu - dd E4 nu d/dmu - (E2 S / 2)(mu d/dmu - nu d/dnu) ]
            + (i E2 / 2)(eps* eps' - eps eps'*) }

(ee = eps eps*, dd = eps' eps'*); the conjugate variant flips the sign of
the first-order bracket only.  The last line is the operator-ordering
constant; by the conserved Wronskian it always equals -1.  Both variants
act on Fock tomograms with eigenvalue n.

This operator is *derived*, not transcribed: it is the expansion of
A+(t) A(t), A(t) = (i/sqrt 2)(eps p - eps' e^{2 gamma t} q), through the
standard correspondence between density-matrix multiplication and
dual-tomogram operators.  The source presentation of the same operators
contains transcription defects (a missing 1/4 on the multiplication
bracket, a missing e^{4 gamma t} on one first-order term, and sign errors
in the conjugate variant); :func:`number_apply_printed` evaluates those
printed forms verbatim so their residuals can be reported side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DampingParams, epsilon
from .errors import DomainError, KTooSmall
from .numerics import QuadratureSpec, integrate
from .states import Fock, QuantumState
from .tomography import TomographyFrame, _x_window, tomogram

__all__ = [
    "DualPoint",
    "DEFAULT_K_MIN",
    "tomogram_characteristic",
    "number_apply",
    "number_apply_printed",
    "eigen_residual",
]

DEFAULT_K_MIN = 0.05
_MAX_APPLY_N = 6


@dataclass(frozen=True)
class DualPoint:
    """A point (k, mu, nu, t) in the Fourier-dual tomography space."""

    k: float
    mu: float
    nu: float
    t: float

    def __post_init__(self) -> None:
        for name in ("k", "mu", "nu", "t"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.k == 0.0:
            raise DomainError("k = 0 is excluded from the dual representation")


def _characteristic_spec(
    state: QuantumState, k: float, mu: float, nu: float, t: float, params: DampingParams
) -> QuadratureSpec:
    # the tomogram's X-window, plus nodes for the fastest oscillation
    # k * half_width of the kernel on it
    half_width, points = _x_window(state, mu, nu, t, params)
    points += int(0.8 * abs(k) * half_width)
    return QuadratureSpec(center=0.0, half_width=half_width, points=points)


def _characteristic_with_spec(
    state: QuantumState,
    k: float,
    mu: float,
    nu: float,
    t: float,
    params: DampingParams,
    spec: QuadratureSpec,
) -> complex:
    return integrate(
        lambda xs: tomogram(state, TomographyFrame(xs, mu, nu), t, params)
        * np.exp(1j * k * xs),
        spec,
    )


def tomogram_characteristic(
    state: QuantumState, k: float, mu: float, nu: float, t: float, params: DampingParams
) -> complex:
    """X-Fourier transform of the tomogram, kernel exp(+i k X).

    Satisfies w~(k, mu, nu) = w~(1, k mu, k nu) for k > 0, |w~| <= 1, and
    w~ -> 1 as k -> 0 (normalization).
    """
    spec = _characteristic_spec(state, k, mu, nu, t, params)
    return _characteristic_with_spec(state, k, mu, nu, t, params, spec)


def _stencil(state, point: DualPoint, h: float, params):
    """Nine characteristic-function evaluations sharing one quadrature rule
    (frozen at the stencil center so finite differences see a smooth map)."""
    k, mu, nu, t = point.k, point.mu, point.nu, point.t
    base = _characteristic_spec(state, k, mu, nu, t, params)
    spec = QuadratureSpec(
        center=base.center, half_width=1.05 * base.half_width, points=base.points
    )

    def f(m, n):
        return _characteristic_with_spec(state, k, m, n, t, params, spec)

    w00 = f(mu, nu)
    w_mu_p, w_mu_m = f(mu + h, nu), f(mu - h, nu)
    w_nu_p, w_nu_m = f(mu, nu + h), f(mu, nu - h)
    w_pp, w_pm = f(mu + h, nu + h), f(mu + h, nu - h)
    w_mp, w_mm = f(mu - h, nu + h), f(mu - h, nu - h)
    d_mu = (w_mu_p - w_mu_m) / (2.0 * h)
    d_nu = (w_nu_p - w_nu_m) / (2.0 * h)
    d_mumu = (w_mu_p - 2.0 * w00 + w_mu_m) / (h * h)
    d_nunu = (w_nu_p - 2.0 * w00 + w_nu_m) / (h * h)
    d_munu = (w_pp - w_pm - w_mp + w_mm) / (4.0 * h * h)
    return w00, d_mu, d_nu, d_mumu, d_nunu, d_munu


def _validate_apply(variant: str, state: Fock, point: DualPoint, h: float, k_min: float):
    if variant not in ("direct", "conjugate"):
        raise DomainError(f"variant must be 'direct' or 'conjugate', got {variant!r}")
    if not isinstance(state, Fock):
        raise DomainError("number invariants act on Fock tomograms")
    if state.n > _MAX_APPLY_N:
        raise DomainError(f"number_apply supports n <= {_MAX_APPLY_N}, got {state.n}")
    if abs(point.k) < k_min:
        raise KTooSmall(f"|k| = {abs(point.k)} below floor {k_min}")
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"step h must be positive and finite, got {h}")


def number_apply(
    variant: str,
    state: Fock,
    point: DualPoint,
    h: float,
    params: DampingParams,
    k_min: float = DEFAULT_K_MIN,
) -> complex:
    """Apply the number invariant (or its conjugate) to w~ at a dual point.

    Returns the complex value of (N w~)(k, mu, nu, t); on a Fock tomogram
    it equals n * w~ up to finite-difference and quadrature noise.
    """
    _validate_apply(variant, state, point, h, k_min)
    direct, conjugate = _apply_to_stencil(point, params, _stencil(state, point, h, params))
    return direct if variant == "direct" else conjugate


def _apply_to_stencil(point: DualPoint, params: DampingParams, stencil) -> tuple[complex, complex]:
    """(N w~) of the direct and the conjugate variant from the `_stencil`
    values; the two differ only in the sign of the first-order bracket."""
    k, mu, nu = point.k, point.mu, point.nu
    es = epsilon(point.t, params)
    ee, dd, ce, e2 = es.ee, es.dd, es.ce, es.e2
    s = 2.0 * ce.real  # eps* eps' + eps eps'*
    e4 = e2 * e2
    w00, d_mu, d_nu, d_mumu, d_nunu, d_munu = stencil
    second = -(1.0 / (k * k)) * (ee * d_nunu + dd * e4 * d_mumu - e2 * s * d_munu)
    mult = (k * k / 4.0) * (ee * mu * mu + dd * e4 * nu * nu + e2 * s * mu * nu) * w00
    first = 1j * (
        ee * mu * d_nu
        - dd * e4 * nu * d_mu
        - 0.5 * e2 * s * (mu * d_mu - nu * d_nu)
    )
    # ordering constant (i E2 / 2)(eps* eps' - eps eps'*) = -1 exactly
    const = (0.5j * e2) * (ce - ce.conjugate()) * w00
    even = second + mult
    return 0.5 * (even + first + const), 0.5 * (even - first + const)


def number_apply_printed(
    variant: str,
    state: Fock,
    point: DualPoint,
    h: float,
    params: DampingParams,
    k_min: float = DEFAULT_K_MIN,
) -> complex:
    """Verbatim evaluation of the *printed* operator forms (diagnostic).

    These reproduce the source transcription exactly, including its
    defects, so the resulting eigenvalue residuals document the deviation
    from the derived operators in :func:`number_apply`.  Symmetrized
    first-order products are expanded literally, e.g.
    nu d/dnu + d/dnu nu = 2 nu d/dnu + 1.
    """
    _validate_apply(variant, state, point, h, k_min)
    k, mu, nu = point.k, point.mu, point.nu
    es = epsilon(point.t, params)
    ee, dd, ce, e2 = es.ee, es.dd, es.ce, es.e2
    cd = ce.conjugate()  # eps'* eps
    s = (ce + cd).real
    e4 = e2 * e2
    w00, d_mu, d_nu, d_mumu, d_nunu, d_munu = _stencil(state, point, h, params)
    if variant == "direct":
        second = -(1.0 / (k * k)) * (ee * d_nunu + dd * e4 * d_mumu - e2 * s * d_munu)
        mult = (k * k) * (ee * mu * mu + dd * e4 * nu * nu + e2 * s * mu * nu) * w00
        b3 = 1j * (
            ee * mu * d_nu
            + 0.5 * e2 * (cd * nu * d_nu + ce * (w00 + nu * d_nu))
        )
        b4 = -1j * (
            dd * nu * d_mu
            + 0.5 * e2 * (ce * mu * d_mu + cd * (w00 + mu * d_mu))
        )
    else:
        second = -(1.0 / (k * k)) * (ee * d_nunu + dd * e4 * d_mumu + e2 * s * d_munu)
        mult = (k * k) * (ee * mu * mu + dd * e4 * nu * nu - e2 * s * mu * nu) * w00
        b3 = -1j * (
            ee * mu * d_nu
            - 0.5 * e2 * (ce * nu * d_nu + cd * (w00 + nu * d_nu))
        )
        b4 = 1j * (
            dd * nu * d_mu
            - 0.5 * e2 * (cd * mu * d_mu + ce * (w00 + mu * d_mu))
        )
    return 0.5 * (second + mult + b3 + b4)


def eigen_residual(
    n: int,
    sample,
    h: float,
    params: DampingParams,
    k_min: float = DEFAULT_K_MIN,
) -> float:
    """Worst relative eigenvalue defect of both operator variants over a
    sample of dual points:

        max |N w~ - n w~| / max(|w~|, 1e-3).
    """
    state = Fock(n)
    points = list(sample)
    if not points:
        raise DomainError("eigen_residual needs a nonempty sample")
    worst = 0.0
    for point in points:
        w00 = tomogram_characteristic(state, point.k, point.mu, point.nu, point.t, params)
        denom = max(abs(w00), 1e-3)
        _validate_apply("direct", state, point, h, k_min)
        for value in _apply_to_stencil(point, params, _stencil(state, point, h, params)):
            worst = max(worst, abs(value - n * w00) / denom)
    return worst
