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
identity is then checked pointwise at dual points with |k| at or above
the floor _K_MIN (the 1/k**2 terms amplify quadrature noise as k -> 0).
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

from . import _LAZY
from .dynamics import DampingParams, epsilon
from .errors import DomainError, KTooSmall
from .numerics import QuadratureSpec, cross_points, diff_from_values, diff_offsets, integrate
from .states import Fock, QuantumState
from .tomography import TomographyFrame, _x_window, tomogram

__all__ = list(_LAZY["invariants"])  # listed in the package, which loads this module on first use

_K_MIN = 0.05
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
    spec = _x_window(state, mu, nu, t, params)
    points = spec.points + int(0.8 * abs(k) * spec.half_width)
    return QuadratureSpec(center=spec.center, half_width=spec.half_width, points=points)


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
    """Characteristic-function values on a 13-point (mu, nu) stencil sharing
    one quadrature rule (frozen at the stencil center so finite differences
    see a smooth map), as one tomogram broadcast over the stencil x the X
    nodes and one batched `integrate`; each value is bit for bit the one
    `_characteristic_with_spec` gives for its point alone.  d_mu and d_nu
    take Richardson's rule from `numerics`, the second differences its
    central pair and the four corners (mu +- h, nu +- h)."""
    k, mu, nu, t = point.k, point.mu, point.nu, point.t
    base = _characteristic_spec(state, k, mu, nu, t, params)
    spec = QuadratureSpec(
        center=base.center, half_width=1.05 * base.half_width, points=base.points
    )
    offsets = diff_offsets(h, richardson=True)
    pair = offsets[:2]  # (+h, -h)
    mus, nus = cross_points(mu, nu, offsets)
    mus = np.concatenate((mus, mu + np.repeat(pair, 2)))
    nus = np.concatenate((nus, nu + np.tile(pair, 2)))

    def f(xs):
        frame = TomographyFrame(xs[None, :], mus[:, None], nus[:, None])
        return tomogram(state, frame, t, params) * np.exp(1j * k * xs)

    w, m = integrate(f, spec).tolist(), offsets.size
    w00, along_mu, along_nu = w[0], w[1 : m + 1], w[m + 1 : 2 * m + 1]
    w_pp, w_pm, w_mp, w_mm = w[2 * m + 1 :]
    d_mumu = (along_mu[0] - 2.0 * w00 + along_mu[1]) / (h * h)
    d_nunu = (along_nu[0] - 2.0 * w00 + along_nu[1]) / (h * h)
    d_munu = (w_pp - w_pm - w_mp + w_mm) / (4.0 * h * h)
    d_mu = diff_from_values(along_mu, h, richardson=True)
    d_nu = diff_from_values(along_nu, h, richardson=True)
    return w00, d_mu, d_nu, d_mumu, d_nunu, d_munu


def _validate_apply(variant: str, state: Fock, point: DualPoint):
    if variant not in ("direct", "conjugate"):
        raise DomainError(f"variant must be 'direct' or 'conjugate', got {variant!r}")
    if not isinstance(state, Fock):
        raise DomainError("number invariants act on Fock tomograms")
    if state.n > _MAX_APPLY_N:
        raise DomainError(f"number_apply supports n <= {_MAX_APPLY_N}, got {state.n}")
    if abs(point.k) < _K_MIN:
        raise KTooSmall(f"|k| = {abs(point.k)} below floor {_K_MIN}")


def number_apply(
    variant: str, state: Fock, point: DualPoint, h: float, params: DampingParams
) -> complex:
    """Apply the number invariant (or its conjugate) to w~ at a dual point.

    Returns the complex value of (N w~)(k, mu, nu, t); on a Fock tomogram
    it equals n * w~ up to finite-difference and quadrature noise.
    """
    _validate_apply(variant, state, point)
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
    variant: str, state: Fock, point: DualPoint, h: float, params: DampingParams
) -> complex:
    """Verbatim evaluation of the *printed* operator forms (diagnostic).

    These reproduce the source transcription exactly, including its
    defects, so the resulting eigenvalue residuals document the deviation
    from the derived operators in :func:`number_apply`.  Symmetrized
    first-order products are expanded literally, e.g.
    nu d/dnu + d/dnu nu = 2 nu d/dnu + 1.
    """
    _validate_apply(variant, state, point)
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


def eigen_residual(n: int, sample, h: float, params: DampingParams) -> float:
    """Worst relative eigenvalue defect of both operator variants over a
    sample of dual points:

        max |N w~ - n w~| / max(|w~|, 1e-3),

    w~ the center value of the point's own `_stencil`.
    """
    state = Fock(n)
    points = list(sample)
    if not points:
        raise DomainError("eigen_residual needs a nonempty sample")
    worst = 0.0
    for point in points:
        _validate_apply("direct", state, point)
        stencil = _stencil(state, point, h, params)
        w00 = stencil[0]
        denom = max(abs(w00), 1e-3)
        for value in _apply_to_stencil(point, params, stencil):
            worst = max(worst, abs(value - n * w00) / denom)
    return worst
