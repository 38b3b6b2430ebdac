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
the floor _K_MIN (the 1/k**2 terms amplify finite-difference noise as
k -> 0).  w~ itself is a closed form (`characteristic`), and its mu- and
nu-derivatives are Richardson-extrapolated central differences of it;
the quadrature `tomogram_characteristic` is kept as its oracle.

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
from dataclasses import dataclass, replace

import numpy as np

from . import _LAZY
from .dynamics import DampingParams, epsilon
from .errors import DomainError, KTooSmall
from .numerics import _laguerre, _richardson, _stencil_points, _worst, diff_from_values, diff_offsets, integrate
from .states import Fock, State, _mean
from .tomography import TomographyFrame, _frame_scale_in_range, _x_window, tomogram

__all__ = list(_LAZY["invariants"])  # listed in the package, which loads this module on first use

_K_MIN = 0.05


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


def characteristic(state: State, k: float, mu, nu, t: float, params: DampingParams):
    """X-Fourier transform of the tomogram, kernel exp(+i k X), in closed form:

        w~(k, mu, nu, t) = exp(i k Xbar - kappa**2 / 4) L_n(kappa**2 / 2),

    kappa**2 = k**2 s2 (`frame_scale_sq`), Xbar = mu qbar + nu pbar
    (`states._mean`): the transform of the one tomogram
    phi_n(y - ybar)**2 / sqrt(s2).  mu and nu are scalars or arrays of one
    shape; `tomogram_characteristic` is its quadrature oracle.
    """
    if not math.isfinite(k):
        raise DomainError("k must be finite")
    es = epsilon(t, params)
    qbar, pbar = _mean(state, es)
    kappa2 = k * k * _frame_scale_in_range(mu, nu, es)
    out = np.exp(1j * k * (mu * qbar + nu * pbar) - 0.25 * kappa2)
    out = out * _laguerre(state.n, 0.5 * kappa2)
    return complex(out) if np.ndim(out) == 0 else out


def tomogram_characteristic(
    state: State, k: float, mu: float, nu: float, t: float, params: DampingParams
) -> complex:
    """Quadrature oracle of `characteristic`: Gauss-Legendre over the
    tomogram's X-window, plus nodes for the kernel's k * half_width.

    Satisfies w~(k, mu, nu) = w~(1, k mu, k nu) for k > 0, |w~| <= 1, and
    w~ -> 1 as k -> 0 (normalization).
    """
    spec = _x_window(state, mu, nu, t, params)
    return integrate(
        lambda xs: tomogram(state, TomographyFrame(xs, mu, nu), t, params) * np.exp(1j * k * xs),
        replace(spec, points=spec.points + int(0.8 * abs(k) * spec.half_width)),
    )


def _stencil(state, point: DualPoint, h: float, params):
    """w~ and its (mu, nu) derivatives up to second order at a dual point,
    from `characteristic` on 17 points in one broadcast: the center and the
    steps (+h, -h, +h/2, -h/2) of `diff_offsets` along mu, nu and both
    diagonals, whose second differences differ by 4 d2/dmu dnu.  Every
    difference is Richardson's D4 of its steps h and h/2, O(h**4)."""
    mus, nus = _stencil_points(point.mu, point.nu, diff_offsets(h, richardson=True), 4)
    w = characteristic(state, point.k, mus, nus, point.t, params)
    w00, v = w[0], w[1:].reshape(4, 4).T  # v[offset, direction]
    d1 = diff_from_values(v, h, richardson=True)
    d2 = _richardson((v[0] - 2.0 * w00 + v[1]) / (h * h), (v[2] - 2.0 * w00 + v[3]) / (0.25 * h * h))
    return complex(w00), *d1[:2].tolist(), *d2[:2].tolist(), complex(0.25 * (d2[2] - d2[3]))


def _validate_apply(variant: str, state: State, point: DualPoint):
    if variant not in ("direct", "conjugate"):
        raise DomainError(f"variant must be 'direct' or 'conjugate', got {variant!r}")
    if state.alpha != 0:
        raise DomainError("number invariants act on Fock tomograms")
    if abs(point.k) < _K_MIN:
        raise KTooSmall(f"|k| = {abs(point.k)} below floor {_K_MIN}")


def number_apply(
    variant: str, state: State, point: DualPoint, h: float, params: DampingParams
) -> complex:
    """Apply the number invariant (or its conjugate) to w~ at a dual point.

    Returns the complex value of (N w~)(k, mu, nu, t); on a Fock tomogram
    it equals n * w~ up to finite-difference noise.
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
    variant: str, state: State, point: DualPoint, h: float, params: DampingParams
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

    w~ the center value of the point's own `_stencil`; a NaN defect makes
    it nan (`numerics._worst`).
    """
    state = Fock(n)
    points = list(sample)
    if not points:
        raise DomainError("eigen_residual needs a nonempty sample")
    defects = []
    for point in points:
        _validate_apply("direct", state, point)
        stencil = _stencil(state, point, h, params)
        w00 = stencil[0]
        denom = max(abs(w00), 1e-3)
        defects += [abs(value - n * w00) / denom for value in _apply_to_stencil(point, params, stencil)]
    return _worst(defects)
