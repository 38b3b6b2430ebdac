"""Analytic quadrature distributions (tomograms) of the damped oscillator,
the homodyne frame map, the normalization check, and the Radon-transform
oracle, a line integral of the closed-form Wigner function.

All tomograms share the scale

    s2(mu, nu, t) = eps eps* (a**2 + b**2)

with (a, b, s2) from :func:`cktomo.dynamics.frame_quantities`, and the
scaled variable y = X / sqrt(s2).  Every state D(alpha)|n> here has the
one closed form

    w = phi_n(y - ybar)**2 / sqrt(s2),  ybar = (mu qbar + nu pbar) / sqrt(s2),

with phi_n the orthonormal Hermite function and (qbar, pbar) the state's
Wigner mean (`states._mean`), so ybar is the mean of X / sqrt(s2).  Fock
states have alpha = 0, so ybar = 0 and w = exp(-y**2) H_n(y)**2 /
(2**n n! sqrt(pi s2)); coherent states have n = 0, a displaced Gaussian.
Since |eps* (a - i b)| = sqrt(s2), |ybar| <= sqrt(2) |alpha| in every frame.

Every integral over a quadrature X = mu q + nu p (the normalization here,
the characteristic function in :mod:`cktomo.invariants`, the q- and
p-integrals of the checks) takes its window from the single helper
:func:`_x_window`, which reads the state's closed-form Wigner moments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import DampingParams, epsilon, frame_quantities
from .errors import DegenerateFrame, DomainError
from .numerics import QuadratureSpec, hermite_gauss, integrate
from .states import Coherent, Fock, State, _mean, wigner, wigner_moments

__all__ = [
    "TomographyFrame",
    "optical_frame",
    "ground_tomogram",
    "fock_tomogram",
    "coherent_tomogram",
    "tomogram",
    "normalization",
    "radon_tomogram",
    "frame_scale_sq",
]

# every tomogram here (n <= 16, |alpha| <= 8) is exactly 0.0 from
# |X| = 50 sqrt(s2) on; clipping X at 64 sqrt(s2) keeps y = X/sqrt(s2),
# y - ybar and their squares from overflowing in the far tail
_X_TAIL = 64.0
# the largest s2 accepted, a quarter of the double range
_MAX_S2 = sys.float_info.max / 4.0


@dataclass(frozen=True)
class TomographyFrame:
    """A point (X, mu, nu) in tomography space.

    X, mu, nu may be scalars or broadcastable arrays; the direction
    (mu, nu) = (0, 0) is rejected everywhere it appears.  Three Python floats
    take the math lane, plain float tests without numpy's per-call cost; any
    other input is read by numpy, and a scalar of it stored as a Python float.
    """

    x: object
    mu: object
    nu: object

    def __post_init__(self) -> None:
        if type(self.x) is float and type(self.mu) is float and type(self.nu) is float:
            if not (math.isfinite(self.x) and math.isfinite(self.mu) and math.isfinite(self.nu)):
                raise DomainError("frame coordinates must be finite")
            if self.mu == 0.0 and self.nu == 0.0:
                raise DegenerateFrame("frame contains a point with mu = nu = 0")
            return
        x = np.asarray(self.x, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(mu).all() and np.isfinite(nu).all()):
            raise DomainError("frame coordinates must be finite")
        np.broadcast(x, mu, nu)  # raises on shapes that do not broadcast
        if ((mu == 0.0) & (nu == 0.0)).any():
            raise DegenerateFrame("frame contains a point with mu = nu = 0")
        object.__setattr__(self, "x", x if x.ndim else float(x))
        object.__setattr__(self, "mu", mu if mu.ndim else float(mu))
        object.__setattr__(self, "nu", nu if nu.ndim else float(nu))

    @property
    def is_scalar(self) -> bool:
        return np.ndim(self.x) == np.ndim(self.mu) == np.ndim(self.nu) == 0


def optical_frame(phi):
    """Homodyne frame direction (mu, nu) = (cos phi, -sin phi).

    The quadrature measured at local-oscillator phase phi is
    q cos(phi) - p sin(phi); phi may be a scalar or an array.
    """
    pa = np.asarray(phi, dtype=float)
    if not np.isfinite(pa).all():
        raise DomainError("phi must be finite")
    mu = np.cos(pa)
    nu = -np.sin(pa)
    if pa.ndim == 0:
        return float(mu), float(nu)
    return mu, nu


def frame_scale_sq(mu, nu, t: float, params: DampingParams):
    """Tomogram Gaussian scale s2 = eps eps* (a**2 + b**2), twice the variance
    of the ground-like quadrature distribution.  (mu, nu) = (0, 0) raises
    DegenerateFrame, any other s2 out of `_frame_scale_in_range` DomainError."""
    return _frame_scale_in_range(mu, nu, epsilon(t, params))


def _frame_scale_in_range(mu, nu, es):
    """s2 of `frame_quantities`, refusing an s2 outside [smallest normal
    double, _MAX_S2]: an overflowed s2 would turn every tomogram into 0 and
    an underflowed s2 into 0/0, though the true values are finite.  A valid
    frame pays for the range check only: (mu, nu) = (0, 0), whose s2 is 0,
    is told apart once it fails.  Python-float mu and nu take the math lane:
    `frame_quantities` on floats, the same IEEE operations."""
    if type(mu) is float and type(nu) is float:
        s2 = frame_quantities(mu, nu, es)[2]
        valid = sys.float_info.min <= s2 <= _MAX_S2
    else:
        with np.errstate(all="ignore"):
            s2 = frame_quantities(mu, nu, es)[2]
        valid = ((s2 >= sys.float_info.min) & (s2 <= _MAX_S2)).all()
    if not valid:
        if ((np.asarray(mu) == 0.0) & (np.asarray(nu) == 0.0)).any():
            raise DegenerateFrame("frame direction (mu, nu) = (0, 0) is degenerate")
        raise DomainError(
            "frame scale s2 leaves the supported double range "
            f"(min {float(np.min(s2))!r}, max {float(np.max(s2))!r})"
        )
    return s2


def _scaled_frame(frame: TomographyFrame, es):
    """sqrt(s2) of a validated frame and y = X / sqrt(s2), with X clipped at
    _X_TAIL sqrt(s2).  Every tomogram's exponent is written in y, so no
    intermediate grows with the frame: X*X alone overflows once |X| passes
    1.3e154, which a frame with s2 near _MAX_S2 reaches at |y| ~ 2.  A point
    of Python floats takes the math lane, with the same IEEE operations."""
    s2 = _frame_scale_in_range(frame.mu, frame.nu, es)
    if type(frame.x) is float and type(s2) is float:
        root = math.sqrt(s2)
        lim = _X_TAIL * root
        return root, min(max(frame.x, -lim), lim) / root
    x = np.asarray(frame.x, dtype=float)
    root = np.sqrt(s2)
    lim = _X_TAIL * root
    x = x if (abs(x) <= lim).all() else np.clip(x, -lim, lim)
    return root, x / root


def tomogram(state: State, frame: TomographyFrame, t: float, params: DampingParams):
    """Analytic tomogram phi_n(y - ybar)**2 / sqrt(s2) of the module
    docstring, for every state; a Fock state's ybar is 0, so its y is used
    as it is.  Nonnegative."""
    es = epsilon(t, params)
    root, y = _scaled_frame(frame, es)
    qbar, pbar = _mean(state, es)
    y -= (frame.mu * qbar + frame.nu * pbar) / root
    out = hermite_gauss(state.n, y)
    out *= out  # in place: no further tile-sized array
    out /= root
    return float(out) if np.ndim(out) == 0 else out


def ground_tomogram(frame: TomographyFrame, t: float, params: DampingParams):
    """`tomogram` of `Fock(0)`: a centered Gaussian in X with variance s2/2."""
    return tomogram(Fock(0), frame, t, params)


def fock_tomogram(frame: TomographyFrame, t: float, n: int, params: DampingParams):
    """`tomogram` of `Fock(n)`: phi_n(y)**2 / sqrt(s2), y = X / sqrt(s2)."""
    return tomogram(Fock(n), frame, t, params)


def coherent_tomogram(frame: TomographyFrame, t: float, alpha: complex, params: DampingParams):
    """`tomogram` of `Coherent(alpha)`: the Gaussian phi_0(y - ybar)**2 / sqrt(s2)."""
    return tomogram(Coherent(alpha), frame, t, params)


def _x_window(
    state: State, mu: float, nu: float, t: float, params: DampingParams
) -> QuadratureSpec:
    """Window for integrals over X = mu q + nu p of the state's distribution:
    centered on its mean mu <q> + nu <p> from `states._mean`, half-width
    8 sigma with sigma**2 = (2n+1) s2/2, the variance of X under the Wigner
    covariance (s2 is its cancellation-free form).  The node floor
    220 + 16 n + 110 (sqrt(2n+1) - 1) follows the Hermite oscillations of
    Fock n; `integrate` rounds it up to the next rung of `numerics._rung`."""
    es = epsilon(t, params)
    qbar, pbar = _mean(state, es)
    root = math.sqrt(2.0 * state.n + 1.0)
    sigma = math.sqrt(_frame_scale_in_range(mu, nu, es) / 2.0) * root
    return QuadratureSpec(
        center=float(mu * qbar + nu * pbar),
        half_width=8.0 * sigma,
        points=220 + 16 * state.n + int(110.0 * (root - 1.0)),
    )


def normalization(state: State, mu: float, nu: float, t: float, params: DampingParams) -> float:
    """Quadrature estimate of Integral w dX for the given frame direction;
    equals 1 for every state, frame, and time."""
    spec = _x_window(state, mu, nu, t, params)
    return integrate(lambda xs: tomogram(state, TomographyFrame(xs, mu, nu), t, params), spec)


def radon_tomogram(state: State, frame: TomographyFrame, t: float, params: DampingParams) -> float:
    """Oracle: the tomogram as a line integral of the Wigner function.

    With s = sqrt(mu**2 + nu**2) the line mu q + nu p = X is parametrized
    as (q, p) = (X/s**2)(mu, nu) + (tau/s)(-nu, mu) and

        w(X, mu, nu, t) = (1 / (2 pi s)) Integral W(line(tau)) dtau.

    The tau window is 9 sigma of the state's Wigner Gaussian restricted to
    the line: centered on its conditional mean, with sigma**2 = 1/(d Sigma^-1 d)
    from the covariance Sigma of `wigner_moments` (which carries the 2n+1 of
    Fock n), which stays correct for the strongly squeezed blobs that damping
    produces.  Sigma^-1 is the adjugate over det Sigma = (2n+1)**2/4, the
    determinant of every state's covariance in closed form.  The line takes
    220 + 60 n tau nodes, rounded up to the next rung of `numerics._rung`
    by `integrate`, and each W on it is the closed form `states.wigner`:
    the Radon relation ties the two closed forms, W and phi_n**2, together.
    """
    if not frame.is_scalar:
        raise DomainError("radon_tomogram expects a scalar frame point")
    x, mu, nu = float(frame.x), float(frame.mu), float(frame.nu)
    s = math.hypot(mu, nu)
    d0, d1 = -nu / s, mu / s
    b0, b1 = x * mu / s**2, x * nu / s**2
    mean, cov = wigner_moments(state, t, params)
    (m0, m1), ((sqq, sqp), (_, spp)) = mean.tolist(), cov.tolist()
    det = (2.0 * state.n + 1.0) ** 2 / 4.0
    a0, a1 = (spp * d0 - sqp * d1) / det, (sqq * d1 - sqp * d0) / det  # Sigma^-1 d
    curvature = d0 * a0 + d1 * a1
    tau_center = -(a0 * (b0 - m0) + a1 * (b1 - m1)) / curvature
    spec = QuadratureSpec(tau_center, 9.0 / math.sqrt(curvature), 220 + 60 * state.n)

    def line(taus):
        return wigner(b0 + taus * d0, b1 + taus * d1, t, state, params)

    return integrate(line, spec) / (2.0 * math.pi * s)
