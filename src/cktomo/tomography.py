"""Analytic quadrature distributions (tomograms) of the damped oscillator,
the homodyne frame map, the normalization check, and the independent
Radon-transform oracle built on the numerically evaluated Wigner function.

All tomograms share the scale

    s2(mu, nu, t) = eps eps* (a**2 + b**2)

with (a, b, s2) from :func:`cktomo.dynamics.frame_quantities`, and the
scaled variable y = X / sqrt(s2); the ground-like state is the centered
Gaussian

    w0 = exp(-y**2) / sqrt(pi * s2),

Fock states are phi_n(y)**2 / sqrt(s2) = w0 H_n(y)**2 / (2**n n!) with
phi_n the orthonormal Hermite function, and the coherent tomogram is a
displaced Gaussian assembled from three exponential factors whose last two
are mutual complex conjugates: the pair's exponent is written once, in
(a - i b)/sqrt(s2), and taken as 2 Re.

Every X-integral of a tomogram (the normalization here, the characteristic
function in :mod:`cktomo.invariants`) sizes its window with the single
helper :func:`_x_window`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import DampingParams, epsilon, frame_quantities
from .errors import DegenerateFrame, DomainError
from .numerics import QuadratureSpec, hermite_gauss, integrate
from .states import Coherent, Fock, QuantumState, _fock_widening, wigner

__all__ = [
    "TomographyFrame",
    "optical_frame",
    "ground_tomogram",
    "fock_tomogram",
    "coherent_tomogram",
    "tomogram",
    "normalization",
    "radon_tomogram",
    "wigner_moments",
]

_SQRT2 = math.sqrt(2.0)
# every tomogram here (n <= 16, |alpha| <= 8) is exactly 0.0 from
# |X| = 50 sqrt(s2) on; clipping X at 64 sqrt(s2) keeps y = X/sqrt(s2)
# and y*y from overflowing in the far tail
_X_TAIL = 64.0
# the largest s2 accepted: pi * s2, in every tomogram's normalization, stays finite
_MAX_S2 = sys.float_info.max / 4.0


@dataclass(frozen=True)
class TomographyFrame:
    """A point (X, mu, nu) in tomography space.

    X, mu, nu may be scalars or broadcastable arrays; the direction
    (mu, nu) = (0, 0) is rejected everywhere it appears.
    """

    x: object
    mu: object
    nu: object

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))):
            raise DomainError("frame coordinates must be finite")
        np.broadcast_shapes(x.shape, mu.shape, nu.shape)
        if np.any((mu == 0.0) & (nu == 0.0)):
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
    if not np.all(np.isfinite(pa)):
        raise DomainError("phi must be finite")
    mu = np.cos(pa)
    nu = -np.sin(pa)
    if pa.ndim == 0:
        return float(mu), float(nu)
    return mu, nu


def frame_scale_sq(mu, nu, t: float, params: DampingParams):
    """Tomogram Gaussian scale s2 = eps eps* (a**2 + b**2); the variance of
    the ground-like quadrature distribution is s2 / 2.  An s2 outside
    [smallest normal double, largest double / 4] raises DomainError."""
    if np.any((np.asarray(mu) == 0.0) & (np.asarray(nu) == 0.0)):
        raise DegenerateFrame("frame direction (mu, nu) = (0, 0) is degenerate")
    return _frame_quantities_in_range(mu, nu, epsilon(t, params))[2]


def _frame_quantities_in_range(mu, nu, es):
    """`frame_quantities`, refusing an s2 outside [smallest normal double,
    _MAX_S2]: an overflowed s2 or pi * s2 would turn every tomogram into 0
    and an underflowed s2 into 0/0, though the true values are finite."""
    with np.errstate(all="ignore"):
        a, b, s2 = frame_quantities(mu, nu, es)
    if not np.all((s2 >= sys.float_info.min) & (s2 <= _MAX_S2)):
        raise DomainError(
            "frame scale s2 leaves the supported double range "
            f"(min {float(np.min(s2))!r}, max {float(np.max(s2))!r})"
        )
    return a, b, s2


def _scaled_frame(frame: TomographyFrame, es):
    """(a, b, s2) of a validated frame and y = X / sqrt(s2), with X clipped
    at _X_TAIL sqrt(s2).  Every tomogram's exponent is written in y, so no
    intermediate grows with the frame: X*X alone overflows once |X| passes
    1.3e154, which a frame with s2 near _MAX_S2 reaches at |y| ~ 2."""
    a, b, s2 = _frame_quantities_in_range(frame.mu, frame.nu, es)
    x = np.asarray(frame.x, dtype=float)
    root = np.sqrt(s2)
    lim = _X_TAIL * root
    x = x if (abs(x) <= lim).all() else np.clip(x, -lim, lim)
    return a, b, s2, x / root


def ground_tomogram(frame: TomographyFrame, t: float, params: DampingParams):
    """Quadrature distribution of the ground-like state: a centered
    Gaussian in X with variance s2/2.  Positive up to its underflow."""
    return fock_tomogram(frame, t, 0, params)


def fock_tomogram(frame: TomographyFrame, t: float, n: int, params: DampingParams):
    """Quadrature distribution of the Fock state |n>: phi_n(y)**2 / sqrt(s2)
    with y = X/sqrt(s2), i.e. w0 * H_n(y)**2 / (2**n n!).  Nonnegative; n = 0
    is the ground closed form exp(-y**2) / sqrt(pi * s2) itself, which
    coherent alpha = 0 reproduces bit for bit."""
    n = Fock(n).n
    _, _, s2, y = _scaled_frame(frame, epsilon(t, params))
    if n == 0:
        out = np.exp(-y * y) / np.sqrt(math.pi * s2)
    else:
        out = hermite_gauss(n, y) ** 2 / np.sqrt(s2)
    return float(out) if np.ndim(out) == 0 else out


def coherent_tomogram(frame: TomographyFrame, t: float, alpha: complex, params: DampingParams):
    """Quadrature distribution of the coherent state |alpha>.

    The product of three exponential factors whose last two are complex
    conjugates, taken as one real exp of exponent1 + 2 Re(exponent2): at
    large gamma*t the pair's factors overflow one by one though their
    product is finite.  alpha = 0 reproduces the ground tomogram exactly.
    """
    alpha = complex(Coherent(alpha).alpha)
    es = epsilon(t, params)
    a, b, s2, y = _scaled_frame(frame, es)
    eps_c = es.eps.conjugate()
    # (a - i b) / sqrt(s2) has modulus 1/|eps|, whatever the frame's size
    root = np.sqrt(s2)
    a_m_ib = a / root - 1j * (b / root)
    exponent1 = -y * y - abs(alpha) ** 2
    exponent2 = -(alpha**2) * eps_c**2 * a_m_ib**2 / 2.0 + alpha * _SQRT2 * eps_c * y * a_m_ib
    out = np.exp(exponent1 + 2.0 * exponent2.real) / np.sqrt(math.pi * s2)
    return float(out) if np.ndim(out) == 0 else out


def tomogram(state: QuantumState, frame: TomographyFrame, t: float, params: DampingParams):
    """Analytic tomogram of either state family."""
    if isinstance(state, Fock):
        return fock_tomogram(frame, t, state.n, params)
    if isinstance(state, Coherent):
        return coherent_tomogram(frame, t, state.alpha, params)
    raise DomainError(f"unknown state {state!r}")


def _x_window(state: QuantumState, mu: float, nu: float, t: float, params: DampingParams):
    """Half-width and node count for X-integrals of a tomogram: 8 sigma
    with sigma**2 = s2/2, widened by sqrt(2n+1) for Fock n and (1+|alpha|)
    for coherent states (their Gaussian is displaced by at most
    2 |alpha| sigma).  The count is a floor: `integrate` rounds it up to
    the next multiple of 16."""
    s2 = frame_scale_sq(mu, nu, t, params)
    sigma = math.sqrt(s2 / 2.0)
    if isinstance(state, Fock):
        widen = _fock_widening(state.n)
        extra = 16 * state.n
    else:
        widen = 1.0 + abs(state.alpha)
        extra = 0
    # node density must follow the widening or the Gaussian core is
    # undersampled inside the enlarged window
    points = 220 + extra + int(110.0 * (widen - 1.0))
    return 8.0 * sigma * widen, points


def normalization(state: QuantumState, mu: float, nu: float, t: float, params: DampingParams) -> float:
    """Quadrature estimate of Integral w dX for the given frame direction;
    equals 1 for every state, frame, and time."""
    half_width, points = _x_window(state, mu, nu, t, params)
    spec = QuadratureSpec(center=0.0, half_width=half_width, points=points)
    return integrate(
        lambda xs: tomogram(state, TomographyFrame(xs, mu, nu), t, params), spec
    )


def wigner_moments(state: QuantumState, t: float, params: DampingParams):
    """Phase-space mean (q, p) and symmetrized covariance of the state's
    Wigner function, in closed form.

    Every state here shares the ground-like covariance
        [[e^{-2 gamma t}, -gamma], [-gamma, e^{2 gamma t}]] / (2 Omega)
    (times 2n+1 for Fock n); coherent states displace the mean to
    (sqrt(2) Re(alpha eps*), sqrt(2) e^{2 gamma t} Re(alpha eps'*)).
    """
    es = epsilon(t, params)
    g, om, e2 = params.gamma, params.omega_reduced, es.e2
    cov = np.array([[1.0 / (e2 * om), -g / om], [-g / om, e2 / om]]) / 2.0
    mean = np.zeros(2)
    if isinstance(state, Coherent):
        # Re(alpha z*) = Re(alpha) Re(z) + Im(alpha) Im(z), for z = eps, eps'
        ar, ai = state.alpha.real, state.alpha.imag
        mean = np.array(
            [
                _SQRT2 * (ar * es.eps.real + ai * es.eps.imag),
                _SQRT2 * e2 * (ar * es.eps_dot.real + ai * es.eps_dot.imag),
            ]
        )
    elif isinstance(state, Fock):
        cov = cov * (2.0 * state.n + 1.0)
    return mean, cov


def radon_tomogram(state: QuantumState, frame: TomographyFrame, t: float, params: DampingParams) -> float:
    """Independent oracle: the tomogram as a line integral of the Wigner
    function.

    With s = sqrt(mu**2 + nu**2) the line mu q + nu p = X is parametrized
    as (q, p) = (X/s**2)(mu, nu) + (tau/s)(-nu, mu) and

        w(X, mu, nu, t) = (1 / (2 pi s)) Integral W(line(tau)) dtau.

    The tau window is centered on the restriction of the state's Gaussian
    envelope to the line (its conditional mean) with width from the
    inverse-covariance slice, which stays correct for the strongly
    squeezed blobs that damping produces.  The line takes 220 + 60 n tau
    nodes, rounded up to a multiple of 16 by `integrate`, and each W on it
    is the pointwise `wigner` over chunks of the tau nodes.
    """
    if not frame.is_scalar:
        raise DomainError("radon_tomogram expects a scalar frame point")
    x, mu, nu = float(frame.x), float(frame.mu), float(frame.nu)
    s = math.hypot(mu, nu)
    d = np.array([-nu / s, mu / s])
    base = np.array([x * mu / s**2, x * nu / s**2])
    mean, _ = wigner_moments(state, t, params)
    # the Gaussian *envelope* of W is the ground-like covariance for every
    # state; Fock structure on top is handled by the sqrt(2n+1) widening
    _, cov = wigner_moments(Fock(0), t, params)
    cov_inv = np.linalg.inv(cov)
    curvature = float(d @ cov_inv @ d)
    tau_center = -float(d @ cov_inv @ (base - mean)) / curvature
    sigma_slice = 1.0 / math.sqrt(curvature)
    n_fock = state.n if isinstance(state, Fock) else 0
    half_width = 9.0 * _fock_widening(n_fock) * sigma_slice
    spec = QuadratureSpec(center=tau_center, half_width=half_width, points=220 + 60 * n_fock)

    def line(taus):
        return wigner(base[0] + taus * d[0], base[1] + taus * d[1], t, state, params)

    return integrate(line, spec) / (2.0 * math.pi * s)
