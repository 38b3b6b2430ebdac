"""Wave functions of the damped oscillator and the numerically evaluated
Wigner function that serves as the independent oracle for every tomogram.

Conventions
-----------
The Wigner function is computed as

    W(q, p, t) = Integral  psi(q + u/2) psi*(q - u/2) exp(-i p u) du,

which fixes the normalization Integral W dq dp = 2*pi.  That is the unique
choice consistent with the Radon relation between W and the quadrature
distribution together with the normalization of the latter; it is pinned by
the frictionless ground state, W = 2 exp(-q**2 - p**2).

Branch tracking: eps(t) = |eps| exp(i*Omega*t) with a positive modulus, so
complex powers of eps are taken with the phase unwrapped as Omega*t rather
than folded into (-pi, pi].  Any fixed branch would cancel in observables;
the continuous one keeps wave-function-level cross-checks simple.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dynamics import DampingParams, EpsilonState, epsilon
from .errors import DomainError, NonFinite
from .numerics import _PI_QUARTER, _gauss_legendre, _rung, hermite_gauss

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
# (point x half-rule node) elements per chunk of the pointwise `wigner`: its
# complex work matrices stay at 128 kB, in cache and below numpy's 256 kB
# threshold for reusing temporaries in place, whose in-place complex
# product rounds differently; so every chunk size up to this one gives the
# same bits
_WIGNER_CHUNK = 1 << 13


@dataclass(frozen=True)
class Coherent:
    """Coherent state |alpha> of the damped oscillator."""

    alpha: complex

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

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise DomainError(f"Fock index must be an integer, got {self.n!r}")
        if not (0 <= self.n <= _MAX_FOCK):
            raise DomainError(f"Fock index must lie in [0, {_MAX_FOCK}], got {self.n}")
        object.__setattr__(self, "n", int(self.n))


QuantumState = Union[Coherent, Fock]


def _inv_sqrt_eps(t: float, params: DampingParams) -> complex:
    # eps**(-1/2) on the continuously tracked branch: modulus
    # Omega**(1/4) exp(gamma t / 2), phase -Omega t / 2.
    om = params.omega_reduced
    mod = om**0.25 * math.exp(0.5 * params.gamma * t)
    return mod * cmath.exp(-0.5j * om * t)


def _quadratic_phase(es: EpsilonState) -> complex:
    """Coefficient i eps' e^{2 gamma t} / (2 eps) of q**2 in the exponent
    of every wave function here."""
    return 0.5j * es.eps_dot * es.e2 / es.eps


def coherent_psi(q, t: float, alpha: complex, params: DampingParams) -> complex | np.ndarray:
    """Coherent-state wave function at position(s) q and time t.

        psi = pi**(-1/4) eps**(-1/2) exp( i eps' e^{2 gamma t} q**2 / (2 eps)
              + sqrt(2) alpha q / eps - eps* alpha**2 / (2 eps) - |alpha|**2/2 )

    The alpha**2 coefficient uses eps*, not the time derivative eps'*: with
    the dotted coefficient the state is not normalized for alpha != 0 and
    every downstream oracle (normalization, Radon agreement, moments)
    fails.
    """
    alpha = complex(Coherent(alpha).alpha)
    es = epsilon(t, params)
    c2 = _quadratic_phase(es)
    const = -es.eps.conjugate() * alpha * alpha / (2.0 * es.eps) - abs(alpha) ** 2 / 2.0
    qa = np.asarray(q, dtype=float)
    out = (
        _PI_QUARTER
        * _inv_sqrt_eps(t, params)
        * np.exp(c2 * qa * qa + _SQRT2 * alpha * qa / es.eps + const)
    )
    return complex(out) if qa.ndim == 0 else out


def fock_psi(q, t: float, n: int, params: DampingParams) -> complex | np.ndarray:
    """Fock-state wave function at position(s) q and time t.

        psi = pi**(-1/4) eps**(-1/2) (eps*/(2 eps))**(n/2) / sqrt(n!)
              * exp( i eps' e^{2 gamma t} q**2 / (2 eps) ) H_n(q / |eps|)
            = eps**(-1/2) exp(-i n Omega t)
              * exp( i eps' e^{2 gamma t} q**2 / (2 eps) + y**2/2 ) phi_n(y)

    with y = q/|eps| and phi_n the orthonormal Hermite function
    (:func:`cktomo.numerics.hermite_gauss`); (eps*/eps)**(n/2) is taken on
    the tracked branch as exp(-i n Omega t).  The real part of the quadratic
    exponent is -y**2/2 exactly, so the second exponential is a pure phase.
    """
    n = Fock(n).n
    es = epsilon(t, params)
    c2 = _quadratic_phase(es)
    prefactor = _inv_sqrt_eps(t, params) * cmath.exp(-1j * n * params.omega_reduced * t)
    qa = np.asarray(q, dtype=float)
    y = qa / math.sqrt(es.ee)
    out = prefactor * np.exp(c2 * qa * qa + 0.5 * y * y) * hermite_gauss(n, y)
    return complex(out) if qa.ndim == 0 else out


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
    (times 2n+1 for Fock n); coherent states displace the mean to
    (sqrt(2) Re(alpha eps*), sqrt(2) e^{2 gamma t} Re(alpha eps'*)).
    Every quadrature window of the library is sized from these moments.
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


def _wigner_u_rule(
    state: QuantumState, q, p, t: float, params: DampingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for the relative-coordinate integral of W.

    The |psi(q+u/2) psi*(q-u/2)| envelope is the q-envelope stretched by 2
    in u (a displacement alpha does not move it), so the window is 8 sigma_u
    with sigma_u = 2 sqrt(Sigma_qq), Sigma_qq from `wigner_moments` (which
    carries the 2n+1 of Fock n).  The node count tracks the fastest phase
    exp(-i p u) seen on the grid and the Hermite oscillations of Fock n,
    rounded up to the next multiple of 16 (`numerics._rung`), so grids of
    nearby frequencies share one cached rule.
    """
    es = epsilon(t, params)
    _, cov = wigner_moments(state, t, params)
    half_width = 16.0 * math.sqrt(cov[0, 0])
    fock = isinstance(state, Fock)
    n_extra = 8 * state.n if fock else 0
    freq_extra = 0.0 if fock else _SQRT2 * abs(state.alpha) / math.sqrt(es.ee)
    freq = (
        float(np.max(np.abs(p)))
        + params.gamma * es.e2 * float(np.max(np.abs(q)))
        + freq_extra
    )
    n_u = 96 + n_extra + int(0.85 * half_width * freq)
    nodes, weights = _gauss_legendre(_rung(n_u))
    return half_width * nodes, half_width * weights


def _half_rule(u_nodes: np.ndarray, u_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative half of a u-rule, weights doubled except at u = 0.

    The integrand f(u) = psi(q+u/2) psi*(q-u/2) exp(-i p u) of W satisfies
    f(-u) = conj f(u) for every state, so over a mirror-symmetric rule the
    full sum equals 2 Re of the sum over the nonnegative nodes, with the
    middle node of an odd rule at half weight.  W is then real by
    construction; the identity needs the rule to be exactly symmetric, so
    any other rule is refused.
    """
    if not (
        np.array_equal(u_nodes, -u_nodes[::-1]) and np.array_equal(u_weights, u_weights[::-1])
    ):
        raise DomainError("the Wigner u-rule is not exactly mirror-symmetric")
    h = u_nodes.size // 2
    weights = 2.0 * u_weights[h:]
    if u_nodes.size % 2:
        weights[0] = u_weights[h]
    return u_nodes[h:], weights


def _wigner_kernel(state: QuantumState, q, u_nodes, t: float, params: DampingParams) -> np.ndarray:
    """psi(q + u/2) psi*(q - u/2) over 1-D q and the half-rule u nodes, shape (Q, U)."""
    return psi(state, q[:, None] + 0.5 * u_nodes, t, params) * np.conj(
        psi(state, q[:, None] - 0.5 * u_nodes, t, params)
    )


def _real_wigner(w: np.ndarray) -> np.ndarray:
    """Quadrature values of W (real by construction, see `_half_rule`),
    refusing non-finite ones."""
    if not np.all(np.isfinite(w)):
        raise NonFinite("Wigner quadrature produced non-finite values")
    return w


def _wigner_grid(
    state: QuantumState, qs: np.ndarray, ps: np.ndarray, t: float, params: DampingParams
) -> np.ndarray:
    """W over the product grid qs x ps (1-D axes), shape (Q, P), as one
    separable product over the nonnegative half of the u-rule (`_half_rule`):

        W(q, p) = sum_u Re K(q, u) cos(p u) + Im K(q, u) sin(p u),
        K(q, u) = psi(q + u/2) psi*(q - u/2) w_u,

    so psi is evaluated once per (q, u >= 0) node instead of once per
    (q, p, u), and the phase table once per (p, u >= 0).  The u-rule is the
    one `wigner` would pick for the same grid.  The contraction is one real
    einsum (no BLAS), whose summation order does not depend on the BLAS
    thread count, so the bytes do not either.
    """
    u_nodes, u_weights = _half_rule(*_wigner_u_rule(state, qs, ps, t, params))
    kernel = _wigner_kernel(state, qs, u_nodes, t, params) * u_weights
    pu = ps[:, None] * u_nodes
    return _real_wigner(
        np.einsum(
            "qu,pu->qp",
            np.hstack((kernel.real, kernel.imag)),
            np.hstack((np.cos(pu), np.sin(pu))),
        )
    )


def wigner(q, p, t: float, state: QuantumState, params: DampingParams):
    """Wigner quasidistribution W(q, p, t), normalized so its full
    phase-space integral equals 2*pi.

    Evaluated by Gauss-Legendre quadrature of psi(q+u/2) psi*(q-u/2)
    exp(-i p u) over the Gaussian support in u; accepts scalar or ndarray
    q, p (broadcast together).  The integrand at -u is the conjugate of the
    one at u, so only the nonnegative half of the (exactly symmetric) rule
    is summed, as 2 Re, and the result is real by construction.
    """
    qa, pa = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    if not (np.all(np.isfinite(qa)) and np.all(np.isfinite(pa))):
        raise DomainError("q and p must be finite")
    scalar = qa.ndim == 0
    qa = np.atleast_1d(qa)
    pa = np.atleast_1d(pa)
    u_nodes, u_weights = _half_rule(*_wigner_u_rule(state, qa, pa, t, params))
    # each point is summed on its own by einsum (BLAS gemv rounds a row by
    # its place in the call and the thread count)
    chunk = max(1, _WIGNER_CHUNK // u_nodes.size)
    flat_q, flat_p = qa.reshape(-1), pa.reshape(-1)
    out = np.empty(flat_q.shape, dtype=float)
    for start in range(0, flat_q.size, chunk):
        sl = slice(start, start + chunk)
        kernel = _wigner_kernel(state, flat_q[sl], u_nodes, t, params)
        pu = flat_p[sl, None] * u_nodes
        re_phased = kernel.real * np.cos(pu) + kernel.imag * np.sin(pu)  # Re[kernel exp(-i p u)]
        out[sl] = np.einsum("qu,u->q", re_phased, u_weights)
    out = _real_wigner(out.reshape(qa.shape))
    return float(out[0]) if scalar else out
