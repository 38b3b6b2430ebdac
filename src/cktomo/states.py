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

from .dynamics import DampingParams, epsilon
from .errors import DomainError, NonFinite
from .numerics import _HERMITE_GAUSS_MIN_N, _gauss_legendre, hermite, hermite_gauss

__all__ = [
    "Coherent",
    "Fock",
    "QuantumState",
    "coherent_psi",
    "fock_psi",
    "psi",
    "wigner",
]

_PI_QUARTER = math.pi ** (-0.25)
_SQRT2 = math.sqrt(2.0)
_MAX_FOCK = 16
_MAX_ALPHA = 8.0


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


def _fock_widening(n: int) -> float:
    """Widening sqrt(2n+1) of every quadrature window for Fock n: its
    Hermite factor pushes the turning points out to sqrt(2n+1) sigma."""
    return math.sqrt(2.0 * n + 1.0)


def _inv_sqrt_eps(t: float, params: DampingParams) -> complex:
    # eps**(-1/2) on the continuously tracked branch: modulus
    # Omega**(1/4) exp(gamma t / 2), phase -Omega t / 2.
    om = params.omega_reduced
    mod = om**0.25 * math.exp(0.5 * params.gamma * t)
    return mod * cmath.exp(-0.5j * om * t)


def coherent_psi(
    q,
    t: float,
    alpha: complex,
    params: DampingParams,
    *,
    dotted_alpha_term: bool = False,
) -> complex | np.ndarray:
    """Coherent-state wave function at position(s) q and time t.

        psi = pi**(-1/4) eps**(-1/2) exp( i eps' e^{2 gamma t} q**2 / (2 eps)
              + sqrt(2) alpha q / eps - eps* alpha**2 / (2 eps) - |alpha|**2/2 )

    The alpha**2 coefficient uses eps*, not the time derivative eps'*: with
    the dotted coefficient the state is not normalized for alpha != 0 and
    every downstream oracle (normalization, Radon agreement, moments)
    fails.  Pass dotted_alpha_term=True to evaluate that defective variant
    for diagnostic purposes.
    """
    alpha = complex(Coherent(alpha).alpha)
    es = epsilon(t, params)
    c2 = 0.5j * es.eps_dot * es.e2 / es.eps
    coeff = es.eps_dot.conjugate() if dotted_alpha_term else es.eps.conjugate()
    const = -coeff * alpha * alpha / (2.0 * es.eps) - abs(alpha) ** 2 / 2.0
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

    (eps*/(2 eps))**(n/2) is evaluated on the tracked branch, i.e. as
    2**(-n/2) exp(-i n Omega t).  For n >= 10 the Hermite factor is
    accumulated together with the Gaussian half of the quadratic exponent
    to keep intermediates bounded.
    """
    n = Fock(n).n
    es = epsilon(t, params)
    c2 = 0.5j * es.eps_dot * es.e2 / es.eps
    ratio_pow = 2.0 ** (-0.5 * n) * cmath.exp(-1j * n * params.omega_reduced * t)
    prefactor = _PI_QUARTER * _inv_sqrt_eps(t, params) * ratio_pow / math.sqrt(
        math.factorial(n)
    )
    qa = np.asarray(q, dtype=float)
    y = qa / math.sqrt(es.ee)
    if n < _HERMITE_GAUSS_MIN_N:
        out = prefactor * np.exp(c2 * qa * qa) * hermite(n, y)
    else:
        # Re(c2) q**2 = -y**2/2 exactly, so adding y**2/2 back leaves a
        # bounded pure-phase exponential next to the weighted Hermite pair.
        out = prefactor * np.exp(c2 * qa * qa + 0.5 * y * y) * hermite_gauss(n, y)
    return complex(out) if qa.ndim == 0 else out


def psi(state: QuantumState, q, t: float, params: DampingParams):
    """Wave function of either state family."""
    if isinstance(state, Fock):
        return fock_psi(q, t, state.n, params)
    if isinstance(state, Coherent):
        return coherent_psi(q, t, state.alpha, params)
    raise DomainError(f"unknown state {state!r}")


def _wigner_u_rule(
    state: QuantumState, q, p, t: float, params: DampingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for the relative-coordinate integral of W.

    The |psi(q+u/2) psi*(q-u/2)| envelope decays like exp(-u**2/(4 eps eps*))
    for every state here (a displacement alpha does not move it in u), so
    the window is 8 sigma_u with sigma_u = sqrt(2 eps eps*), widened by
    sqrt(2n+1) for Fock n whose Hermite factors push the turning points out.
    The node count tracks the fastest phase exp(-i p u) seen on the grid.
    """
    es = epsilon(t, params)
    widen, n_extra, freq_extra = 1.0, 0, 0.0
    if isinstance(state, Fock):
        widen = _fock_widening(state.n)
        n_extra = 8 * state.n
    elif isinstance(state, Coherent):
        freq_extra = _SQRT2 * abs(state.alpha) / math.sqrt(es.ee)
    half_width = 8.0 * math.sqrt(2.0 * es.ee) * widen
    freq = (
        float(np.max(np.abs(p)))
        + params.gamma * es.e2 * float(np.max(np.abs(q)))
        + freq_extra
    )
    n_u = 96 + n_extra + int(0.85 * half_width * freq)
    nodes, weights = _gauss_legendre(n_u)
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
    u_nodes, u_weights = _wigner_u_rule(state, qa, pa, t, params)
    # chunk the point set so the (points x nodes) work matrix stays small
    chunk = max(1, int(2_000_000 // max(1, u_nodes.size)))
    u_nodes, u_weights = _half_rule(u_nodes, u_weights)
    flat_q, flat_p = qa.reshape(-1), pa.reshape(-1)
    out = np.empty(flat_q.shape, dtype=float)
    for start in range(0, flat_q.size, chunk):
        sl = slice(start, start + chunk)
        kernel = _wigner_kernel(state, flat_q[sl], u_nodes, t, params)
        pu = flat_p[sl, None] * u_nodes
        # Re[kernel exp(-i p u)]
        out[sl] = (kernel.real * np.cos(pu) + kernel.imag * np.sin(pu)) @ u_weights
    out = _real_wigner(out.reshape(qa.shape))
    return float(out[0]) if scalar else out
