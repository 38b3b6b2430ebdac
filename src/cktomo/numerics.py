"""Shared numerical kernels: Hermite polynomials, quadrature, finite
differences, and the rectangular grid container used for all file output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, NonFinite

__all__ = [
    "QuadratureSpec",
    "Axis",
    "ScalarGrid",
    "hermite",
    "hermite_gauss",
    "integrate",
    "central_diff",
]

_MAX_HERMITE = 64
# Fock psi and tomograms use hermite_gauss from this order on; below it the
# plain recurrence keeps coherent alpha = 0 bit-identical to Fock 0
_HERMITE_GAUSS_MIN_N = 10
# over 3x the largest rule the library's own windows ask for (~600 nodes);
# bounds the O(n**2) build time (8-14 ms at the cap, one recurrence pass)
# and the rule cache
_MAX_RULE_POINTS = 2048
# rescale before mantissas reach the overflow range when accumulating
# H_n together with its Gaussian weight
_RESCALE_LIMIT = 1e120


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via the three-term recurrence.

    H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}.  Accepts a scalar or
    ndarray argument.  n > 64 is rejected: bare H_n values overflow the
    double range too easily beyond that; use :func:`hermite_gauss` for
    Gaussian-weighted evaluation.
    """
    n = _check_hermite_order(n)
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    h_prev = np.ones_like(xa)
    if n == 0:
        return float(h_prev) if scalar else h_prev
    h = 2.0 * xa
    for k in range(1, n):
        h, h_prev = 2.0 * xa * h - 2.0 * k * h_prev, h
    return float(h) if scalar else h


def hermite_gauss(n: int, x):
    """Gaussian-weighted Hermite function H_n(x) * exp(-x**2 / 2).

    The recurrence is accumulated with periodic rescaling (mantissa plus a
    log-offset) so the polynomial can never overflow before the Gaussian
    factor is applied; the weighted product itself is bounded.
    """
    n = _check_hermite_order(n)
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    m_prev = np.ones_like(xa)
    log_offset = np.zeros_like(xa)
    if n == 0:
        out = np.exp(-0.5 * xa * xa)
    else:
        m = 2.0 * xa
        for k in range(1, n):
            m, m_prev = 2.0 * xa * m - 2.0 * k * m_prev, m
            big = np.abs(m) > _RESCALE_LIMIT
            if np.any(big):
                f = np.where(big, np.abs(m), 1.0)
                m = m / f
                m_prev = m_prev / f
                log_offset = log_offset + np.log(f)
        out = m * np.exp(log_offset - 0.5 * xa * xa)
    return float(out[0]) if scalar else out


def _check_hermite_order(n) -> int:
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"Hermite order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"Hermite order must be nonnegative, got {n}")
    if n > _MAX_HERMITE:
        raise DomainError(f"Hermite order {n} exceeds the overflow guard {_MAX_HERMITE}")
    return int(n)


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration window [center - half_width, center + half_width] and
    the number of Gauss-Legendre nodes to place on it."""

    center: float
    half_width: float
    points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center) and math.isfinite(self.half_width)):
            raise DomainError("quadrature window must be finite")
        if self.half_width <= 0.0:
            raise DomainError(f"half_width must be positive, got {self.half_width}")
        if self.points < 16:
            raise DomainError(f"at least 16 quadrature points required, got {self.points}")


# first zeros of the Bessel function J_0, to 17 digits
_J0_ZEROS = np.array([
    2.4048255576957728, 5.5200781102863106, 8.6537279129110122, 11.791534439014282,
    14.930917708487786, 18.071063967910923, 21.211636629879259, 24.352471530749303,
])


def _bessel_j0_zeros(m: int):
    """The first m positive zeros of J_0, ascending: the table, then
    McMahon's expansion (within 6.4e-14 relative from the 7th zero on)."""
    beta = (np.arange(1, m + 1) - 0.25) * np.pi
    r = 1.0 / (8.0 * beta)
    r2 = r * r
    j = beta + r * (1.0 + r2 * (-124.0 / 3.0 + r2 * (120928.0 / 15.0 + r2 * (
        -401743168.0 / 105.0 + r2 * (1071187749376.0 / 315.0)))))
    j[: _J0_ZEROS.size] = _J0_ZEROS[:m]
    return j


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton on
    the Legendre recurrence over the nonnegative nodes, mirrored, so the
    rule is exactly symmetric (Hale & Townsend, SIAM J. Sci. Comput. 35
    (2013) A652).  The guess is Olver's Bessel-zero form
    theta_k = alpha + (alpha cot alpha - 1)/(8 alpha v**2), alpha = j_0,k/v,
    v = n + 1/2, within 5.2e-11 of the roots from n = 150 on; Newton stops
    once the second-order remainder n(n+1) dx**2/(1 - x**2) of its last
    step, which bounds the next step of node and weight, is below eps: one
    recurrence pass from n = 121 on, two below.  O(n**2) time, O(n) memory,
    weights within 1.5e-12 relative of a 40-digit reference up to 595 nodes.
    Every rule is built here, so one cap bounds the build time and the
    cache: all 2048 rules together hold about 33 MB, so no rule is ever
    evicted and rebuilt in a long-lived process."""
    if n > _MAX_RULE_POINTS:
        raise DomainError(f"quadrature rule of {n} nodes exceeds the cap {_MAX_RULE_POINTS}")
    v = n + 0.5
    alpha = _bessel_j0_zeros((n + 1) // 2)[::-1] / v
    x = np.cos(alpha + (alpha * np.cos(alpha) / np.sin(alpha) - 1.0) / (8.0 * alpha * v * v))
    x[: n % 2] = 0.0  # P_n(0) = 0 exactly for odd n, so Newton keeps it
    a = [(2 * k + 1) / (k + 1) for k in range(n)]  # P_k+1 = a_k x P_k - b_k P_k-1
    b = [k / (k + 1) for k in range(n)]
    for _ in range(10):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, a[k] * x * p - b[k] * p_prev
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_x2
        dx = p / dp
        x = x - dx
        if n * (n + 1) * np.max(dx * dx / one_minus_x2) <= np.finfo(float).eps:
            break
    # w = 2/((1 - x**2) P_n'**2) at the last iterate, carried to first order
    # along its unrounded step dx, so it is the weight of the exact root
    w = 2.0 / (one_minus_x2 * dp * dp) * (1.0 + 2.0 * x * dx / one_minus_x2)
    h = n // 2
    return np.concatenate((-x[::-1][:h], x)), np.concatenate((w[::-1][:h], w))


def integrate(f: Callable, spec: QuadratureSpec):
    """Gauss-Legendre estimate of the integral of f over the window.

    f must be vectorized (called once with the full node array) and may
    return real or complex values.  For Gaussian-tailed integrands with
    half_width >= 8 sigma, doubling `points` moves the result by < 1e-10.
    """
    nodes, weights = _gauss_legendre(spec.points)
    xs = spec.center + spec.half_width * nodes
    ys = np.asarray(f(xs))
    if ys.shape != xs.shape:
        raise DomainError("integrand must return one value per node")
    if not np.all(np.isfinite(ys)):
        raise NonFinite("integrand returned non-finite values inside the window")
    total = spec.half_width * np.dot(weights, ys)
    return complex(total) if np.iscomplexobj(ys) else float(total)


def central_diff(f: Callable, x: float, h: float, order: int = 1) -> float:
    """Central finite difference of f at x with step h (O(h**2) truncation).

    order=1: (f(x+h) - f(x-h)) / (2h)
    order=2: (f(x+h) - 2 f(x) + f(x-h)) / h**2
    """
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"step h must be positive and finite, got {h}")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise DomainError(f"derivative order must be 1 or 2, got {order}")


_FMT = "%.17g"  # 17 significant digits round-trip binary doubles exactly


@dataclass(frozen=True)
class Axis:
    """A named, uniformly spaced, strictly increasing sample axis."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise DomainError(f"axis {self.name!r} must be a nonempty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"axis {self.name!r} contains non-finite values")
        if vals.size > 1:
            d = np.diff(vals)
            if np.any(d <= 0.0):
                raise DomainError(f"axis {self.name!r} must be strictly increasing")
            step = d[0]
            # np.linspace rounds each value to within about one ulp of the
            # largest |value|, so the spacings scatter by a few such ulps
            slack = 1e-12 * abs(step) + 4.0 * np.spacing(np.max(np.abs(vals)))
            if np.any(np.abs(d - step) > slack):
                raise DomainError(f"axis {self.name!r} is not uniformly spaced")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class ScalarGrid:
    """Real-valued samples over one or two uniform axes plus metadata.

    values are stored row-major with axis1 as the outer (slowest) index:
    shape (len(axis1),) for one axis, (len(axis1), len(axis2)) for two.
    meta maps string keys to string values and travels with every output
    format.
    """

    axis1: Axis
    values: np.ndarray
    axis2: Axis | None = None
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        expected = (len(self.axis1),) if self.axis2 is None else (
            len(self.axis1),
            len(self.axis2),
        )
        if vals.shape != expected:
            raise DomainError(
                f"values shape {vals.shape} does not match axes {expected}"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(
            self, "meta", {str(k): str(v) for k, v in self.meta.items()}
        )

    # ------------------------------------------------------------------ CSV

    def to_csv(self) -> str:
        """Serialize as '#'-commented metadata, a header row, then long-form
        rows (axis1[, axis2], value), all numbers with 17 significant digits."""
        lines = [f"# {k}={v}" for k, v in self.meta.items()]
        if self.axis2 is None:
            lines.append(f"{self.axis1.name},value")
            for a, v in zip(self.axis1.values.tolist(), self.values.tolist()):
                lines.append(f"{_FMT % a},{_FMT % v}")
        else:
            lines.append(f"{self.axis1.name},{self.axis2.name},value")
            # axis2 is formatted once per grid; each row is then one
            # template "a,b_0,%.17g\na,b_1,%.17g..." filled from its values
            tails = [f",{_FMT % b},{_FMT}" for b in self.axis2.values.tolist()]
            for a, row in zip(self.axis1.values.tolist(), self.values.tolist()):
                head = _FMT % a
                lines.append((head + ("\n" + head).join(tails)) % tuple(row))
        lines.append("")  # trailing newline without copying the joined text
        return "\n".join(lines)

    @classmethod
    def from_csv(cls, text: str) -> "ScalarGrid":
        meta: dict[str, str] = {}
        rows: list[list[str]] = []
        header: list[str] | None = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            rows.append(line.split(","))
        if header is None or not rows:
            raise DomainError("CSV text contains no data rows")
        if len(header) == 2:
            ax1 = Axis(header[0], np.array([float(r[0]) for r in rows]))
            values = np.array([float(r[1]) for r in rows])
            return cls(axis1=ax1, values=values, meta=meta)
        if len(header) != 3:
            raise DomainError(f"expected 2 or 3 CSV columns, got {len(header)}")
        col1 = [float(r[0]) for r in rows]
        col2 = [float(r[1]) for r in rows]
        vals = [float(r[2]) for r in rows]
        ax1_vals = list(dict.fromkeys(col1))
        ax2_vals = list(dict.fromkeys(col2))
        n1, n2 = len(ax1_vals), len(ax2_vals)
        if n1 * n2 != len(rows):
            raise DomainError("CSV rows do not form a complete rectangular grid")
        values = np.array(vals).reshape(n1, n2)
        return cls(
            axis1=Axis(header[0], np.array(ax1_vals)),
            axis2=Axis(header[1], np.array(ax2_vals)),
            values=values,
            meta=meta,
        )

    # ----------------------------------------------------------------- JSON

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "axis1": {"name": self.axis1.name, "values": self.axis1.values.tolist()},
            "axis2": None
            if self.axis2 is None
            else {"name": self.axis2.name, "values": self.axis2.values.tolist()},
            "values": self.values.reshape(-1).tolist(),
        }
        return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScalarGrid":
        payload = json.loads(text)
        ax1 = Axis(payload["axis1"]["name"], np.array(payload["axis1"]["values"]))
        ax2 = None
        if payload.get("axis2") is not None:
            ax2 = Axis(payload["axis2"]["name"], np.array(payload["axis2"]["values"]))
        shape = (len(ax1),) if ax2 is None else (len(ax1), len(ax2))
        values = np.array(payload["values"], dtype=float).reshape(shape)
        return cls(axis1=ax1, axis2=ax2, values=values, meta=payload.get("meta", {}))
