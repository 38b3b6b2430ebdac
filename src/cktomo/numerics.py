"""Shared numerical kernels: Hermite polynomials and the orthonormal
Hermite functions, quadrature, finite differences, and the rectangular grid
container used for all file output.
"""

from __future__ import annotations

import io
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
    "diff_from_values",
    "diff_offsets",
]

_MAX_HERMITE = 64
# phi_{k+1} = _PHI_A[k] x phi_k - _PHI_B[k] phi_{k-1}, the orthonormal
# Hermite-function recurrence; _PHI_B[0] = 0 starts it from phi_0 alone
_PHI_A = [math.sqrt(2.0 / (k + 1)) for k in range(_MAX_HERMITE)]
_PHI_B = [math.sqrt(k / (k + 1)) for k in range(_MAX_HERMITE)]
_PI_QUARTER = math.pi ** (-0.25)
# over 3x the largest rule the library's own windows ask for (~600 nodes);
# bounds the O(n**2) build time (about 6 ms at the cap, one recurrence pass)
# and the rule cache.  A rung of the ladder {8, 10, 12, 14} 2**j of `_rung`,
# so the ladder ends on it: the library's own quadratures use at most its
# 29 rules of 16 to 2048 nodes (~0.2 MB)
_MAX_RULE_POINTS = 2048
# recurrence rows `_gauss_legendre` precomputes at a time (8 KB each at the cap)
_RULE_BLOCK = 64


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via the three-term recurrence.

    H_0 = 1, H_1 = 2x, H_{k+1} = 2x H_k - 2k H_{k-1}.  Accepts a scalar or
    ndarray argument.  n > 64 is rejected: bare H_n values overflow the
    double range too easily beyond that.  The library evaluates Fock states
    through :func:`hermite_gauss`; this is the reference it is checked
    against.
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
    """Orthonormal Hermite function
    phi_n(x) = H_n(x) exp(-x**2 / 2) / sqrt(2**n n! sqrt(pi)).

    phi_0 = pi**(-1/4) exp(-x**2/2), phi_1 = sqrt(2) x phi_0 and
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1}, from the
    H_n recurrence (Abramowitz & Stegun 22.7).  Every |phi_k| stays below
    pi**(-1/4) (Indritz, Proc. AMS 12 (1961) 981), so the recurrence needs
    no norm and no rescaling (Bunck, BIT 49 (2009) 281).
    Accepts a scalar or ndarray argument.
    """
    n = _check_hermite_order(n)
    xa = np.asarray(x, dtype=float)
    phi_prev, phi = 0.0, _PI_QUARTER * np.exp(-0.5 * xa * xa)
    for k in range(n):
        phi_prev, phi = phi, _PHI_A[k] * xa * phi - _PHI_B[k] * phi_prev
    return float(phi) if xa.ndim == 0 else phi


def _laguerre(n: int, x):
    """Laguerre polynomial L_n(x), scalar or ndarray x, by the recurrence
    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1} from L_0 = 1, L_1 = 1 - x."""
    lag, prev = 1.0 - x, 1.0
    for k in range(1, n):
        lag, prev = ((2 * k + 1 - x) * lag - k * prev) / (k + 1), lag
    return lag if n else 1.0


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
    evicted and rebuilt in a long-lived process.  The library's own
    quadratures ask through `_rung`, so they use at most the 29 rules of
    16, 20, 24, 28, 32, 40, ..., 1792, 2048 nodes (about 0.2 MB)."""
    if n > _MAX_RULE_POINTS:
        raise DomainError(f"quadrature rule of {n} nodes exceeds the cap {_MAX_RULE_POINTS}")
    v = n + 0.5
    alpha = _bessel_j0_zeros((n + 1) // 2)[::-1] / v
    x = np.cos(alpha + (alpha * np.cos(alpha) / np.sin(alpha) - 1.0) / (8.0 * alpha * v * v))
    x[: n % 2] = 0.0  # P_n(0) = 0 exactly for odd n, so Newton keeps it
    a = np.array([(2 * k + 1) / (k + 1) for k in range(n)])  # P_k+1 = a_k x P_k - b_k P_k-1
    b = [k / (k + 1) for k in range(n)]
    for _ in range(10):
        p_prev, p = np.ones_like(x), x
        for k0 in range(1, n, _RULE_BLOCK):
            # the rows a_k x of a block, each then turned into P_k+1 in place
            rows = np.multiply.outer(a[k0 : k0 + _RULE_BLOCK], x)
            for k, row in enumerate(rows, k0):
                row *= p
                row -= b[k] * p_prev
                p_prev, p = p, row
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


def _rung(points: int) -> int:
    """Node count of the rule a quadrature asking for `points` nodes gets:
    the smallest of {8, 10, 12, 14} 2**j, from 16 to _MAX_RULE_POINTS, that
    is at least `points`, so the many node counts the windows ask for share
    a few cached rules.  Never fewer nodes than asked and at most 25 % more;
    every rung is even, so every rule is exactly mirrored.  A request above
    _MAX_RULE_POINTS is passed on unchanged, for `_gauss_legendre` to
    refuse."""
    if points > _MAX_RULE_POINTS:
        return points
    points = max(points, 16)
    # the rungs in (8 2**j, 16 2**j] are the multiples of 2**(j+1)
    step = 1 << ((points - 1).bit_length() - 3)
    return -(-points // step) * step


def integrate(f: Callable, spec: QuadratureSpec):
    """Gauss-Legendre estimate of the integral of f over the window.

    The rule has `spec.points` nodes rounded up to the next rung of the
    ladder {8, 10, 12, 14} 2**j (`_rung`), at most 25 % more.  f must be
    vectorized (called once with the full node array) and return one real
    or complex value per node.  For Gaussian-tailed
    integrands with half_width >= 8 sigma, doubling `points` moves the
    result by < 1e-10.
    """
    nodes, weights = _gauss_legendre(_rung(spec.points))
    xs = spec.center + spec.half_width * nodes
    ys = np.asarray(f(xs))
    if ys.shape != xs.shape:
        raise DomainError("integrand must return one value per node")
    if not np.isfinite(ys).all():
        raise NonFinite("integrand returned non-finite values inside the window")
    total = spec.half_width * np.dot(weights, ys)
    return complex(total) if np.iscomplexobj(ys) else float(total)


# the first-difference rule samples f at x + h * _OFFSETS: the central pair
# (+1, -1), then (+1/2, -1/2) for Richardson's halved step
_OFFSETS = np.array([1.0, -1.0, 0.5, -0.5])


def diff_offsets(h: float, richardson: bool = False):
    """Offsets h * (+1, -1) of the central difference, then h * (+1/2, -1/2)
    for Richardson's rule; the one check that h is a usable step."""
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"step h must be positive and finite, got {h}")
    return h * _OFFSETS[: 4 if richardson else 2]


def diff_from_values(values, h: float, richardson: bool = False):
    """First derivative from f at `diff_offsets(h, richardson)`, stacked on
    the leading axis: D(h) = (f(x+h) - f(x-h)) / (2h) with O(h**2)
    truncation, or Richardson's D4 = (4 D(h/2) - D(h)) / 3 with O(h**4)
    (Richardson, Phil. Trans. R. Soc. A 210 (1911) 307)."""
    d = (values[0] - values[1]) / (2.0 * h)
    if richardson:
        d = _richardson(d, (values[2] - values[3]) / h)
    return d


def _richardson(coarse, fine):
    """O(h**4) from two O(h**2) estimates at steps h (coarse) and h/2 (fine)."""
    return (4.0 * fine - coarse) / 3.0


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x, in closed form:
    sum((u - mean u)(v - mean v)) / sum((u - mean u)**2) with u = log x,
    v = log y; the fitted order of a truncation error y(x)."""
    u, v = np.log(xs), np.log(ys)
    u = u - u.mean()
    return float(np.sum(u * (v - v.mean())) / np.sum(u * u))


def _worst(residuals):
    """The largest residual, folded by Python's max from +0.0 (so -0.0 never
    shows and ties keep the first value), except that any NaN makes it nan:
    max alone drops a NaN that is not its first argument."""
    worst = 0.0
    for r in residuals:
        worst = max(worst, r) if r == r else math.nan  # max(nan, x) stays nan
    return worst


# a 2-D stencil's directions in (x, y): both axes, then both diagonals
_DIRECTIONS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])


def _stencil_points(x: float, y: float, offsets, directions: int):
    """A 2-D stencil around (x, y), for callers that evaluate it in one
    broadcast: the center, then (x, y) + offsets times each of the first
    `directions` of _DIRECTIONS in turn."""
    steps = _DIRECTIONS[:directions, None, :] * offsets[None, :, None]  # (direction, offset, x/y)
    return np.append(x, x + steps[..., 0]), np.append(y, y + steps[..., 1])


def central_diff(f: Callable, x, h: float, richardson: bool = False):
    """First derivative of f at x (a scalar or an array).  f must be
    vectorized: it is called once, on x + `diff_offsets(h, richardson)`
    stacked on a new leading axis, the way `integrate` calls it once on all
    its nodes."""
    offsets = diff_offsets(h, richardson)
    return diff_from_values(np.asarray(f(np.add.outer(offsets, x))), h, richardson)


_FMT = "%.17g"  # 17 significant digits round-trip binary doubles exactly
_WRITE_BLOCK = 1 << 11  # values formatted per write of `ScalarGrid.write`


def tiles(n1: int, n2: int, size: int) -> list[tuple[slice, slice]]:
    """(rows, cols) slices covering an (n1, n2) array in row-major order, each
    of at most `size` elements: whole rows, or part of a row that is longer."""
    h, w = max(1, size // n2), min(n2, size)
    return [(slice(r, r + h), slice(c, c + w)) for r in range(0, n1, h) for c in range(0, n2, w)]


@dataclass(frozen=True)
class Axis:
    """A named, uniformly spaced, strictly increasing sample axis."""

    name: str
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise DomainError(f"axis {self.name!r} must be a nonempty 1-D array")
        if not np.isfinite(vals).all():
            raise DomainError(f"axis {self.name!r} contains non-finite values")
        if vals.size > 1:
            d = np.diff(vals)
            if (d <= 0.0).any():
                raise DomainError(f"axis {self.name!r} must be strictly increasing")
            step = d[0]
            # np.linspace rounds each value to within about one ulp of the
            # largest |value|, so the spacings scatter by a few such ulps
            slack = 1e-12 * abs(step) + 4.0 * np.spacing(np.max(np.abs(vals)))
            if (np.abs(d - step) > slack).any():
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

    def write(self, fh, fmt: str) -> None:
        """Write the grid to the text stream fh, one tile of at most
        _WRITE_BLOCK values per fh.write, so no text of the whole grid is
        held.  "csv": '#'-commented metadata, a header row, then long-form
        rows (axis1[, axis2], value), all numbers with 17 significant digits.
        "json": one compact object (meta, axis1, axis2, the values flattened
        row-major) and a trailing newline."""
        if fmt not in ("csv", "json"):
            raise DomainError(f"unknown grid format {fmt!r}")
        values = self.values.reshape(len(self.axis1), -1)  # 1-D: one column
        blocks = tiles(*values.shape, _WRITE_BLOCK)
        axes = [self.axis1] + ([] if self.axis2 is None else [self.axis2])
        if fmt == "json":
            import json  # only JSON grids use it, so a CSV or check process never loads it

            dumps = json.JSONEncoder(separators=(",", ":")).encode
            head = {"meta": self.meta, "axis1": None, "axis2": None}
            for key, axis in zip(("axis1", "axis2"), axes):
                head[key] = {"name": axis.name, "values": axis.values.tolist()}
            fh.write(dumps(head)[:-1] + ',"values":[')
            for i, tile in enumerate(blocks):
                fh.write(("," if i else "") + dumps(values[tile].ravel().tolist())[1:-1])
            fh.write("]}\n")
            return
        fh.write("".join(f"# {k}={v}\n" for k, v in self.meta.items()))
        fh.write(",".join(axis.name for axis in axes) + ",value\n")
        # axis2 is formatted once per grid; each row of a tile is then one
        # template "a,b_0,%.17g\na,b_1,%.17g..." filled from its values
        tails = [f",{_FMT}"]  # the one column of a 1-D grid
        if self.axis2 is not None:
            tails = [f",{_FMT % b},{_FMT}" for b in self.axis2.values.tolist()]
        for rows, cols in blocks:
            lines = []
            for a, row in zip(self.axis1.values[rows].tolist(), values[rows, cols].tolist()):
                head = _FMT % a
                lines.append((head + ("\n" + head).join(tails[cols])) % tuple(row))
            fh.write("\n".join(lines) + "\n")

    def to_csv(self) -> str:
        """The text of `write(fh, "csv")`."""
        self.write(buf := io.StringIO(), "csv")
        return buf.getvalue()

    def to_json(self) -> str:
        """The text of `write(fh, "json")`."""
        self.write(buf := io.StringIO(), "json")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ScalarGrid":
        """Read the text of `write(fh, "csv")`: a 2-D grid's rows must run
        row-major, axis1 the outer index.  Any other text raises
        DomainError."""
        meta: dict[str, str] = {}
        lines: list[str] = []
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
            elif line:
                lines.append(line)
        if len(lines) < 2:
            raise DomainError("CSV text contains no data rows")
        header = [c.strip() for c in lines[0].split(",")]
        if len(header) not in (2, 3):
            raise DomainError(f"expected 2 or 3 CSV columns, got {len(header)}")
        rows = [line.split(",") for line in lines[1:]]
        if any(len(row) != len(header) for row in rows):
            raise DomainError(f"every CSV data row must have {len(header)} values")
        try:
            cols = np.array([[float(v) for v in row] for row in rows]).T
        except ValueError as exc:
            raise DomainError(f"CSV data row is not numeric: {exc}") from None
        if len(header) == 2:
            return cls(axis1=Axis(header[0], cols[0]), values=cols[1], meta=meta)
        ax2 = np.array(list(dict.fromkeys(cols[1].tolist())))
        ax1 = cols[0, :: ax2.size]
        if not (
            np.array_equal(cols[0], np.repeat(ax1, ax2.size))
            and np.array_equal(cols[1], np.tile(ax2, ax1.size))
        ):
            raise DomainError("CSV rows do not form a complete row-major grid")
        return cls(
            axis1=Axis(header[0], ax1),
            axis2=Axis(header[1], ax2),
            values=cols[2].reshape(ax1.size, ax2.size),
            meta=meta,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScalarGrid":
        """Read the text of `write(fh, "json")`; any other text raises
        DomainError."""
        import json

        try:
            payload = json.loads(text)
            axes = [
                Axis(a["name"], np.array(a["values"], dtype=float))
                for a in (payload["axis1"], payload.get("axis2"))
                if a is not None
            ]
            values = np.array(payload["values"], dtype=float).reshape([len(a) for a in axes])
            return cls(axes[0], values, *axes[1:], meta=payload.get("meta", {}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed grid JSON: {exc!r}") from None
