import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktomo import (
    Axis,
    DomainError,
    NonFinite,
    QuadratureSpec,
    ScalarGrid,
    central_diff,
    hermite,
    hermite_gauss,
    integrate,
)
from cktomo import checks
from cktomo.numerics import (
    _J0_ZEROS,
    _MAX_RULE_POINTS,
    _WRITE_BLOCK,
    _bessel_j0_zeros,
    _gauss_legendre,
    _rung,
    _stencil_points,
    _worst,
    diff_offsets,
    tiles,
)


class TestHermite:
    def test_base_case(self):
        assert hermite(0, 2.7) == 1.0
        assert hermite(1, 3.5) == 7.0

    def test_h3_at_one(self):
        # 8 x^3 - 12 x at x = 1
        assert hermite(3, 1.0) == -4.0

    def test_against_explicit_polynomials(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-5.0, 5.0, size=100)
        explicit = [
            np.ones_like(xs),
            2 * xs,
            4 * xs**2 - 2,
            8 * xs**3 - 12 * xs,
            16 * xs**4 - 48 * xs**2 + 12,
            32 * xs**5 - 160 * xs**3 + 120 * xs,
        ]
        for n, expected in enumerate(explicit):
            got = hermite(n, xs)
            assert np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) < 1e-12

    @given(st.integers(min_value=0, max_value=10), st.floats(min_value=-5, max_value=5))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_parity(self, n, x):
        lhs = hermite(n, -x)
        rhs = (-1.0) ** n * hermite(n, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_order_guard(self):
        with pytest.raises(DomainError):
            hermite(65, 1.0)
        with pytest.raises(DomainError):
            hermite(-1, 1.0)

    def test_gauss_weighted_matches_plain(self):
        # hermite_gauss is the orthonormal Hermite function phi_n
        xs = np.linspace(-6.0, 6.0, 41)
        for n in (0, 1, 5, 12, 16):
            norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
            plain = hermite(n, xs) * np.exp(-0.5 * xs * xs) / norm
            weighted = hermite_gauss(n, xs)
            assert np.max(np.abs(plain - weighted)) < 1e-9 * np.max(np.abs(plain) + 1.0)

    def test_gauss_weighted_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(-17.0, 17.0, 87)  # past the turning point sqrt(129) of n = 64
        with mpmath.workdps(40):
            for n in (0, 1, 9, 10, 16, 64):
                norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
                ref = np.array(
                    [float(mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm) for x in xs.tolist()]
                )
                got = hermite_gauss(n, xs)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), n

    def test_gauss_weighted_large_order_finite(self):
        # bare H_64(30) would be astronomically large; the weighted pair is tame
        val = hermite_gauss(64, 30.0)
        assert math.isfinite(val)

    def test_checks_measure_the_library_path(self, monkeypatch):
        # the three Hermite checks evaluate hermite_gauss, the function every
        # Fock state goes through: a defect in it shows in each of them
        # (each check yields residuals; `_worst` folds them as `run_checks` does)
        hermite_checks = (
            checks._check_hermite_match,
            checks._check_hermite_parity,
            checks._check_hermite_orthonormal,
        )
        for check in hermite_checks:
            assert _worst(check(np.random.default_rng(0))) <= 1e-12
        defect = lambda n, x: hermite_gauss(n, x) * (1.0 + 1e-6 * (x + x * x))
        monkeypatch.setattr(checks, "hermite_gauss", defect)
        for check in hermite_checks:
            assert _worst(check(np.random.default_rng(0))) > 1e-8


class TestIntegrate:
    def test_standard_normal(self):
        f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        got = integrate(f, QuadratureSpec(0.0, 10.0, 96))
        assert abs(got - 1.0) < 1e-10

    def test_odd_integrand(self):
        got = integrate(lambda x: x * np.exp(-x * x), QuadratureSpec(0.0, 10.0, 96))
        assert abs(got) < 1e-12

    def test_hermite_orthonormality(self):
        f = lambda x: hermite(2, x) ** 2 * np.exp(-x * x) / (2**2 * 2 * math.sqrt(math.pi))
        got = integrate(f, QuadratureSpec(0.0, 12.0, 260))
        assert abs(got - 1.0) < 1e-9

    def test_doubling_invariance(self):
        f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        a = integrate(f, QuadratureSpec(0.0, 10.0, 96))
        b = integrate(f, QuadratureSpec(0.0, 10.0, 192))
        assert abs(a - b) < 1e-10

    def test_doubling_convergence_factor(self):
        # smooth Gaussian-tailed oscillatory integrand: doubling the rule
        # must cut the error by far more than 8x
        exact = math.sqrt(math.pi) * math.exp(-9.0 / 4.0)
        f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)
        err = [
            abs(integrate(f, QuadratureSpec(0.0, 8.0, n)) - exact) for n in (16, 32)
        ]
        assert err[0] / max(err[1], 1e-300) > 8.0

    def test_complex_integrand(self):
        f = lambda x: np.exp(-x * x) * np.exp(1j * x)
        got = integrate(f, QuadratureSpec(0.0, 10.0, 128))
        exact = math.sqrt(math.pi) * math.exp(-0.25)
        assert abs(got - exact) < 1e-12

    def test_non_finite_raises(self):
        with pytest.raises(NonFinite):
            integrate(lambda x: np.full_like(x, np.nan), QuadratureSpec(0.0, 1.0, 16))

    def test_rule_size_cap(self):
        with pytest.raises(DomainError):
            _gauss_legendre(_MAX_RULE_POINTS + 1)
        with pytest.raises(DomainError):
            integrate(np.exp, QuadratureSpec(0.0, 1.0, _MAX_RULE_POINTS + 1))

    def test_rungs_of_sixteen(self):
        requests = range(16, _MAX_RULE_POINTS + 1)
        rungs = [_rung(n) for n in requests]
        assert all(r % 16 == 0 and n <= r < n + 16 for n, r in zip(requests, rungs))
        assert len(set(rungs)) == _MAX_RULE_POINTS // 16 == 128
        # above the cap the request is passed on, for the rule to refuse
        assert _rung(_MAX_RULE_POINTS + 1) == _MAX_RULE_POINTS + 1

    def test_integrate_uses_the_rung(self):
        seen = []
        integrate(lambda x: seen.append(x.size) or np.ones_like(x), QuadratureSpec(0.0, 1.0, 300))
        assert seen == [304]

    def test_batched_rows_checked(self):
        # an integrand returns one value per node: batched rows are refused
        spec = QuadratureSpec(0.0, 1.0, 16)
        with pytest.raises(DomainError):
            integrate(lambda x: np.ones((2, x.size + 1)), spec)
        with pytest.raises(DomainError):
            integrate(lambda x: np.ones((2, 2, x.size)), spec)
        with pytest.raises(DomainError):
            integrate(lambda x: np.stack((x, np.full_like(x, np.inf))), spec)
        with pytest.raises(DomainError):
            integrate(lambda x: np.ones(x.size + 1), spec)

    def test_rule_cache_never_evicts(self):
        checks.run_checks("all", 1)
        # a long-lived process builds many other rules between two runs
        for n in range(16, 200):
            _gauss_legendre(n)
        builds = _gauss_legendre.cache_info().misses
        checks.run_checks("all", 1)
        assert _gauss_legendre.cache_info().misses == builds

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(0.0, -1.0, 64)
        with pytest.raises(DomainError):
            QuadratureSpec(0.0, 1.0, 8)


def _mp_legendre_weights(n, nodes):
    """40-digit Gauss-Legendre weights: one Newton step from each double node
    (error ~1e-16 -> ~1e-28), then w = 2/((1 - x^2) P_n'(x)^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = np.array([mpmath.mpf(float(v)) for v in nodes], dtype=object)
        for step in range(2):
            p_prev, p = np.ones_like(x), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            dp = n * (p_prev - x * p) / (1 - x * x)
            if step == 0:
                x = x - p / dp
        return [float(v) for v in 2 / ((1 - x * x) * dp * dp)]


class TestGaussLegendreRule:
    # every n up to 200: a stopping test that bounds the node step alone
    # leaves the weights a second-order term off (sum(w) missed 2 by 2.5e-14
    # at n = 50), which the k = 0 monomial catches
    @pytest.mark.parametrize("n", [*range(16, 201), 595, 2048])
    def test_integrates_monomials_exactly(self, n):
        x, w = _gauss_legendre(n)
        xk = np.ones_like(x)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(float(np.dot(w, xk)) - exact) <= 1e-14, k
            xk = xk * x

    @pytest.mark.parametrize("n", [16, 17, 96, 301, 595, 2047, 2048])
    def test_exactly_symmetric_and_ordered(self, n):
        x, w = _gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert abs(float(np.sum(w)) - 2.0) <= 1e-14

    def test_nodes_match_numpy(self):
        for n in list(range(16, 301)) + [333, 595, 1024, 2048]:
            x_ref, _ = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(_gauss_legendre(n)[0] - x_ref)) <= 1e-15, n

    @pytest.mark.parametrize("n", [96, 300, 595])
    def test_weights_match_40_digit_reference(self, n):
        # the nonnegative half; the mirror image is exact (test above)
        x, w = (a[n // 2:] for a in _gauss_legendre(n))
        ref = np.array(_mp_legendre_weights(n, x))
        assert np.max(np.abs(w - ref) / ref) <= 2e-12


class TestBesselJ0Zeros:
    def test_table_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for k, j in enumerate(_J0_ZEROS, start=1):
            ref = float(mpmath.besseljzero(0, k))
            assert abs(j - ref) <= 1e-16 * ref, k

    def test_mcmahon_branch_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        ref = np.array([float(mpmath.besseljzero(0, k)) for k in range(9, 1025)])
        assert np.max(np.abs(_bessel_j0_zeros(1024)[8:] - ref) / ref) <= 1e-13


class TestCentralDiff:
    def test_quadratic_exact(self):
        for h in (1e-1, 1e-3):
            got = central_diff(lambda x: x * x, 3.0, h)
            assert abs(got - 6.0) < 1e-10

    def test_sine_first_derivative(self):
        got = central_diff(np.sin, 0.0, 1e-3)
        assert abs(got - 1.0) < 2e-7  # h**2/6 Taylor bound

    def test_truncation_order_two(self):
        hs = np.logspace(-4, -1, 12)
        errs = [abs(central_diff(np.sin, 0.3, h) - math.cos(0.3)) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1

    def test_richardson_truncation_order_four(self):
        # (4 D(h/2) - D(h)) / 3 leaves -h**4 f^(5) / 480; rounding stays far
        # below it for h >= 1e-2
        hs = np.logspace(-2, -0.5, 10)
        errs = [abs(central_diff(np.sin, 0.3, h, richardson=True) - math.cos(0.3)) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 4.0) < 0.1

    def test_richardson_exact_on_quartics(self):
        got = central_diff(lambda x: x**4 - 3.0 * x**3, 1.5, 0.1, richardson=True)
        assert abs(got - (4.0 * 1.5**3 - 9.0 * 1.5**2)) < 1e-12

    @pytest.mark.parametrize("richardson, offsets", [(False, [1.0, -1.0]), (True, [1.0, -1.0, 0.5, -0.5])])
    def test_calls_f_once_on_stacked_offsets(self, richardson, offsets):
        calls = []

        def f(xs):
            calls.append(xs)
            return np.sin(xs)

        xs = np.array([0.1, 0.2, 0.4])
        got = central_diff(f, xs, 1e-2, richardson=richardson)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.add.outer(1e-2 * np.array(offsets), xs))
        assert np.max(np.abs(got - np.cos(xs))) < 2e-5

    def test_validation(self):
        for h in (-1e-3, 0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                central_diff(np.sin, 0.0, h)

    def test_stencil_points_layout(self):
        # the center, then the offsets along mu, nu and both diagonals in turn
        offsets = diff_offsets(0.5, richardson=True)
        steps = [0.5, -0.5, 0.25, -0.25]
        mus, nus = _stencil_points(2.0, -1.0, offsets, 4)
        assert mus.tolist() == [2.0] + [2.0 + s for s in steps] + [2.0] * 4 + [2.0 + s for s in steps] * 2
        assert nus.tolist() == [-1.0] * 5 + [-1.0 + s for s in steps] * 2 + [-1.0 - s for s in steps]
        two = _stencil_points(2.0, -1.0, offsets[:2], 2)
        assert [a.tolist() for a in two] == [[2.0, 2.5, 1.5, 2.0, 2.0], [-1.0, -1.0, -1.0, -0.5, -1.5]]


class TestWorst:
    def test_python_max_from_zero(self):
        assert _worst([]) == 0.0
        assert math.copysign(1.0, _worst([-0.0, -1.0])) == 1.0  # never -0.0
        assert _worst([1e-3, np.float64(2e-3), 5e-4]) == 2e-3

    @pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan], [1.0, math.nan, 2.0], [np.float64("nan")]])
    def test_any_nan_makes_it_nan(self, residuals):
        assert math.isnan(_worst(residuals))


class TestScalarGrid:
    def _grid2d(self):
        return ScalarGrid(
            axis1=Axis("phi", np.linspace(0.0, 1.0, 4)),
            axis2=Axis("x", np.linspace(-2.0, 2.0, 5)),
            values=np.arange(20.0).reshape(4, 5) * math.pi,
            meta={"gamma": "0.05", "state": "fock:1"},
        )

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            ScalarGrid(
                axis1=Axis("x", np.linspace(0, 1, 3)),
                values=np.zeros(4),
            )

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            Axis("x", np.array([0.0, 1.0, 1.5]))  # nonuniform
        with pytest.raises(DomainError):
            Axis("x", np.array([0.0, -1.0]))  # decreasing

    def test_axis_accepts_linspace_grids(self):
        # linspace rounding scatters the spacing by about one ulp of the
        # largest |value|, which far exceeds 1e-12 of a small step
        for lo, hi in ((-6.0, 6.0), (100.0, 101.0), (0.0, 2.0 * math.pi), (-1e-9, 3e-9), (-7e5, -7e5 + 3.0)):
            for count in (2, 3, 241, 6800, 8001, 40_001, 100_000):
                Axis("x", np.linspace(lo, hi, count))

    def test_axis_rejects_small_nonuniformity(self):
        vals = np.linspace(-6.0, 6.0, 8001)
        vals[4000] += 1e-9 * (vals[1] - vals[0])
        with pytest.raises(DomainError):
            Axis("x", vals)

    def test_csv_roundtrip_exact(self):
        grid = self._grid2d()
        back = ScalarGrid.from_csv(grid.to_csv())
        assert back.axis1.name == "phi" and back.axis2.name == "x"
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.axis1.values, grid.axis1.values)
        assert np.array_equal(back.axis2.values, grid.axis2.values)
        assert back.meta == grid.meta

    def test_csv_roundtrip_1d(self):
        grid = ScalarGrid(
            axis1=Axis("x", np.linspace(-1.0, 1.0, 7)),
            values=np.exp(np.linspace(-1.0, 1.0, 7)),
            meta={"t": "0"},
        )
        back = ScalarGrid.from_csv(grid.to_csv())
        assert np.array_equal(back.values, grid.values)

    def test_json_roundtrip_exact(self):
        grid = self._grid2d()
        back = ScalarGrid.from_json(grid.to_json())
        assert np.array_equal(back.values, grid.values)
        assert back.meta == grid.meta

    def test_csv_rows_out_of_order_refused(self):
        # each cell must sit where row-major order puts it: read by its
        # distinct x and y alone, (1, 0) would get the value 3
        with pytest.raises(DomainError, match="row-major"):
            ScalarGrid.from_csv("x,y,value\n0,0,1\n0,1,2\n1,1,3\n1,0,4\n")
        back = ScalarGrid.from_csv("x,y,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n")
        assert back.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# t=0\nx,value\n",  # no data rows
            "x,y,z,value\n0,0,0,1\n",  # four columns
            "x,y,value\n0,0,1\n0,1\n",  # a short row
            "x,y,value\n0,0,1\n0,1,2,3\n",  # a long row
            "x,value\n0,one\n",  # not a number
            "x,y,value\n0,0,1\n0,1,2\n1,0,3\n",  # an incomplete grid
            "x,value\n1,0\n0,1\n",  # a decreasing axis
        ],
    )
    def test_csv_malformed_refused(self, text):
        with pytest.raises(DomainError):
            ScalarGrid.from_csv(text)

    @pytest.mark.parametrize(
        "payload",
        [
            "{",  # not JSON
            "[]",  # not an object
            '{"axis2": null, "values": [1.0]}',  # no axis1
            '{"axis1": {"name": "x"}, "values": [1.0]}',  # an axis without values
            '{"axis1": {"name": "x", "values": [0.0, 1.0]}, "values": [1.0]}',  # too few values
            '{"axis1": {"name": "x", "values": [0.0]}, "axis2": {"name": "y", "values": [0.0, 1.0]},'
            ' "values": [1.0, 2.0, 3.0]}',  # too many values
            '{"axis1": {"name": "x", "values": [0.0]}, "values": ["a"]}',  # not a number
            '{"axis1": {"name": "x", "values": [0.0]}, "values": [1.0], "meta": []}',  # meta not a map
        ],
    )
    def test_json_malformed_refused(self, payload):
        with pytest.raises(DomainError):
            ScalarGrid.from_json(payload)

    def test_json_rows_equal_whole_payload(self):
        # to_json encodes the values row by row; the bytes are those of one
        # json.dumps of the whole payload
        rng = np.random.default_rng(3)
        grids = [
            self._grid2d(),
            ScalarGrid(
                axis1=Axis("x", np.linspace(-1.0, 1.0, 7)),
                values=np.exp(np.linspace(-1.0, 1.0, 7)),
                meta={"t": "0"},
            ),
            ScalarGrid(
                axis1=Axis("q", np.array([0.5])),
                axis2=Axis("p", np.linspace(-3.0, 3.0, 9)),
                values=rng.standard_normal((1, 9)) * 1e-300,
            ),
            ScalarGrid(
                axis1=Axis("phi", np.linspace(0.0, 6.0, 13)),
                axis2=Axis("x", np.array([-2.0])),
                values=-rng.exponential(size=(13, 1)),
            ),
        ]
        for grid in grids:
            payload = {
                "meta": grid.meta,
                "axis1": {"name": grid.axis1.name, "values": grid.axis1.values.tolist()},
                "axis2": None
                if grid.axis2 is None
                else {"name": grid.axis2.name, "values": grid.axis2.values.tolist()},
                "values": grid.values.reshape(-1).tolist(),
            }
            assert grid.to_json() == json.dumps(payload, indent=None, separators=(",", ":")) + "\n"

    @staticmethod
    def _multi_block_grids():
        # 37 x 203 is 4 write tiles of whole rows, a 5000-point row is 3
        # tiles, and the 1-D scan is 5 runs of values
        rng = np.random.default_rng(11)
        values = rng.standard_normal(37 * 203 + 3 * 5000 + 10_000)
        values[::7] *= 1e-300
        values[1::11] *= 1e300
        values[2::13] = -0.0
        return [
            ScalarGrid(
                axis1=Axis("phi", np.linspace(0.0, 6.283, 37)),
                axis2=Axis("x", np.linspace(-7.0, 7.0, 203)),
                values=values[: 37 * 203].reshape(37, 203),
                meta={"gamma": "0.05", "frame": "optical"},
            ),
            ScalarGrid(
                axis1=Axis("phi", np.linspace(0.0, 1.0, 3)),
                axis2=Axis("x", np.linspace(-9.0, 9.0, 5000)),
                values=values[37 * 203 : 37 * 203 + 15_000].reshape(3, 5000),
            ),
            ScalarGrid(
                axis1=Axis("x", np.linspace(-6.0, 6.0, 10_000)),
                values=values[-10_000:],
                meta={"t": "5"},
            ),
        ]

    def test_multi_block_text_equals_whole_grid_formulas(self):
        for grid in self._multi_block_grids():
            axes = [grid.axis1] + ([] if grid.axis2 is None else [grid.axis2])
            assert len(tiles(len(grid.axis1), grid.values.size // len(grid.axis1), _WRITE_BLOCK)) >= 3
            points = np.stack(
                [m.ravel() for m in np.meshgrid(*(ax.values for ax in axes), indexing="ij")]
                + [grid.values.ravel()],
                axis=1,
            )
            lines = [f"# {k}={v}" for k, v in grid.meta.items()]
            lines.append(",".join(ax.name for ax in axes) + ",value")
            lines += [",".join("%.17g" % c for c in row) for row in points.tolist()]
            assert grid.to_csv() == "\n".join(lines) + "\n"
            payload = {
                "meta": grid.meta,
                "axis1": {"name": grid.axis1.name, "values": grid.axis1.values.tolist()},
                "axis2": None
                if grid.axis2 is None
                else {"name": grid.axis2.name, "values": grid.axis2.values.tolist()},
                "values": grid.values.reshape(-1).tolist(),
            }
            assert grid.to_json() == json.dumps(payload, indent=None, separators=(",", ":")) + "\n"

    def test_write_formats_one_block_per_write(self):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        for grid in self._multi_block_grids():
            fh = Recorder()
            grid.write(fh, "csv")
            assert len(fh.writes) >= 5
            assert max(text.count("\n") for text in fh.writes) <= _WRITE_BLOCK
            assert "".join(fh.writes) == grid.to_csv()
            fh = Recorder()
            grid.write(fh, "json")
            # the head (with the axes), then one write per tile: its values
            # and the comma that separates it from the tile before
            assert max(text.count(",") for text in fh.writes[1:]) <= _WRITE_BLOCK
            assert "".join(fh.writes) == grid.to_json()

    def test_write_refuses_unknown_format(self):
        with pytest.raises(DomainError, match="format"):
            self._grid2d().write(io.StringIO(), "xml")

    def test_csv_seventeen_digits(self):
        grid = ScalarGrid(
            axis1=Axis("x", np.array([0.0, 1.0])),
            values=np.array([math.pi, math.e]),
        )
        text = grid.to_csv()
        assert "3.1415926535897931" in text
