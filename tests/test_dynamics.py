import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktomo import (
    DomainError,
    DegenerateFrame,
    epsilon,
    epsilon_residual,
    frame_coeffs,
    make_params,
    time_backward,
    time_forward,
)
from cktomo.checks import rk4_epsilon, run_checks
from cktomo.dynamics import _two_product, frame_quantities


def _rk4_stagewise(gamma, t_end, dt):
    """Reference: the four RK4 stages of y'' + 2 gamma y' + y = 0, step by step."""
    om = math.sqrt(1.0 - gamma * gamma)
    y0 = 1.0 / math.sqrt(om)
    y1 = complex(-gamma, om) / math.sqrt(om)
    steps = max(1, round(t_end / dt))
    h = t_end / steps
    two_g = 2.0 * gamma
    for _ in range(steps):
        k1a = y1
        k1b = -two_g * y1 - y0
        k2a = y1 + 0.5 * h * k1b
        k2b = -two_g * k2a - (y0 + 0.5 * h * k1a)
        k3a = y1 + 0.5 * h * k2b
        k3b = -two_g * k3a - (y0 + 0.5 * h * k2a)
        k4a = y1 + h * k3b
        k4b = -two_g * k4a - (y0 + h * k3a)
        y0 = y0 + h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        y1 = y1 + h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
    return y0


class TestMakeParams:
    def test_frictionless_limit(self):
        assert make_params(0.0).omega_reduced == 1.0

    def test_three_four_five(self):
        assert make_params(0.6).omega_reduced == pytest.approx(0.8, abs=1e-15)

    def test_small_gamma(self):
        assert make_params(0.05).omega_reduced == pytest.approx(
            0.998749217771909, abs=1e-15
        )

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.inf, math.nan])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            make_params(bad)

    def test_pythagorean_invariant(self):
        for g in np.linspace(0.0, 0.999, 37):
            p = make_params(g)
            assert abs(p.omega_reduced**2 + p.gamma**2 - 1.0) < 1e-15


class TestEpsilon:
    def test_initial_conditions_exact(self):
        rng = np.random.default_rng(11)
        for g in rng.uniform(0.0, 0.999, size=20):
            p = make_params(g)
            es = epsilon(0.0, p)
            om = p.omega_reduced
            assert abs(es.eps - 1.0 / math.sqrt(om)) < 1e-14
            assert abs(es.eps_dot - complex(-g, om) / math.sqrt(om)) < 1e-14

    def test_quarter_turn_frictionless(self):
        es = epsilon(math.pi / 2.0, make_params(0.0))
        assert abs(es.eps - 1j) < 1e-12
        assert abs(es.eps_dot - (-1.0)) < 1e-12

    def test_closed_form_regression(self):
        es = epsilon(5.0, make_params(0.05))
        assert es.eps == pytest.approx(
            0.21637691550945426 - 0.748646296989567j, abs=1e-14
        )

    def test_out_of_range_time_is_typed(self):
        p = make_params(0.9)
        for t in (500.0, -800.0, 1e308):
            with pytest.raises(DomainError):
                epsilon(t, p)
        with pytest.raises(DomainError):
            frame_coeffs(1.0, 0.0, 500.0, p)
        # the largest time at which exp(2 gamma t) is still finite
        t = math.log(sys.float_info.max) / 1.8
        while 2.0 * 0.9 * t > math.log(sys.float_info.max):
            t = math.nextafter(t, 0.0)
        es = epsilon(t, p)
        assert es.e2 == math.exp(2.0 * 0.9 * t) and math.isfinite(es.e2)

    def test_closed_form_vs_rk4(self):
        # independent oracle: fixed-step RK4 from the initial data
        for g, t_end in ((0.0, 10.0), (0.05, 5.0), (0.5, 10.0)):
            numeric = rk4_epsilon(g, t_end)
            assert abs(epsilon(t_end, make_params(g)).eps - numeric) < 1e-7

    def test_rk4_increment_matches_stagewise(self):
        # the four cases of checks._check_closed_vs_ode
        for g, t_end in ((0.0, 10.0), (0.05, 5.0), (0.05, 10.0), (0.5, 10.0)):
            assert abs(rk4_epsilon(g, t_end) - _rk4_stagewise(g, t_end, 1e-4)) <= 1e-13

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 9, 1024, 1025, 50_000, 100_000])
    def test_rk4_powering_matches_stagewise(self, steps):
        # binary powering of the increment against N explicit RK4 steps
        for g in (0.0, 0.05, 0.5):
            t_end = steps * 1e-4
            assert round(t_end / 1e-4) == steps
            assert abs(rk4_epsilon(g, t_end) - _rk4_stagewise(g, t_end, 1e-4)) <= 1e-13

    @pytest.mark.parametrize(
        "t,g", [(0.0, 0.0), (5.0, 0.05), (20.0, 0.5)]
    )
    def test_residual_spot(self, t, g):
        assert epsilon_residual(t, make_params(g)) < 1e-10

    def test_residual_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = rng.uniform(0.0, 20.0)
            g = rng.uniform(0.0, 0.9)
            assert epsilon_residual(t, make_params(g)) < 1e-10

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_wronskian_conserved(self, t, g):
        p = make_params(g)
        es = epsilon(t, p)
        wr = math.exp(2.0 * g * t) * (es.eps.conjugate() * es.eps_dot).imag
        assert abs(wr - 1.0) < 1e-10


class TestEpsilonBilinears:
    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exact_identities(self, t, g):
        p = make_params(g)
        es = epsilon(t, p)
        assert es.e2 == math.exp(2.0 * g * t)
        assert es.ee == pytest.approx(math.exp(-2.0 * g * t) / p.omega_reduced, rel=1e-13)
        # the Omega cross terms of Re(eps* eps') cancel only to rounding
        # of ee, so the gamma term is compared on the scale of ee
        assert abs(es.ce.real + g * es.ee) <= 1e-13 * es.ee
        assert es.e2 * es.ce.imag == pytest.approx(1.0, abs=1e-12)
        assert es.dd == pytest.approx(abs(es.eps_dot) ** 2, rel=1e-13)

    def test_ce_is_eps_conjugate_times_derivative(self):
        es = epsilon(2.7, make_params(0.3))
        assert es.ce == es.eps.conjugate() * es.eps_dot


class TestTimeMaps:
    def test_gamma_zero_identity(self):
        assert time_forward(7.0, 0.0) == 7.0
        assert time_backward(7.0, 0.0) == 7.0

    def test_forward_value(self):
        assert time_forward(5.0, 0.05) == pytest.approx(3.9346934028736658, abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_roundtrip(self, t):
        assert abs(time_backward(time_forward(t, 0.3), 0.3) - t) < 1e-12

    @given(st.floats(min_value=0.0, max_value=0.9), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=2000, deadline=None, derandomize=True)
    def test_roundtrip_property(self, g, u):
        # the sample domain of `checks._check_time_roundtrip`, 2 gamma t <= 9,
        # where the round trip has the floor 1/2 ulp(t') exp(2 gamma t) < 1e-12
        t = u * min(15.0, 4.5 / max(g, 1e-9))
        assert abs(time_backward(time_forward(t, g), g) - t) < 1e-12

    def test_check_roundtrip_seed_85(self):
        # the worst sample of `time_roundtrip` at seed 85 when the checks drew
        # from numpy's generator, t' near 1/(2 gamma): 1.28e-12 with the
        # plain expm1 / log1p maps
        g, t = 0.33062028641898744, 13.308926336657416
        assert abs(time_backward(time_forward(t, g), g) - t) <= 1e-12
        # the worst line of today's stream over seeds 0-199: seed 76 reads
        # 8.92e-13, near the floor 1/2 ulp(t') exp(2 gamma t)
        line = next(r for r in run_checks("dynamics", 76) if r.name == "time_roundtrip")
        assert line.passed and 8.9e-13 <= line.value <= 1e-12

    @given(
        st.floats(min_value=-2.0, max_value=2.0), st.integers(-500, 500),
        st.floats(min_value=-2.0, max_value=2.0), st.integers(-500, 500),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_two_product_exact(self, ma, ea, mb, eb):
        # factors of any magnitude; exact wherever the product's error term
        # (down to 2**-106 of it) is a normal double
        a, b = math.ldexp(ma, ea), math.ldexp(mb, eb)
        hi, lo = _two_product(a, b)
        assert hi == a * b
        if abs(hi) >= 2.0**-900:
            assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)

    @pytest.mark.parametrize("g", [5e-324, 1e-310, 1e-300])
    def test_tiny_gamma_roundtrip(self, g):
        # 2 gamma t subnormal or tiny: each map is the identity to the last bit
        for t in (11.25, -3.5, 1e-3):
            assert time_forward(t, g) == t and time_backward(t, g) == t

    def test_backward_where_two_gamma_t_prime_overflows(self):
        # 2 gamma t' = -1.8e308 overflows, yet t = -ln(1 + 1.8e308) / 1.8 is finite
        mpmath = pytest.importorskip("mpmath")
        g, t_prime = mpmath.mpf(0.9), mpmath.mpf(-1e308)
        exact = -mpmath.log(1 - 2 * g * t_prime) / (2 * g)
        assert abs(time_backward(-1e308, 0.9) - float(exact)) <= 1e-13 * abs(float(exact))

    def test_forward_overflow_domain_error(self):
        # exp(-2 gamma t) = exp(800) overflows: a typed error, not OverflowError
        with pytest.raises(DomainError, match="outside the double range"):
            time_forward(-800.0, 0.5)

    def test_forward_where_exp_overflows_but_t_prime_does_not(self):
        # 2 gamma = 1.8 > 1: exp(-2 gamma t) = exp(709.78...) overflows, yet
        # t' = -exp(-2 gamma t) / 1.8 is finite, so the round trip from
        # t' = -1e308 comes back to it (to the rounding of 2 gamma t)
        t = time_backward(-1e308, 0.9)
        assert t == pytest.approx(-394.32444183726, abs=1e-11)
        assert -2.0 * 0.9 * t > math.log(sys.float_info.max)
        assert time_forward(t, 0.9) == pytest.approx(-1e308, rel=1e-13)
        # just past the end of the double range it is a DomainError
        with pytest.raises(DomainError, match="outside the double range"):
            time_forward(-395.0, 0.9)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, math.inf, math.nan])
    def test_gamma_domain_error(self, bad):
        for fn in (time_forward, time_backward):
            with pytest.raises(DomainError):
                fn(1.0, bad)

    @pytest.mark.parametrize("t", [-0.1, -1.0, -5.0])
    def test_negative_roundtrip(self, t):
        # t < 0 maps to t' < 0, which the inverse map accepts; each round
        # trip starts from t, once as a time and once as a t'
        tp = time_forward(t, 0.3)
        assert tp < 0.0 and time_backward(t, 0.3) < 0.0
        assert abs(time_backward(tp, 0.3) - t) < 1e-12 * abs(t)
        assert abs(time_forward(time_backward(t, 0.3), 0.3) - t) < 1e-12 * abs(t)

    def test_backward_domain_error(self):
        # the forward map's image is (-inf, 1/(2*gamma)) = (-inf, 10) at gamma = 0.05
        image = r"image of the forward map \(-inf, 1/\(2\*gamma\)\) = \(-inf, 10\.0\)$"
        with pytest.raises(DomainError, match=image):
            time_backward(10.1, 0.05)  # 2*gamma*t' = 1.01 >= 1

    def test_strictly_increasing(self):
        for g in (0.0, 0.3, 0.7):
            ts = np.linspace(0.0, 20.0, 300)
            fwd = [time_forward(t, g) for t in ts]
            assert all(b > a for a, b in zip(fwd, fwd[1:]))


class TestFrameCoeffs:
    def test_gamma_zero(self):
        fc = frame_coeffs(0.7, -1.3, 3.21, make_params(0.0))
        assert fc.a == pytest.approx(0.7, abs=1e-14)
        assert fc.b == pytest.approx(-1.3, abs=1e-14)

    def test_nu_zero(self):
        fc = frame_coeffs(1.4, 0.0, 2.0, make_params(0.3))
        assert fc.a == 1.4
        assert fc.b == 0.0

    def test_time_zero_general_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.uniform(0.0, 0.95)
            mu, nu = rng.uniform(-2.0, 2.0, size=2)
            if mu == 0.0 and nu == 0.0:
                continue
            p = make_params(g)
            fc = frame_coeffs(mu, nu, 0.0, p)
            assert fc.a == pytest.approx(mu - g * nu, abs=1e-13)
            assert fc.b == pytest.approx(p.omega_reduced * nu, abs=1e-13)

    def test_b_closed_form(self):
        # b = nu / (eps eps*) = nu * Omega * exp(2 gamma t)
        p = make_params(0.4)
        fc = frame_coeffs(0.0, 1.7, 2.5, p)
        expected = 1.7 * p.omega_reduced * math.exp(2.0 * 0.4 * 2.5)
        assert fc.b == pytest.approx(expected, rel=1e-12)

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrame):
            frame_coeffs(0.0, 0.0, 1.0, make_params(0.1))

    def test_scalar_view_matches_vectorized_exactly(self):
        rng = np.random.default_rng(11)
        for g, t in ((0.0, 0.0), (0.05, 5.0), (0.3, 2.0), (0.7, 9.5)):
            p = make_params(g)
            mus = rng.uniform(-2.0, 2.0, size=25)
            nus = rng.uniform(-2.0, 2.0, size=25)
            a, b, s2 = frame_quantities(mus, nus, epsilon(t, p))
            for i, (mu, nu) in enumerate(zip(mus, nus)):
                fc = frame_coeffs(mu, nu, t, p)
                assert fc.a == a[i] and fc.b == b[i]
                assert s2[i] == epsilon(t, p).ee * (fc.a * fc.a + fc.b * fc.b)
