import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktomo import (
    Coherent,
    ConjugationBroken,
    DegenerateFrame,
    DomainError,
    Fock,
    QuadratureSpec,
    TomographyFrame,
    coherent_psi,
    coherent_tomogram,
    epsilon,
    fock_tomogram,
    frame_scale_sq,
    ground_tomogram,
    hermite,
    integrate,
    make_params,
    normalization,
    optical_frame,
    radon_tomogram,
    tomogram,
)
from cktomo.checks import coherent_moments_from_psi
from cktomo.dynamics import frame_quantities
from cktomo.tomography import _real_from_conjugate_pair

SQRT2 = math.sqrt(2.0)


class TestOpticalFrame:
    def test_angles(self):
        mu, nu = optical_frame(0.0)
        assert (mu, nu) == (1.0, 0.0)
        mu, nu = optical_frame(math.pi / 2.0)
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert nu == pytest.approx(-1.0, abs=1e-12)

    def test_reflection_symmetry(self):
        # w(X, mu, nu) = w(-X, -mu, -nu): the lambda = -1 homogeneity case
        p = make_params(0.2)
        mu, nu = optical_frame(math.pi)
        assert mu == pytest.approx(-1.0, abs=1e-12)
        w1 = fock_tomogram(TomographyFrame(0.8, 0.3, 0.9), 1.0, 1, p)
        w2 = fock_tomogram(TomographyFrame(-0.8, -0.3, -0.9), 1.0, 1, p)
        assert w1 == pytest.approx(w2, rel=1e-12)


class TestFrameScale:
    # (mu, nu, t, gamma) whose s2 overflows to inf, is finite but overflows
    # pi * s2 (1e308), underflows to 0, or lands on a subnormal (1e-320)
    OUT_OF_RANGE = (
        (1.0, 1.0, 300.0, 0.9),
        (1e200, 1e200, 0.0, 0.0),
        (1e154, 0.0, 0.0, 0.0),
        (1e-300, 1e-300, 0.0, 0.0),
        (1e-160, 0.0, 0.0, 0.0),
    )

    def test_out_of_range_scale_is_typed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu, nu, t, g in self.OUT_OF_RANGE:
                p = make_params(g)
                with pytest.raises(DomainError):
                    frame_scale_sq(mu, nu, t, p)
                with pytest.raises(DomainError):
                    frame_scale_sq(np.array([1.0, mu]), np.array([0.0, nu]), t, p)
                for state in (Fock(0), Fock(12), Coherent(1.0 + 1.0j)):
                    with pytest.raises(DomainError):
                        tomogram(state, TomographyFrame(0.5, mu, nu), t, p)

    def test_in_range_scale_unchanged(self):
        for mu, nu, t, g in ((0.3, -1.2, 2.0, 0.3), (1e-150, 0.0, 0.0, 0.0), (1e150, 1e150, 1.0, 0.1)):
            p = make_params(g)
            s2 = frame_scale_sq(mu, nu, t, p)
            assert s2 == frame_quantities(mu, nu, epsilon(t, p))[2]
            assert math.isfinite(s2) and s2 > 0.0

    def test_upper_bound_is_a_quarter_of_the_largest_double(self):
        # up to float_max / 4, pi * s2 is finite and the tomogram is too
        p = make_params(0.0)
        mu = math.sqrt(sys.float_info.max / 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frame_scale_sq(0.999 * mu, 0.0, 0.0, p) <= sys.float_info.max / 4.0
            w = ground_tomogram(TomographyFrame(0.0, 0.999 * mu, 0.0), 0.0, p)
            assert math.isfinite(w) and w > 0.0
            with pytest.raises(DomainError):
                frame_scale_sq(1.001 * mu, 0.0, 0.0, p)


class TestGroundTomogram:
    def test_frictionless_position_frame(self):
        got = ground_tomogram(TomographyFrame(0.0, 1.0, 0.0), 0.0, make_params(0.0))
        assert got == pytest.approx(0.5641895835477563, abs=1e-14)

    def test_frictionless_general_frame(self):
        p = make_params(0.0)
        rng = np.random.default_rng(12)
        for _ in range(20):
            mu, nu = rng.uniform(-2.0, 2.0, size=2)
            if mu * mu + nu * nu < 1e-2:
                continue
            x = rng.uniform(-3.0, 3.0)
            t = rng.uniform(0.0, 7.0)
            ss = mu * mu + nu * nu
            exact = math.exp(-x * x / ss) / math.sqrt(math.pi * ss)
            got = ground_tomogram(TomographyFrame(x, mu, nu), t, p)
            assert got == pytest.approx(exact, abs=1e-10)

    def test_normalized(self):
        got = normalization(Fock(0), 0.3, 1.7, 5.0, make_params(0.05))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrame):
            TomographyFrame(0.0, 0.0, 0.0)
        with pytest.raises(DegenerateFrame):
            TomographyFrame(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0)


class TestFockTomogram:
    def test_n0_equals_ground_exactly(self):
        p = make_params(0.3)
        xs = np.linspace(-4.0, 4.0, 33)
        frame = TomographyFrame(xs, 0.7, -1.1)
        assert np.all(
            fock_tomogram(frame, 2.0, 0, p) == ground_tomogram(frame, 2.0, p)
        )

    def test_n1_node_at_origin(self):
        for g, t in ((0.0, 0.0), (0.05, 5.0), (0.6, 3.0)):
            got = fock_tomogram(TomographyFrame(0.0, 0.4, 1.2), t, 1, make_params(g))
            assert got == 0.0

    def test_frictionless_n2_closed_form(self):
        p = make_params(0.0)
        phi = 0.77
        mu, nu = optical_frame(phi)
        xs = np.linspace(-3.0, 3.0, 13)
        w0 = np.exp(-xs * xs) / math.sqrt(math.pi)
        exact = w0 * hermite(2, xs) ** 2 / 8.0
        got = fock_tomogram(TomographyFrame(xs, mu, nu), 1.3, 2, p)
        assert np.max(np.abs(got - exact)) < 1e-12

    def test_n2_matches_radon_spot(self):
        p = make_params(0.0)
        frame = TomographyFrame(0.9, *optical_frame(0.77))
        analytic = fock_tomogram(frame, 1.3, 2, p)
        oracle = radon_tomogram(Fock(2), frame, 1.3, p)
        assert analytic == pytest.approx(oracle, abs=1e-6)

    def test_normalized(self):
        got = normalization(Fock(3), 1.0, 0.0, 0.0, make_params(0.3))
        assert got == pytest.approx(1.0, abs=1e-9)


class TestCoherentTomogram:
    def test_alpha0_equals_ground_exactly(self):
        p = make_params(0.05)
        xs = np.linspace(-4.0, 4.0, 41)
        frame = TomographyFrame(xs, 0.9, 0.5)
        a = coherent_tomogram(frame, 5.0, 0.0, p)
        b = ground_tomogram(frame, 5.0, p)
        assert np.all(a == b)

    def test_frictionless_displaced_gaussian(self):
        p = make_params(0.0)
        alpha, t = 1.3 - 0.6j, 2.1
        xs = np.linspace(-4.0, 4.0, 33)
        shift = SQRT2 * (alpha * complex(math.cos(t), -math.sin(t))).real
        exact = np.exp(-((xs - shift) ** 2)) / math.sqrt(math.pi)
        got = coherent_tomogram(TomographyFrame(xs, 1.0, 0.0), t, alpha, p)
        assert np.max(np.abs(got - exact)) < 1e-12

    def test_equals_position_density_frictionless(self):
        p = make_params(0.0)
        alpha, t = 0.8 + 0.4j, 1.7
        xs = np.linspace(-3.0, 3.0, 21)
        dens = np.abs(coherent_psi(xs, t, alpha, p)) ** 2
        got = coherent_tomogram(TomographyFrame(xs, 1.0, 0.0), t, alpha, p)
        assert np.max(np.abs(got - dens)) < 1e-10

    def test_first_moment_vs_wavefunction(self):
        p = make_params(0.05)
        alpha, t, mu, nu = 1.0 + 1.0j, 2.0, 0.6, -1.1
        s2 = frame_scale_sq(mu, nu, t, p)
        spec = QuadratureSpec(0.0, 9.0 * math.sqrt(s2 / 2.0) * (1 + abs(alpha)), 400)
        m1 = integrate(
            lambda xs: xs * coherent_tomogram(TomographyFrame(xs, mu, nu), t, alpha, p),
            spec,
        )
        q_mean, p_mean = coherent_moments_from_psi(alpha, t, p)
        assert m1 == pytest.approx(mu * q_mean + nu * p_mean, abs=1e-7)

    def test_normalized(self):
        mu, nu = optical_frame(1.2)
        got = normalization(Coherent(2.0 - 1.0j), mu, nu, 5.0, make_params(0.05))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_conjugation_guard(self):
        with pytest.raises(ConjugationBroken):
            _real_from_conjugate_pair(np.array([1.0 + 0.5j]))


class TestFarTail:
    def test_exact_zero_without_warning(self):
        # the closed forms reach 0.0 by |X| = 50 sqrt(s2) for every state;
        # from 64 sqrt(s2) on they are not evaluated, since x*x/s2 and
        # H_n(X/sqrt(s2)) overflow far out
        p = make_params(0.2)
        mu, nu, t = 0.6, -0.9, 1.7
        ys = np.array([50.0, 63.9, 64.1, 1e3, 1e100, 1e160, 1e300])
        xs = np.concatenate([ys, -ys]) * math.sqrt(frame_scale_sq(mu, nu, t, p))
        states = [Fock(n) for n in range(17)]
        states += [Coherent(8.0 * complex(math.cos(a), math.sin(a))) for a in np.linspace(0, 6, 7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [tomogram(s, TomographyFrame(xs, mu, nu), t, p) for s in states]
            assert np.all(ground_tomogram(TomographyFrame(xs, mu, nu), t, p) == 0.0)
            assert ground_tomogram(TomographyFrame(1e200, 1.0, 0.0), 0.0, p) == 0.0
        for state, got in zip(states, values):
            assert np.all(got == 0.0), state


class TestNormalization:
    def test_momentum_frame_ground(self):
        got = normalization(Fock(0), 0.0, 1.0, 0.0, make_params(0.0))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_random_configurations(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = float(rng.choice([0.0, 0.05, 0.3, 0.6]))
            t = rng.uniform(0.0, 6.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            scale = rng.uniform(0.4, 1.6)
            mu, nu = scale * math.cos(angle), -scale * math.sin(angle)
            state = Fock(int(rng.integers(0, 4))) if rng.uniform() < 0.5 else Coherent(
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            )
            got = normalization(state, mu, nu, t, make_params(g))
            assert got == pytest.approx(1.0, abs=1e-9)


class TestRadonOracle:
    def test_ground_line_integral_closed_form(self):
        p = make_params(0.0)
        frame = TomographyFrame(0.5, 1.0, 1.0)
        exact = math.exp(-0.25 / 2.0) / math.sqrt(2.0 * math.pi)
        got = radon_tomogram(Fock(0), frame, 0.0, p)
        assert got == pytest.approx(exact, abs=1e-6)
        assert got == pytest.approx(ground_tomogram(frame, 0.0, p), abs=1e-6)

    @pytest.mark.parametrize("g", [0.0, 0.05, 0.3])
    def test_fock_family(self, g):
        rng = np.random.default_rng(100 + int(1000 * g))
        p = make_params(g)
        for _ in range(4):
            n = int(rng.integers(0, 3))
            t = float(rng.choice([0.0, 2.0, 5.0]))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            scale = rng.uniform(0.5, 1.5)
            mu, nu = scale * math.cos(angle), -scale * math.sin(angle)
            s2 = frame_scale_sq(mu, nu, t, p)
            x = rng.uniform(-2.5, 2.5) * math.sqrt(s2 / 2.0)
            frame = TomographyFrame(x, mu, nu)
            assert fock_tomogram(frame, t, n, p) == pytest.approx(
                radon_tomogram(Fock(n), frame, t, p), abs=1e-5
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0 + 0.5j, 2.0 - 1.0j])
    def test_coherent_family(self, alpha):
        rng = np.random.default_rng(int(17 + abs(alpha) * 100))
        for g, t in ((0.0, 0.0), (0.05, 2.0), (0.3, 5.0)):
            p = make_params(g)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            mu, nu = math.cos(angle), -math.sin(angle)
            s2 = frame_scale_sq(mu, nu, t, p)
            x = rng.uniform(-2.0, 2.0) * math.sqrt(s2 / 2.0)
            frame = TomographyFrame(x, mu, nu)
            assert coherent_tomogram(frame, t, alpha, p) == pytest.approx(
                radon_tomogram(Coherent(alpha), frame, t, p), abs=1e-5
            )


class TestStructuralProperties:
    @given(
        st.sampled_from([-2.0, 0.5, 3.0]),
        st.floats(min_value=0.0, max_value=0.6),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_homogeneity(self, lam, g, t):
        p = make_params(g)
        x, mu, nu = 0.8, 0.9, -0.7
        for state in (Fock(1), Coherent(0.9 + 0.3j)):
            w1 = tomogram(state, TomographyFrame(x, mu, nu), t, p)
            w2 = abs(lam) * tomogram(
                state, TomographyFrame(lam * x, lam * mu, lam * nu), t, p
            )
            assert abs(w1 - w2) <= 1e-10 * max(1.0, abs(w1))

    def test_nonnegativity(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            g = rng.uniform(0.0, 0.7)
            t = rng.uniform(0.0, 6.0)
            p = make_params(g)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            mu, nu = math.cos(angle), -math.sin(angle)
            s2 = frame_scale_sq(mu, nu, t, p)
            xs = np.linspace(-4.0, 4.0, 41) * math.sqrt(s2 / 2.0)
            state = Fock(int(rng.integers(0, 4)))
            vals = tomogram(state, TomographyFrame(xs, mu, nu), t, p)
            assert np.min(vals) >= -1e-12

    def test_fock_even_in_x(self):
        p = make_params(0.3)
        xs = np.linspace(0.1, 3.0, 11)
        for n in range(4):
            a = fock_tomogram(TomographyFrame(xs, 0.8, -0.7), 2.0, n, p)
            b = fock_tomogram(TomographyFrame(-xs, 0.8, -0.7), 2.0, n, p)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_coherent_alpha_reflection(self):
        # alpha -> -alpha together with X -> -X leaves the tomogram invariant
        p = make_params(0.3)
        alpha = 1.2 - 0.4j
        xs = np.linspace(-2.5, 2.5, 11)
        a = coherent_tomogram(TomographyFrame(xs, 0.8, -0.7), 2.0, -alpha, p)
        b = coherent_tomogram(TomographyFrame(-xs, 0.8, -0.7), 2.0, alpha, p)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_second_moment(self):
        p = make_params(0.4)
        mu, nu, t = 0.7, 1.1, 2.5
        s2 = frame_scale_sq(mu, nu, t, p)
        spec = QuadratureSpec(0.0, 9.0 * math.sqrt(s2 / 2.0), 260)
        m2 = integrate(
            lambda xs: xs * xs * ground_tomogram(TomographyFrame(xs, mu, nu), t, p),
            spec,
        )
        assert m2 == pytest.approx(s2 / 2.0, rel=1e-8)
