import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktomo import (
    Coherent,
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
from cktomo.tomography import _x_window

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

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        p = make_params(0.2)
        mu, nu, t = 0.6, -0.9, 1.7
        s2 = frame_scale_sq(mu, nu, t, p)
        xs = np.linspace(-9.0, 9.0, 61) * math.sqrt(s2)  # past sqrt(2n+1) for n = 16
        with mpmath.workdps(40):
            s2_mp = mpmath.mpf(s2)
            ys = [mpmath.mpf(x) / mpmath.sqrt(s2_mp) for x in xs.tolist()]
            for n in range(17):
                norm = 2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi * s2_mp)
                ref = np.array([float(mpmath.hermite(n, y) ** 2 * mpmath.exp(-y * y) / norm) for y in ys])
                got = fock_tomogram(TomographyFrame(xs, mu, nu), t, n, p)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(ref), n


def _mp_displaced_gaussian(mpmath, alpha, g, t, mu, nu):
    """Mean Xbar = mu qbar + nu pbar and scale s2 = 2 Var X of a coherent
    tomogram, from the Wigner mean sqrt(2) (Re(alpha eps*), e^{2 g t}
    Re(alpha eps'*)) and the covariance [[e^{-2gt}, -g], [-g, e^{2gt}]] / (2 Omega)
    at the working precision of `mpmath`."""
    g, t, mu, nu = (mpmath.mpf(v) for v in (g, t, mu, nu))
    om = mpmath.sqrt(1 - g * g)
    e2 = mpmath.exp(2 * g * t)
    eps = mpmath.exp(-g * t) * mpmath.mpc(mpmath.cos(om * t), mpmath.sin(om * t)) / mpmath.sqrt(om)
    eps_dot = mpmath.mpc(-g, om) * eps
    a = mpmath.mpc(alpha.real, alpha.imag)
    q0 = mpmath.sqrt(2) * mpmath.re(a * mpmath.conj(eps))
    p0 = mpmath.sqrt(2) * e2 * mpmath.re(a * mpmath.conj(eps_dot))
    s2 = (mu * mu / e2 - 2 * g * mu * nu + e2 * nu * nu) / om
    return mu * q0 + nu * p0, s2


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

    def test_large_alpha_matches_mpmath(self):
        # the displaced Gaussian exp(-(X - Xbar)**2 / s2) / sqrt(pi s2) in 40
        # digits, with Xbar and s2 from the Wigner mean and covariance; the
        # closed form must hold to 1e-14 of its peak where |alpha|**2 ~ 50
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(18)
        for _ in range(40):
            g, t = rng.uniform(0.0, 0.9), rng.uniform(0.0, 8.0)
            alpha = cmath.rect(rng.uniform(6.0, 8.0), rng.uniform(0.0, 2.0 * math.pi))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            mu, nu = scale * math.cos(angle), scale * math.sin(angle)
            p = make_params(g)
            with mpmath.workdps(40):
                xbar, s2 = _mp_displaced_gaussian(mpmath, alpha, g, t, mu, nu)
                xs = np.array([float(xbar + k * mpmath.sqrt(s2) / 4) for k in range(-12, 13)])
                ref = np.array([float(mpmath.exp(-((x - xbar) ** 2) / s2)) for x in xs.tolist()])
                peak = float(1 / mpmath.sqrt(mpmath.pi * s2))
            got = coherent_tomogram(TomographyFrame(xs, mu, nu), t, alpha, p)
            assert np.max(np.abs(got - peak * ref)) <= 1e-14 * peak, (alpha, g, t, mu, nu)


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

    def test_top_of_scale_range_without_warning(self):
        # an s2 near the float_max/4 cap puts |X| past 1.3e154, where X*X
        # overflows, at |y| ~ 2; homogeneity gives w(lam X, lam mu, lam nu) = w / lam
        p = make_params(0.2)
        mu, nu, t = 0.6, -0.9, 1.7
        s2 = frame_scale_sq(mu, nu, t, p)
        lam = math.sqrt(4e307 / s2)
        assert 4.4e304 < frame_scale_sq(lam * mu, lam * nu, t, p) <= 4.5e307
        xs = np.linspace(-20.0, 20.0, 81) * math.sqrt(s2)
        states = [Fock(n) for n in range(17)]
        states += [Coherent(8.0 * complex(math.cos(a), math.sin(a))) for a in np.linspace(0, 6, 7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in states:
                big = tomogram(state, TomographyFrame(lam * xs, lam * mu, lam * nu), t, p)
                ref = tomogram(state, TomographyFrame(xs, mu, nu), t, p)
                assert np.max(np.abs(lam * big - ref)) <= 1e-12 * np.max(ref), state


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


class TestXWindow:
    # the widest states supported: Fock 16, and |alpha| = 8 at eight phases
    EDGE_STATES = [Fock(16)] + [
        Coherent(complex(8.0 * math.cos(k * math.pi / 4), 8.0 * math.sin(k * math.pi / 4)))
        for k in range(8)
    ]

    @pytest.mark.parametrize("state", EDGE_STATES, ids=repr)
    def test_edge_states_normalize(self, state):
        for g in (0.0, 0.3, 0.9):
            p = make_params(g)
            for t in (0.0, 2.5, 8.0):
                for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, -1.1), (1.4, 0.3)):
                    assert abs(normalization(state, mu, nu, t, p) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "state", [Fock(0), Fock(3), Coherent(1.2 - 0.7j), Coherent(-5.0 + 6.0j)], ids=repr
    )
    def test_center_is_first_moment(self, state):
        for g, t in ((0.0, 0.0), (0.05, 5.0), (0.6, 3.0)):
            p = make_params(g)
            for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, -1.1)):
                spec = _x_window(state, mu, nu, t, p)
                m1 = integrate(
                    lambda xs: xs * tomogram(state, TomographyFrame(xs, mu, nu), t, p), spec
                )
                assert abs(m1 - spec.center) <= 1e-12 * max(spec.half_width, abs(spec.center))


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


def _outcome(f, *args):
    """("value", the raw bytes of f's result) or ("raises", class, message),
    with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ("value", np.asarray(f(*args), dtype=float).tobytes())
        except Exception as exc:  # noqa: BLE001 - the class is the outcome
            return ("raises", type(exc), str(exc))


def _both_paths(state, x, mu, nu, t, p):
    """The outcomes of tomogram and frame_scale_sq on the scalar point as
    given (the math lane for Python floats), then on one-element arrays."""
    lane = (
        _outcome(lambda: tomogram(state, TomographyFrame(x, mu, nu), t, p)),
        _outcome(frame_scale_sq, mu, nu, t, p),
    )
    one = [np.array([v], dtype=float) for v in (x, mu, nu)]
    arrays = (
        _outcome(lambda: tomogram(state, TomographyFrame(*one), t, p)),
        _outcome(frame_scale_sq, one[1], one[2], t, p),
    )
    return lane, arrays


@st.composite
def _lane_points(draw):
    """Fock n <= 16 or coherent |alpha| <= 8, 0 <= gamma < 1, t in [-2, 8],
    |mu| and |nu| in 10**[-3, 3] with either sign, and X out to 70 sqrt(s2),
    past the _X_TAIL clip."""
    if draw(st.booleans()):
        state = Fock(draw(st.integers(min_value=0, max_value=16)))
    else:
        r = draw(st.floats(min_value=0.0, max_value=8.0))
        state = Coherent(cmath.rect(r, draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))))
    p = make_params(draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
    t = draw(st.floats(min_value=-2.0, max_value=8.0))
    mu, nu = (
        draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
        for _ in range(2)
    )
    x = draw(st.floats(min_value=-70.0, max_value=70.0)) * math.sqrt(frame_scale_sq(mu, nu, t, p))
    return state, x, mu, nu, t, p


class TestMathLane:
    """A scalar point of Python floats takes the math lane of
    TomographyFrame, `_frame_scale_in_range` and `_scaled_frame`; it must
    give the bits, or the exception, of the numpy path."""

    @given(_lane_points())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_bits_as_one_element_arrays(self, point):
        state, x, mu, nu, t, p = point
        lane, arrays = _both_paths(state, x, mu, nu, t, p)
        assert lane[0][0] == "value" and lane == arrays
        assert type(tomogram(state, TomographyFrame(x, mu, nu), t, p)) is float

    @pytest.mark.parametrize(
        "x, mu, nu",
        [
            (math.nan, 0.8, -0.6),
            (math.inf, 0.8, -0.6),
            (-math.inf, 0.8, -0.6),
            (0.3, math.nan, -0.6),
            (0.3, 0.8, math.inf),
            (0.3, 0.0, 0.0),
            (0.3, -0.0, 0.0),
            (0.3, 1e200, 0.5),  # s2 overflows
            (0.3, -1e200, 1e200),
            (1e-200, 1e-200, 1e-200),  # s2 underflows
            (1e-200, 0.0, -1e-200),
            (1e300, 0.8, -0.6),  # |X| > 64 sqrt(s2): clipped
            (-100.0, 0.8, -0.6),
            (-0.0, 0.8, -0.6),
            (np.float64(0.3), np.float64(0.8), np.float64(-0.6)),
            (1, 1, 0),
            (np.float64(-1.5), 2, 0.25),
        ],
    )
    @pytest.mark.parametrize("state", [Fock(0), Fock(7), Coherent(1.3 - 0.4j)])
    def test_edges_match_one_element_arrays(self, x, mu, nu, state):
        p = make_params(0.3)
        lane, arrays = _both_paths(state, x, mu, nu, 1.7, p)
        assert lane == arrays

    def test_scalar_inputs_are_stored_as_python_floats(self):
        frame = TomographyFrame(np.float64(0.3), 1, 0.5)
        assert all(type(v) is float for v in (frame.x, frame.mu, frame.nu))
        assert (frame.x, frame.mu, frame.nu) == (0.3, 1.0, 0.5)
