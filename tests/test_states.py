import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cktomo import checks, states
from cktomo import (
    Coherent,
    DomainError,
    Fock,
    NonFinite,
    QuadratureSpec,
    State,
    TomographyFrame,
    coherent_psi,
    epsilon,
    fock_psi,
    integrate,
    make_params,
    normalization,
    psi,
    radon_tomogram,
    tomogram,
    wigner,
)
from cktomo.checks import _check_wigner_marginal
from cktomo.numerics import _gauss_legendre, _rung, _worst, hermite_gauss
from cktomo.tomography import _x_window

SQRT2 = math.sqrt(2.0)


def _sigma_q(t, params):
    es = epsilon(t, params)
    ee = (es.eps * es.eps.conjugate()).real
    return math.sqrt(ee / 2.0)


class TestStateValidation:
    def test_fock_bounds(self):
        with pytest.raises(DomainError):
            Fock(-1)
        with pytest.raises(DomainError):
            Fock(17)
        with pytest.raises(DomainError):
            Fock(1.5)

    def test_alpha_bound(self):
        with pytest.raises(DomainError):
            Coherent(9.0)
        assert Coherent(1 + 2j).alpha == 1 + 2j

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Fock(17), "Fock index must lie in [0, 16], got 17"),
            (lambda: Fock(-1), "Fock index must lie in [0, 16], got -1"),
            (lambda: Fock(1.5), "Fock index must be an integer, got 1.5"),
            (lambda: Fock(True), "Fock index must be an integer, got True"),
            (lambda: Coherent(9.0), "|alpha| <= 8.0 required, got |(9+0j)| = 9.0"),
            (lambda: Coherent(complex(math.nan, 1.0)), "alpha must be finite, got (nan+1j)"),
            (lambda: Coherent(complex(1.0, math.inf)), "alpha must be finite, got (1+infj)"),
        ],
    )
    def test_messages(self, make, message):
        with pytest.raises(DomainError) as info:
            make()
        assert str(info.value) == message


class TestOneStateType:
    # Fock(n) and Coherent(alpha) construct the one State(n, alpha)
    def test_families_are_constructors(self):
        assert Fock(3) == State(3) == State(n=3, alpha=0j)
        assert Coherent(1 + 2j) == State(0, 1 + 2j)
        assert (Fock(np.int64(2)).n, type(Fock(np.int64(2)).n)) == (2, int)
        assert Coherent(1).alpha == 1 + 0j and type(Coherent(1).alpha) is complex

    def test_repr_is_the_constructor_call(self):
        for state in (Fock(3), Coherent(1.2 - 0.7j), State(2, 0.5 - 0.5j), Coherent(0)):
            assert eval(repr(state), {"Fock": Fock, "Coherent": Coherent, "State": State}) == state
        assert (repr(Fock(3)), repr(Coherent(8)), repr(State(2, 0.5 - 0.5j))) == (
            "Fock(n=3)", "Coherent(alpha=(8+0j))", "State(n=2, alpha=(0.5-0.5j))"
        )

    def test_alpha_zero_is_fock_zero(self):
        assert Coherent(0) == Fock(0) == State()
        assert hash(Coherent(0)) == hash(Fock(0)) == hash(Coherent(-0.0))

    def test_bounds_hold_together(self):
        with pytest.raises(DomainError, match="Fock index"):
            State(17, 1.0)
        with pytest.raises(DomainError, match="alpha"):
            State(16, 8.5j)
        assert State(16, 8.0j) == State(n=16, alpha=8j)


class TestCoherentPsi:
    def test_ground_value_at_origin(self):
        got = coherent_psi(0.0, 0.0, 0.0, make_params(0.0))
        assert got == pytest.approx(0.7511255444649425, abs=1e-12)

    def test_normalized(self):
        # Gaussian normalization must propagate through the damping
        alpha, t = 1.0 + 0.5j, 5.0
        p = make_params(0.05)
        es = epsilon(t, p)
        center = SQRT2 * (alpha * es.eps.conjugate()).real
        spec = QuadratureSpec(center, 8.0 * _sigma_q(t, p) * (1.0 + abs(alpha)), 400)
        nrm = integrate(lambda q: np.abs(coherent_psi(q, t, alpha, p)) ** 2, spec)
        assert nrm == pytest.approx(1.0, abs=1e-9)

    def test_alpha_zero_equals_fock_zero(self):
        p = make_params(0.3)
        qs = np.linspace(-3.0, 3.0, 25)
        a = coherent_psi(qs, 2.0, 0.0, p)
        b = fock_psi(qs, 2.0, 0, p)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_gaussian_moments_match_closed_form(self):
        alpha, t = -0.8 + 1.1j, 3.0
        p = make_params(0.2)
        es = epsilon(t, p)
        mean_exact = SQRT2 * (alpha * es.eps.conjugate()).real
        var_exact = _sigma_q(t, p) ** 2
        spec = QuadratureSpec(mean_exact, 9.0 * _sigma_q(t, p) * (1 + abs(alpha)), 400)
        dens = lambda q: np.abs(coherent_psi(q, t, alpha, p)) ** 2
        mean = integrate(lambda q: q * dens(q), spec)
        var = integrate(lambda q: (q - mean_exact) ** 2 * dens(q), spec)
        assert mean == pytest.approx(mean_exact, abs=1e-8)
        assert var == pytest.approx(var_exact, abs=1e-8)


class TestFockPsi:
    def test_first_excited_node_at_origin(self):
        for g, t in ((0.0, 0.0), (0.05, 5.0), (0.5, 2.0)):
            assert abs(fock_psi(0.0, t, 1, make_params(g))) == 0.0

    def test_parity(self):
        p = make_params(0.05)
        qs = np.linspace(0.1, 4.0, 17)
        for n in range(5):
            a = fock_psi(-qs, 5.0, n, p)
            b = (-1.0) ** n * fock_psi(qs, 5.0, n, p)
            scale = np.maximum(1.0, np.abs(b))
            assert np.max(np.abs(a - b) / scale) < 1e-12

    def test_normalized(self):
        p = make_params(0.05)
        t = 5.0
        for n in range(4):
            widen = max(1.0, math.sqrt(2.0 * n + 1.0))
            spec = QuadratureSpec(0.0, 8.0 * _sigma_q(t, p) * widen, 300)
            nrm = integrate(lambda q: np.abs(fock_psi(q, t, n, p)) ** 2, spec)
            assert nrm == pytest.approx(1.0, abs=1e-9)

    def test_large_n_path_consistent(self):
        # the rescaled Hermite-Gaussian branch must agree with the plain one
        p = make_params(0.1)
        qs = np.linspace(-5.0, 5.0, 21)
        a = np.abs(fock_psi(qs, 1.0, 12, p)) ** 2
        spec = QuadratureSpec(0.0, 8.0 * _sigma_q(1.0, p) * 5.0, 420)
        nrm = integrate(lambda q: np.abs(fock_psi(q, 1.0, 12, p)) ** 2, spec)
        assert np.all(np.isfinite(a))
        assert nrm == pytest.approx(1.0, abs=1e-9)


def _psi_complex_exponent(state, q, t, params):
    """psi as one complex exponent per state, the form the library used
    before the real split psi = c R exp(i (theta q**2 + kappa q))."""
    es = epsilon(t, params)
    om = params.omega_reduced
    c2 = 0.5j * es.eps_dot * es.e2 / es.eps  # i eps' e^{2 gamma t} / (2 eps)
    inv_sqrt_eps = om**0.25 * math.exp(0.5 * params.gamma * t) * cmath.exp(-0.5j * om * t)
    if state.alpha == 0:
        y = q / math.sqrt(es.ee)
        prefactor = inv_sqrt_eps * cmath.exp(-1j * state.n * om * t)
        return prefactor * np.exp(c2 * q * q + 0.5 * y * y) * hermite_gauss(state.n, y)
    a = state.alpha
    const = -es.eps.conjugate() * a * a / (2.0 * es.eps) - abs(a) ** 2 / 2.0
    return math.pi**-0.25 * inv_sqrt_eps * np.exp(c2 * q * q + SQRT2 * a * q / es.eps + const)


class TestPsiSplit:
    # the real split is an exact rewriting of the paper's complex exponent,
    # so the two agree to rounding over the whole supported envelope
    STATES = [Fock(n) for n in range(17)] + [
        Coherent(r * cmath.exp(1j * ph)) for r in (0.5, 3.0, 7.9) for ph in (0.4, 2.1, 4.4)
    ]

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("t", [0.0, 1.7, 8.0])
    def test_psi_matches_complex_exponent(self, gamma, t):
        p = make_params(gamma)
        for state in self.STATES:
            mean, cov = states.wigner_moments(state, t, p)
            qs = mean[0] + math.sqrt(cov[0, 0]) * np.linspace(-6.0, 6.0, 241)
            ref = _psi_complex_exponent(state, qs, t, p)
            got = psi(state, qs, t, p)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), state


@st.composite
def _envelope_points(draw):
    """A state D(alpha)|n> with Fock n <= 16 or coherent |alpha| <= 8, and a
    (gamma, t) with gamma < 0.9 and t <= min(5, 2 / max(gamma, 0.4))."""
    if draw(st.booleans()):
        state = Fock(draw(st.integers(min_value=0, max_value=16)))
    else:
        r = draw(st.floats(min_value=0.0, max_value=8.0))
        state = Coherent(cmath.rect(r, draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))))
    gamma = draw(st.floats(min_value=0.0, max_value=0.9, exclude_max=True))
    t = draw(st.floats(min_value=0.0, max_value=min(5.0, 2.0 / max(gamma, 0.4))))
    return state, gamma, t


class TestPsiEnvelope:
    @given(_envelope_points())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_norm_and_mean(self, point):
        # over the window every X-integral of the library takes, |psi|**2
        # integrates to 1 and q |psi|**2 to the Wigner mean qbar
        state, gamma, t = point
        p = make_params(gamma)
        spec = _x_window(state, 1.0, 0.0, t, p)
        mean, cov = states.wigner_moments(state, t, p)
        dens = lambda qs: np.abs(psi(state, qs, t, p)) ** 2
        assert abs(integrate(dens, spec) - 1.0) <= 1e-12
        assert abs(integrate(lambda qs: qs * dens(qs), spec) - mean[0]) <= 1e-11 * math.sqrt(cov[0, 0])


@st.composite
def _displaced_points(draw):
    """A displaced number state State(n, alpha) with n <= 16 and |alpha| <= 8,
    a gamma in [0, 0.9), a t in [-0.5, min(3, 1.5 / max(gamma, 0.4))], and a
    frame angle."""
    n = draw(st.integers(min_value=0, max_value=16))
    r = draw(st.floats(min_value=0.0, max_value=8.0))
    state = State(n, cmath.rect(r, draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))))
    gamma = draw(st.floats(min_value=0.0, max_value=0.9, exclude_max=True))
    t = draw(st.floats(min_value=-0.5, max_value=min(3.0, 1.5 / max(gamma, 0.4))))
    return state, gamma, t, draw(st.floats(min_value=0.0, max_value=math.pi))


class TestDisplacedNumberStates:
    """D(alpha)|n> with both n and alpha set, which neither paper family
    reaches, against every oracle under the tiers of `checks.TOLERANCES`:
    psi's norm, W from the psi-quadrature, w as a Radon line integral of W,
    and the X-normalization of w."""

    @given(_displaced_points())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_oracles(self, point):
        state, gamma, t, phi = point
        p = make_params(gamma)
        mu, nu = math.cos(phi), -math.sin(phi)
        spec = _x_window(state, 1.0, 0.0, t, p)
        assert abs(integrate(lambda qs: np.abs(psi(state, qs, t, p)) ** 2, spec) - 1.0) <= 1e-9

        # W at the mean and at points a sigma or so from it; the oracle's
        # u-rule outgrows the 2048-node cap only where n, |alpha| and gamma
        # are all large (bounds from a grid scan of the whole domain)
        mean, cov = states.wigner_moments(state, t, p)
        sq, sp = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
        qs = mean[0] + sq * np.array([0.0, 0.7, -1.1, 0.3])
        ps = mean[1] + sp * np.array([0.0, -0.4, 0.9, 1.3])
        try:
            oracle = checks._wigner_quadrature(qs, ps, t, state, p)
        except DomainError as exc:
            assert "exceeds the cap" in str(exc)
            assert state.n >= 4 and abs(state.alpha) >= 1.5 and gamma >= 0.35, point
        else:
            assert np.max(np.abs(wigner(qs, ps, t, state, p) - oracle)) <= 1e-8

        # w over its window, and the Radon line integral at three of its points
        xspec = _x_window(state, mu, nu, t, p)
        xs = xspec.center + xspec.half_width * np.linspace(-1.0, 1.0, 801)
        peak = np.max(tomogram(state, TomographyFrame(xs, mu, nu), t, p))
        for x in xs[[300, 400, 520]].tolist():
            frame = TomographyFrame(x, mu, nu)
            assert abs(tomogram(state, frame, t, p) - radon_tomogram(state, frame, t, p)) <= 1e-5 * peak
        assert abs(normalization(state, mu, nu, t, p) - 1.0) <= 1e-9


class TestWigner:
    def test_ground_closed_form(self):
        p = make_params(0.0)
        assert wigner(0.0, 0.0, 0.0, Fock(0), p) == pytest.approx(2.0, abs=1e-8)
        qs = np.linspace(-1.5, 1.5, 7)
        ps = np.linspace(-1.2, 1.2, 7)
        got = wigner(qs, ps, 0.0, Fock(0), p)
        assert np.max(np.abs(got - 2.0 * np.exp(-qs * qs - ps * ps))) < 1e-8

    def test_total_mass_is_two_pi(self):
        # integrate W over phase space with trapezoids on a wide grid
        p = make_params(0.05)
        t, state = 5.0, Fock(2)
        es = epsilon(t, p)
        ee = (es.eps * es.eps.conjugate()).real
        om = p.omega_reduced
        e2 = math.exp(2.0 * p.gamma * t)
        sq = math.sqrt(ee / 2.0) * math.sqrt(5.0)
        sp = math.sqrt(e2 / om / 2.0) * math.sqrt(5.0)
        qs = np.linspace(-8.0 * sq, 8.0 * sq, 301)
        ps = np.linspace(-8.0 * sp, 8.0 * sp, 301)
        w = wigner(qs[:, None], ps[None, :], t, state, p)
        mass = np.trapezoid(np.trapezoid(w, ps, axis=1), qs) / (2.0 * math.pi)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_fock_parity(self):
        p = make_params(0.05)
        rng = np.random.default_rng(8)
        qs = rng.uniform(-1.5, 1.5, size=9)
        ps = rng.uniform(-1.5, 1.5, size=9)
        for n in (0, 1, 2):
            a = wigner(qs, ps, 5.0, Fock(n), p)
            b = wigner(-qs, -ps, 5.0, Fock(n), p)
            assert np.max(np.abs(a - b)) < 1e-9

    def test_marginal_matches_density(self):
        p = make_params(0.05)
        t, state = 2.0, Fock(1)
        om = p.omega_reduced
        e2 = math.exp(2.0 * p.gamma * t)
        sigma_p = math.sqrt(e2 / om / 2.0) * math.sqrt(3.0)
        spec = QuadratureSpec(0.0, 9.0 * sigma_p, 300)
        rng = np.random.default_rng(21)
        for q in rng.uniform(-1.0, 1.0, size=20):
            marg = integrate(lambda ps: wigner(q, ps, t, state, p), spec) / (
                2.0 * math.pi
            )
            assert marg == pytest.approx(abs(psi(state, q, t, p)) ** 2, abs=1e-7)

    def test_negativity_first_excited(self):
        got = wigner(0.0, 0.0, 0.0, Fock(1), make_params(0.0))
        assert got == pytest.approx(-2.0, abs=1e-5)

    def test_realness_random_points(self):
        # the quadrature sums the real part of the integrand; the complex sum
        # it stands for is real to 1e-9 (TestRealSumMatchesComplexSum); values must be finite
        p = make_params(0.3)
        rng = np.random.default_rng(4)
        for state in (Fock(2), Coherent(1.0 - 0.7j)):
            qs = rng.uniform(-2.0, 2.0, size=100)
            ps = rng.uniform(-2.0, 2.0, size=100)
            vals = checks._wigner_quadrature(qs, ps, 1.0, state, p)
            assert np.all(np.isfinite(vals))


# the closed-form W is checked on grids of +-4 sigma around each state's
# Wigner mean, over the whole supported range of states
_ENVELOPE_STATES = [Fock(n) for n in range(17)] + [
    Coherent(cmath.rect(r, ph)) for r, ph in ((0.5, 0.3), (4.5, 2.0), (7.9, 4.0))
]


def _four_sigma_axes(state, t, params, points):
    mean, cov = states.wigner_moments(state, t, params)
    unit = np.linspace(-4.0, 4.0, points)
    return mean[0] + math.sqrt(cov[0, 0]) * unit, mean[1] + math.sqrt(cov[1, 1]) * unit


def _mp_wigner(mpmath, state, g, t, qs, ps):
    """Groenewold's 2 (-1)**n exp(-r**2) L_n(2 r**2) with r**2 written as
    the quadratic form z^T Sigma0^-1 z / 2 of the ground covariance Sigma0,
    at the working precision of `mpmath`."""
    g, t = mpmath.mpf(g), mpmath.mpf(t)
    om = mpmath.sqrt(1 - g * g)
    e2 = mpmath.exp(2 * g * t)
    eps = mpmath.exp(-g * t) * mpmath.mpc(mpmath.cos(om * t), mpmath.sin(om * t)) / mpmath.sqrt(om)
    a = mpmath.mpc(state.alpha.real, state.alpha.imag)
    q0 = mpmath.sqrt(2) * mpmath.re(a * mpmath.conj(eps))
    p0 = mpmath.sqrt(2) * e2 * mpmath.re(a * mpmath.conj(mpmath.mpc(-g, om) * eps))
    # Sigma0 = [[1/e2, -g], [-g, e2]] / (2 Omega), so Sigma0^-1 / 2 = [[e2, g], [g, 1/e2]] / Omega
    out = []
    for q, p in zip(qs.tolist(), ps.tolist()):
        zq, zp = mpmath.mpf(q) - q0, mpmath.mpf(p) - p0
        r2 = (e2 * zq * zq + 2 * g * zq * zp + zp * zp / e2) / om
        out.append(float(2 * (-1) ** state.n * mpmath.exp(-r2) * mpmath.laguerre(state.n, 0, 2 * r2)))
    return np.array(out)


class TestWignerClosedForm:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("t", [0.0, 1.0, 8.0])
    def test_matches_mpmath(self, gamma, t):
        mpmath = pytest.importorskip("mpmath")
        p = make_params(gamma)
        rng = np.random.default_rng(17)
        for state in _ENVELOPE_STATES:
            qs, ps = _four_sigma_axes(state, t, p, 31)
            w = wigner(qs[:, None], ps[None, :], t, state, p)
            i, j = rng.integers(0, 31, size=(2, 24))
            with mpmath.workdps(40):
                ref = _mp_wigner(mpmath, state, gamma, t, qs[i], ps[j])
            assert np.max(np.abs(w[i, j] - ref)) <= 1e-14 * np.max(np.abs(w)), state

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("t", [0.0, 1.0, 3.0, 8.0])
    def test_matches_quadrature_on_grids(self, gamma, t):
        # wherever the quadrature's u-rule fits under the node cap; the
        # pointwise oracle sizes one rule for the whole grid
        p = make_params(gamma)
        accepted = 0
        for state in _ENVELOPE_STATES:
            qs, ps = _four_sigma_axes(state, t, p, 21)
            qq, pp = np.meshgrid(qs, ps, indexing="ij")
            try:
                oracle = checks._wigner_quadrature(qq, pp, t, state, p)
            except DomainError:
                assert state.alpha == 0 and state.n >= 8 and gamma == 0.9
                continue
            accepted += 1
            w = wigner(qs[:, None], ps[None, :], t, state, p)
            assert np.max(np.abs(w - oracle)) <= 1e-13 * np.max(np.abs(w)), state
        assert accepted >= 7

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("q, pv", [(0.0, 0.0), (0.1, -0.05)])
    def test_quadrature_resolves_a_lone_point_near_the_origin(self, n, q, pv):
        # no phase exp(-i p u) to size the u-rule by: the Hermite
        # oscillation of Fock n alone sets it (Fock 12 at the origin was
        # 2.7e-6 max|W| off on 192 nodes)
        p = make_params(0.3)
        oracle = checks._wigner_quadrature(q, pv, 1.0, Fock(n), p)
        assert isinstance(oracle, float)
        assert abs(oracle - wigner(q, pv, 1.0, Fock(n), p)) <= 1e-13 * 2.0

    def test_scalar_and_broadcast(self):
        p = make_params(0.3)
        got = wigner(0.0, 0.0, 1.0, Fock(1), p)
        assert isinstance(got, float) and got == -2.0
        grid = wigner(np.array([[0.1], [0.2]]), np.array([0.0, 1.0, 2.0]), 1.0, Coherent(1.0 + 1.0j), p)
        assert grid.shape == (2, 3)
        assert grid[1, 2] == wigner(0.2, 2.0, 1.0, Coherent(1.0 + 1.0j), p)

    def test_far_points_are_zero_without_warning(self):
        # r**2 overflows to inf, or to inf - inf = nan, for these; W is 0.0
        p = make_params(0.99)
        huge = np.array([-1e300, -1e10, 1e10, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in (Fock(0), Fock(1), Fock(16), Coherent(8.0j)):
                w = wigner(huge[:, None], huge[None, :], 300.0, state, p)
                assert w.tolist() == np.zeros((4, 4)).tolist(), state
        with pytest.raises(DomainError):
            wigner(np.inf, 0.0, 0.0, Fock(0), p)


class TestWignerGrid:
    @pytest.mark.parametrize(
        "state, gamma, t",
        [(Fock(12), 0.2, 3.0), (Coherent(1.2 - 0.7j), 0.05, 2.0)],
    )
    def test_matches_pointwise(self, state, gamma, t):
        # the CLI grid, a broadcast of the closed form over q[:, None] and
        # p[None, :], against the quadrature oracle point by point
        p = make_params(gamma)
        qs = np.linspace(-5.0, 5.0, 41)
        ps = np.linspace(-4.5, 4.0, 37)
        qq, pp = np.meshgrid(qs, ps, indexing="ij")
        grid = wigner(qs[:, None], ps[None, :], t, state, p)
        point = checks._wigner_quadrature(qq, pp, t, state, p)
        assert grid.shape == (41, 37)
        assert np.max(np.abs(grid - point)) <= 1e-13 * np.max(np.abs(point))

    def test_non_finite_refused(self, monkeypatch):
        # a NaN in the real envelope R of the psi split reaches the quadrature
        real_amplitude = states._amplitude

        def broken_amplitude(state, t, params):
            c, theta, kappa, r = real_amplitude(state, t, params)

            def broken_r(q):
                out = r(q)
                out.flat[0] = np.nan
                return out

            return c, theta, kappa, broken_r

        monkeypatch.setattr(checks, "_amplitude", broken_amplitude)
        qs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(NonFinite):
            checks._wigner_quadrature(qs, qs, 1.0, Fock(1), make_params(0.1))


def _full_rule_pointwise(state, q, p, t, params, u_nodes, u_weights):
    """The complex psi-product sum over the whole u-rule, whose real part
    the quadrature sums."""
    left = psi(state, q[..., None] + 0.5 * u_nodes, t, params)
    right = psi(state, q[..., None] - 0.5 * u_nodes, t, params)
    phase = np.exp(-1j * p[..., None] * u_nodes)
    return (left * np.conj(right) * phase) @ u_weights


def _u_rule(state, q, p, t, params):
    """Nodes and weights on u of the rule `integrate` takes for the
    quadrature's u-window at the points (q, p)."""
    spec = checks._wigner_u_window(state, q, p, t, params)
    nodes, weights = _gauss_legendre(_rung(spec.points))
    return spec.half_width * nodes, spec.half_width * weights


def _full_rule_grid(state, qs, ps, t, params):
    """The complex full-rule sum over the product grid qs x ps, on the
    u-rule the quadrature picks for that grid."""
    u_nodes, u_weights = _u_rule(state, qs, ps, t, params)
    left = psi(state, qs[:, None] + 0.5 * u_nodes, t, params)
    right = psi(state, qs[:, None] - 0.5 * u_nodes, t, params)
    kernel = left * np.conj(right) * u_weights
    phase = np.exp(-1j * ps[:, None] * u_nodes)
    return np.einsum("qu,pu->qp", kernel, phase)


def _assert_real(full):
    # the imaginary part the quadrature leaves out sums to rounding
    assert np.all(np.abs(full.imag) < 1e-9 * (1.0 + np.abs(full.real)))


def _alpha_mean_p_zero(r, gamma, t):
    """The alpha of modulus r whose Wigner mean has p = 0 at (gamma, t), so
    the fixed test grid around the origin sees the state."""
    d = epsilon(t, make_params(gamma)).eps_dot
    return 1j * r * d / abs(d)


class TestRealSumMatchesComplexSum:
    """The quadrature's real sum over its whole u-rule against the complex
    psi-product sum over the same rule."""

    CASES = [
        (Fock(0), 0.1, 3.0),
        (Fock(1), 0.05, 5.0),
        (Fock(12), 0.2, 3.0),
        (Fock(16), 0.1, 1.0),
        (Coherent(1.2 - 0.7j), 0.05, 2.0),
        # the edge of the supported envelope
        (Fock(16), 0.6, 2.0),
        (Coherent(_alpha_mean_p_zero(7.9, 0.6, 3.0)), 0.6, 3.0),  # mean q = -1.65
    ]

    @pytest.mark.parametrize("state, gamma, t", CASES)
    def test_grid_matches_full_rule(self, state, gamma, t):
        p = make_params(gamma)
        qs = np.linspace(-5.0, 5.0, 41)
        ps = np.linspace(-4.5, 4.0, 37)
        full = _full_rule_grid(state, qs, ps, t, p)
        _assert_real(full)
        qq, pp = np.meshgrid(qs, ps, indexing="ij")
        grid = checks._wigner_quadrature(qq, pp, t, state, p)
        assert np.max(np.abs(grid - full.real)) <= 1e-13 * np.max(np.abs(full.real))

    @pytest.mark.parametrize("state, gamma, t", CASES)
    def test_pointwise_matches_full_rule(self, state, gamma, t):
        p = make_params(gamma)
        rng = np.random.default_rng(5)
        q = rng.uniform(-4.0, 4.0, size=150)
        pp = rng.uniform(-4.0, 4.0, size=150)
        u_nodes, u_weights = _u_rule(state, q, pp, t, p)
        point = checks._wigner_quadrature(q, pp, t, state, p)
        full = _full_rule_pointwise(state, q, pp, t, p, u_nodes, u_weights)
        _assert_real(full)
        assert np.max(np.abs(point - full.real)) <= 1e-13 * np.max(np.abs(full.real))


def _marginal_check_per_q(rng):
    """`checks._check_wigner_marginal` on the quadrature oracle: one
    pointwise `_wigner_quadrature` per q; returns the worst defect and the
    marginals."""
    p = make_params(0.05)
    t = 5.0
    state = Fock(1)
    worst = 0.0
    es = epsilon(t, p)
    spec = _x_window(state, 0.0, 1.0, t, p)
    margs = []
    for q in checks._uniforms(rng, -1.0, 1.0, 20) * math.sqrt(es.ee):
        marg = integrate(lambda ps: checks._wigner_quadrature(q, ps, t, state, p), spec) / (2.0 * math.pi)
        margs.append(marg)
        worst = max(worst, abs(marg - abs(psi(state, q, t, p)) ** 2))
    return worst, np.array(margs)


class TestMarginalCheck:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_one_grid_matches_per_q(self, seed):
        # line 16 of `check all`, on the sampler `run_checks` gives it
        old, per_q = _marginal_check_per_q(checks._sampler(seed, 16))
        new = _worst(_check_wigner_marginal(checks._sampler(seed, 16)))
        assert abs(new - old) <= 1e-15
        # the same marginals from the closed-form W, as the check computes them
        p = make_params(0.05)
        es = epsilon(5.0, p)
        qs = checks._uniforms(checks._sampler(seed, 16), -1.0, 1.0, 20) * math.sqrt(es.ee)
        spec = _x_window(Fock(1), 0.0, 1.0, 5.0, p)
        closed = np.array([integrate(lambda ps: wigner(q, ps, 5.0, Fock(1), p), spec) for q in qs]) / (2.0 * math.pi)
        assert np.max(np.abs(closed - per_q)) <= 1e-15
        assert float(np.max(np.abs(closed - np.abs(psi(Fock(1), qs, 5.0, p)) ** 2))) == new
