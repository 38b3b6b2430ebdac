import math

import numpy as np
import pytest

from cktomo import states
from cktomo import (
    Coherent,
    DomainError,
    Fock,
    NonFinite,
    QuadratureSpec,
    coherent_psi,
    epsilon,
    fock_psi,
    integrate,
    make_params,
    psi,
    wigner,
)
from cktomo.checks import _check_wigner_marginal
from cktomo.numerics import _gauss_legendre

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

    def test_dotted_alpha_term_breaks_normalization(self):
        """The defective (time-derivative) alpha**2 coefficient destroys
        normalization; kept as a diagnostic of the transcription error."""
        p = make_params(0.05)
        spec = QuadratureSpec(0.0, 8.0 * _sigma_q(0.0, p) * 2.0, 400)
        nrm = integrate(
            lambda q: np.abs(coherent_psi(q, 0.0, 1.0, p, dotted_alpha_term=True)) ** 2,
            spec,
        )
        assert abs(nrm - 1.0) > 0.5


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
        # the separable grid agrees with pointwise wigner() (TestWignerGrid)
        w = states._wigner_grid(state, qs, ps, t, p)
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
        # wigner sums 2 Re over half the u-rule; the full complex sum it
        # stands for is real to 1e-9 (TestHalfRule); values must be finite
        p = make_params(0.3)
        rng = np.random.default_rng(4)
        for state in (Fock(2), Coherent(1.0 - 0.7j)):
            qs = rng.uniform(-2.0, 2.0, size=100)
            ps = rng.uniform(-2.0, 2.0, size=100)
            vals = wigner(qs, ps, 1.0, state, p)
            assert np.all(np.isfinite(vals))


class TestWignerGrid:
    @pytest.mark.parametrize(
        "state, gamma, t",
        [(Fock(12), 0.2, 3.0), (Coherent(1.2 - 0.7j), 0.05, 2.0)],
    )
    def test_matches_pointwise(self, state, gamma, t):
        # the separable product sums in another order than the pointwise
        # quadrature, so the two agree to rounding, not bit for bit
        p = make_params(gamma)
        qs = np.linspace(-5.0, 5.0, 41)
        ps = np.linspace(-4.5, 4.0, 37)
        qq, pp = np.meshgrid(qs, ps, indexing="ij")
        grid = states._wigner_grid(state, qs, ps, t, p)
        point = wigner(qq, pp, t, state, p)
        assert grid.shape == (41, 37)
        assert np.max(np.abs(grid - point)) <= 1e-13 * np.max(np.abs(point))

    def test_non_finite_refused(self, monkeypatch):
        real_psi = states.psi

        def broken_psi(state, q, t, params):
            out = real_psi(state, q, t, params)
            out.flat[0] = np.nan
            return out

        monkeypatch.setattr(states, "psi", broken_psi)
        qs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(NonFinite):
            states._wigner_grid(Fock(1), qs, qs, 1.0, make_params(0.1))
        with pytest.raises(NonFinite):
            wigner(qs, qs, 1.0, Fock(1), make_params(0.1))


def _full_rule_pointwise(state, q, p, t, params, u_nodes, u_weights):
    """The complex sum over the whole u-rule that `wigner` evaluated
    before it summed 2 Re over the nonnegative half."""
    left = psi(state, q[..., None] + 0.5 * u_nodes, t, params)
    right = psi(state, q[..., None] - 0.5 * u_nodes, t, params)
    phase = np.exp(-1j * p[..., None] * u_nodes)
    return (left * np.conj(right) * phase) @ u_weights


def _full_rule_grid(state, qs, ps, t, params):
    """The complex full-rule separable product `_wigner_grid` evaluated
    before the half rule."""
    u_nodes, u_weights = states._wigner_u_rule(state, qs, ps, t, params)
    left = psi(state, qs[:, None] + 0.5 * u_nodes, t, params)
    right = psi(state, qs[:, None] - 0.5 * u_nodes, t, params)
    kernel = left * np.conj(right) * u_weights
    phase = np.exp(-1j * ps[:, None] * u_nodes)
    return np.einsum("qu,pu->qp", kernel, phase)


def _assert_real(full):
    # the bound wigner enforced on the full sum before the half rule
    assert np.all(np.abs(full.imag) < 1e-9 * (1.0 + np.abs(full.real)))


class TestHalfRule:
    CASES = [
        (Fock(0), 0.1, 3.0),
        (Fock(1), 0.05, 5.0),
        (Fock(12), 0.2, 3.0),
        (Fock(16), 0.1, 1.0),
        (Coherent(1.2 - 0.7j), 0.05, 2.0),
    ]

    @pytest.mark.parametrize("state, gamma, t", CASES)
    def test_grid_matches_full_rule(self, state, gamma, t):
        p = make_params(gamma)
        qs = np.linspace(-5.0, 5.0, 41)
        ps = np.linspace(-4.5, 4.0, 37)
        full = _full_rule_grid(state, qs, ps, t, p)
        _assert_real(full)
        grid = states._wigner_grid(state, qs, ps, t, p)
        assert np.max(np.abs(grid - full.real)) <= 1e-13 * np.max(np.abs(full.real))

    @pytest.mark.parametrize("state, gamma, t", CASES)
    def test_pointwise_matches_full_rule(self, state, gamma, t, monkeypatch):
        p = make_params(gamma)
        rng = np.random.default_rng(5)
        q = rng.uniform(-4.0, 4.0, size=150)
        pp = rng.uniform(-4.0, 4.0, size=150)
        u_nodes, u_weights = states._wigner_u_rule(state, q, pp, t, p)
        half_width = float(u_nodes[-1] / _gauss_legendre(u_nodes.size)[0][-1])
        point = wigner(q, pp, t, state, p)
        full = _full_rule_pointwise(state, q, pp, t, p, u_nodes, u_weights)
        assert np.max(np.abs(point - full.real)) <= 1e-13 * np.max(np.abs(full.real))
        for n in (u_nodes.size, u_nodes.size + 1):  # an even and an odd rule
            nodes, weights = _gauss_legendre(n)
            rule = (half_width * nodes, half_width * weights)
            full = _full_rule_pointwise(state, q, pp, t, p, *rule)
            _assert_real(full)
            monkeypatch.setattr(states, "_wigner_u_rule", lambda *args, rule=rule: rule)
            half = wigner(q, pp, t, state, p)
            assert np.max(np.abs(half - full.real)) <= 1e-13 * np.max(np.abs(full.real))

    def test_asymmetric_rule_refused(self, monkeypatch):
        p = make_params(0.1)
        q = np.array([0.3, -0.2])
        u_nodes, u_weights = states._wigner_u_rule(Fock(1), q, q, 1.0, p)
        wigner(q, q, 1.0, Fock(1), p)  # its own rule is accepted
        bad_nodes = u_nodes.copy()
        bad_nodes[0] = np.nextafter(bad_nodes[0], -np.inf)
        bad_weights = u_weights.copy()
        bad_weights[-1] = np.nextafter(bad_weights[-1], np.inf)
        odd_nodes, odd_weights = _gauss_legendre(97)
        shifted = odd_nodes.copy()
        shifted[48] = 1e-300  # the middle node of an odd rule must be 0
        for rule in ((bad_nodes, u_weights), (u_nodes, bad_weights), (shifted, odd_weights)):
            monkeypatch.setattr(states, "_wigner_u_rule", lambda *args, rule=rule: rule)
            with pytest.raises(DomainError):
                wigner(q, q, 1.0, Fock(1), p)
        monkeypatch.setattr(states, "_wigner_u_rule", lambda *args: (bad_nodes, u_weights))
        with pytest.raises(DomainError):
            states._wigner_grid(Fock(1), q, q, 1.0, p)


def _marginal_check_per_q(rng):
    """`checks._check_wigner_marginal` as it was: one pointwise `wigner`
    quadrature per q; returns the worst defect and the marginals."""
    p = make_params(0.05)
    t = 5.0
    state = Fock(1)
    worst = 0.0
    es = epsilon(t, p)
    sigma_p = math.sqrt(es.e2 / p.omega_reduced / 2.0) * math.sqrt(3.0)
    spec = QuadratureSpec(0.0, 9.0 * sigma_p, 300)
    margs = []
    for q in rng.uniform(-1.0, 1.0, size=20) * math.sqrt(es.ee):
        marg = integrate(lambda ps: wigner(q, ps, t, state, p), spec) / (2.0 * math.pi)
        margs.append(marg)
        worst = max(worst, abs(marg - abs(psi(state, q, t, p)) ** 2))
    return worst, np.array(margs)


class TestMarginalCheck:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_one_grid_matches_per_q(self, seed):
        old, per_q = _marginal_check_per_q(np.random.default_rng([seed, 16]))
        new = _check_wigner_marginal(np.random.default_rng([seed, 16]))
        assert abs(new - old) <= 1e-15
        # the same marginals from one grid, as the check now computes them
        p = make_params(0.05)
        es = epsilon(5.0, p)
        qs = np.random.default_rng([seed, 16]).uniform(-1.0, 1.0, size=20) * math.sqrt(es.ee)
        half_width = 9.0 * math.sqrt(es.e2 / p.omega_reduced / 2.0) * math.sqrt(3.0)
        nodes, weights = _gauss_legendre(300)
        grid = states._wigner_grid(Fock(1), qs, half_width * nodes, 5.0, p)
        one_grid = half_width * (grid @ weights) / (2.0 * math.pi)
        assert np.max(np.abs(one_grid - per_q)) <= 1e-15
