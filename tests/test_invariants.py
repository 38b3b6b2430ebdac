import cmath
import math

import numpy as np
import pytest

from cktomo import invariants
from cktomo import (
    Coherent,
    DegenerateFrame,
    DomainError,
    DualPoint,
    Fock,
    KTooSmall,
    State,
    characteristic,
    eigen_residual,
    make_params,
    number_apply,
    number_apply_printed,
    tomogram_characteristic,
)
from cktomo.checks import _check_variant_agreement, _eigen_sample, _sampler, run_checks
from cktomo.invariants import _apply_to_stencil, _stencil
from cktomo.numerics import _worst


def _sample(rng, n_points, ts):
    points = []
    for _ in range(n_points):
        k = rng.uniform(0.2, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        scale = rng.uniform(0.4, 1.5)
        points.append(
            DualPoint(
                k=k,
                mu=scale * math.cos(angle),
                nu=-scale * math.sin(angle),
                t=float(rng.choice(ts)),
            )
        )
    return points


class TestCharacteristic:
    def test_gaussian_closed_form(self):
        # ground state, frictionless, position frame: w~ = exp(-k**2/4)
        p = make_params(0.0)
        for k in (0.3, 1.0, 2.0):
            got = tomogram_characteristic(Fock(0), k, 1.0, 0.0, 0.0, p)
            assert got == pytest.approx(math.exp(-k * k / 4.0), abs=1e-8)

    def test_unit_at_small_k(self):
        got = tomogram_characteristic(Fock(2), 1e-6, 0.7, -1.1, 3.0, make_params(0.3))
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(14)
        p = make_params(0.2)
        for state in (Fock(1), Coherent(1.0 + 0.5j)):
            for _ in range(8):
                k = rng.uniform(0.1, 4.0)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                got = tomogram_characteristic(
                    state, k, math.cos(angle), -math.sin(angle), 1.0, p
                )
                assert abs(got) <= 1.0 + 1e-10

    def test_dual_homogeneity(self):
        p = make_params(0.2)
        for k in (0.5, 2.0):
            lhs = tomogram_characteristic(Fock(1), k, 0.8, -0.5, 2.0, p)
            rhs = tomogram_characteristic(Fock(1), 1.0, k * 0.8, -k * 0.5, 2.0, p)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestClosedFormCharacteristic:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9])
    def test_matches_quadrature_oracle(self, gamma):
        # over the whole state envelope, wherever the oracle's X rule fits
        # under the node cap
        rng = np.random.default_rng(60)
        p = make_params(gamma)
        accepted = 0
        for state in _ENVELOPE_STATES:
            for _ in range(3):
                k = rng.uniform(0.05, 3.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                mu, nu = math.cos(angle), -math.sin(angle)
                t = rng.uniform(0.0, 4.0 / max(gamma, 0.5))
                try:
                    oracle = tomogram_characteristic(state, k, mu, nu, t, p)
                except DomainError:
                    continue
                accepted += 1
                got = characteristic(state, k, mu, nu, t, p)
                assert abs(got - oracle) <= 1e-13, (state, k, mu, nu, t)
        assert accepted >= 50

    @pytest.mark.parametrize("gamma, t", [(0.0, 0.0), (0.3, 1.7), (0.9, 2.2)])
    def test_matches_mpmath(self, gamma, t):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(61)
        p = make_params(gamma)
        for state in _ENVELOPE_STATES:
            k = rng.uniform(0.05, 3.0)
            mus, nus = rng.uniform(-1.5, 1.5, size=(2, 4))
            got = characteristic(state, k, mus, nus, t, p)
            with mpmath.workdps(40):
                ref = [_mp_characteristic(mpmath, state, k, mu, nu, gamma, t) for mu, nu in zip(mus, nus)]
            assert np.max(np.abs(got - np.array(ref))) <= 1e-14, state

    def test_scalar_and_broadcast(self):
        p = make_params(0.3)
        mus, nus = np.array([[0.4], [1.2]]), np.array([[-0.7, 0.1, 0.9]])
        got = characteristic(Coherent(1.0 - 2.0j), 0.8, *np.broadcast_arrays(mus, nus), 2.0, p)
        assert got.shape == (2, 3)
        scalar = characteristic(Coherent(1.0 - 2.0j), 0.8, 1.2, 0.9, 2.0, p)
        assert isinstance(scalar, complex) and got[1, 2] == scalar

    def test_refuses_bad_input(self):
        p = make_params(0.3)
        with pytest.raises(DegenerateFrame):
            characteristic(Fock(1), 1.0, 0.0, 0.0, 1.0, p)
        for k, mu in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(DomainError):
                characteristic(Fock(1), k, mu, 0.5, 1.0, p)


_ENVELOPE_STATES = [Fock(n) for n in range(17)] + [
    Coherent(cmath.rect(r, ph)) for r, ph in ((0.5, 0.3), (4.5, 2.0), (7.9, 4.0), (8.0, 5.5))
]


def _mp_characteristic(mpmath, state, k, mu, nu, g, t):
    """exp(i k Xbar - kappa**2/4) L_n(kappa**2/2), kappa**2 = k**2 s2, with
    Xbar and s2 = 2 Var X from the Wigner mean sqrt(2) (Re(alpha eps*),
    e^{2 g t} Re(alpha eps'*)) and the ground covariance
    [[e^{-2gt}, -g], [-g, e^{2gt}]] / (2 Omega), at the working precision of
    `mpmath`."""
    k, mu, nu, g, t = (mpmath.mpf(float(v)) for v in (k, mu, nu, g, t))
    om = mpmath.sqrt(1 - g * g)
    e2 = mpmath.exp(2 * g * t)
    eps = mpmath.exp(-g * t) * mpmath.mpc(mpmath.cos(om * t), mpmath.sin(om * t)) / mpmath.sqrt(om)
    a = mpmath.mpc(state.alpha.real, state.alpha.imag)
    xbar = mpmath.sqrt(2) * (
        mu * mpmath.re(a * mpmath.conj(eps)) + nu * e2 * mpmath.re(a * mpmath.conj(mpmath.mpc(-g, om) * eps))
    )
    kappa2 = k * k * (mu * mu / e2 - 2 * g * mu * nu + e2 * nu * nu) / om
    value = mpmath.exp(mpmath.mpc(-kappa2 / 4, k * xbar)) * mpmath.laguerre(state.n, 0, kappa2 / 2)
    return complex(value)


class TestNumberApply:
    def test_n0_annihilated(self):
        p = make_params(0.05)
        point = DualPoint(k=0.8, mu=1.0, nu=0.4, t=2.0)
        w0 = tomogram_characteristic(Fock(0), 0.8, 1.0, 0.4, 2.0, p)
        got = number_apply("direct", Fock(0), point, 1e-3, p)
        assert abs(got) <= 1e-4 * abs(w0)

    def test_n1_eigenvalue_frictionless(self):
        p = make_params(0.0)
        point = DualPoint(k=1.0, mu=1.0, nu=0.5, t=0.0)
        w1 = tomogram_characteristic(Fock(1), 1.0, 1.0, 0.5, 0.0, p)
        got = number_apply("direct", Fock(1), point, 1e-3, p)
        assert abs(got - 1.0 * w1) <= 1e-4 * abs(w1)

    def test_n2_conjugate_damped(self):
        p = make_params(0.05)
        point = DualPoint(k=0.9, mu=0.8, nu=-0.6, t=5.0)
        w2 = tomogram_characteristic(Fock(2), 0.9, 0.8, -0.6, 5.0, p)
        got = number_apply("conjugate", Fock(2), point, 1e-3, p)
        assert abs(got - 2.0 * w2) <= 5e-4 * abs(w2)

    def test_k_floor(self):
        with pytest.raises(KTooSmall):
            number_apply(
                "direct", Fock(1), DualPoint(k=0.01, mu=1.0, nu=0.0, t=0.0), 1e-3, make_params(0.0)
            )

    def test_variant_names(self):
        with pytest.raises(DomainError):
            number_apply(
                "sideways", Fock(1), DualPoint(k=1.0, mu=1.0, nu=0.0, t=0.0), 1e-3, make_params(0.0)
            )

    @pytest.mark.parametrize("apply", [number_apply, number_apply_printed])
    def test_acts_on_alpha_zero_only(self, apply):
        # Coherent(0) is the state Fock(0); a displaced state is no eigenstate
        p, point = make_params(0.3), DualPoint(k=0.8, mu=1.0, nu=0.4, t=2.0)
        assert apply("direct", Coherent(0), point, 1e-3, p) == apply("direct", Fock(0), point, 1e-3, p)
        with pytest.raises(DomainError, match="number invariants act on Fock tomograms"):
            apply("direct", State(1, 0.5), point, 1e-3, p)

    def test_n_cap(self):
        # every Fock order the states accept, and no other
        with pytest.raises(DomainError):
            eigen_residual(17, [DualPoint(k=1.0, mu=1.0, nu=0.0, t=0.0)], 1e-3, make_params(0.0))

    def test_variants_agree_on_real_characteristic(self):
        # Fock tomograms are even in X => w~ real => the first-order
        # brackets of the two variants cancel identically
        p = make_params(0.3)
        point = DualPoint(k=1.1, mu=0.9, nu=0.7, t=2.0)
        a = number_apply("direct", Fock(1), point, 1e-3, p)
        b = number_apply("conjugate", Fock(1), point, 1e-3, p)
        w = tomogram_characteristic(Fock(1), 1.1, 0.9, 0.7, 2.0, p)
        assert abs(a - b) <= 1e-5 * max(abs(w), 1e-3)

    @pytest.mark.parametrize("n, gamma", [(0, 0.0), (1, 0.3), (3, 0.05)])
    def test_variants_are_the_stencil_pair(self, n, gamma):
        p = make_params(gamma)
        for point in _sample(np.random.default_rng(40 + n), 3, [0.0, 2.0]):
            pair = _apply_to_stencil(point, p, _stencil(Fock(n), point, 1e-3, p))
            direct = number_apply("direct", Fock(n), point, 1e-3, p)
            conjugate = number_apply("conjugate", Fock(n), point, 1e-3, p)
            assert (direct, conjugate) == pair

    @pytest.mark.parametrize("seed", [0, 42])
    def test_variant_agreement_check_bit_identical_to_per_variant_calls(self, seed):
        p = make_params(0.3)
        worst = 0.0
        # line 40 of `check all`, on the sampler `run_checks` gives it
        for point in _eigen_sample(_sampler(seed, 40), 5, [0.0, 2.0]):
            a = number_apply("direct", Fock(1), point, 1e-3, p)
            b = number_apply("conjugate", Fock(1), point, 1e-3, p)
            w00 = _stencil(Fock(1), point, 1e-3, p)[0]  # the stencil's own w~
            worst = max(worst, abs(a - b) / max(abs(w00), 1e-3))
        assert _worst(_check_variant_agreement(_sampler(seed, 40))) == worst


class TestStencil:
    @pytest.mark.parametrize("n, gamma", [(0, 0.0), (1, 0.3), (2, 0.05), (6, 0.3), (16, 0.6)])
    def test_one_broadcast_matches_nine_quadratures(self, n, gamma):
        # the stencil's one broadcast of the closed form against one
        # `characteristic` call per point, and Richardson's
        # (4 D(h/2) - D(h)) / 3 for every first and second difference; the
        # mixed one is a quarter of the two diagonals' difference.  numpy
        # divides a complex array by a real as a product with its
        # reciprocal, Python by a quotient: a few ulps apart
        p = make_params(gamma)
        h = 1e-3
        for point in _sample(np.random.default_rng(n), 4, [0.0, 1.0, 5.0]):
            k, mu, nu, t = point.k, point.mu, point.nu, point.t

            def w(dm, dv):
                return characteristic(Fock(n), k, mu + dm, nu + dv, t, p)

            def d1(step, axis):
                return (w(*(step * axis)) - w(*(-step * axis))) / (2.0 * step)

            def d2(step, axis):
                return (w(*(step * axis)) - 2.0 * w00 + w(*(-step * axis))) / (step * step)

            def richardson(d, axis):
                return (4.0 * d(h / 2, axis) - d(h, axis)) / 3.0

            w00 = w(0.0, 0.0)
            e_mu, e_nu = np.array([1.0, 0.0]), np.array([0.0, 1.0])
            expected = (
                w00,
                richardson(d1, e_mu),
                richardson(d1, e_nu),
                richardson(d2, e_mu),
                richardson(d2, e_nu),
                0.25 * (richardson(d2, e_mu + e_nu) - richardson(d2, e_mu - e_nu)),
            )
            got = _stencil(Fock(n), point, h, p)
            assert got[0] == w00
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


class TestEigenResidual:
    def test_n0_n1(self):
        rng = np.random.default_rng(23)
        for g in (0.0, 0.05):
            p = make_params(g)
            sample = _sample(rng, 20, [0.0, 1.0, 5.0])
            assert eigen_residual(0, sample, 1e-3, p) < 1e-3
            assert eigen_residual(1, sample, 1e-3, p) < 1e-3

    def test_n2_stronger_damping(self):
        rng = np.random.default_rng(29)
        p = make_params(0.3)
        sample = _sample(rng, 10, [0.0, 1.0, 5.0])
        assert eigen_residual(2, sample, 1e-3, p) < 5e-3

    def test_empty_sample(self):
        with pytest.raises(DomainError):
            eigen_residual(1, [], 1e-3, make_params(0.0))

    def test_residual_shrinks_with_step_until_noise_floor(self):
        p = make_params(0.05)
        sample = [DualPoint(k=1.0, mu=0.9, nu=0.6, t=2.0)]
        coarse = eigen_residual(1, sample, 2e-2, p)
        fine = eigen_residual(1, sample, 2e-3, p)
        assert fine < coarse / 8.0  # O(h**4) until the rounding floor

    def test_every_fock_order(self):
        # the closed-form stencil holds the eigenvalue at the top of the
        # state envelope as well
        rng = np.random.default_rng(16)
        for g in (0.0, 0.3, 0.6):
            sample = _sample(rng, 7, [0.0, 1.0, 5.0])
            assert eigen_residual(16, sample, 1e-3, make_params(g)) < 1e-3


    @pytest.mark.parametrize("n, gamma", [(0, 0.0), (1, 0.05), (2, 0.3)])
    def test_one_stencil_bit_identical_to_per_variant_calls(self, n, gamma):
        p = make_params(gamma)
        sample = _sample(np.random.default_rng(n), 4, [0.0, 1.0, 5.0])
        assert eigen_residual(n, sample, 1e-3, p) == _eigen_residual_per_variant(n, sample, 1e-3, p)

    def test_k_floor(self):
        point = DualPoint(k=0.01, mu=1.0, nu=0.0, t=0.0)
        with pytest.raises(KTooSmall):
            eigen_residual(1, [point], 1e-3, make_params(0.0))

    @pytest.mark.parametrize("index", [0, 9])
    def test_nan_characteristic_makes_it_nan(self, index, monkeypatch):
        # one NaN w~ (the center, or one step) in the second point's stencil:
        # a fold by Python's max alone would drop it behind the first point
        calls = []

        def nan_in_second_stencil(state, k, mus, nus, t, params):
            w = characteristic(state, k, mus, nus, t, params)
            calls.append(k)
            if len(calls) == 2:
                w = np.array(w)
                w[index] = math.nan
            return w

        monkeypatch.setattr(invariants, "characteristic", nan_in_second_stencil)
        sample = _sample(np.random.default_rng(3), 3, [0.0, 1.0])
        assert math.isnan(eigen_residual(1, sample, 1e-3, make_params(0.05)))
        assert len(calls) == 3


def test_seed_26_passes():
    # the plain central difference for d_mu, d_nu failed variant_agreement
    # here at 4.5e-5 against 1e-5: pure O(h**2) truncation
    results = run_checks("invariants", 26)
    assert [r.name for r in results if not r.passed] == []
    agreement = next(r for r in results if r.name == "variant_agreement")
    assert agreement.value < 1e-9


def _eigen_residual_per_variant(n, sample, h, params):
    """`eigen_residual` with one `number_apply` call, and so one stencil,
    per variant; w~ is the stencil's own center value."""
    state = Fock(n)
    worst = 0.0
    for point in sample:
        w00 = _stencil(state, point, h, params)[0]
        denom = max(abs(w00), 1e-3)
        for variant in ("direct", "conjugate"):
            value = number_apply(variant, state, point, h, params)
            worst = max(worst, abs(value - n * w00) / denom)
    return worst


class TestPrintedForms:
    """The verbatim transcription of the published operator pair fails the
    eigenvalue property by construction; these tests pin the defect sizes
    so the deviation from the derived operators stays documented."""

    def test_printed_direct_fails_eigenvalue(self):
        p = make_params(0.0)
        point = DualPoint(k=1.0, mu=1.0, nu=0.5, t=0.0)
        w1 = tomogram_characteristic(Fock(1), 1.0, 1.0, 0.5, 0.0, p)
        got = number_apply_printed("direct", Fock(1), point, 1e-3, p)
        # missing 1/4 on the multiplication bracket:
        # residual = (3/8)(k mu)^2 + (k nu)^2) = 0.46875 at this point
        rel = abs(got - 1.0 * w1) / abs(w1)
        assert rel == pytest.approx(0.46875, abs=1e-4)

    def test_printed_conjugate_fails_eigenvalue(self):
        p = make_params(0.0)
        point = DualPoint(k=1.0, mu=1.0, nu=0.5, t=0.0)
        w1 = tomogram_characteristic(Fock(1), 1.0, 1.0, 0.5, 0.0, p)
        got = number_apply_printed("conjugate", Fock(1), point, 1e-3, p)
        # additionally flips the ordering constant (+1 instead of -1)
        rel = abs(got - 1.0 * w1) / abs(w1)
        assert rel == pytest.approx(1.46875, abs=1e-4)

    def test_corrected_beats_printed_everywhere(self):
        rng = np.random.default_rng(31)
        p = make_params(0.05)
        for point in _sample(rng, 5, [0.0, 2.0]):
            w = tomogram_characteristic(Fock(1), point.k, point.mu, point.nu, point.t, p)
            good = abs(number_apply("direct", Fock(1), point, 1e-3, p) - w)
            bad = abs(number_apply_printed("direct", Fock(1), point, 1e-3, p) - w)
            assert good < 1e-3 * max(abs(w), 1e-3)
            assert bad > 10.0 * good
