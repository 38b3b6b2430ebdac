import math

import numpy as np
import pytest

from cktomo import (
    Coherent,
    DomainError,
    DualPoint,
    Fock,
    KTooSmall,
    eigen_residual,
    make_params,
    number_apply,
    number_apply_printed,
    tomogram_characteristic,
)
from cktomo.checks import _check_variant_agreement, _eigen_sample
from cktomo.invariants import _apply_to_stencil, _stencil


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

    def test_n_cap(self):
        with pytest.raises(DomainError):
            number_apply(
                "direct", Fock(7), DualPoint(k=1.0, mu=1.0, nu=0.0, t=0.0), 1e-3, make_params(0.0)
            )

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
        for point in _eigen_sample(np.random.default_rng(seed), 5, [0.0, 2.0]):
            a = number_apply("direct", Fock(1), point, 1e-3, p)
            b = number_apply("conjugate", Fock(1), point, 1e-3, p)
            w00 = tomogram_characteristic(Fock(1), point.k, point.mu, point.nu, point.t, p)
            worst = max(worst, abs(a - b) / max(abs(w00), 1e-3))
        assert _check_variant_agreement(np.random.default_rng(seed)) == worst


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
        assert fine < coarse / 8.0  # O(h**2) until the quadrature floor


    @pytest.mark.parametrize("n, gamma", [(0, 0.0), (1, 0.05), (2, 0.3)])
    def test_one_stencil_bit_identical_to_per_variant_calls(self, n, gamma):
        p = make_params(gamma)
        sample = _sample(np.random.default_rng(n), 4, [0.0, 1.0, 5.0])
        assert eigen_residual(n, sample, 1e-3, p) == _eigen_residual_per_variant(n, sample, 1e-3, p)

    def test_k_floor(self):
        point = DualPoint(k=0.01, mu=1.0, nu=0.0, t=0.0)
        with pytest.raises(KTooSmall):
            eigen_residual(1, [point], 1e-3, make_params(0.0))


def _eigen_residual_per_variant(n, sample, h, params):
    """`eigen_residual` as it was: one `number_apply` call, and so one
    stencil, per variant."""
    state = Fock(n)
    worst = 0.0
    for point in sample:
        w00 = tomogram_characteristic(state, point.k, point.mu, point.nu, point.t, params)
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
