import itertools
import math

import numpy as np
import pytest

from cktomo import (
    Coherent,
    DegenerateFrame,
    DomainError,
    Fock,
    StepTooLarge,
    convergence_study,
    evolution_residual,
    evolution_residual_tprime,
    evolution_terms,
    frame_scale_sq,
    make_params,
    normalization,
    relative_residual,
)
from cktomo import evolution
from cktomo.cli import main
from cktomo.checks import _evolution_config, run_checks
from cktomo.evolution import _max_step


class TestResidual:
    def test_frictionless_fock1(self):
        # gamma = 0 reduces to the frictionless tomographic evolution law
        got = evolution_residual(Fock(1), 0.7, 0.8, -0.6, 1.0, 1e-3, make_params(0.0))
        assert abs(got) < 1e-6

    def test_fock2_damped_random_frames(self):
        rng = np.random.default_rng(9)
        p = make_params(0.05)
        for _ in range(6):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            scale = rng.uniform(0.5, 1.5)
            mu, nu = scale * math.cos(angle), -scale * math.sin(angle)
            x = rng.uniform(-1.5, 1.5)
            assert relative_residual(Fock(2), x, mu, nu, 5.0, 1e-3, p) < 1e-5

    def test_coherent_damped(self):
        got = relative_residual(
            Coherent(1.0 + 1.0j), 0.4, 1.1, 0.5, 2.0, 1e-3, make_params(0.3)
        )
        assert got < 1e-5

    def test_sampled_families(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            state, x, mu, nu, t, p = _evolution_config(rng, [0.0, 0.05, 0.3, 0.7], 1e-3)
            assert relative_residual(state, x, mu, nu, t, 1e-3, p) < 1e-5

    def test_step_guard(self):
        with pytest.raises(StepTooLarge):
            evolution_residual(Fock(1), 0.5, 1.0, 0.0, 1.0, 0.5, make_params(0.0))

    def test_step_guard_is_the_sampler_bound(self):
        # StepTooLarge and the check sampler read the same bound
        p = make_params(0.3)
        mu, nu, t = 0.8, -0.6, 2.0
        limit = _max_step(frame_scale_sq(mu, nu, t, p))
        evolution_residual(Fock(1), 0.1, mu, nu, t, limit, p)
        with pytest.raises(StepTooLarge):
            evolution_residual(Fock(1), 0.1, mu, nu, t, math.nextafter(limit, math.inf), p)
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, _, mu, nu, t, p = _evolution_config(rng, [0.0, 0.3, 0.7], 0.05)
            assert 0.05 <= _max_step(frame_scale_sq(mu, nu, t, p))

    def test_negative_times(self, capsys):
        # every closed form accepts t < 0, and so do the residuals: their
        # backward node t - h is one more time of the same closed form
        for t, gamma in itertools.product((-1.0, -0.0005), (0.0, 0.1, 0.5)):
            p = make_params(gamma)
            assert relative_residual(Fock(1), 0.5, 1.0, 0.0, t, 1e-3, p) < 1e-5
            assert relative_residual(Coherent(1.0 + 1.0j), 0.4, 1.1, 0.5, t, 1e-3, p) < 1e-5
            assert abs(evolution_residual_tprime(Fock(2), 0.3, 0.8, -0.6, t, 1e-3, p)) < 1e-5
        assert normalization(Fock(2), 0.8, -0.6, -1.0, make_params(0.1)) == pytest.approx(1.0, abs=1e-9)
        argv = ["tomogram", "--gamma", "0.1", "--t", "-1", "--state", "fock:1", "--mu", "1", "--nu", "0.5"]
        assert main([*argv, "--x-grid=-4:4:9"]) == 0
        assert capsys.readouterr().err == ""

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrame):
            evolution_residual(Fock(1), 0.5, 0.0, 0.0, 1.0, 1e-3, make_params(0.1))

    def test_mu_zero_frame(self):
        # the mu d/dnu term drops; the residual must still vanish
        got = relative_residual(Fock(0), 0.3, 0.0, 1.0, 1.0, 1e-3, make_params(0.05))
        assert got < 1e-6


class TestStencilCalls:
    def _count_tomograms(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return tomogram(*args)

        tomogram = evolution.tomogram
        monkeypatch.setattr(evolution, "tomogram", counted)
        return calls

    def test_terms_take_one_frame_broadcast_and_one_call_per_time(self, monkeypatch):
        calls = self._count_tomograms(monkeypatch)
        evolution_terms(Fock(1), 0.6, 0.9, -0.5, 1.0, 1e-3, make_params(0.05))
        # the (mu +- h, nu +- h) cross around w0, then t + h and t - h
        assert [np.size(call[1].mu) for call in calls] == [5, 1, 1]

    def test_relative_residual_reuses_the_broadcast_w0(self, monkeypatch):
        calls = self._count_tomograms(monkeypatch)
        relative_residual(Fock(1), 0.6, 0.9, -0.5, 1.0, 1e-3, make_params(0.05))
        # Richardson's rule: a 9-point cross, then t +- h and t +- h/2
        assert [np.size(call[1].mu) for call in calls] == [9, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "state, point, gamma",
        [
            (Fock(1), (0.7, 0.8, -0.6, 5.0), 0.0),
            (Fock(1), (0.7, 0.8, -0.6, 5.0), 0.05),
            (Coherent(1.0 + 1.0j), (0.4, 1.1, 0.5, 2.0), 0.3),
        ],
    )
    def test_relative_residual_order_four(self, state, point, gamma):
        hs = (2e-2, 1e-2, 5e-3)
        rs = [relative_residual(state, *point, h, make_params(gamma)) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(rs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_seed_17_passes(self):
        # the plain central difference failed evolution_residual_rel here
        # at 1.0e-4 against 1e-5: pure O(h**2) truncation
        results = run_checks("evolution", 17)
        assert [r.name for r in results if not r.passed] == []
        rel = next(r for r in results if r.name == "evolution_residual_rel")
        assert rel.value < 1e-7


class TestTPrimeForm:
    # the t'-form takes Richardson's rule, so it is compared with the
    # t-form residual on the same rule, as the tprime_consistency check does
    def test_consistency_with_chain_rule_form(self):
        p = make_params(0.05)
        for state in (Fock(1), Coherent(0.5 + 0.8j)):
            _, terms = evolution._terms(state, 0.6, 0.9, -0.5, 1.0, 1e-3, p, richardson=True)
            r_tp = evolution_residual_tprime(state, 0.6, 0.9, -0.5, 1.0, 1e-3, p)
            scale = max(1.0, *[abs(v) for v in terms])
            assert abs(sum(terms) - r_tp) / scale < 2e-5

    def test_gamma_zero_forms_identical(self):
        # at gamma = 0 both time coordinates coincide
        p = make_params(0.0)
        _, terms = evolution._terms(Fock(2), 0.4, 0.7, 0.6, 2.0, 1e-3, p, richardson=True)
        r_tp = evolution_residual_tprime(Fock(2), 0.4, 0.7, 0.6, 2.0, 1e-3, p)
        assert sum(terms) == pytest.approx(r_tp, abs=1e-14)

    def test_order_four(self):
        # the plain difference left 1.56e-5 against the 2e-5 tolerance on
        # seed 168 of tprime_consistency
        results = run_checks("evolution", 168)
        assert next(r for r in results if r.name == "tprime_consistency").value < 1e-9


class TestConvergence:
    def test_order_two_damped(self):
        report = convergence_study(
            Fock(1), (0.7, 0.8, -0.6, 5.0), (1e-2, 5e-3, 2.5e-3), make_params(0.05)
        )
        assert report.converged_order == pytest.approx(2.0, abs=0.3)
        assert report.step == 2.5e-3

    def test_order_two_frictionless(self):
        report = convergence_study(
            Fock(1), (0.7, 0.8, -0.6, 5.0), (1e-2, 5e-3, 2.5e-3), make_params(0.0)
        )
        assert report.converged_order == pytest.approx(2.0, abs=0.3)

    def test_needs_three_steps(self):
        with pytest.raises(DomainError):
            convergence_study(Fock(1), (0.7, 0.8, -0.6, 5.0), (1e-2, 5e-3), make_params(0.0))

    def test_needs_decreasing_steps(self):
        with pytest.raises(DomainError):
            convergence_study(
                Fock(1), (0.7, 0.8, -0.6, 5.0), (1e-3, 5e-3, 1e-2), make_params(0.0)
            )
