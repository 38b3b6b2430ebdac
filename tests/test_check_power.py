"""The check suite's power: each planted one-line physics slip, written into
its own copy of the package, must FAIL the named `check` lines on seeds 0, 1
and 2.  `TestNaNFails` shows that a NaN fails; this shows that a wrong
finite value does too.  The table is the (defect x line) matrix of the
README: a defect's lines are exactly those that FAIL on all three seeds."""

import importlib
import shutil
import sys
from pathlib import Path

import pytest

import cktomo

SRC = Path(cktomo.__file__).resolve().parent
SEEDS = (0, 1, 2)

# name: (module, the line as written, the slip, the lines that FAIL on every seed)
DEFECTS = {
    "wigner_no_parity_sign": (
        "states", "out *= 2.0 * (-1.0) ** state.n", "out *= 2.0",
        {"radon_vs_fock", "wigner_ground_value", "wigner_marginal"},
    ),
    "wigner_laguerre_r2": (
        "states", "_laguerre(state.n, 2.0 * r2)", "_laguerre(state.n, r2)",
        {"radon_vs_fock", "wigner_ground_value", "wigner_marginal"},
    ),
    "psi_hermite_plus_qbar": (
        "states", "hermite_gauss(n, (q - qbar) / scale)", "hermite_gauss(n, (q + qbar) / scale)",
        {"coherent_first_moment", "psi_gaussian_moments", "wigner_ground_value"},
    ),
    "psi_phase_sign": (
        "states", "-0.5 * params.gamma * es.e2", "0.5 * params.gamma * es.e2",
        {"coherent_first_moment", "wigner_ground_value"},
    ),
    "pbar_no_e2": (
        "states", "return qbar, _SQRT2 * es.e2 * (", "return qbar, _SQRT2 * (",
        {"coherent_first_moment", "evolution_convergence", "evolution_residual_rel", "wigner_ground_value"},
    ),
    "tomogram_scaled": (
        "tomography", "out /= root\n", "out /= root / (1.0 + 1e-9)\n",
        {"gamma0_reduction", "normalization_families"},
    ),
    "tomogram_over_s2": (
        "tomography", "out /= root\n", "out /= root * root\n",
        {"characteristic_bound", "characteristic_gaussian", "characteristic_unit_k0", "coherent_first_moment",
         "dual_homogeneity", "gamma0_reduction", "homogeneity", "normalization_families",
         "radon_ground_closed_form", "radon_vs_coherent", "radon_vs_fock", "second_moment"},
    ),
    "ybar_minus_nu": (
        "tomography", "(frame.mu * qbar + frame.nu * pbar) / root", "(frame.mu * qbar - frame.nu * pbar) / root",
        {"characteristic_gaussian", "coherent_first_moment", "evolution_convergence",
         "evolution_residual_rel", "gamma0_reduction", "normalization_families", "radon_vs_coherent"},
    ),
    "frame_a_minus_mu": (
        "dynamics", "es.ce.real / es.ee + mu", "es.ce.real / es.ee - mu",
        {"eigen_n0", "eigen_n1", "eigen_n2", "evolution_convergence", "evolution_residual_rel",
         "frame_coeffs_gamma0", "frame_coeffs_t0", "radon_vs_coherent", "radon_vs_fock", "variant_agreement"},
    ),
    "s2_b_times_ee": (
        "dynamics", "b = nu / es.ee", "b = nu * es.ee",
        {"eigen_n0", "eigen_n1", "eigen_n2", "evolution_convergence", "evolution_residual_rel",
         "frame_coeffs_t0", "radon_vs_coherent", "radon_vs_fock", "variant_agreement", "wigner_marginal"},
    ),
    "eps_conjugate": (
        "dynamics", "complex(math.cos(om * t), math.sin(om * t))", "complex(math.cos(om * t), -math.sin(om * t))",
        {"closed_vs_ode_rk4", "evolution_convergence", "evolution_residual_rel", "gamma0_reduction"},
    ),
    "eps_dot_scaled": (
        "dynamics", "eps_dot = complex(-g, om) * eps", "eps_dot = complex(-g, om) * eps * (1.0 + 1e-8)",
        {"frame_coeffs_t0", "gamma0_reduction", "initial_conditions", "ode_residual", "wigner_ground_value",
         "wronskian"},
    ),
    "time_forward_newton": (
        "dynamics", "* math.exp(-y)", "* math.exp(y)",
        {"time_monotone", "time_roundtrip"},
    ),
    "time_backward_rate": (
        "dynamics", "return -math.log1p(-x) / (2.0 * gamma)", "return -math.log1p(-x) / gamma",
        {"time_monotone", "time_roundtrip", "tprime_consistency"},
    ),
    "laguerre_recurrence": (
        "numerics", "(2 * k + 1 - x) * lag", "(2 * k - x) * lag",
        {"characteristic_gaussian", "eigen_n2", "radon_vs_fock", "wigner_ground_value"},
    ),
    "hermite_recurrence_sign": (
        "numerics", "* xa * phi - _PHI_B[k] * phi_prev", "* xa * phi + _PHI_B[k] * phi_prev",
        {"characteristic_bound", "characteristic_gaussian", "gamma0_reduction", "hermite_orthonormality",
         "hermite_recurrence", "normalization_families", "psi_normalization", "radon_vs_fock",
         "wigner_ground_value"},
    ),
    "number_multiplier": (
        "invariants", "mult = (k * k / 4.0)", "mult = (k * k / 2.0)",
        {"eigen_n0", "eigen_n1", "eigen_n2"},
    ),
    "characteristic_quarter_to_half": (
        "invariants", "- 0.25 * kappa2)", "- 0.5 * kappa2)",
        {"characteristic_gaussian", "eigen_n0", "eigen_n1", "eigen_n2"},
    ),
    "stencil_mixed_weight": (
        "invariants", "complex(0.25 * (d2[2] - d2[3]))", "complex(0.5 * (d2[2] - d2[3]))",
        {"eigen_n0", "eigen_n1", "eigen_n2"},
    ),
}


def _failing(tmp_path, name, module, line, slip):
    """The lines that FAIL on each seed, run by a copy of the package under
    the name `name` with `line` of `module` replaced by `slip`."""
    package = tmp_path / name
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / f"{module}.py"
    text = path.read_text()
    assert text.count(line) == 1, f"{module}.py no longer holds {line!r} once"
    path.write_text(text.replace(line, slip))
    sys.path.insert(0, str(tmp_path))
    importlib.invalidate_caches()
    try:
        checks = importlib.import_module(f"{name}.checks")
        return [{r.name for r in checks.run_checks("all", seed) if not r.passed} for seed in SEEDS]
    finally:
        sys.path.remove(str(tmp_path))
        for key in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
            del sys.modules[key]


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_fails_its_lines(defect, tmp_path):
    module, line, slip, lines = DEFECTS[defect]
    failing = _failing(tmp_path, f"cktomo_{defect}", module, line, slip)
    assert set.intersection(*failing) == lines

