"""The CLI's argv matrix, run in-process through `main`: for every case the
exit code and the SHA-256 of stdout are pinned, and a refused request says
so in one stderr line.  A change to how the commands read their options
must leave every row as it is."""

import hashlib
import itertools
import re
import shlex
from pathlib import Path

import pytest

from cktomo.cli import main

ROOT = Path(__file__).resolve().parents[1]

_STATES = {"fock2": "fock:2", "coherent": "coherent:1.23456789,-0.000123456789", "bad_state": "fock:99"}
_FRAMES = {
    "mu_nu": ["--mu", "0.8", "--nu=-0.4"],
    "mu_only": ["--mu", "0.8"],
    "nu_only": ["--nu", "0.5"],
    "mu_nu_zero": ["--mu", "0", "--nu", "0"],
    "optical_phi": ["--optical", "--phi", "1.2"],
    "optical_phi_grid": ["--optical", "--phi-grid", "0:3:4"],
    "optical_phi_and_grid": ["--optical", "--phi", "1.2", "--phi-grid", "0:3:4"],
    "optical_alone": ["--optical"],
    "optical_mu_nu": ["--optical", "--phi", "1", "--mu", "1", "--nu", "0"],
    "phi_alone": ["--phi", "1.2"],
    "phi_grid_alone": ["--phi-grid", "0:3:4"],
    "optical_bad_phi_grid": ["--optical", "--phi-grid", "3:0:4"],
    "none": [],
}
_X_GRIDS = {
    "x_valid": ["--x-grid=-3:3:7"],
    "x_missing": [],
    "x_reversed": ["--x-grid=3:-3:7"],
    "x_overflow": ["--x-grid=-1e308:1e308:3"],
}
_Q_GRIDS = {
    "q_valid": ["--q-grid=-3:3:5"],
    "q_missing": [],
    "q_reversed": ["--q-grid=3:-3:5"],
    "q_overflow": ["--q-grid=-1e308:1e308:3"],
    "q_cap": ["--q-grid=-1:1:402"],  # 402 points: refused by a per-axis cap before the one value cap
}
_P_GRIDS = {
    "p_valid": ["--p-grid=-2:2:4"],
    "p_missing": [],
    "p_overflow": ["--p-grid=-1e308:1e308:3"],
}


def _cases():
    # gamma = 1.5 is refused by make_params (exit 3): it orders that check
    # against the grid, frame and cap checks
    for (sname, state), (fname, frame), (xname, xgrid) in itertools.product(
        _STATES.items(), _FRAMES.items(), _X_GRIDS.items()
    ):
        for gamma in ("0.1", "1.5") if sname == "fock2" else ("0.1",):
            argv = ["tomogram", "--gamma", gamma, "--t", "1.5", "--state", state, *frame, *xgrid]
            yield f"tomogram-g{gamma}-{sname}-{fname}-{xname}", argv
    for (sname, state), (qname, qgrid), (pname, pgrid) in itertools.product(
        _STATES.items(), _Q_GRIDS.items(), _P_GRIDS.items()
    ):
        for gamma in ("0.1", "1.5") if sname == "fock2" else ("0.1",):
            argv = ["wigner", "--gamma", gamma, "--t", "0.7", "--state", state, *qgrid, *pgrid]
            yield f"wigner-g{gamma}-{sname}-{qname}-{pname}", argv
    yield "tomogram-json", ["tomogram", "--state", "coherent:-2", "--optical", "--phi-grid", "0:1:3",
                            "--x-grid=-1:1:3", "--format", "json"]
    yield "tomogram-value-cap", ["tomogram", "--optical", "--phi-grid", "0:1:1001", "--x-grid=-1:1:1000"]
    yield "tomogram-gamma-1.5-value-cap", ["tomogram", "--gamma", "1.5", "--optical", "--phi-grid", "0:1:1001",
                                           "--x-grid=-1:1:1000"]
    yield "tomogram-grid-count", ["tomogram", "--mu", "1", "--nu", "0", "--x-grid=-1:1:1"]
    yield "tomogram-grid-text", ["tomogram", "--mu", "1", "--nu", "0", "--x-grid=-1:1"]
    yield "tomogram-seed", ["tomogram", "--mu", "1", "--nu", "0", "--x-grid=-1:1:3", "--seed", "3"]
    yield "wigner-json", ["wigner", "--state", "coherent:1,1", "--q-grid=-1:1:3", "--p-grid=-1:1:2",
                          "--format", "json"]
    yield "wigner-mu", ["wigner", "--mu", "1", "--q-grid=-1:1:3", "--p-grid=-1:1:3"]
    yield "figure1-json", ["figure1", "--format", "json"]
    yield "check-dynamics", ["check", "dynamics", "--seed", "3"]
    yield "check-bad-tol", ["check", "dynamics", "--tol", "nonsense=1"]
    yield "check-failed", ["check", "dynamics", "--tol", "ode_residual=1e-30"]


CASES = dict(_cases())

EMPTY = hashlib.sha256(b"").hexdigest()

# exit code and SHA-256 of stdout; a refused request writes nothing
EXPECTED: dict[str, tuple[int, str]] = {
    "check-bad-tol": (2, EMPTY),
    "check-dynamics": (0, "93258c235b4c22651fe65c4b7821bdcd57f9fc6176819e45d820c530c9be0623"),
    "check-failed": (1, "24813c060a326daa675831b2842e0c7d28e400620dd392e466a531ba73d3c0b4"),
    "figure1-json": (0, "400b36fe6502320d2e7650ceed11ebc1515def3295cf94822837c8fa38ea4e68"),
    "tomogram-g0.1-bad_state-mu_nu-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_nu-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_nu_zero-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_nu_zero-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_nu_zero-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_nu_zero-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_only-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_only-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_only-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-mu_only-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-none-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-none-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-none-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-none-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-nu_only-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-nu_only-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-nu_only-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-nu_only-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_bad_phi_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_bad_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_bad_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_bad_phi_grid-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_mu_nu-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_mu_nu-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_and_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_and_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_and_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_and_grid-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-optical_phi_grid-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_grid_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_grid_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_grid_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-bad_state-phi_grid_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_nu-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_nu-x_valid": (0, "38be11ed67b8eaf1a9b64b9374e6c78a695f32e60774d88ae525cb74f8c1a17b"),
    "tomogram-g0.1-coherent-mu_nu_zero-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_nu_zero-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_nu_zero-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_nu_zero-x_valid": (3, EMPTY),
    "tomogram-g0.1-coherent-mu_only-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_only-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_only-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-mu_only-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-none-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-none-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-none-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-none-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-nu_only-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-nu_only-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-nu_only-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-nu_only-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_bad_phi_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_bad_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_bad_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_bad_phi_grid-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_mu_nu-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_mu_nu-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi-x_valid": (0, "fcbff96a0793260432918fb662aef0d053bfc5cb90e61b8dcdd18ad0539b1f33"),
    "tomogram-g0.1-coherent-optical_phi_and_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi_and_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi_and_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi_and_grid-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-optical_phi_grid-x_valid": (0, "e63a62332da8f018eabb9304faff5b71d6294a867fa6df6e247d9299ffbcf057"),
    "tomogram-g0.1-coherent-phi_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-phi_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-phi_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-phi_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-coherent-phi_grid_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-coherent-phi_grid_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-coherent-phi_grid_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-coherent-phi_grid_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_nu-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_nu-x_valid": (0, "e256bea69745f5c11a590d6c19274b7b0ee66c53dd8d9774240f96d941d1cdf0"),
    "tomogram-g0.1-fock2-mu_nu_zero-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_nu_zero-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_nu_zero-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_nu_zero-x_valid": (3, EMPTY),
    "tomogram-g0.1-fock2-mu_only-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_only-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_only-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-mu_only-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-none-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-none-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-none-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-none-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-nu_only-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-nu_only-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-nu_only-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-nu_only-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_bad_phi_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_bad_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_bad_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_bad_phi_grid-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_mu_nu-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_mu_nu-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi-x_valid": (0, "eb44683f308f9b2e5c31e37814cadf2fa50ab83a66506102e280a0dbe7c9285f"),
    "tomogram-g0.1-fock2-optical_phi_and_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi_and_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi_and_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi_and_grid-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi_grid-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-optical_phi_grid-x_valid": (0, "7badae089f6e35c53a4a14f5fd48fd5c21408efe29ee545dac6d80a4c7116332"),
    "tomogram-g0.1-fock2-phi_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-phi_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-phi_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-phi_alone-x_valid": (2, EMPTY),
    "tomogram-g0.1-fock2-phi_grid_alone-x_missing": (2, EMPTY),
    "tomogram-g0.1-fock2-phi_grid_alone-x_overflow": (2, EMPTY),
    "tomogram-g0.1-fock2-phi_grid_alone-x_reversed": (2, EMPTY),
    "tomogram-g0.1-fock2-phi_grid_alone-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_nu-x_missing": (3, EMPTY),
    "tomogram-g1.5-fock2-mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_nu-x_valid": (3, EMPTY),
    "tomogram-g1.5-fock2-mu_nu_zero-x_missing": (3, EMPTY),
    "tomogram-g1.5-fock2-mu_nu_zero-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_nu_zero-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_nu_zero-x_valid": (3, EMPTY),
    "tomogram-g1.5-fock2-mu_only-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_only-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_only-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-mu_only-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-none-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-none-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-none-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-none-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-nu_only-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-nu_only-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-nu_only-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-nu_only-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_alone-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_alone-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_alone-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_alone-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_bad_phi_grid-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_bad_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_bad_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_bad_phi_grid-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_mu_nu-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_mu_nu-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_mu_nu-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_mu_nu-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi-x_missing": (3, EMPTY),
    "tomogram-g1.5-fock2-optical_phi-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi-x_valid": (3, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_and_grid-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_and_grid-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_and_grid-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_and_grid-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_grid-x_missing": (3, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_grid-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_grid-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-optical_phi_grid-x_valid": (3, EMPTY),
    "tomogram-g1.5-fock2-phi_alone-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-phi_alone-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-phi_alone-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-phi_alone-x_valid": (2, EMPTY),
    "tomogram-g1.5-fock2-phi_grid_alone-x_missing": (2, EMPTY),
    "tomogram-g1.5-fock2-phi_grid_alone-x_overflow": (2, EMPTY),
    "tomogram-g1.5-fock2-phi_grid_alone-x_reversed": (2, EMPTY),
    "tomogram-g1.5-fock2-phi_grid_alone-x_valid": (2, EMPTY),
    "tomogram-gamma-1.5-value-cap": (3, EMPTY),
    "tomogram-grid-count": (2, EMPTY),
    "tomogram-grid-text": (2, EMPTY),
    "tomogram-json": (0, "e42fb66bd8c1af6ce25947d7fb28491f9669ce0580bf5749b4c5bd9571cd4d0f"),
    "tomogram-seed": (2, EMPTY),
    "tomogram-value-cap": (2, EMPTY),
    "wigner-g0.1-bad_state-q_cap-p_missing": (2, EMPTY),
    "wigner-g0.1-bad_state-q_cap-p_overflow": (2, EMPTY),
    "wigner-g0.1-bad_state-q_cap-p_valid": (2, EMPTY),
    "wigner-g0.1-bad_state-q_missing-p_missing": (2, EMPTY),
    "wigner-g0.1-bad_state-q_missing-p_overflow": (2, EMPTY),
    "wigner-g0.1-bad_state-q_missing-p_valid": (2, EMPTY),
    "wigner-g0.1-bad_state-q_overflow-p_missing": (2, EMPTY),
    "wigner-g0.1-bad_state-q_overflow-p_overflow": (2, EMPTY),
    "wigner-g0.1-bad_state-q_overflow-p_valid": (2, EMPTY),
    "wigner-g0.1-bad_state-q_reversed-p_missing": (2, EMPTY),
    "wigner-g0.1-bad_state-q_reversed-p_overflow": (2, EMPTY),
    "wigner-g0.1-bad_state-q_reversed-p_valid": (2, EMPTY),
    "wigner-g0.1-bad_state-q_valid-p_missing": (2, EMPTY),
    "wigner-g0.1-bad_state-q_valid-p_overflow": (2, EMPTY),
    "wigner-g0.1-bad_state-q_valid-p_valid": (2, EMPTY),
    "wigner-g0.1-coherent-q_cap-p_missing": (2, EMPTY),
    "wigner-g0.1-coherent-q_cap-p_overflow": (2, EMPTY),
    "wigner-g0.1-coherent-q_cap-p_valid": (0, "f5e5c8966461840cbf629936adacff487d29cb2ca5d30b735e319b78ecd30d58"),
    "wigner-g0.1-coherent-q_missing-p_missing": (2, EMPTY),
    "wigner-g0.1-coherent-q_missing-p_overflow": (2, EMPTY),
    "wigner-g0.1-coherent-q_missing-p_valid": (2, EMPTY),
    "wigner-g0.1-coherent-q_overflow-p_missing": (2, EMPTY),
    "wigner-g0.1-coherent-q_overflow-p_overflow": (2, EMPTY),
    "wigner-g0.1-coherent-q_overflow-p_valid": (2, EMPTY),
    "wigner-g0.1-coherent-q_reversed-p_missing": (2, EMPTY),
    "wigner-g0.1-coherent-q_reversed-p_overflow": (2, EMPTY),
    "wigner-g0.1-coherent-q_reversed-p_valid": (2, EMPTY),
    "wigner-g0.1-coherent-q_valid-p_missing": (2, EMPTY),
    "wigner-g0.1-coherent-q_valid-p_overflow": (2, EMPTY),
    "wigner-g0.1-coherent-q_valid-p_valid": (0, "62cd81f2125f2d271b2dc3a58c322f90f1b3d84e950dd73e0ed80455dc0dc853"),
    "wigner-g0.1-fock2-q_cap-p_missing": (2, EMPTY),
    "wigner-g0.1-fock2-q_cap-p_overflow": (2, EMPTY),
    "wigner-g0.1-fock2-q_cap-p_valid": (0, "c47e51fee59d4a5ab6ba63c5192f91ab887f0d009fc3f817d3bf96190efa1f61"),
    "wigner-g0.1-fock2-q_missing-p_missing": (2, EMPTY),
    "wigner-g0.1-fock2-q_missing-p_overflow": (2, EMPTY),
    "wigner-g0.1-fock2-q_missing-p_valid": (2, EMPTY),
    "wigner-g0.1-fock2-q_overflow-p_missing": (2, EMPTY),
    "wigner-g0.1-fock2-q_overflow-p_overflow": (2, EMPTY),
    "wigner-g0.1-fock2-q_overflow-p_valid": (2, EMPTY),
    "wigner-g0.1-fock2-q_reversed-p_missing": (2, EMPTY),
    "wigner-g0.1-fock2-q_reversed-p_overflow": (2, EMPTY),
    "wigner-g0.1-fock2-q_reversed-p_valid": (2, EMPTY),
    "wigner-g0.1-fock2-q_valid-p_missing": (2, EMPTY),
    "wigner-g0.1-fock2-q_valid-p_overflow": (2, EMPTY),
    "wigner-g0.1-fock2-q_valid-p_valid": (0, "da67fd11c6d5c54cd8406b98b9dcac5c5ca1890f1c12857dc94a174976396358"),
    "wigner-g1.5-fock2-q_cap-p_missing": (3, EMPTY),
    "wigner-g1.5-fock2-q_cap-p_overflow": (2, EMPTY),
    "wigner-g1.5-fock2-q_cap-p_valid": (3, EMPTY),
    "wigner-g1.5-fock2-q_missing-p_missing": (3, EMPTY),
    "wigner-g1.5-fock2-q_missing-p_overflow": (2, EMPTY),
    "wigner-g1.5-fock2-q_missing-p_valid": (3, EMPTY),
    "wigner-g1.5-fock2-q_overflow-p_missing": (2, EMPTY),
    "wigner-g1.5-fock2-q_overflow-p_overflow": (2, EMPTY),
    "wigner-g1.5-fock2-q_overflow-p_valid": (2, EMPTY),
    "wigner-g1.5-fock2-q_reversed-p_missing": (2, EMPTY),
    "wigner-g1.5-fock2-q_reversed-p_overflow": (2, EMPTY),
    "wigner-g1.5-fock2-q_reversed-p_valid": (2, EMPTY),
    "wigner-g1.5-fock2-q_valid-p_missing": (3, EMPTY),
    "wigner-g1.5-fock2-q_valid-p_overflow": (2, EMPTY),
    "wigner-g1.5-fock2-q_valid-p_valid": (3, EMPTY),
    "wigner-json": (0, "6f3449cb1e22ed6cf8b5694b81828572e81d3d4cfb79b4a6ae684a24bbc4b328"),
    "wigner-mu": (2, EMPTY),
}


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses unknown options and bad choices
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", sorted(CASES))
def test_argv_matrix(case, capsys):
    code, out, err = _run(CASES[case], capsys)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == EXPECTED[case], err
    if code in (2, 3) and not err.startswith("usage:"):
        # one line; argparse's own refusals print the usage above it
        assert err.count("\n") == 1, err
        assert err.startswith("error:" if code == 2 else "numeric error:"), err
    if code in (2, 3):
        assert digest == EMPTY
    elif code == 0:
        assert err == ""


def test_matrix_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)


def _readme_commands():
    """Every `ck-tomo` line of the README's "Command line" block, with its
    backslash continuations joined and its comment dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```\n(.*?)^```", text, re.S | re.M).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in joined.splitlines() if line.startswith("ck-tomo ")]


def test_readme_commands_found():
    assert {argv[0] for argv in _readme_commands()} == {"tomogram", "wigner", "figure1", "check"}


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv))
def test_readme_command_runs(argv, tmp_path, capsys):
    # an --output goes to a file of the same name under tmp_path
    argv = [str(tmp_path / Path(a).name) if prev == "--output" else a for prev, a in zip([None, *argv], argv)]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    assert out or "--output" in argv
