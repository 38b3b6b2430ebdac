"""SHA-256 pins of the raw bytes of Fock wave functions, Fock tomograms,
Wigner grids and the Gauss-Legendre rule ladder, so a refactor of the
closed forms or of the rule builder that is meant to keep their bits is
proven to keep them."""

import hashlib

import numpy as np
import pytest

from cktomo import Coherent, Fock, TomographyFrame, fock_psi, fock_tomogram, make_params, numerics, optical_frame, wigner


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_Q = np.linspace(-6.0, 6.0, 241)


@pytest.mark.parametrize(
    "gamma, t, pin",
    [
        (0.0, 0.7, "2b78dd119530ccb382f1eaf1fa3e69e644c97181175551afc511c1844e42b7df"),
        (0.3, 2.0, "7788bb40f2b1b8ba41d4d0152bc8a51f0eddd698f27936e69f4cf193ff9094bd"),
        (0.9, 1.5, "b6a92e85995c1f2f497befb8d73d0237663055f3c66f058da23621a6a3943b3a"),
    ],
)
def test_fock_psi_bits(gamma, t, pin):
    p = make_params(gamma)
    assert _digest(fock_psi(_Q, t, n, p) for n in range(17)) == pin


def test_fock_tomogram_bits():
    mu, nu = optical_frame(np.linspace(0.0, 2.0 * np.pi, 24))
    frame = TomographyFrame(np.linspace(-6.0, 6.0, 101)[None, :], mu[:, None], nu[:, None])
    p = make_params(0.05)
    assert _digest(fock_tomogram(frame, 5.0, n, p) for n in range(1, 17)) == (
        "4e4623cfe3fcd6f9142658980108a334a946e6297973e0bc6f77a6d7022805a5"
    )


@pytest.mark.parametrize(
    "state, pin",
    [
        (Fock(5), "4b2ef7f026c8b1e524689da8480685d95c829d22394ef95725468f81d21cfe11"),
        (Coherent(1.3 - 0.4j), "4f761580d446065103452590417756f44a9b24cc19a89e72b39864f12ca0ebf3"),
    ],
)
def test_wigner_grid_bits(state, pin):
    qs = np.linspace(-5.0, 5.0, 61)
    ps = np.linspace(-4.5, 4.0, 57)
    w = wigner(qs[:, None], ps[None, :], 2.0, state, make_params(0.2))
    assert _digest([w]) == pin


def test_gauss_legendre_rung_bits():
    # every rung 16, 20, 24, 28, 32, 40, ..., 2048 the library's quadratures
    # can ask for, nodes then weights, built afresh (not from the rule cache)
    rungs = sorted({numerics._rung(n) for n in range(16, numerics._MAX_RULE_POINTS + 1)})
    assert len(rungs) == 29
    rules = (numerics._gauss_legendre.__wrapped__(n) for n in rungs)
    assert _digest(a for rule in rules for a in rule) == (
        "90a834d31b219aefa56e8f068b6d8cd8905e69ad869c454028166af379c1fddc"
    )
