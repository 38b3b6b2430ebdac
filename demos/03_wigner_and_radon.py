"""The Wigner function, its negativity, and the Radon-transform oracle.

The Wigner quasidistribution W(q, p) can go negative (so it is not a
probability), while its line integrals -- the tomograms -- are true
densities.  This script shows W for the first excited state (negative at
the origin), checks the closed-form W against W integrated from the wave
function, then checks the analytic tomograms against the oracle that
integrates W along the line mu q + nu p = X.

Run:  python demos/03_wigner_and_radon.py
"""

import math

import numpy as np

from cktomo import (
    Coherent,
    Fock,
    TomographyFrame,
    make_params,
    radon_tomogram,
    tomogram,
    wigner,
    wigner_moments,
)
from cktomo.checks import _wigner_quadrature

p0 = make_params(0.0)

print("Wigner function of |1> at t = 0 (negativity at the origin):")
qs = np.linspace(-2.0, 2.0, 9)
print("      " + "".join(f"q={q:6.1f} " for q in qs))
for pv in np.linspace(2.0, -2.0, 9):
    row = wigner(qs, np.full_like(qs, pv), 0.0, Fock(1), p0)
    print(f"p={pv:5.1f} " + "".join(f"{v:8.3f} " for v in row))
print(f"\nW(0, 0) = {wigner(0.0, 0.0, 0.0, Fock(1), p0):+.6f}   (a genuine quantum feature)")
print(f"ground-state peak W(0, 0) = {wigner(0.0, 0.0, 0.0, Fock(0), p0):+.6f}")

params = make_params(0.3)
t = 5.0
rng = np.random.default_rng(1)
print("\nClosed-form W against W integrated from psi, within 2 sigma of the mean:")
for state in (Fock(1), Fock(2), Coherent(1.0 + 0.5j)):
    mean, cov = wigner_moments(state, t, params)
    q, p = mean + np.sqrt(np.diag(cov)) * rng.uniform(-2.0, 2.0, size=2)
    closed, quad = wigner(q, p, t, state, params), _wigner_quadrature(q, p, t, state, params)
    print(f"  {str(state):26s} W = {closed:+.12f}   |diff| = {abs(closed - quad):.1e}")

print("\nRadon oracle: tomogram = (1 / 2 pi s) * line integral of W")
print("\n  state          X      mu      nu      analytic        via Wigner      |diff|")
for state in (Fock(1), Fock(2), Coherent(1.0 + 0.5j)):
    for _ in range(3):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        mu, nu = math.cos(angle), -math.sin(angle)
        x = rng.uniform(-1.0, 1.0)
        frame = TomographyFrame(x, mu, nu)
        wa = tomogram(state, frame, t, params)
        wr = radon_tomogram(state, frame, t, params)
        print(
            f"  {str(state):12s} {x:6.2f}  {mu:6.2f}  {nu:6.2f}  {wa:.12f}  {wr:.12f}  {abs(wa - wr):.1e}"
        )
print("\nAgreement near machine precision at both links: the wave functions,")
print("the Wigner functions and the analytic tomograms describe the same state.")
