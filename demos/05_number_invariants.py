"""Number-operator invariants: Fock tomograms as eigenfunctions.

The damped oscillator has a time-dependent number invariant N(t) whose
action on the Fock tomogram w_n returns n * w_n at every instant -- the
quantum numbers survive the friction.  The check runs in the Fourier-dual
representation where the awkward (d/dX)^{-2} becomes division by -k^2,
and the characteristic function w~_n itself is a closed form.

The published transcription of these operators contains defects (a missing
1/4, a missing e^{4 gamma t}, sign slips in the conjugate form); the
library ships the operator re-derived from the underlying invariant
A(t) = (i/sqrt 2)(eps p - eps' e^{2 gamma t} q) and keeps the verbatim
printed form available for comparison.

Run:  python demos/05_number_invariants.py
"""

import math

import numpy as np

from cktomo import (
    DualPoint,
    Fock,
    make_params,
    characteristic,
    number_apply,
    number_apply_printed,
)

rng = np.random.default_rng(3)
h = 1e-3

print("Eigenvalue check  N w~_n = n w~_n  at random dual points:\n")
print("  n  gamma   t     k      (mu, nu)          direct residual   conjugate residual")
for n in (0, 1, 2):
    for gamma, t in ((0.0, 0.0), (0.05, 5.0), (0.3, 2.0)):
        params = make_params(gamma)
        k = rng.uniform(0.3, 1.8)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        mu, nu = math.cos(angle), -math.sin(angle)
        point = DualPoint(k=k, mu=mu, nu=nu, t=t)
        w = characteristic(Fock(n), k, mu, nu, t, params)
        res = {
            variant: abs(number_apply(variant, Fock(n), point, h, params) - n * w)
            / max(abs(w), 1e-3)
            for variant in ("direct", "conjugate")
        }
        print(
            f"  {n}  {gamma:5.2f} {t:4.1f}  {k:5.2f}  ({mu:6.2f}, {nu:6.2f})"
            f"   {res['direct']:.2e}          {res['conjugate']:.2e}"
        )

print("\nVerbatim printed operator at the same kind of point (diagnostic):")
params = make_params(0.0)
point = DualPoint(k=1.0, mu=1.0, nu=0.5, t=0.0)
w = characteristic(Fock(1), 1.0, 1.0, 0.5, 0.0, params)
for variant in ("direct", "conjugate"):
    bad = number_apply_printed(variant, Fock(1), point, h, params)
    print(f"  printed {variant:9s}: relative residual = {abs(bad - w) / abs(w):.6f}")
print("\nThe printed forms miss the eigenvalue by O(1) even without damping;")
print("the derived operators hold it to ~1e-8.")
