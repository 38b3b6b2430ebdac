"""Mode function of the damped oscillator: closed form, conserved
quantities, and the reparameterized time.

The complex mode function eps(t) solves eps'' + 2 gamma eps' + eps = 0 and
drives every time-dependent formula in the library.  This script shows the
exp(-gamma t) spiral it traces, the conservation of the Wronskian-type
combination exp(2 gamma t) Im(eps* eps'), and the saturating map t -> t'.

Run:  python demos/01_mode_function.py
"""

import numpy as np

from cktomo import epsilon, epsilon_residual, make_params, time_backward, time_forward

gamma = 0.2
params = make_params(gamma)
print(f"gamma = {gamma},  Omega = sqrt(1 - gamma^2) = {params.omega_reduced:.12f}")

# The trajectory spirals into the origin at rate gamma while rotating at
# the reduced frequency Omega.
print("\n   t      Re eps     Im eps     |eps|       e^{2gt} Im(eps* eps')   ODE residual")
for t in np.linspace(0.0, 12.0, 9):
    es = epsilon(t, params)
    wronskian = es.e2 * es.ce.imag  # e^{2 gamma t} Im(eps* eps')
    res = epsilon_residual(t, params)
    print(
        f"{t:6.2f}  {es.eps.real:9.5f}  {es.eps.imag:9.5f}  {abs(es.eps):9.5f}"
        f"   {wronskian:22.15f}   {res:.2e}"
    )
print("\nThe last-but-one column is conserved (= 1) to machine precision:")
print("it is the quantum-mechanical normalization surviving the friction.")

# The reparameterized time t' compresses the infinite physical-time axis
# into the finite interval [0, 1/(2 gamma)).
horizon = 1.0 / (2.0 * gamma)
print(f"\nTime reparameterization (horizon 1/(2 gamma) = {horizon}):")
for t in (0.5, 2.0, 5.0, 15.0):
    tp = time_forward(t, gamma)
    back = time_backward(tp, gamma)
    print(f"  t = {t:5.1f}  ->  t' = {tp:8.5f}  ->  back to t = {back:.10f}")
print("\nThe forward map saturates exponentially, so late physical times")
print("crowd against the horizon; the round trip is still exact.")
