"""Symplectic tomography of the Caldirola-Kanai damped quantum oscillator.

Closed-form quadrature distributions (tomograms) for coherent and Fock
states of the damped oscillator, their classical-like evolution equation,
and the number-operator invariants, each cross-checked against independent
numerical oracles (Wigner-function Radon transforms, quadrature, and
finite differences).
"""

from . import dynamics, errors, evolution, invariants, numerics, states, tomography
from .dynamics import *  # noqa: F403 -- each module's __all__ is its public surface
from .errors import *  # noqa: F403
from .evolution import *  # noqa: F403
from .invariants import *  # noqa: F403
from .numerics import *  # noqa: F403
from .states import *  # noqa: F403
from .tomography import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, dynamics, numerics, states, tomography, evolution, invariants)
    for name in module.__all__
]
