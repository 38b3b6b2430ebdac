"""Symplectic tomography of the Caldirola-Kanai damped quantum oscillator.

Closed-form tomograms, Wigner and characteristic functions of coherent
and Fock states of the damped oscillator, their classical-like evolution
equation, and the number-operator invariants, each closed form checked
against a numerical oracle (W integrated from psi, Radon line integrals of
W, X-quadrature of the tomogram, finite differences and RK4).
"""

from importlib import import_module

from . import dynamics, errors, numerics, states, tomography
from .dynamics import *  # noqa: F403 -- each module's __all__ is its public surface
from .errors import *  # noqa: F403
from .numerics import *  # noqa: F403
from .states import *  # noqa: F403
from .tomography import *  # noqa: F403

__version__ = "0.1.0"

# evolution and invariants load on the first use of one of their names (PEP
# 562), so a grid command never compiles them; these tuples are their __all__
_LAZY = {
    "evolution": ("ResidualReport", "evolution_terms", "evolution_residual",
                  "evolution_residual_tprime", "relative_residual", "convergence_study"),
    "invariants": ("DualPoint", "characteristic", "tomogram_characteristic", "number_apply",
                   "number_apply_printed", "eigen_residual"),
}
__all__ = ["__version__"] + [
    name for module in (errors, dynamics, numerics, states, tomography) for name in module.__all__
] + [name for names in _LAZY.values() for name in names]


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
