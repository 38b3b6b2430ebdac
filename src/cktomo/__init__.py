"""Symplectic tomography of the Caldirola-Kanai damped quantum oscillator.

Closed-form quadrature distributions (tomograms) for coherent and Fock
states of the damped oscillator, their classical-like evolution equation,
and the number-operator invariants, each cross-checked against independent
numerical oracles (Wigner-function Radon transforms, quadrature, and
finite differences).
"""

from .dynamics import (
    DampingParams,
    EpsilonState,
    FrameCoeffs,
    epsilon,
    epsilon_residual,
    frame_coeffs,
    make_params,
    time_backward,
    time_forward,
)
from .errors import (
    CkTomoError,
    DegenerateFrame,
    DomainError,
    KTooSmall,
    NonFinite,
    StepTooLarge,
)
from .evolution import (
    ResidualReport,
    convergence_study,
    evolution_residual,
    evolution_residual_tprime,
    evolution_terms,
    relative_residual,
)
from .invariants import (
    DualPoint,
    eigen_residual,
    number_apply,
    number_apply_printed,
    tomogram_characteristic,
)
from .numerics import (
    Axis,
    QuadratureSpec,
    ScalarGrid,
    central_diff,
    hermite,
    hermite_gauss,
    integrate,
)
from .states import Coherent, Fock, QuantumState, coherent_psi, fock_psi, psi, wigner, wigner_moments
from .tomography import (
    TomographyFrame,
    coherent_tomogram,
    fock_tomogram,
    frame_scale_sq,
    ground_tomogram,
    normalization,
    optical_frame,
    radon_tomogram,
    tomogram,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CkTomoError",
    "DomainError",
    "DegenerateFrame",
    "NonFinite",
    "KTooSmall",
    "StepTooLarge",
    # dynamics
    "DampingParams",
    "EpsilonState",
    "FrameCoeffs",
    "make_params",
    "epsilon",
    "epsilon_residual",
    "time_forward",
    "time_backward",
    "frame_coeffs",
    # numerics
    "QuadratureSpec",
    "Axis",
    "ScalarGrid",
    "hermite",
    "hermite_gauss",
    "integrate",
    "central_diff",
    # states
    "Coherent",
    "Fock",
    "QuantumState",
    "coherent_psi",
    "fock_psi",
    "psi",
    "wigner",
    "wigner_moments",
    # tomography
    "TomographyFrame",
    "optical_frame",
    "ground_tomogram",
    "fock_tomogram",
    "coherent_tomogram",
    "tomogram",
    "normalization",
    "radon_tomogram",
    "frame_scale_sq",
    # evolution
    "ResidualReport",
    "evolution_terms",
    "evolution_residual",
    "evolution_residual_tprime",
    "relative_residual",
    "convergence_study",
    # invariants
    "DualPoint",
    "tomogram_characteristic",
    "number_apply",
    "number_apply_printed",
    "eigen_residual",
]
