"""Half-line Green's function toolkit for linearized viscous acoustics.

Modules:
    core        shared types, envelope profiles
    spectral    transform-space objects (dispersion, Laplace/Fourier symbols)
    kernels     closed-form leading-order physical-space kernels
    transforms  numerical inverse Fourier/Laplace oracles
    solver      finite-difference solvers for the linear and nonlinear systems
    verify      quantitative verification harnesses
    cli         command-line front end
"""

from .core import (
    BoundaryClass,
    FieldState,
    Grid1D,
    KernelValue,
    ModelParams,
    Trajectory,
    a0_profile,
    classify_boundary,
    psi_envelope,
    theta_envelope,
)

__all__ = [
    "BoundaryClass",
    "FieldState",
    "Grid1D",
    "KernelValue",
    "ModelParams",
    "Trajectory",
    "a0_profile",
    "classify_boundary",
    "psi_envelope",
    "theta_envelope",
]

__version__ = "0.1.0"
