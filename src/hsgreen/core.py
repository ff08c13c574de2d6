"""Shared domain types and the space-time decay envelopes.

The model has four physical constants: sound speed ``c``, viscosity ``nu``,
and the boundary coefficients ``(a1, a2)`` of the Robin condition
``a1 * dm/dx + a2 * m = 0`` at ``x = 0``.  Everything else in the package is
parameterized by a :class:`ModelParams` instance.

The envelope functions ``theta_envelope`` / ``psi_envelope`` / ``a0_profile``
are the Gaussian and algebraic space-time profiles used by the verification
harnesses as right-hand sides of pointwise bounds.  They use ``t + 1``
throughout so that they stay finite at ``t = 0``.
"""

from __future__ import annotations

import enum
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


class BoundaryClass(enum.Enum):
    """Exhaustive classification of the Robin coefficients (a1, a2)."""

    DIRICHLET = "dirichlet"          # a1 == 0: m(0, t) = 0
    NEUMANN = "neumann"              # a2 == 0: dm/dx(0, t) = 0
    MIXED_STABLE = "mixed_stable"    # a1 * a2 < 0
    MIXED_UNSTABLE = "mixed_unstable"  # a1 * a2 > 0: boundary-driven growth


def classify_boundary(a1: float, a2: float) -> BoundaryClass:
    """Map valid (a1, a2) to exactly one :class:`BoundaryClass`."""
    if a1 == 0.0 and a2 == 0.0:
        raise ParameterError("(a1, a2) = (0, 0) does not define a boundary condition")
    if a1 == 0.0:
        return BoundaryClass.DIRICHLET
    if a2 == 0.0:
        return BoundaryClass.NEUMANN
    if a1 * a2 < 0.0:
        return BoundaryClass.MIXED_STABLE
    return BoundaryClass.MIXED_UNSTABLE


@dataclass(frozen=True)
class ModelParams:
    """Physical and boundary constants.

    c:  sound speed (> 0)
    nu: viscosity (> 0)
    a1, a2: Robin boundary coefficients, not both zero (all four finite).
    """

    c: float = 1.0
    nu: float = 1.0
    a1: float = -1.0
    a2: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.c, self.nu, self.a1, self.a2))):
            raise ParameterError(f"model constants must be finite, got {self}")
        if not (self.c > 0.0):
            raise ParameterError(f"sound speed must be positive, got c={self.c}")
        if not (self.nu > 0.0):
            raise ParameterError(f"viscosity must be positive, got nu={self.nu}")
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise ParameterError("(a1, a2) must not both vanish")

    @property
    def boundary_class(self) -> BoundaryClass:
        return classify_boundary(self.a1, self.a2)

    @property
    def gamma(self) -> float:
        """Boundary decay rate -a2/a1; defined only for a1 != 0."""
        if self.a1 == 0.0:
            raise ParameterError("gamma = -a2/a1 is undefined for a1 = 0 (Dirichlet)")
        return -self.a2 / self.a1


# 2x2 real matrices are plain numpy arrays of shape (2, 2); the alias is for
# signature readability only.
Matrix2 = np.ndarray


@dataclass
class KernelValue:
    """Value of a matrix kernel: a smooth 2x2 density plus Dirac terms.

    ``deltas`` is a list of (location, weight-matrix) pairs with distinct
    locations.  Evaluators for interior points of the quarter-plane drop any
    delta that cannot fire there (e.g. the image delta at x = -y).
    """

    smooth: Matrix2
    deltas: list[tuple[float, Matrix2]] = field(default_factory=list)

    def __post_init__(self):
        locs = [loc for loc, _ in self.deltas]
        if len(set(locs)) != len(locs):
            raise ParameterError(f"delta locations must be distinct, got {locs}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform node grid on [0, L] with nx cells (nx + 1 nodes)."""

    L: float
    nx: int

    def __post_init__(self):
        if not (self.L > 0.0 and self.nx >= 4):
            raise ParameterError(f"need L > 0 and nx >= 4, got L={self.L}, nx={self.nx}")

    @property
    def dx(self) -> float:
        return self.L / self.nx

    @property
    def n_nodes(self) -> int:
        return self.nx + 1

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx + 1)


@dataclass
class FieldState:
    """Discrete (rho, m) pair on the grid nodes at one time.

    ``rho`` stores the full density (background 1 plus perturbation), so the
    constant state is (rho, m) = (1, 0).
    """

    t: float
    rho: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        if self.rho.shape != self.m.shape:
            raise ParameterError("rho and m must have equal shapes")


def wall_relation(m: np.ndarray, dx: float, params: ModelParams) -> float:
    """Signed one-sided Robin relation a1 (-3 m0 + 4 m1 - m2)/(2 dx) + a2 m0 at x = 0."""
    return float(params.a1 * (-3.0 * m[0] + 4.0 * m[1] - m[2]) / (2.0 * dx) + params.a2 * m[0])


@dataclass
class Trajectory:
    """Time-ordered sequence of field states plus per-snapshot diagnostics."""

    grid: Grid1D
    params: ModelParams
    states: list[FieldState] = field(default_factory=list)
    # Solver work counters: steps, explicit RHS evaluations, implicit solves,
    # factorizations, each snapshot segment's dt with the limit that set it,
    # and for nonlinear runs the minimum density.  Not written to manifests.
    stats: dict = field(default_factory=dict)

    def append(self, state: FieldState) -> None:
        if self.states and state.t <= self.states[-1].t:
            raise ParameterError("snapshot times must be strictly increasing")
        self.states.append(state)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def boundary_residual(self) -> list[float]:
        """|wall_relation| of each stored snapshot: the ghost node enforces the
        centered relation, so a wrong wall closure shows in this one-sided one."""
        return [abs(wall_relation(s.m, self.grid.dx, self.params)) for s in self.states]


@dataclass(frozen=True)
class BoundEnvelope:
    """Constants of a pointwise-bound right-hand side
    (``verify.pointwise_envelope``).  The direct Gaussians have variance
    2*nu t, fixed by the model, so only the reflected one is widened.

    bigC: exponential-tail constant (the C of exp(-(|x| + t)/C) terms)
    eps:  widening of the reflected-Gaussian variance (2*nu + eps)
    """

    bigC: float = 10.0
    eps: float = 0.5

    def __post_init__(self):
        if not (self.bigC > 0 and self.eps > 0):
            raise ParameterError("bigC and eps must be positive")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write a CSV table, creating its directory.  Numbers are written with 17
    significant digits (they read back bit-exact), strings as they are and
    None as an empty cell."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                "" if v is None else v if isinstance(v, str) else f"{v:.17g}" for v in row
            ) + "\n")
    return path


def theta_envelope(x, t, lam: float, D: float, alpha: float):
    """Gaussian space-time profile (t+1)^(-alpha/2) exp(-[x-lam(t+1)]^2/(D(t+1))).

    Accepts scalar or array x, t.
    """
    if np.any(np.asarray(D) <= 0.0):
        raise ParameterError(f"Gaussian width D must be positive, got {D}")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    tp = t + 1.0
    val = tp ** (-alpha / 2.0) * np.exp(-((x - lam * tp) ** 2) / (D * tp))
    return val if val.ndim else float(val)


def psi_envelope(x, t, mu: float, alpha: float):
    """Algebraic profile (sqrt(t+1) + |x - mu(t+1)|)^(-alpha).

    alpha may be negative (the reciprocal profile); callers use that to check
    the identity psi^a * psi^(-a) = 1.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    tp = t + 1.0
    val = (np.sqrt(tp) + np.abs(x - mu * tp)) ** (-alpha)
    return val if val.ndim else float(val)


def a0_profile(x, t, c: float):
    """Two-wave algebraic envelope psi^1(x,t;c) + psi^1(x,t;-c)."""
    if c <= 0.0:
        raise ParameterError(f"sound speed must be positive, got {c}")
    return psi_envelope(x, t, c, 1.0) + psi_envelope(x, t, -c, 1.0)

