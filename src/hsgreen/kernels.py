"""Closed-form leading-order kernels in physical space.

The long-time shape of the fundamental solution is a pair of heat kernels
drifting at the two sound speeds, weighted by the acoustic eigenprojections
of the flux matrix; the boundary adds a reflected kernel built from an
exponentially weighted Gaussian moment (``e_function``) that is evaluated
through the scaled complementary error function to avoid overflow.

Normalization: matching the exact Fourier-space mass F[G]_11(0, t) = 1 and
the small-wavenumber expansion forces the heat-kernel prefactor
1/sqrt(2 pi nu t) per acoustic family; the 1/sqrt(2 pi) is baked into all
evaluators here.

Projection pairing: the right-moving Gaussian (ridge x = +ct) carries
P+ = (I + A/c)/2 and the left-moving one carries P- = (I - A/c)/2.  This is
the pairing forced by the Fourier-space solution (the right-moving wave has
m = +c rho) and is cross-checked against the inversion oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryClass, KernelValue, Matrix2, ModelParams
from .errors import ParameterError, UsageError
from .spectral import refuse_unstable


def erfcx(z):
    """Scaled complementary error function exp(z^2) * erfc(z).

    Thin wrapper so all kernel code shares one robust primitive; accuracy is
    pinned against a high-precision oracle in the test suite.  scipy.special
    is imported here, on first use, so that importing hsgreen (and the CLI)
    does not pay its load time and memory.
    """
    import scipy.special

    return scipy.special.erfcx(z)


@dataclass(frozen=True)
class EFunctionArgs:
    """Arguments of the exponentially weighted Gaussian moment.

    E(x, t; lam, d0) = int_0^inf exp(-gamma z) exp(-(x + z - lam t)^2/(d0 t)) dz
    """

    x: float
    t: float
    lam: float
    d0: float
    gamma: float

    def __post_init__(self):
        if not (self.t > 0.0):
            raise ParameterError(f"need t > 0, got t={self.t}")
        if not (self.d0 > 0.0):
            raise ParameterError(f"need d0 > 0, got d0={self.d0}")
        if not (self.gamma > 0.0):
            raise ParameterError(f"need gamma > 0, got gamma={self.gamma}")


def _e_values(x, t: float, lam: float, d0: float, gamma: float):
    """Vectorized overflow-free closed form of the weighted Gaussian moment.

    E = (sqrt(pi d0 t)/2) erfcx(w) exp(-(x - lam t)^2/(d0 t)),
    w = (x - lam t + gamma d0 t / 2) / sqrt(d0 t).

    The exponents combine exactly: gamma(x - lam t) + gamma^2 d0 t/4 - w^2
    = -(x - lam t)^2/(d0 t), so no factor exceeds unit scale for w >= 0.
    Deep left of the drift ray (w strongly negative) erfcx(w) itself
    overflows, so the reflected form

        E = (sqrt(pi d0 t)/2) [2 e^{gamma u + gamma^2 d0 t / 4}
                               - erfcx(-w) e^{-u^2/(d0 t)}]

    is used there; its leading exponent is negative in that regime.
    """
    x = np.asarray(x, dtype=float)
    u = x - lam * t
    root = math.sqrt(d0 * t)
    w = (u + 0.5 * gamma * d0 * t) / root
    pref = 0.5 * math.sqrt(math.pi) * root
    gauss = np.exp(-(u * u) / (d0 * t))
    left = w <= -1.0
    # One erfcx per point: erfcx(w) on the right, erfcx(-w) on the left.
    scaled = erfcx(np.where(left, -w, w)) * gauss
    exponent = np.where(left, gamma * u + 0.25 * gamma**2 * d0 * t, -1.0)
    val = pref * np.where(left, 2.0 * np.exp(exponent) - scaled, scaled)
    return val if val.ndim else float(val)


def e_function(args: EFunctionArgs) -> float:
    """Closed-form value of the weighted Gaussian moment (strictly positive)."""
    return float(_e_values(args.x, args.t, args.lam, args.d0, args.gamma))


def e_function_dx(args: EFunctionArgs) -> float:
    """Exact x-derivative gamma*E - exp(-(x - lam t)^2/(d0 t))
    (integration by parts in the defining integral)."""
    u = args.x - args.lam * args.t
    return args.gamma * e_function(args) - math.exp(-(u * u) / (args.d0 * args.t))


def e_bound_check(args: EFunctionArgs, eps: float, bigC: float, k: int = 0) -> float:
    """Ratio of |d^k E / dx^k| to its two-term decay envelope

        t^(-k/2) exp(-(x - lam t)^2 / ((d0 + eps) t)) + exp(-(|x| + t)/bigC)

    for k in {0, 1}.  Harnesses assert the sup of this ratio over a refining
    grid stabilizes.
    """
    if not (eps > 0.0 and bigC > 0.0):
        raise ParameterError("need eps > 0 and bigC > 0")
    if k not in (0, 1):
        raise ParameterError(f"derivative order k must be 0 or 1, got {k}")
    num = e_function(args) if k == 0 else abs(e_function_dx(args))
    u = args.x - args.lam * args.t
    env = args.t ** (-k / 2.0) * math.exp(-(u * u) / ((args.d0 + eps) * args.t))
    env += math.exp(-(abs(args.x) + args.t) / bigC)
    return num / env


def acoustic_projection(sign: int, params: ModelParams) -> Matrix2:
    """Eigenprojection (I + sign * A/c)/2 of the flux matrix A = [[0,1],[c^2,0]].

    A P_sign = sign * c * P_sign; the two projections are complementary.
    """
    if sign not in (+1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    c = params.c
    return np.array([[0.5, sign * 0.5 / c], [sign * 0.5 * c, 0.5]])


def singular_weight(t: float, params: ModelParams) -> float:
    """Decay factor exp(-c^2 t/nu) of the persistent delta in the (1,1) slot."""
    return math.exp(-params.c**2 * t / params.nu)


def _leading_smooth(x, t: float, params: ModelParams) -> np.ndarray:
    """Two-wave heat-kernel approximation of the smooth fundamental solution.

    Vectorized over x; returns shape x.shape + (2, 2).
    """
    x = np.asarray(x, dtype=float)
    c, nu = params.c, params.nu
    pref = 1.0 / math.sqrt(2.0 * math.pi * nu * t)
    gp = pref * np.exp(-((x - c * t) ** 2) / (2.0 * nu * t))  # right-moving
    gm = pref * np.exp(-((x + c * t) ** 2) / (2.0 * nu * t))  # left-moving
    pp = acoustic_projection(+1, params)
    pm = acoustic_projection(-1, params)
    return gp[..., None, None] * pp + gm[..., None, None] * pm


def fundamental_leading(x: float, t: float, params: ModelParams) -> KernelValue:
    """Leading-order whole-line fundamental solution at offset x, time t > 0."""
    if not (t > 0.0):
        raise ParameterError(f"need t > 0, got t={t}")
    smooth = np.asarray(_leading_smooth(float(x), t, params))
    delta = singular_weight(t, params) * np.diag([1.0, 0.0])
    return KernelValue(smooth=smooth, deltas=[(0.0, delta)])


def _mirror_smooth(w, t: float, params: ModelParams) -> np.ndarray:
    """Boundary part of the Green's function for the stable mixed class.

    w = x + y >= 0.  Combines the negated image kernel with the reflected
    part 2 gamma [E(w,t;c,2nu) P+ + E(w,t;-c,2nu) P-], all right-multiplied
    by diag(1,-1); same 1/sqrt(2 pi nu t) normalization as the direct part.
    """
    w = np.asarray(w, dtype=float)
    c, nu, gamma = params.c, params.nu, params.gamma
    pref = 1.0 / math.sqrt(2.0 * math.pi * nu * t)
    pp = acoustic_projection(+1, params)
    pm = acoustic_projection(-1, params)
    image = _leading_smooth(w, t, params)
    e_plus = _e_values(w, t, c, 2.0 * nu, gamma)
    e_minus = _e_values(w, t, -c, 2.0 * nu, gamma)
    reflected = 2.0 * gamma * pref * (
        np.asarray(e_plus)[..., None, None] * pp
        + np.asarray(e_minus)[..., None, None] * pm
    )
    return (-image + reflected) * np.array([1.0, -1.0])


def mirror_leading(w: float, t: float, params: ModelParams) -> Matrix2:
    """Leading-order mirror kernel at w = x + y for the stable mixed class."""
    if params.boundary_class is not BoundaryClass.MIXED_STABLE:
        raise UsageError(
            "mirror_leading is defined for the stable mixed class only; "
            "Dirichlet/Neumann use the degenerate +-G(x+y) diag(1,-1) forms"
        )
    if w < 0.0 or not (t > 0.0):
        raise ParameterError(f"need w >= 0 and t > 0, got w={w}, t={t}")
    return np.asarray(_mirror_smooth(float(w), t, params))


def green_leading(x: float, y: float, t: float, params: ModelParams) -> KernelValue:
    """Leading-order half-line Green's function at (x, t; y), interior points.

    Assembles the direct kernel at offset x - y plus the class-dependent
    boundary part at w = x + y.  The image delta (located at x = -y) never
    fires for interior arguments and is dropped; the direct delta is kept at
    location y.  The three Gaussian ridges x - y = +-ct and x + y = ct are
    each produced by exactly one term of the assembly.
    """
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf and 0.0 < t < math.inf):
        raise ParameterError(f"need finite x, y >= 0 and t > 0, got x={x}, y={y}, t={t}")
    refuse_unstable(params)
    bc = params.boundary_class
    smooth = np.asarray(_leading_smooth(float(x - y), t, params))
    if bc is BoundaryClass.DIRICHLET:
        smooth = smooth + _leading_smooth(float(x + y), t, params) * np.array([1.0, -1.0])
    elif bc is BoundaryClass.NEUMANN:
        smooth = smooth - _leading_smooth(float(x + y), t, params) * np.array([1.0, -1.0])
    else:
        smooth = smooth + _mirror_smooth(float(x + y), t, params)
    delta = singular_weight(t, params) * np.diag([1.0, 0.0])
    return KernelValue(smooth=smooth, deltas=[(float(y), delta)])
