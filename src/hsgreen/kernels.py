"""Closed-form leading-order kernels in physical space.

The long-time shape of the fundamental solution is a pair of heat kernels
drifting at the two sound speeds, weighted by the acoustic eigenprojections
of the flux matrix; the boundary adds a reflected kernel built from an
exponentially weighted Gaussian moment (``e_function``) that is evaluated
through the scaled complementary error function to avoid overflow.

Every kernel broadcasts over its space argument at one time t (a scalar point
gives a float or a 2x2 matrix); ``green_leading`` gives a column of G over x at
one source y.  A point not finite or off the domain raises ``ParameterError``.

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

import numpy as np

from .core import BoundaryClass, KernelValue, Matrix2, ModelParams, check_points, check_positive
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


def e_function(x, t: float, lam: float, d0: float, gamma: float):
    """Weighted Gaussian moment, strictly positive, broadcast over x:

        E(x, t; lam, d0) = int_0^inf exp(-gamma z) exp(-(x + z - lam t)^2/(d0 t)) dz
                         = (sqrt(pi d0 t)/2) erfcx(w) exp(-(x - lam t)^2/(d0 t)),
        w = (x - lam t + gamma d0 t / 2) / sqrt(d0 t).

    The exponents combine exactly: gamma(x - lam t) + gamma^2 d0 t/4 - w^2
    = -(x - lam t)^2/(d0 t), so no factor exceeds unit scale for w >= 0.
    Deep left of the drift ray (w strongly negative) erfcx(w) itself
    overflows, so the reflected form

        E = (sqrt(pi d0 t)/2) [2 e^{gamma u + gamma^2 d0 t / 4}
                               - erfcx(-w) e^{-u^2/(d0 t)}]

    is used there; its leading exponent is negative in that regime.  Needs
    t, d0, gamma > 0; returns a float for a scalar x.
    """
    x = check_points("x", x)
    for name, v in (("t", t), ("d0", d0), ("gamma", gamma)):
        check_positive(name, v)
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


def e_function_dx(x, t: float, lam: float, d0: float, gamma: float):
    """Exact x-derivative gamma*E - exp(-(x - lam t)^2/(d0 t))
    (integration by parts in the defining integral)."""
    u = np.asarray(x, dtype=float) - lam * t
    return gamma * e_function(x, t, lam, d0, gamma) - np.exp(-(u * u) / (d0 * t))


def e_bound_check(x, t: float, lam: float, d0: float, gamma: float,
                  eps: float, bigC: float, k: int = 0):
    """Ratio of |d^k E / dx^k| to its two-term decay envelope

        t^(-k/2) exp(-(x - lam t)^2 / ((d0 + eps) t)) + exp(-(|x| + t)/bigC)

    for k in {0, 1}.  No harness calls it; the kernel tests check that its sup
    over a refining grid is finite and moves by at most 10%.
    """
    if not (eps > 0.0 and bigC > 0.0):
        raise ParameterError("need eps > 0 and bigC > 0")
    if k not in (0, 1):
        raise ParameterError(f"derivative order k must be 0 or 1, got {k}")
    fn = e_function if k == 0 else e_function_dx
    num = np.abs(fn(x, t, lam, d0, gamma))
    u = np.asarray(x, dtype=float) - lam * t
    env = t ** (-k / 2.0) * np.exp(-(u * u) / ((d0 + eps) * t))
    env += np.exp(-(np.abs(x) + t) / bigC)
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


def _leading_smooth(x: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """The two drifting heat kernels at checked points x; shape x.shape + (2, 2)."""
    c, nu = params.c, params.nu
    pref = 1.0 / math.sqrt(2.0 * math.pi * nu * t)
    gp = pref * np.exp(-((x - c * t) ** 2) / (2.0 * nu * t))  # right-moving
    gm = pref * np.exp(-((x + c * t) ** 2) / (2.0 * nu * t))  # left-moving
    return (np.multiply.outer(gp, acoustic_projection(+1, params))
            + np.multiply.outer(gm, acoustic_projection(-1, params)))


def fundamental_leading(x, t: float, params: ModelParams) -> KernelValue:
    """Leading-order whole-line fundamental solution at offsets x, time t > 0:
    smooth part of shape x.shape + (2, 2), delta at offset 0."""
    x = check_points("x", x)
    check_positive("t", t)
    delta = singular_weight(t, params) * np.diag([1.0, 0.0])
    return KernelValue(smooth=_leading_smooth(x, t, params), deltas=[(0.0, delta)])


def mirror_leading(w, t: float, params: ModelParams) -> Matrix2:
    """Leading-order mirror kernel at w = x + y >= 0 for the stable mixed class,
    of shape w.shape + (2, 2).

    Combines the negated image kernel with the reflected part
    2 gamma [E(w,t;c,2nu) P+ + E(w,t;-c,2nu) P-], all right-multiplied by
    diag(1,-1); same 1/sqrt(2 pi nu t) normalization as the direct part.
    """
    if params.boundary_class is not BoundaryClass.MIXED_STABLE:
        raise UsageError(
            "mirror_leading is defined for the stable mixed class only; "
            "Dirichlet/Neumann use the degenerate +-G(x+y) diag(1,-1) forms"
        )
    w = check_points("w", w, 0.0)
    check_positive("t", t)
    c, nu, gamma = params.c, params.nu, params.gamma
    pref = 1.0 / math.sqrt(2.0 * math.pi * nu * t)
    reflected = 2.0 * gamma * pref * (
        np.multiply.outer(e_function(w, t, c, 2.0 * nu, gamma), acoustic_projection(+1, params))
        + np.multiply.outer(e_function(w, t, -c, 2.0 * nu, gamma), acoustic_projection(-1, params))
    )
    return (-_leading_smooth(w, t, params) + reflected) * np.array([1.0, -1.0])


def green_leading(x, y: float, t: float, params: ModelParams) -> KernelValue:
    """Leading-order half-line Green's function at (x, t; y), interior points:
    the column over x >= 0 at one source y >= 0, smooth part of shape
    x.shape + (2, 2).

    Assembles the direct kernel at offset x - y plus the class-dependent
    boundary part at w = x + y.  The image delta (located at x = -y) never
    fires for interior arguments and is dropped; the direct delta is kept at
    location y.  The three Gaussian ridges x - y = +-ct and x + y = ct are
    each produced by exactly one term of the assembly.
    """
    x, y = check_points("x", x, 0.0), check_points("y", y, 0.0)
    if y.ndim:
        raise ParameterError(f"green_leading takes one source y, got y of shape {y.shape}")
    check_positive("t", t)
    refuse_unstable(params)
    if params.boundary_class is BoundaryClass.MIXED_STABLE:
        boundary = mirror_leading(x + y, t, params)
    else:  # the image kernel, + for Dirichlet and - for Neumann
        sign = 1.0 if params.boundary_class is BoundaryClass.DIRICHLET else -1.0
        boundary = sign * _leading_smooth(x + y, t, params) * np.array([1.0, -1.0])
    smooth = _leading_smooth(x - y, t, params) + boundary
    delta = singular_weight(t, params) * np.diag([1.0, 0.0])
    return KernelValue(smooth=smooth, deltas=[(float(y), delta)])
