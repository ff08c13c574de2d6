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

Assembly: each leading kernel is one coefficient array times a cached basis of
rows P+, P-, P+ D, P- D (D = diag(1, -1)): the heat kernels on the ridges
x - y -+ ct and x + y -+ ct, the latter in the mixed class as 2 gamma E(x + y)
minus themselves, E reusing them as its Gaussian factor.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import BoundaryClass, KernelValue, ModelParams, check_points, check_positive
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
    val = _e_moment(u, np.exp(-(u * u) / (d0 * t)), t, d0, gamma)
    return val if val.ndim else float(val)


def _e_moment(u: np.ndarray, gauss: np.ndarray, t: float, d0: float, gamma: float) -> np.ndarray:
    """E at drift offsets u = x - lam t, given their Gaussians exp(-u^2/(d0 t))."""
    root = math.sqrt(d0 * t)
    w = (u + 0.5 * gamma * d0 * t) / root
    pref = 0.5 * math.sqrt(math.pi) * root
    left = w <= -1.0
    # One erfcx per point: erfcx(w) on the right, erfcx(-w) on the left.
    scaled = erfcx(np.where(left, -w, w)) * gauss
    exponent = np.where(left, gamma * u + 0.25 * gamma**2 * d0 * t, -1.0)
    return pref * np.where(left, 2.0 * np.exp(exponent) - scaled, scaled)


def e_function_dx(x, t: float, lam: float, d0: float, gamma: float):
    """Exact x-derivative gamma*E - exp(-(x - lam t)^2/(d0 t))
    (integration by parts in the defining integral)."""
    u = np.asarray(x, dtype=float) - lam * t
    return gamma * e_function(x, t, lam, d0, gamma) - np.exp(-(u * u) / (d0 * t))


@functools.lru_cache(maxsize=32)
def _leading_basis(c: float) -> np.ndarray:
    """Rows P+, P-, P+ D and P- D, each 2x2 flattened, D = diag(1, -1): every
    leading kernel is its coefficients on these rows.  Read-only, one per c."""
    h, hc = 0.5 / c, 0.5 * c
    basis = np.array([[0.5, h, hc, 0.5], [0.5, -h, -hc, 0.5],
                      [0.5, -h, hc, -0.5], [0.5, h, -hc, -0.5]])
    basis.flags.writeable = False
    return basis


def singular_weight(t: float, params: ModelParams) -> float:
    """Decay factor exp(-c^2 t/nu) of the persistent delta in the (1,1) slot."""
    return math.exp(-params.c**2 * t / params.nu)


def _ridges(p: np.ndarray, t: float, params: ModelParams):
    """Offsets u = p -+ ct from the right- and left-moving ridges, shape p.shape + (2,),
    and their Gaussians exp(-u^2/(2 nu t)), which are also E's at lam = +-c, d0 = 2 nu."""
    ct = params.c * t
    u = p[..., None] + np.array([-ct, ct])
    return u, np.exp(-(u * u) / (2.0 * params.nu * t))


def _reflected(u: np.ndarray, gauss: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Mirror coefficients 2 gamma E(w, t; +-c, 2 nu) - G+-(w) of P+- D, from w's ridges."""
    return 2.0 * params.gamma * _e_moment(u, gauss, t, 2.0 * params.nu, params.gamma) - gauss


def _assemble(coef: np.ndarray, t: float, params: ModelParams, rows: slice) -> np.ndarray:
    """Coefficients (..., k) on basis ``rows`` times 1/sqrt(2 pi nu t), shape (..., 2, 2)."""
    smooth = coef / math.sqrt(2.0 * math.pi * params.nu * t) @ _leading_basis(params.c)[rows]
    return smooth.reshape(coef.shape[:-1] + (2, 2))


def fundamental_leading(x, t: float, params: ModelParams) -> KernelValue:
    """Leading-order whole-line fundamental solution at offsets x, time t > 0:
    smooth part of shape x.shape + (2, 2), delta at offset 0."""
    x = check_points("x", x)
    check_positive("t", t)
    smooth = _assemble(_ridges(x, t, params)[1], t, params, slice(0, 2))
    return KernelValue(smooth=smooth, delta_at=0.0, delta_weight=singular_weight(t, params))


def mirror_leading(w, t: float, params: ModelParams) -> np.ndarray:
    """Leading-order mirror kernel at w = x + y >= 0 for the stable mixed class,
    of shape w.shape + (2, 2).

    Combines the negated image kernel with the reflected part
    2 gamma [E(w,t;c,2nu) P+ + E(w,t;-c,2nu) P-], all right-multiplied by
    diag(1,-1); same 1/sqrt(2 pi nu t) normalization as the direct part.
    """
    if params.boundary_class is not BoundaryClass.MIXED_STABLE:
        raise UsageError("mirror_leading is defined for the stable mixed class only; "
                         "Dirichlet/Neumann use the degenerate +-G(x+y) diag(1,-1) forms")
    w = check_points("w", w, 0.0)
    check_positive("t", t)
    return _assemble(_reflected(*_ridges(w, t, params), t, params), t, params, slice(2, 4))


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
    u, coef = _ridges(x[..., None] + np.array([-y, y]), t, params)  # P+-: x - y; P+- D: x + y
    if params.boundary_class is BoundaryClass.MIXED_STABLE:
        coef[..., 1, :] = _reflected(u[..., 1, :], coef[..., 1, :], t, params)
    elif params.boundary_class is BoundaryClass.NEUMANN:  # the image kernel, - for Neumann
        coef[..., 1, :] *= -1.0
    smooth = _assemble(coef.reshape(x.shape + (4,)), t, params, slice(None))
    return KernelValue(smooth=smooth, delta_at=float(y), delta_weight=singular_weight(t, params))
