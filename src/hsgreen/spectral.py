"""Exact transform-space objects for the linearized system.

The linearized half-line system couples mass and momentum through the flux
matrix A = [[0, 1], [c^2, 0]] and the (degenerate) viscosity matrix
B = diag(0, nu).  This module provides:

* the dispersion roots of the Fourier symbol,
* the Fourier-space fundamental solution (whole line),
* the smooth parts of the Laplace-space fundamental solution and half-line
  Green's function,
* the boundary reflection coefficient and its right-half-plane pole.

The x-derivative of the half-line Green's function is not a second symbol.
Laplace-transforming the model, u_t + m_x = 0 and m_t + c^2 u_x = nu m_xx,
gives m_x = -s u and u_x = -(s/w) m with w = nu s + c^2, column by column,
so away from x = y

    L[G_x](x, y, s) = -s [[0, 1/w], [1, 0]] L[G](x, y, s):

row 0 of the derivative is -s/w times row 1 of L[G], row 1 is -s times
row 0.  The direct term on either side of x = y and the image term each
solve that system; only the off-diagonal jump at x = y escapes it.

All evaluators broadcast over numpy arrays in their transform variable so the
inversion quadratures in :mod:`hsgreen.transforms` stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryClass, ModelParams
from .errors import BranchCutError, ParameterError, PoleError, UsageError

# Relative |Delta * t| below which the confluent (series) form of
# sinh(z)/z is used; keeps the double-root wavenumbers xi = +-2c/nu and the
# origin free of catastrophic cancellation.
_SINHC_SWITCH = 1e-2


@dataclass(frozen=True)
class ComplexPair:
    """The two growth rates of the Fourier symbol at one wavenumber."""

    sigma_plus: complex
    sigma_minus: complex

    def vieta_residuals(self, xi: float, params: ModelParams) -> tuple[float, float]:
        """Relative residuals of sigma+ + sigma- = -nu xi^2 and
        sigma+ * sigma- = c^2 xi^2."""
        s, p = self.sigma_plus + self.sigma_minus, self.sigma_plus * self.sigma_minus
        ts, tp = -params.nu * xi**2, params.c**2 * xi**2
        scale_s = max(abs(ts), 1.0)
        scale_p = max(abs(tp), 1.0)
        return abs(s - ts) / scale_s, abs(p - tp) / scale_p


def dispersion_sigma(xi: float, params: ModelParams) -> ComplexPair:
    """Growth rates sigma+- = -xi (nu xi +- sqrt(nu^2 xi^2 - 4 c^2)) / 2.

    For real roots (nu |xi| > 2c) the root with the cancelling combination
    nu xi -+ sqrt(...) is recovered from the product identity
    sigma+ sigma- = c^2 xi^2, so both Vieta identities hold to machine
    precision even for nu^2 xi^2 >> 4 c^2.  Complex roots are a conjugate
    pair of equal modulus and cancel nowhere.
    """
    disc = params.nu**2 * xi**2 - 4.0 * params.c**2
    root = np.sqrt(complex(disc))
    sp = complex(-0.5 * xi * (params.nu * xi + root))
    sm = complex(-0.5 * xi * (params.nu * xi - root))
    if disc > 0.0 and max(abs(sp), abs(sm)) > 0.0:
        prod = complex(params.c**2 * xi**2)
        if abs(sp) >= abs(sm):
            sm = prod / sp
        else:
            sp = prod / sm
    return ComplexPair(sigma_plus=sp, sigma_minus=sm)


def fourier_fundamental(xi, t: float, params: ModelParams) -> np.ndarray:
    """Fourier transform of the whole-line fundamental solution at time t.

    Returns shape xi.shape + (2, 2) complex.  Implemented through the matrix
    exponential of the symbol -i xi A - xi^2 B in the overflow-free form

        exp(mu t) [cosh(D t) I + t sinhc(D t) (M - mu I)],

    mu = -nu xi^2 / 2, D^2 = mu^2 - c^2 xi^2, which reduces to the standard
    two-mode display for distinct roots and to the confluent (t e^{sigma t})
    form at the double roots xi = 0 and xi = +-2c/nu.  D^2 is real, so the
    evaluation is real: e^{(mu +- D) t} where D^2 >= 0, e^{mu t} times cos
    and sin of |D| t only where D^2 < 0 (|xi| < 2c/nu).  The diagonal is real
    and the off-diagonal imaginary.
    """
    if t < 0:
        raise ParameterError(f"need t >= 0, got t={t}")
    shape = np.shape(xi)
    xi = np.asarray(xi, dtype=float).ravel()
    c, nu = params.c, params.nu
    mu = -0.5 * nu * xi**2
    d2 = mu**2 - c**2 * xi**2
    real = d2 >= 0.0
    root = np.sqrt(np.abs(d2))
    # Real D: e^{(mu +- D) t}, both exponents non-positive, so no overflow.
    shift = np.where(real, root, 0.0)
    ep = np.exp((mu + shift) * t)
    em = np.exp((mu - shift) * t)
    cosh_term = 0.5 * (ep + em)
    sinh_term = 0.5 * (ep - em)
    # Imaginary D: there ep = em = e^{mu t}, times cos and sin of |D| t.
    osc = ~real
    phase = root[osc] * t
    cosh_term[osc] *= np.cos(phase)
    sinh_term[osc] = ep[osc] * np.sin(phase)
    small = root * t <= _SINHC_SWITCH
    sinhc_term = sinh_term / np.where(small, 1.0, root)
    z2 = d2[small] * t * t
    sinhc_term[small] = t * np.exp(mu[small] * t) * (1.0 + z2 / 6.0 + z2 * z2 / 120.0)
    out = np.zeros((xi.size, 2, 2), dtype=complex)
    out.real[:, 0, 0] = cosh_term - mu * sinhc_term
    out.real[:, 1, 1] = cosh_term + mu * sinhc_term
    out.imag[:, 0, 1] = -xi * sinhc_term
    out.imag[:, 1, 0] = c**2 * out.imag[:, 0, 1]
    return out.reshape(shape + (2, 2))


def _nu_s_plus_c2(s, params: ModelParams) -> np.ndarray:
    """nu*s + c^2, rejecting arguments on the branch cut (<= 0 on the real axis)."""
    s = np.asarray(s, dtype=complex)
    w = params.nu * s + params.c**2
    on_cut = (w.imag == 0.0) & (w.real <= 0.0)
    if np.any(on_cut):
        bad = np.asarray(s)[on_cut].ravel()[0]
        raise BranchCutError(
            f"s={bad} lies on the branch cut of sqrt(nu*s + c^2) "
            f"(cut: real s <= -c^2/nu = {-params.c ** 2 / params.nu:.6g})"
        )
    return w


def lambda_of_s(s, params: ModelParams):
    """Spatial decay rate lambda(s) = s / sqrt(nu*s + c^2), principal branch.

    The principal square root makes Re(lambda) >= 0 on Re(s) >= 0, which is
    the decaying-mode selection for the half line.
    """
    w = _nu_s_plus_c2(s, params)
    lam = np.asarray(s, dtype=complex) / np.sqrt(w)
    return lam if lam.ndim else complex(lam)


def laplace_fundamental(x, s, params: ModelParams) -> np.ndarray:
    """Laplace transform of the whole-line fundamental solution, smooth part.

    Broadcasts over x and s; returns shape broadcast(x, s) + (2, 2).  Uses the
    singularity-free algebraic form (no lone 1/lambda factor):

        (1/2) e^{-lambda |x|} [[c^2 w^{-3/2}, sgn(x) w^{-1}],
                               [c^2 sgn(x) w^{-1}, w^{-1/2}]],  w = nu s + c^2.

    The delta nu delta(x)/w diag(1, 0) is left out.  w, sqrt(w) and lambda
    keep the shape of s; only the exponential broadcasts against x.
    """
    x = np.asarray(x, dtype=float)
    w = _nu_s_plus_c2(s, params)
    sqw = np.sqrt(w)
    expf = np.exp(-(np.asarray(s, dtype=complex) / sqw) * np.abs(x))
    sgn = np.sign(x)
    c2 = params.c**2
    out = np.empty(expf.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 * c2 * expf / (w * sqw)
    out[..., 0, 1] = 0.5 * sgn * expf / w
    out[..., 1, 0] = c2 * out[..., 0, 1]
    out[..., 1, 1] = 0.5 * expf / sqw
    return out


def reflection_coefficient(s, params: ModelParams):
    """Boundary reflection factor (a2 + a1*lambda) / (a2 - a1*lambda)."""
    lam = np.asarray(lambda_of_s(s, params))
    num = params.a2 + params.a1 * lam
    den = params.a2 - params.a1 * lam
    scale = np.abs(params.a2) + np.abs(params.a1 * lam) + 1e-300
    tiny = np.abs(den) <= 1e-13 * scale
    if np.any(tiny):
        flat_s = np.broadcast_to(np.asarray(s, dtype=complex), lam.shape).ravel()
        bad = complex(flat_s[np.asarray(tiny).ravel().argmax()])
        raise PoleError(bad)
    r = num / den
    return r if r.ndim else complex(r)


def find_boundary_pole(params: ModelParams) -> float | None:
    """Positive real pole s* of the reflection coefficient, if any.

    The pole solves lambda(s) = kappa, kappa = a2/a1, and lambda > 0 on the
    positive real axis, so there is one exactly when kappa > 0 (the unstable
    mixed class): the positive root of s^2 = kappa^2 (nu s + c^2),

        s* = (kappa^2 nu + sqrt(kappa^4 nu^2 + 4 kappa^2 c^2)) / 2.

    Returns None for Dirichlet, Neumann and the stable mixed class.
    """
    if params.boundary_class is not BoundaryClass.MIXED_UNSTABLE:
        return None
    kappa = params.a2 / params.a1
    nu, c = params.nu, params.c
    return 0.5 * (kappa**2 * nu + math.sqrt(kappa**4 * nu**2 + 4.0 * kappa**2 * c**2))


def refuse_unstable(params: ModelParams) -> None:
    """Raises UsageError, naming the pole s*, for the unstable mixed class."""
    if params.boundary_class is BoundaryClass.MIXED_UNSTABLE:
        raise UsageError(
            "no bounded Green's function for a1*a2 > 0: the reflection coefficient "
            f"has a right-half-plane pole at s* = {find_boundary_pole(params):.6g} "
            "(exponential growth in time)"
        )


def laplace_green(x, y, s, params: ModelParams) -> np.ndarray:
    """Smooth part of the Laplace-space half-line Green's function.

    L[G](x - y, s) + R(s) L[G](x + y, s) diag(1, -1), broadcast over x, y, s.
    Only the two exponentials depend on the point, so with
    a = e^{-lambda |x - y|}, sa = sgn(x - y) a and b = R e^{-lambda (x + y)}
    every entry is a per-node weight times one sum of two tables:

        (1/2) [[c^2 w^{-3/2} (a + b), w^{-1} (sa - b)],
               [c^2 w^{-1} (sa + b),  w^{-1/2} (a - b)]],  w = nu s + c^2.

    The diagonal delta nu delta(x - y)/(nu s + c^2) diag(1, 0) is left out;
    the image delta at x = -y never fires for interior arguments.  Its
    x-derivative needs no table of its own (module docstring).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(y < 0.0):
        xa, ya = np.broadcast_arrays(x, y)
        i = np.flatnonzero((xa < 0.0) | (ya < 0.0))[0]
        raise ParameterError(f"need x >= 0 and y >= 0, got x={xa.flat[i]}, y={ya.flat[i]}")
    w = _nu_s_plus_c2(s, params)
    sqw = np.sqrt(w)
    lam = np.asarray(s, dtype=complex) / sqw
    r = np.asarray(reflection_coefficient(s, params))
    d = x - y
    a = np.exp(-lam * np.abs(d))
    sa = np.sign(d) * a
    b = r * np.exp(-lam * (x + y))
    half = 0.5 / w
    c2 = params.c**2
    out = np.empty(np.broadcast(a, half).shape + (2, 2), dtype=complex)
    np.multiply(c2 * half / sqw, a + b, out=out[..., 0, 0])
    np.multiply(half, sa - b, out=out[..., 0, 1])
    np.multiply(c2 * half, sa + b, out=out[..., 1, 0])
    np.multiply(0.5 / sqw, a - b, out=out[..., 1, 1])
    return out
