"""Independent numerical oracles: inverse Fourier and Laplace transforms.

These evaluators never use the closed-form leading-order kernels; they invert
the exact transform-space objects from :mod:`hsgreen.spectral` by quadrature,
so agreement with :mod:`hsgreen.kernels` is a genuine cross-check.

Inverse Fourier strategy
------------------------
The Fourier symbol of the fundamental solution does not vanish at large
wavenumber: its slow mode tends to exp(-c^2 t / nu) with algebraic 1/xi
corrections, so the raw integrand is not quadrature-friendly.  We subtract a
large-wavenumber model S(xi, t) built from Lorentzian profiles whose inverse
transforms are explicit decaying exponentials:

    S11 = q (1 + a11 L1),          a11 = (c^2/nu^2)(1 - c^2 t / nu)
    S22 = q a22 L1,                a22 = -c^2/nu^2
    S12 = -(i q / nu)  (A xi L1 + B xi L2),   S21 = c^2 S12
    L1 = 1/(b^2 + xi^2), L2 = 1/(4 b^2 + xi^2), b = c/nu, q = e^{-c^2 t/nu},
    A = 2 - c^2 t/(3 nu), B = 1 - A.

A and B match both the 1/xi and 1/xi^3 coefficients of the odd entries, so
the remaining integrand decays like xi^{-4} (even entries) and xi^{-5} (odd
entries); the subtracted part is added back in closed form.  The constant
piece of S11 is the persistent delta, reported separately.

The residual is summed on Gauss-Legendre panels in two segments, a dense
core and a coarser tail, each of uniform half-width h.  Every node is then
m_p + h g_j (panel midpoint m_p, Gauss point g_j), so the phase sum factors
exactly:

    sum_{p,j} r_pj e^{i x (m_p + h g_j)} = sum_j e^{i x h g_j} sum_p e^{i x m_p} r_pj,

one complex exponential per (point, panel), one matrix product and one
contraction over the n_xi node phases, instead of a cos and a sin per
(point, node).

Mirror kernel
-------------
The boundary part of the stable mixed class is an exponential convolution
of the fundamental solution, i.e. the Fourier multiplier
M(xi) = (gamma + i xi)/(gamma - i xi) applied to its symbol.  The mirror
oracle reuses the panels and the subtraction above: M times the residual is
inverted by a cos and a sin sum per entry (M breaks the parity), and the
model term maps in closed form, e^{-beta w} -> (gamma - beta)/(gamma + beta)
e^{-beta w} for w > 0 and beta in {b, 2b}.  M varies on the scale gamma, so
the mirror caps the core panel width at gamma; the whole-line oracle (M = 1)
keeps its grid.

Inverse Laplace strategy
------------------------
Default contour is the fixed parabolic (Talbot-style) contour, which wraps
the branch cut on the negative real axis; it is shifted right when the
reflection coefficient has a right-half-plane pole.  A truncated vertical
line (Bromwich) contour is available as an independent cross-check away from
the diagonal x = y.

Every self-check is written ``not err <= tol``, so a NaN estimate (a symbol
that overflowed) fails it and AccuracyError carries the NaN.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryClass, KernelValue, ModelParams
from .errors import AccuracyError, ConfigurationError, ParameterError
from .spectral import find_boundary_pole, fourier_fundamental, laplace_green, laplace_green_dx

CONTOURS = ("talbot", "line")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the inversion quadratures.

    n_xi:    Gauss-Legendre nodes per panel in the Fourier inversion, whose
             truncation wavenumber is chosen from the tail (``_xi_grid``).
    contour: "talbot" (parabolic, default) or "line" (Bromwich line at
             abscissa max(0, s*) + 1/t, right of any pole s*).
    n_nodes: Talbot degree, or panels-per-unit-time for the line contour.
    tol:     target absolute accuracy; quadratures self-check against it.
    """

    n_xi: int = 10
    contour: str = "talbot"
    n_nodes: int = 32
    tol: float = 1e-8

    def __post_init__(self):
        if self.n_xi < 4 or self.n_nodes < 8:
            raise ConfigurationError("need n_xi >= 4 and n_nodes >= 8")
        if self.contour not in CONTOURS:
            raise ConfigurationError(f"contour must be one of {CONTOURS}")
        if not (0 < self.tol < 1e-2):
            raise ConfigurationError("tol must lie in (0, 1e-2)")


DEFAULT_QUADRATURE = QuadratureConfig()


def _gauss_panels(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on the union of panels given by edges."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _edges(lo: float, hi: float, width: float) -> np.ndarray:
    n = max(1, int(math.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, n + 1)


def _xi_grid(
    t: float, x_absmax: float, params: ModelParams, cfg: QuadratureConfig,
    refine: int = 1, gamma: float | None = None,
) -> list[tuple[np.ndarray, float]]:
    """Panel grid on [0, xi_max]: dense where the symbol oscillates, coarser
    on the algebraic tail.  ``refine`` halves the panel widths (error probe);
    the mirror's ``gamma`` caps the core width at its multiplier's scale.

    Returns the core and tail segments as (panel midpoints, half-width): the
    panels of a segment are uniform, so its nodes are mid + half * g_j for
    the cfg.n_xi Gauss-Legendre points g_j."""
    c, nu = params.c, params.nu
    q = math.exp(-c**2 * t / nu)
    # Core: beyond xi_core the Gaussian-decaying modes are < 1e-18.
    xi_core = math.sqrt(83.0 / (nu * t)) + 2.0 * c / nu
    # Residual after subtraction decays like C_res / xi^4; pick xi_max so
    # the tail integral is below tol/4 (coefficient padded for safety).
    r = c**2 / nu**2
    c_res = q * (r**2 * (2.0 + 0.5 * (c**2 * t / nu) ** 2) + r) + 1e-30
    xi_max = (4.0 * c_res / (3.0 * math.pi * cfg.tol)) ** (1.0 / 3.0)
    xi_max = max(xi_max, 1.2 * xi_core + 5.0, 10.0 * c / nu)
    xi_core = min(xi_core, xi_max * 0.5)
    osc = x_absmax + c * t + 1.0
    cap = math.inf if gamma is None else gamma
    w_core = min(5.0 / osc, xi_core / 6.0, 0.5 * c / nu, cap) / refine
    w_tail = 5.0 / (x_absmax + 1.0) / refine
    segments = []
    for lo, hi, width in ((0.0, xi_core, w_core), (xi_core, xi_max, w_tail)):
        edges = _edges(lo, hi, width)
        segments.append((0.5 * (edges[:-1] + edges[1:]), 0.5 * (hi - lo) / (edges.size - 1)))
    return segments


def _subtraction_coefficients(t: float, params: ModelParams):
    c, nu = params.c, params.nu
    q = math.exp(-c**2 * t / nu)
    b = c / nu
    a11 = (c**2 / nu**2) * (1.0 - c**2 * t / nu)
    a22 = -(c**2) / nu**2
    A = 2.0 - c**2 * t / (3.0 * nu)
    return q, b, a11, a22, A, 1.0 - A


def _smooth_residual(
    xi: np.ndarray, t: float, params: ModelParams, gamma: float | None = None
) -> np.ndarray:
    """M(xi) times the symbol minus its Lorentzian model, shape (xi.size, 4)."""
    F = fourier_fundamental(xi, t, params)
    q, b, a11, a22, A, B = _subtraction_coefficients(t, params)
    l1 = 1.0 / (b**2 + xi**2)
    l2 = 1.0 / (4.0 * b**2 + xi**2)
    odd_model = -(q / params.nu) * (A * xi * l1 + B * xi * l2)
    # Residual after the Lorentzian subtraction: real even diagonal entries,
    # imaginary odd off-diagonal ones.
    res = np.empty((xi.size, 2, 2), dtype=complex)
    res[:, 0, 0] = F[:, 0, 0].real - q * (1.0 + a11 * l1)
    res[:, 1, 1] = F[:, 1, 1].real - q * a22 * l1
    res[:, 0, 1] = 1j * (F[:, 0, 1].imag - odd_model)
    res[:, 1, 0] = 1j * (F[:, 1, 0].imag - params.c**2 * odd_model)
    if gamma is not None:
        res *= ((gamma + 1j * xi) / (gamma - 1j * xi))[:, None, None]
    return res.reshape(-1, 4)


def _model_terms(
    x: np.ndarray, t: float, params: ModelParams, gamma: float | None = None
) -> np.ndarray:
    """Closed-form transform of the subtracted model (minus its delta): sums
    of e^{-beta|x|} and sgn(x) e^{-beta|x|}, beta in {b, 2b}.  For x > 0 the
    multiplier maps e^{-beta x} to (gamma - beta)/(gamma + beta) e^{-beta x}."""
    q, b, a11, a22, A, B = _subtraction_coefficients(t, params)
    sg, k1, k2 = np.sign(x), 1.0, 1.0
    if gamma is not None:
        sg, k1, k2 = 1.0, (gamma - b) / (gamma + b), (gamma - 2.0 * b) / (gamma + 2.0 * b)
    e1 = k1 * np.exp(-b * np.abs(x))
    e2 = k2 * np.exp(-2.0 * b * np.abs(x))
    out = np.empty(x.shape + (2, 2))
    out[..., 0, 0] = q * a11 * e1 / (2.0 * b)
    out[..., 1, 1] = q * a22 * e1 / (2.0 * b)
    odd_x = (q / (2.0 * params.nu)) * sg * (A * e1 + B * e2)
    out[..., 0, 1] = odd_x
    out[..., 1, 0] = params.c**2 * odd_x
    return out


def _unit_phase(phase: np.ndarray) -> np.ndarray:
    """e^{i phase} for a real array."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


# Bound on the (points x panels) phase matrix of one segment, in elements.
_PHASE_CHUNK = 1_000_000


def _fourier_smooth_grid(
    x: np.ndarray, t: float, params: ModelParams, cfg: QuadratureConfig,
    refine: int = 1, gamma: float | None = None,
) -> np.ndarray:
    """Inverse transform of M(xi) times the smooth symbol on an array of x.

    M = 1 gives the smooth part of the fundamental solution; for a given
    ``gamma``, M = (gamma + i xi)/(gamma - i xi) gives the mirror kernel
    before its diag(1, -1) factor, for x >= 0 (x = 0 as the x -> 0+ limit).
    """
    x = np.asarray(x, dtype=float)
    segments = _xi_grid(t, float(np.abs(x).max()), params, cfg, refine, gamma)
    gx, gw = np.polynomial.legendre.leggauss(cfg.n_xi)
    nodes = [(mid[:, None] + half * gx).ravel() for mid, half in segments]
    res = _smooth_residual(np.concatenate(nodes), t, params, gamma)
    # Hermitian symmetry folds the inverse onto xi > 0,
    # (1/pi) int_0^inf Re(P e^{i xi x}); each segment's phase sum factors
    # into panel and node phases (module docstring).
    xs = x.ravel()
    flat = np.zeros((xs.size, 4))
    for (mid, half), r in zip(segments, np.split(res, [nodes[0].size])):
        r = r.reshape(mid.size, cfg.n_xi, 4) * (half * gw / math.pi)[:, None]
        r = r.reshape(mid.size, -1)
        step = max(1, _PHASE_CHUNK // mid.size)
        for i in range(0, xs.size, step):
            xc = xs[i : i + step]
            panel_sum = _unit_phase(np.outer(xc, mid)) @ r
            node_phase = _unit_phase(np.outer(xc, half * gx))
            flat[i : i + xc.size] += np.einsum(
                "xj,xje->xe", node_phase, panel_sum.reshape(xc.size, cfg.n_xi, 4)
            ).real
    return flat.reshape(x.shape + (2, 2)) + _model_terms(x, t, params, gamma)


def _fourier_smooth_with_error(
    x: np.ndarray, t: float, params: ModelParams, cfg: QuadratureConfig,
    gamma: float | None = None,
) -> tuple[np.ndarray, float]:
    coarse = _fourier_smooth_grid(x, t, params, cfg, 1, gamma)
    fine = _fourier_smooth_grid(x, t, params, cfg, 2, gamma)
    err = float(np.abs(fine - coarse).max())
    if logger.isEnabledFor(logging.DEBUG):
        x_absmax = float(np.abs(x).max())
        n_coarse, n_fine = (
            cfg.n_xi * sum(mid.size for mid, _ in _xi_grid(t, x_absmax, params, cfg, k, gamma))
            for k in (1, 2)
        )
        logger.debug(
            "fourier self-check: points=%d nodes=%d/%d (coarse/fine) gamma=%s diff=%.3g",
            np.size(x), n_coarse, n_fine, gamma, err,
        )
    return fine, err


def invert_fourier_fundamental(
    x, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> KernelValue:
    """Whole-line fundamental solution by Fourier inversion.

    Accepts scalar or array x; the smooth part has shape x.shape + (2, 2).
    The persistent delta exp(-c^2 t/nu) delta(x) diag(1, 0) is returned in the
    delta list.  Raises AccuracyError when the self-estimate misses cfg.tol.
    """
    if not (t > 0.0):
        raise ParameterError(f"need t > 0, got t={t}")
    xarr = np.atleast_1d(np.asarray(x, dtype=float))
    smooth, err = _fourier_smooth_with_error(xarr, t, params, cfg)
    if not err <= cfg.tol:
        raise AccuracyError("fourier inversion did not meet tolerance", err, cfg.tol)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        smooth = smooth[0]
    q = math.exp(-params.c**2 * t / params.nu)
    return KernelValue(smooth=smooth, deltas=[(0.0, q * np.diag([1.0, 0.0]))])


# ---------------------------------------------------------------------------
# Inverse Laplace transforms
# ---------------------------------------------------------------------------


def _talbot_nodes(t: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed parabolic-contour nodes s_k and complex weights g_k such that
    f(t) = sum_k Re(g_k F(s_k)) for real-valued f."""
    r = 2.0 * M / (5.0 * t)
    theta = np.arange(1, M) * math.pi / M
    cot = np.cos(theta) / np.sin(theta)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    g = (r / M) * np.exp(t * s) * (1.0 + 1j * sigma)
    s0 = np.array([r + 0.0j])
    g0 = np.array([0.5 * (r / M) * math.exp(r * t) + 0.0j])
    return np.concatenate([s0, s]), np.concatenate([g0, g])


def _laplace_shift(t: float, params: ModelParams) -> float:
    pole = find_boundary_pole(params)
    return 0.0 if pole is None else pole + 1.0 / t


def _invert_laplace_talbot(symbol, x, y, t: float, params: ModelParams, M: int) -> np.ndarray:
    shift = _laplace_shift(t, params)
    s, g = _talbot_nodes(t, M)
    values = symbol(x[..., None], y[..., None], s + shift, params)
    weighted = g[:, None, None] * values
    out = weighted.real.sum(axis=-3)
    if shift:
        out *= math.exp(shift * t)  # exp factored out of the shifted contour
    return out


def _invert_laplace_line(symbol, x, y, t, params, cfg) -> tuple[np.ndarray, float]:
    """Truncated vertical contour at abscissa max(0, s*) + 1/t, right of any
    pole s*; returns (value, imaginary residue)."""
    a = max(0.0, find_boundary_pole(params) or 0.0) + 1.0 / t
    w_min = float(min(np.abs(x - y).min(), np.abs(x + y).min()))
    if w_min < 0.3:
        raise ConfigurationError(
            "line contour needs |x - y| >= 0.3 (integrand decays too slowly "
            f"near the diagonal), got {w_min:.3g}"
        )
    # Truncation so exp(-Re(lambda) w) has decayed: Re lambda ~ sqrt(w/(2 nu)).
    decay = (30.0 + a * t) / w_min
    omega_max = 2.0 * params.nu * decay**2 + 10.0 / t
    width = 4.0 / t * (32.0 / cfg.n_nodes)
    omega, wts = _gauss_panels(_edges(0.0, omega_max, width), 8)
    omega = np.concatenate([-omega[::-1], omega])
    wts = np.concatenate([wts[::-1], wts])
    s = a + 1j * omega
    values = symbol(x[..., None], y[..., None], s, params)
    phase = (np.exp(s * t) * wts)[:, None, None] / (2.0 * math.pi)
    total = (phase * values).sum(axis=-3)
    resid = float(np.abs(total.imag).max() / max(np.abs(total.real).max(), 1e-300))
    return total.real, resid


def _invert_laplace(symbol, x, y, t: float, params: ModelParams, cfg: QuadratureConfig):
    """Checked contour inversion of ``symbol(x, y, s, params)`` at time t."""
    if not (t > 0.0):
        raise ParameterError(f"need t > 0, got t={t}")
    xarr, yarr = np.broadcast_arrays(
        np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    )
    if xarr.size == 0:
        raise ParameterError("Laplace inversion needs at least one (x, y) point")
    if np.any(xarr < 0.0) or np.any(yarr < 0.0):
        raise ParameterError("need x >= 0 and y >= 0")
    if np.any(xarr == yarr):
        raise ParameterError("Laplace inversion needs x != y (smooth part only)")
    if cfg.contour == "talbot":
        out = _invert_laplace_talbot(symbol, xarr, yarr, t, params, cfg.n_nodes)
        probe = _invert_laplace_talbot(symbol, xarr, yarr, t, params, cfg.n_nodes + 8)
        err = float(np.abs(out - probe).max())
        logger.debug("talbot self-check: points=%d degrees=%d/%d diff=%.3g",
                     xarr.size, cfg.n_nodes, cfg.n_nodes + 8, err)
        if not err <= cfg.tol:
            raise AccuracyError("parabolic contour did not meet tolerance", err, cfg.tol)
        out = probe
    else:
        out, resid = _invert_laplace_line(symbol, xarr, yarr, t, params, cfg)
        logger.debug("line self-check: points=%d imag_residue=%.3g", xarr.size, resid)
        if not resid <= 1e-9:
            raise AccuracyError("line contour imaginary residue too large", resid, 1e-9)
    if np.asarray(x).ndim == 0 and np.asarray(y).ndim == 0:
        return out[0]
    return out


def invert_laplace_green(
    x, y, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Smooth part of the half-line Green's function by contour quadrature.

    Broadcasts over arrays x, y (same t, at least one point).  Requires x != y
    pointwise (the delta on the diagonal is not representable by quadrature).
    The parabolic contour self-checks by comparing two degrees and raises
    AccuracyError on failure; the line contour checks its imaginary residue.
    """
    return _invert_laplace(laplace_green, x, y, t, params, cfg)


def invert_laplace_green_dx(
    x, y, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
):
    """x-derivative of the smooth Green's function: inverts the exact symbol
    ``laplace_green_dx`` exactly as :func:`invert_laplace_green` does."""
    return _invert_laplace(laplace_green_dx, x, y, t, params, cfg)


def mirror_by_quadrature(
    w, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Mirror kernel at w = x + y >= 0 by Fourier inversion with a multiplier.

    The image-source form

        G_mir(w, t) = (-G(w, t) + 2 gamma int_0^inf e^{-gamma z} G(w + z, t) dz)
                      diag(1, -1)

    is a one-sided exponential convolution of the fundamental solution, so

        G_mir(w, t) = F^{-1}[(gamma + i xi)/(gamma - i xi) G^(xi, t)](w) diag(1, -1),

    evaluated on the Fourier oracle's xi panels at the requested w only.  The
    multiplier is the Fourier-side twin of the Laplace reflection coefficient
    (a2 + a1 lambda)/(a2 - a1 lambda) = (gamma - lambda)/(gamma + lambda)
    under lambda -> -i xi.  Only the smooth part of G enters (its delta never
    fires for w > 0); w = 0 returns the w -> 0+ limit.  Broadcasts over array
    w; raises AccuracyError when the coarse/fine self-check misses 10 cfg.tol.
    """
    if params.boundary_class is not BoundaryClass.MIXED_STABLE:
        raise ParameterError("mirror_by_quadrature needs the stable mixed class")
    if not (t > 0.0):
        raise ParameterError(f"need t > 0, got t={t}")
    warr = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(warr < 0.0):
        raise ParameterError("need w >= 0")
    smooth, err = _fourier_smooth_with_error(warr, t, params, cfg, params.gamma)
    if not err <= 10.0 * cfg.tol:
        raise AccuracyError("mirror quadrature did not meet tolerance", err, 10.0 * cfg.tol)
    smooth = smooth * np.array([1.0, -1.0])
    if np.asarray(w).ndim == 0:
        return smooth[0]
    return smooth
