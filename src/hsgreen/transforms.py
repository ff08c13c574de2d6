"""Independent numerical oracles: inverse Fourier and Laplace transforms.

These evaluators never use the closed-form leading-order kernels; they invert
the exact transform-space objects from :mod:`hsgreen.spectral` by quadrature,
so agreement with :mod:`hsgreen.kernels` is a genuine cross-check.

Every oracle computes on the unit model c = nu = 1 (``_unit_frame``): with
L = nu/c, T = nu/c^2 and D = diag(1, c),

    G(x, y, t; c, nu, a1, a2) = (1/L) D G(x/L, y/L, t/T; 1, 1, a1, a2 L) D^{-1},

and the x-derivative takes one more 1/L.  The rules below, and every
self-check against ``QuadratureConfig.tol``, are in unit-model units; only a
result that passes is multiplied by its entry scale [[1, 1/c], [c, 1]]/L, so a
physical entry's error is at most tol times its scale, and the physical and
unit-model calls pass or raise together.

Inverse Fourier strategy
------------------------
The Fourier symbol of the fundamental solution does not vanish at large
wavenumber: its slow mode tends to exp(-t) with algebraic 1/xi corrections, so
the raw integrand is not quadrature-friendly.  We subtract a large-wavenumber
model S(xi, t) built from Lorentzian profiles whose inverse transforms are
explicit decaying exponentials:

    S11 = q (1 + a11 L1),          a11 = 1 - t
    S22 = -q L1
    S12 = S21 = -i q (A xi L1 + B xi L2)
    L1 = 1/(1 + xi^2), L2 = 1/(4 + xi^2), q = e^{-t}, A = 2 - t/3, B = 1 - A.

A and B match both the 1/xi and 1/xi^3 coefficients of the odd entries, so
the remaining integrand decays like xi^{-4} (even entries) and xi^{-5} (odd
entries); the subtracted part is added back in closed form.  The constant
piece of S11 is the persistent delta, reported separately.

The residual is summed on Gauss-Legendre panels in two segments, a dense
core and a coarser tail, each of uniform half-width h.  Every node is then
m_p + h g_j (panel midpoint m_p, Gauss point g_j), so the phase sum factors
exactly:

    sum_{p,j} r_pj e^{i x (m_p + h g_j)} = sum_j e^{i x h g_j} sum_p e^{i x m_p} r_pj,

one matrix product and one contraction over the _N_XI node phases.  The
panel phases factor once more: a segment's P panels sit at m_p = m_0 + 2 h p,
and with B = ceil(sqrt(P)), p = a B + b (the panel count padded to a multiple
of B with zero-weight panels),

    e^{i x m_p} = e^{i x m_0} e^{i x 2 h B a} e^{i x 2 h b}.

The residual is laid out in (b, a) order, so one GEMM against the B
baby-step phases e^{i x 2 h b} leaves a (point, a) sum that the A giant-step
phases e^{i x 2 h B a} contract; e^{i x m_0} joins the node phases.  That is
about 2 sqrt(P) + _N_XI complex exponentials per point, not one per panel.

Mirror kernel
-------------
The boundary part of the stable mixed class is an exponential convolution
of the fundamental solution, i.e. the Fourier multiplier
M(xi) = (gamma + i xi)/(gamma - i xi) applied to its symbol.  The mirror
oracle reuses the panels and the subtraction above: M times the residual is
inverted by a cos and a sin sum per entry (M breaks the parity), and the
model term maps in closed form, e^{-beta w} -> (gamma - beta)/(gamma + beta)
e^{-beta w} for w > 0 and beta in {1, 2}.  M varies on the scale gamma, so
the mirror caps the core panel width at gamma; the whole-line oracle (M = 1)
keeps its grid.

Inverse Laplace strategy
------------------------
The Laplace inversion is the fixed parabolic (Talbot-style) contour around
the branch cut on the negative real axis, shifted right of the reflection
coefficient's right-half-plane pole when there is one.  The symbol is
evaluated once per degree on (points x nodes); in it only the two exponential
tables e^{-lambda |x - y|} and R e^{-lambda (x + y)} depend on the point
(``spectral.laplace_green``), and one ``matmul`` of the complex weights
against the (points, nodes, 4) values contracts the node axis.  G_x reads
the same table through L[G_x] = -s [[0, 1/w], [1, 0]] L[G], w = nu s + c^2
(``spectral``): one ``matmul`` against the weight stack (-g s/w, -g s)
weights rows 1 and 0 of L[G], which swap into place.  One table per degree
and time level serves both orders: each order keeps its own contraction
(G's stays ``np.matmul(g, values)``; folding g into the derivative stack
moves G by rounding, as the Talbot weights grow like e^{2M/5}) and its own
degree M = 32 vs M + 8 self-check, so an order that misses its tolerance
fails alone.  Its independent reference, ``fourier_green``, sums the
whole-line oracle at x - y and the image at x + y: +-G(x + y) diag(1, -1)
(Dirichlet/Neumann) or the mirror kernel.

Every self-check is written ``not err <= tol``, so a NaN estimate (a symbol
that overflowed) fails it and AccuracyError carries the NaN.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryClass, KernelValue, ModelParams
from .errors import AccuracyError, ConfigurationError, ParameterError
from .spectral import find_boundary_pole, fourier_fundamental, laplace_green, refuse_unstable

logger = logging.getLogger(__name__)
_N_XI = 10  # Gauss-Legendre nodes per Fourier panel
_TALBOT_DEGREE = 32  # its self-check probes degree + 8


@dataclass(frozen=True)
class QuadratureConfig:
    """tol: the oracles' absolute target in unit-model units (``_unit_frame``),
    so a physical entry's error is at most tol times its entry scale."""

    tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.tol < 1e-2):
            raise ConfigurationError("tol must lie in (0, 1e-2)")


DEFAULT_QUADRATURE = QuadratureConfig()


def _points(name: str, v) -> np.ndarray:
    """``v`` as a float array of at least one dimension; refuses an empty or
    non-finite point set before any quadrature runs."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.size == 0:
        raise ParameterError(f"need at least one {name} point")
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ParameterError(f"need finite {name}, got {name}={bad[0]}")
    return arr


def _half_line_points(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x, y as broadcast float arrays; refuses the first point off the half line or on x = y."""
    xa, ya = np.broadcast_arrays(_points("x", x), _points("y", y))
    bad = np.flatnonzero((xa < 0.0) | (ya < 0.0) | (xa == ya))
    if bad.size:
        raise ParameterError(f"need x, y >= 0 and x != y, got x={xa[bad[0]]}, y={ya[bad[0]]}")
    return xa, ya


def _unit_frame(t: float, params: ModelParams):
    """(L, t' = t/T, unit model, entry scale [[1, 1/c], [c, 1]]/L): the oracle
    runs the unit model at x/L and t' and multiplies its result by the entry
    scale.  Refuses a t that is not finite and > 0."""
    if not (0.0 < t < math.inf):
        raise ParameterError(f"need finite t > 0, got t={t}")
    c, L = params.c, params.nu / params.c
    unit = ModelParams(c=1.0, nu=1.0, a1=params.a1, a2=params.a2 * L)
    return L, t * c / L, unit, np.array([[1.0, 1.0 / c], [c, 1.0]]) / L


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n; the
    arrays are read-only because every caller shares them."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _gauss_panels(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on the union of panels given by edges."""
    gx, gw = _gauss_legendre(n)
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
    t: float, x_absmax: float, cfg: QuadratureConfig, refine: int = 1, gamma: float | None = None,
) -> list[tuple[np.ndarray, float]]:
    """Panel grid on [0, xi_max]: dense where the symbol oscillates, coarser
    on the algebraic tail.  ``refine`` halves the panel widths (error probe);
    the mirror's ``gamma`` caps the core width at its multiplier's scale.

    Returns the core and tail segments as (panel midpoints, half-width): the
    panels of a segment are uniform, so its nodes are mid + half * g_j for
    the _N_XI Gauss-Legendre points g_j."""
    q = math.exp(-t)
    # Core: beyond xi_core the Gaussian-decaying modes are < 1e-18.
    xi_core = math.sqrt(83.0 / t) + 2.0
    # Residual after subtraction decays like C_res / xi^4; pick xi_max so the
    # tail integral is below tol/4 (C_res padded).
    c_res = q * (2.0 + 0.5 * t**2 + 1.0) + 1e-30
    xi_max = (4.0 * c_res / (3.0 * math.pi * cfg.tol)) ** (1.0 / 3.0)
    xi_max = max(xi_max, 1.2 * xi_core + 5.0, 10.0)
    xi_core = min(xi_core, xi_max * 0.5)
    osc = x_absmax + t + 1.0
    cap = math.inf if gamma is None else gamma
    w_core = min(5.0 / osc, xi_core / 6.0, 0.5, cap) / refine
    w_tail = 5.0 / (x_absmax + 1.0) / refine
    segments = []
    for lo, hi, width in ((0.0, xi_core, w_core), (xi_core, xi_max, w_tail)):
        edges = _edges(lo, hi, width)
        segments.append((0.5 * (edges[:-1] + edges[1:]), 0.5 * (hi - lo) / (edges.size - 1)))
    return segments


def _subtraction_coefficients(t: float):
    A = 2.0 - t / 3.0
    return math.exp(-t), 1.0 - t, A, 1.0 - A


def _smooth_residual(xi: np.ndarray, t: float, gamma: float | None = None) -> np.ndarray:
    """M(xi) times the symbol minus its Lorentzian model, shape (xi.size, 4)."""
    F = fourier_fundamental(xi, t, ModelParams(c=1.0, nu=1.0))
    q, a11, A, B = _subtraction_coefficients(t)
    l1 = 1.0 / (1.0 + xi**2)
    l2 = 1.0 / (4.0 + xi**2)
    odd_model = -q * (A * xi * l1 + B * xi * l2)
    # Residual after the Lorentzian subtraction: real even diagonal entries,
    # imaginary odd off-diagonal ones.
    res = np.empty((xi.size, 2, 2), dtype=complex)
    res[:, 0, 0] = F[:, 0, 0].real - q * (1.0 + a11 * l1)
    res[:, 1, 1] = F[:, 1, 1].real + q * l1
    res[:, 0, 1] = 1j * (F[:, 0, 1].imag - odd_model)
    res[:, 1, 0] = 1j * (F[:, 1, 0].imag - odd_model)
    if gamma is not None:
        res *= ((gamma + 1j * xi) / (gamma - 1j * xi))[:, None, None]
    return res.reshape(-1, 4)


def _model_terms(x: np.ndarray, t: float, gamma: float | None = None) -> np.ndarray:
    """Closed-form transform of the subtracted model (minus its delta): sums
    of e^{-beta|x|} and sgn(x) e^{-beta|x|}, beta in {1, 2}.  For x > 0 the
    multiplier maps e^{-beta x} to (gamma - beta)/(gamma + beta) e^{-beta x}."""
    q, a11, A, B = _subtraction_coefficients(t)
    sg, k1, k2 = np.sign(x), 1.0, 1.0
    if gamma is not None:
        sg, k1, k2 = 1.0, (gamma - 1.0) / (gamma + 1.0), (gamma - 2.0) / (gamma + 2.0)
    e1 = k1 * np.exp(-np.abs(x))
    e2 = k2 * np.exp(-2.0 * np.abs(x))
    out = np.empty(x.shape + (2, 2))
    out[..., 0, 0] = q * a11 * e1 / 2.0
    out[..., 1, 1] = -q * e1 / 2.0
    out[..., 0, 1] = out[..., 1, 0] = (q / 2.0) * sg * (A * e1 + B * e2)
    return out


def _unit_phase(phase: np.ndarray) -> np.ndarray:
    """e^{i phase} for a real array."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


# Bound on one segment's baby-step product, (points x A _N_XI 4), in elements.
_PHASE_CHUNK = 1_000_000


def _panel_table(n: int) -> np.ndarray:
    """Panel indices p = a B + b as a (B, A) table, B = ceil(sqrt(n)) and
    A = ceil(n / B); entries p >= n are zero-weight pad panels."""
    n_b = math.isqrt(n - 1) + 1
    return np.arange(n_b)[:, None] + n_b * np.arange(-(-n // n_b))


def _fourier_smooth_grid(
    x: np.ndarray, t: float, cfg: QuadratureConfig, refine: int = 1, gamma: float | None = None,
) -> np.ndarray:
    """Inverse transform of M(xi) times the smooth symbol of the unit model on an array of x.

    M = 1 gives the smooth part of the fundamental solution; for a given
    ``gamma``, M = (gamma + i xi)/(gamma - i xi) gives the mirror kernel
    before its diag(1, -1) factor, for x >= 0 (x = 0 as the x -> 0+ limit).
    """
    x = np.asarray(x, dtype=float)
    segments = _xi_grid(t, float(np.abs(x).max()), cfg, refine, gamma)
    gx, gw = _gauss_legendre(_N_XI)
    # Each segment's nodes in (b, a, j) order; the pad panels continue the grid.
    tables = [_panel_table(mid.size) for mid, _ in segments]
    nodes = []
    for (mid, half), p in zip(segments, tables):
        pad = mid[-1] + 2.0 * half * np.arange(1, p.size - mid.size + 1)
        nodes.append((np.append(mid, pad)[p][..., None] + half * gx).ravel())
    res = _smooth_residual(np.concatenate(nodes), t, gamma)
    # Hermitian symmetry folds the inverse onto xi > 0,
    # (1/pi) int_0^inf Re(P e^{i xi x}); each segment's phase sum factors
    # into baby-step, giant-step and node phases (module docstring).
    xs = x.ravel()
    flat = np.zeros((xs.size, 4))
    for (mid, half), p, r in zip(segments, tables, np.split(res, [nodes[0].size])):
        n_b, n_a = p.shape
        r = r.reshape(n_b, n_a, _N_XI, 4) * (half * gw / math.pi)[:, None]
        r[p >= mid.size] = 0.0
        r = r.reshape(n_b, -1)
        step = max(1, _PHASE_CHUNK // r.shape[1])
        for i in range(0, xs.size, step):
            xc = xs[i : i + step]
            baby = _unit_phase(np.outer(xc, 2.0 * half * np.arange(n_b))) @ r
            giant = _unit_phase(np.outer(xc, 2.0 * half * n_b * np.arange(n_a)))
            panel_sum = np.matmul(giant[:, None, :], baby.reshape(xc.size, n_a, -1))
            node_phase = _unit_phase(np.outer(xc, mid[0] + half * gx))
            flat[i : i + xc.size] += np.einsum(
                "xj,xje->xe", node_phase, panel_sum.reshape(xc.size, _N_XI, 4)
            ).real
    return flat.reshape(x.shape + (2, 2)) + _model_terms(x, t, gamma)


def _fourier_smooth_with_error(
    x: np.ndarray, t: float, cfg: QuadratureConfig, gamma: float | None = None,
) -> tuple[np.ndarray, float]:
    coarse = _fourier_smooth_grid(x, t, cfg, 1, gamma)
    fine = _fourier_smooth_grid(x, t, cfg, 2, gamma)
    err = float(np.abs(fine - coarse).max())
    if logger.isEnabledFor(logging.DEBUG):
        x_absmax = float(np.abs(x).max())
        nodes = [_N_XI * sum(m.size for m, _ in _xi_grid(t, x_absmax, cfg, k, gamma))
                 for k in (1, 2)]
        logger.debug("fourier self-check: points=%d nodes=%d/%d (coarse/fine) t'=%.6g "
                     "gamma'=%s diff=%.3g", np.size(x), *nodes, t, gamma, err)
    return fine, err


def invert_fourier_fundamental(
    x, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> KernelValue:
    """Whole-line fundamental solution by Fourier inversion.

    Accepts scalar or array x; the smooth part has shape x.shape + (2, 2).
    The persistent delta exp(-c^2 t/nu) delta(x) diag(1, 0) is returned in the
    delta list.  Raises AccuracyError when the self-estimate misses cfg.tol.
    """
    L, t1, _, scale = _unit_frame(t, params)
    smooth, err = _fourier_smooth_with_error(_points("x", x) / L, t1, cfg)
    if not err <= cfg.tol:
        raise AccuracyError("fourier inversion did not meet tolerance", err, cfg.tol)
    smooth = smooth[0] * scale if np.ndim(x) == 0 else smooth * scale
    return KernelValue(smooth=smooth, deltas=[(0.0, math.exp(-t1) * np.diag([1.0, 0.0]))])


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


def _invert_laplace_talbot(x, y, t, params, M: int, shift: float, orders) -> list:
    """Degree-M sums of G (order 0) and G_x (order 1), one per entry of ``orders``,
    on the contour shifted by ``shift``, before e^{shift t}; all contract one
    ``laplace_green`` table."""
    s, g = _talbot_nodes(t, M)
    s = s + shift
    values = laplace_green(x[..., None], y[..., None], s, params).reshape(x.size, M, 4)
    sums = []
    for order in orders:
        if order == 0:
            total = np.matmul(g, values).real
        else:
            weights = np.stack([-g * s / (params.nu * s + params.c**2), -g * s])
            rows = np.matmul(weights, values).real  # (points, 2, 4): rows of G, weighted
            total = np.stack([rows[:, 0, 2:], rows[:, 1, :2]], axis=1)
        sums.append(total.reshape(x.shape + (2, 2)))
    return sums


def _invert_laplace(x, y, t: float, params: ModelParams, cfg: QuadratureConfig, orders=(0,)):
    """Contour inversions of G (order 0) and G_x (order 1) at time t on the unit
    model, one table per degree for all ``orders``; the x-derivative maps back
    with one more 1/L.  Returns, per order, its values or the AccuracyError of
    its own self-check, so an order that misses cfg.tol does not fail the others."""
    L, t1, unit, scale = _unit_frame(t, params)
    x1, y1 = (v / L for v in _half_line_points(x, y))
    shift = _laplace_shift(t1, unit)
    degrees = (_TALBOT_DEGREE, _TALBOT_DEGREE + 8)
    outs, probes = (_invert_laplace_talbot(x1, y1, t1, unit, M, shift, orders) for M in degrees)
    results = []
    for order, out, probe in zip(orders, outs, probes):
        err = float(np.abs(out - probe).max())
        logger.debug("talbot self-check: points=%d degrees=%d/%d t'=%.6g diff=%.3g",
                     x1.size, *degrees, t1, err)
        if not err <= cfg.tol:
            results.append(AccuracyError("parabolic contour did not meet tolerance", err, cfg.tol))
        else:
            probe = probe * (scale / L**order) * math.exp(shift * t1)
            results.append(probe[0] if np.ndim(x) == np.ndim(y) == 0 else probe)
    return results


def _raise_or_return(result):
    if isinstance(result, AccuracyError):
        raise result
    return result


def invert_laplace_green(
    x, y, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Smooth part of the half-line Green's function by contour quadrature.

    Broadcasts over arrays x, y (same t, at least one point).  Requires x != y
    pointwise (the delta on the diagonal is not representable by quadrature).
    The parabolic contour self-checks by comparing two degrees and raises
    AccuracyError on failure; for the unstable class it compares them in the
    shifted frame, before the factor e^{shift t} that G grows with.
    """
    return _raise_or_return(_invert_laplace(x, y, t, params, cfg)[0])


def invert_laplace_green_dx(
    x, y, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
):
    """x-derivative of the smooth Green's function, exact (not a difference
    quotient): inverts the table of :func:`invert_laplace_green` with the
    derivative weights, with the same self-check."""
    return _raise_or_return(_invert_laplace(x, y, t, params, cfg, orders=(1,))[0])


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
    L, t1, unit, scale = _unit_frame(t, params)
    warr = _points("w", w)
    if np.any(warr < 0.0):
        raise ParameterError(f"need w >= 0, got w={warr[np.argmax(warr < 0.0)]}")
    smooth, err = _fourier_smooth_with_error(warr / L, t1, cfg, unit.gamma)
    if not err <= 10.0 * cfg.tol:
        raise AccuracyError("mirror quadrature did not meet tolerance", err, 10.0 * cfg.tol)
    smooth = smooth * scale * np.array([1.0, -1.0])
    return smooth[0] if np.ndim(w) == 0 else smooth


def fourier_green(
    x, y, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
):
    """Smooth half-line G: ``invert_fourier_fundamental`` at x - y plus the image at
    x + y, that oracle times +-diag(1, -1) (Dirichlet/Neumann) or the mirror kernel,
    each with its own self-check.  Broadcasts over x, y >= 0 with x != y."""
    refuse_unstable(params)
    xa, ya = _half_line_points(x, y)
    out = invert_fourier_fundamental(xa - ya, t, params, cfg).smooth
    bc = params.boundary_class
    if bc is BoundaryClass.MIXED_STABLE:
        out = out + mirror_by_quadrature(xa + ya, t, params, cfg)
    else:
        sign = 1.0 if bc is BoundaryClass.DIRICHLET else -1.0
        image = invert_fourier_fundamental(xa + ya, t, params, cfg).smooth
        out = out + sign * image * np.array([1.0, -1.0])
    return out[0] if np.ndim(x) == np.ndim(y) == 0 else out
