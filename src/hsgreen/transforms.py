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
model S(xi, t) built from Lorentzian profiles L_k = 1/(k^2 + xi^2), whose
inverse transforms are explicit decaying exponentials (q = e^{-t}):

    S11 = q (1 + a1 L1 + a2 L2),   a2 = -(t^2/2 - 4 t + 4)/3, a1 = 1 - t - a2
    S22 = q (b1 L1 + b2 L2),       b2 = (4 - t)/3,            b1 = -1 - b2
    S12 = S21 = -i q xi (A L1 + B L2 + C L3),
    A = (t^2 - 34 t + 136)/48, B = -(t^2 - 28 t + 70)/30, C = (t^2 - 18 t + 40)/80.

The weights match the slow mode's series in 1/xi through xi^{-4} (even
entries) and xi^{-5} (odd entries),

    F11/q = 1 + (1 - t) xi^-2 + (t^2/2 - 3 t + 3) xi^-4 + ...
    F22/q = -xi^-2 + (t - 3) xi^-4 + ...
    Im F12/q = -xi^-1 + (t - 2) xi^-3 + (-t^2/2 + 4 t - 6) xi^-5 + ...,

so the remaining integrand decays like xi^{-6} (even entries) and xi^{-7}
(odd entries); the subtracted part is added back in closed form, L_k ->
e^{-k|x|}/(2k) and -i xi L_k -> sgn(x) e^{-k|x|}/2.  The constant piece of
S11 is the persistent delta, reported separately.  Beyond xi_max every entry
of the residual is at most c_res xi^{-6}, c_res = 2 q (t^3/6 + 5 t^2 + 29 t
+ 29), so the dropped tail is at most c_res/(5 pi xi_max^5), and

    xi_max = (4 c_res / (5 pi tol))^{1/5}

keeps it below tol/4 (floored at 1.2 xi_core + 5 and 10).  The bound is
checked in 60-digit arithmetic over t' in [0.01, 200]; float64 cannot check
it, because the cancellation in mu + D pollutes F beyond xi ~ 10^3.  The
coarse/fine self-check shares xi_max, so it cannot see the truncation: its
DEBUG line also logs xi_max and the bound, with the panels per segment and
the largest Filon frequency |x| h.

The residual is summed on panels in two segments, a dense core and a
coarser tail, each of uniform half-width h.  Each panel [m_p - h, m_p + h]
is a Filon-Gauss rule (Iserles & Norsett 2005): the residual is interpolated
at the _N_XI Gauss points m_p + h g_j and the phase is integrated exactly,

    int r(xi) e^{i x xi} dxi ~= h e^{i x m_p} sum_j r_pj M_j(x h),
    M_j(omega) = int_{-1}^{1} l_j(u) e^{i omega u} du,

with l_j the Lagrange basis on the Gauss points (``_filon_moments``;
M_j(0) = w_j, so x = 0 is the Gauss rule).  The panels therefore resolve
the residual, not e^{i x xi}, and no width depends on x.  The residual's
modes oscillate like e^{+-i xi t}: the core panels are C/(t + 1) wide, C =
1.5 + 4.5 t/(t + 128) radians of that phase, capped at 0.4 by the model's
poles at xi = +-i, and the tail panels 5.  A 10-point Filon rule is exact
for degree 9 in r where Gauss is for degree 19, hence the narrower core.
The grid grows like t only; past t' = _FOURIER_T_MAX both Fourier oracles
raise ParameterError before they build it.

A segment's phase sum is one GEMM of the (point, panel) phases e^{i x m_p}
against the residual, one contraction over the _N_XI Filon weights.

Mirror kernel
-------------
The boundary part of the stable mixed class is an exponential convolution
of the fundamental solution, i.e. the Fourier multiplier
M(xi) = (gamma + i xi)/(gamma - i xi) applied to its symbol.  The mirror
oracle reuses the panels and the subtraction above: M times the residual is
inverted by the same Filon sums (M breaks the parity), and the model term
maps in closed form, e^{-beta w} -> (gamma - beta)/(gamma + beta) e^{-beta w}
for w > 0 and beta in {1, 2, 3}.  M has a pole at xi = -i gamma, and the
Filon interpolant resolves it only if the core panels are at most gamma/2
wide; the whole-line oracle (M = 1) has no such cap.

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

from .core import BoundaryClass, KernelValue, ModelParams, check_points, check_positive
from .errors import AccuracyError, ConfigurationError, ParameterError
from .spectral import find_boundary_pole, fourier_fundamental, laplace_green, refuse_unstable

logger = logging.getLogger(__name__)
_N_XI = 10  # Gauss-Legendre points per Filon panel
# The largest t' the Fourier oracles take: there the fine grid holds 6.8e5 nodes, and
# two points take 0.3 s and 165 MB.
_FOURIER_T_MAX = 1e5
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


def _points(name: str, v, lo: float = -math.inf) -> np.ndarray:
    """``v`` checked by ``core.check_points`` as a float array of at least one
    dimension; also refuses an empty point set, before any quadrature runs."""
    arr = np.atleast_1d(check_points(name, v, lo))
    if arr.size == 0:
        raise ParameterError(f"need at least one {name} point")
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
    check_positive("t", t)
    c, L = params.c, params.nu / params.c
    return L, t * c / L, params.unit_model, np.array([[1.0, 1.0 / c], [c, 1.0]]) / L


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
    t: float, cfg: QuadratureConfig, refine: int = 1, gamma: float | None = None,
) -> list[tuple[np.ndarray, float]]:
    """Panel grid on [0, xi_max] for the Filon sums: dense where the symbol
    oscillates, coarser on the algebraic tail, the same for every x.
    ``refine`` halves the panel widths (error probe); the mirror's ``gamma``
    caps the core width at half its multiplier's scale.

    Returns the core and tail segments as (panel midpoints, half-width): the
    panels of a segment are uniform, so its nodes are mid + half * g_j for
    the _N_XI Gauss-Legendre points g_j."""
    # Core: beyond xi_core the Gaussian-decaying modes are < 1e-18.
    xi_core = math.sqrt(83.0 / t) + 2.0
    # Beyond xi_max the residual is below c_res / xi^6, so the dropped tail,
    # (1/pi) int c_res xi^-6 = c_res / (5 pi xi_max^5), is at most tol/4.
    xi_max = (4.0 * _residual_bound(t) / (5.0 * math.pi * cfg.tol)) ** 0.2
    xi_max = max(xi_max, 1.2 * xi_core + 5.0, 10.0)
    xi_core = min(xi_core, xi_max * 0.5)
    # The panels resolve the residual only (module docstring).  Its modes
    # oscillate like e^{+-i xi t}: the core takes 1.5 radians of that phase per
    # panel at small t and up to 6 at large t, where the Gaussian envelope
    # e^{-xi^2 t/2} damps the interpolation error.  The Lorentzian poles at
    # +-i cap the width at 0.4, the multiplier's pole at -i gamma at gamma/2.
    phase = 1.5 + 4.5 * t / (t + 128.0)
    cap = math.inf if gamma is None else 0.5 * gamma
    w_core = min(phase / (t + 1.0), xi_core / 6.0, 0.4, cap) / refine
    w_tail = 5.0 / refine
    segments = []
    for lo, hi, width in ((0.0, xi_core, w_core), (xi_core, xi_max, w_tail)):
        edges = _edges(lo, hi, width)
        segments.append((0.5 * (edges[:-1] + edges[1:]), 0.5 * (hi - lo) / (edges.size - 1)))
    return segments


def _residual_bound(t: float) -> float:
    """c_res: beyond xi_max every entry of the residual is at most c_res
    xi^-6: twice q (t^3/6 + 5 t^2 + 29 t + 29), which bounds the (1,1)
    entry's xi^-6 coefficient and the smaller ones of the other entries; the
    factor 2 covers the higher orders (module docstring)."""
    return 2.0 * math.exp(-t) * (t**3 / 6.0 + 5.0 * t**2 + 29.0 * t + 29.0)


_LORENTZ_K = np.array([1.0, 2.0, 3.0])  # L_k = 1/(k^2 + xi^2)


def _subtraction_coefficients(t: float) -> tuple[float, np.ndarray]:
    """q = e^{-t} and the (3, 3) weights of L_1, L_2, L_3 in the model's rows
    S11/q - 1, S22/q and i S12/(q xi) (module docstring)."""
    a2 = -(0.5 * t**2 - 4.0 * t + 4.0) / 3.0
    b2 = (4.0 - t) / 3.0
    weights = np.array([
        [1.0 - t - a2, a2, 0.0],
        [-1.0 - b2, b2, 0.0],
        [(t**2 - 34.0 * t + 136.0) / 48.0, -(t**2 - 28.0 * t + 70.0) / 30.0,
         (t**2 - 18.0 * t + 40.0) / 80.0],
    ])
    return math.exp(-t), weights


def _smooth_residual(xi: np.ndarray, t: float, gamma: float | None = None) -> np.ndarray:
    """M(xi) times the symbol minus its Lorentzian model, shape (xi.size, 4)."""
    F = fourier_fundamental(xi, t, ModelParams(c=1.0, nu=1.0))
    q, weights = _subtraction_coefficients(t)
    m11, m22, m_odd = q * (weights @ (1.0 / (_LORENTZ_K[:, None] ** 2 + xi**2)))
    # Residual after the Lorentzian subtraction: real even diagonal entries,
    # imaginary odd off-diagonal ones.
    res = np.empty((xi.size, 2, 2), dtype=complex)
    res[:, 0, 0] = F[:, 0, 0].real - q - m11
    res[:, 1, 1] = F[:, 1, 1].real - m22
    res[:, 0, 1] = 1j * (F[:, 0, 1].imag + xi * m_odd)
    res[:, 1, 0] = 1j * (F[:, 1, 0].imag + xi * m_odd)
    if gamma is not None:
        res *= ((gamma + 1j * xi) / (gamma - 1j * xi))[:, None, None]
    return res.reshape(-1, 4)


def _model_terms(x: np.ndarray, t: float, gamma: float | None = None) -> np.ndarray:
    """Closed-form transform of the subtracted model (minus its delta): L_k
    maps to e^{-k|x|}/(2k) and -i xi L_k to sgn(x) e^{-k|x|}/2, k in {1, 2, 3}.
    For x > 0 the multiplier maps e^{-k x} to (gamma - k)/(gamma + k) e^{-k x}."""
    q, weights = _subtraction_coefficients(t)
    sg, gain = np.sign(x), 1.0
    if gamma is not None:
        sg, gain = 1.0, (gamma - _LORENTZ_K) / (gamma + _LORENTZ_K)
    e = (0.5 * q * gain) * np.exp(-_LORENTZ_K * np.abs(x)[..., None])
    out = np.empty(x.shape + (2, 2))
    out[..., 0, 0] = e @ (weights[0] / _LORENTZ_K)
    out[..., 1, 1] = e @ (weights[1] / _LORENTZ_K)
    out[..., 0, 1] = out[..., 1, 0] = sg * (e @ weights[2])
    return out


def _unit_phase(phase: np.ndarray) -> np.ndarray:
    """e^{i phase} for a real array."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


_FILON_SWITCH = 12.0  # |omega| from which _filon_moments uses the Bessel recurrence


@functools.lru_cache(maxsize=1)
def _filon_basis() -> tuple[np.ndarray, ...]:
    """Read-only tables for _filon_moments: the 20 positive points u_q of the
    40-point Gauss rule, the (20, _N_XI) tables w_q (l_j(u_q) +- l_j(-u_q))
    that weight cos(omega u_q) and sin(omega u_q), and the real and imaginary
    parts of the (_N_XI, _N_XI) map 2 i^k a_jk from j_k(omega) to M_j(omega)."""
    gx, gw = _gauss_legendre(_N_XI)
    # The Lagrange basis on the Gauss points in Legendre form, l_j = sum_k a_jk P_k,
    # a_jk = (k + 1/2) w_j P_k(g_j): the _N_XI-point rule integrates l_j P_k exactly.
    coef = (np.arange(_N_XI) + 0.5) * gw[:, None] * np.polynomial.legendre.legvander(gx, _N_XI - 1)
    u, wu = (a[20:] for a in _gauss_legendre(40))
    plus, minus = (np.polynomial.legendre.legvander(v, _N_XI - 1) @ coef.T for v in (u, -u))
    # int_{-1}^{1} P_k(u) e^{i omega u} du = 2 i^k j_k(omega)
    far = 2.0 * (1j ** np.arange(_N_XI))[:, None] * coef.T
    tables = (u, wu[:, None] * (plus + minus), wu[:, None] * (plus - minus), far.real, far.imag)
    for a in tables:
        a.flags.writeable = False
    return tables


def _filon_moments(omega: np.ndarray) -> np.ndarray:
    """M_j(omega) = int_{-1}^{1} l_j(u) e^{i omega u} du for the Lagrange basis
    l_j on the _N_XI Gauss points, shape omega.shape + (_N_XI,); M_j(0) = w_j.

    Below |omega| = _FILON_SWITCH a 40-point Gauss rule integrates l_j e^{i omega u}
    to rounding.  From there M_j = sum_k 2 i^k a_jk j_k(omega), with j_0 ... j_9
    from the upward recurrence, which is stable for |omega| above the order.
    Each branch is odd or even in omega term by term, so M_j(-omega) =
    conj(M_j(omega)) holds bitwise, as j_k(-omega) = (-1)^k j_k(omega) does."""
    u, even, odd, far_re, far_im = _filon_basis()
    omega = np.asarray(omega, dtype=float)
    out = np.empty(omega.shape + (_N_XI,), dtype=complex)
    re, im = out.real, out.imag
    small = np.abs(omega) < _FILON_SWITCH
    phase = np.multiply.outer(omega[small], u)
    re[small] = np.cos(phase) @ even
    im[small] = np.sin(phase) @ odd
    w = omega[~small]
    j = np.empty((_N_XI,) + w.shape)
    j[0] = np.sin(w) / w
    j[1] = (j[0] - np.cos(w)) / w
    for k in range(1, _N_XI - 1):
        j[k + 1] = (2 * k + 1) / w * j[k] - j[k - 1]
    re[~small] = j.T @ far_re
    im[~small] = j.T @ far_im
    return out


# Bound on one segment's phase table, (points x panels), in elements.
_PHASE_CHUNK = 1_000_000


def _fourier_smooth_grid(
    x: np.ndarray, t: float, cfg: QuadratureConfig, refine: int = 1, gamma: float | None = None,
) -> np.ndarray:
    """Inverse transform of M(xi) times the smooth symbol of the unit model on an array of x.

    M = 1 gives the smooth part of the fundamental solution; for a given
    ``gamma``, M = (gamma + i xi)/(gamma - i xi) gives the mirror kernel
    before its diag(1, -1) factor, for x >= 0 (x = 0 as the x -> 0+ limit).
    """
    x = np.asarray(x, dtype=float)
    segments = _xi_grid(t, cfg, refine, gamma)
    gx = _gauss_legendre(_N_XI)[0]
    nodes = [(mid[:, None] + half * gx).ravel() for mid, half in segments]
    res = _smooth_residual(np.concatenate(nodes), t, gamma)
    # Hermitian symmetry folds the inverse onto xi > 0,
    # (1/pi) int_0^inf Re(P e^{i xi x}); each segment's phase sum is one GEMM
    # and one contraction over the Filon weights (module docstring).
    xs = x.ravel()
    flat = np.zeros((xs.size, 4))
    # The Filon weights M_j(x h), one (point, j) table per segment
    filon = _filon_moments(np.outer([half for _, half in segments], xs))
    for (mid, half), r, weights in zip(segments, np.split(res, [nodes[0].size]), filon):
        r = r.reshape(mid.size, -1) * (half / math.pi)
        step = max(1, _PHASE_CHUNK // mid.size)
        for i in range(0, xs.size, step):
            xc = xs[i : i + step]
            panel_sum = _unit_phase(np.outer(xc, mid)) @ r
            flat[i : i + xc.size] += np.einsum(
                "xj,xje->xe", weights[i : i + xc.size], panel_sum.reshape(xc.size, _N_XI, 4)
            ).real
    return flat.reshape(x.shape + (2, 2)) + _model_terms(x, t, gamma)


def _fourier_smooth_with_error(
    x: np.ndarray, t: float, cfg: QuadratureConfig, gamma: float | None = None,
) -> tuple[np.ndarray, float]:
    if not t <= _FOURIER_T_MAX:
        raise ParameterError(f"the Fourier oracles need t' = c^2 t/nu <= {_FOURIER_T_MAX:g}, "
                             f"got t'={t:g}: their grid grows like t'")
    coarse = _fourier_smooth_grid(x, t, cfg, 1, gamma)
    fine = _fourier_smooth_grid(x, t, cfg, 2, gamma)
    err = float(np.abs(fine - coarse).max())
    if logger.isEnabledFor(logging.DEBUG):
        # Both levels share xi_max, so the diff cannot see the truncation:
        # the line also gives its bound c_res / (5 pi xi_max^5).  omega_max is
        # the largest Filon frequency |x| h of the coarse level.
        grids = [_xi_grid(t, cfg, k, gamma) for k in (1, 2)]
        nodes = [_N_XI * sum(m.size for m, _ in grid) for grid in grids]
        tail_mid, tail_half = grids[0][-1]
        xi_max = float(tail_mid[-1] + tail_half)
        trunc = _residual_bound(t) / (5.0 * math.pi * xi_max**5)
        omega_max = float(np.abs(x).max()) * max(h for _, h in grids[0])
        logger.debug("fourier self-check: points=%d nodes=%d/%d (coarse/fine) panels=%d+%d "
                     "(core+tail) t'=%.6g gamma'=%s diff=%.3g xi_max=%.6g trunc=%.3g "
                     "omega_max=%.6g", np.size(x), *nodes, *(m.size for m, _ in grids[0]),
                     t, gamma, err, xi_max, trunc, omega_max)
    return fine, err


def invert_fourier_fundamental(
    x, t: float, params: ModelParams, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> KernelValue:
    """Whole-line fundamental solution by Fourier inversion.

    Accepts scalar or array x; the smooth part has shape x.shape + (2, 2).
    The persistent delta exp(-c^2 t/nu) delta(x) is returned as the weight at
    offset 0.  Raises AccuracyError when the self-estimate misses cfg.tol, and
    ParameterError past t' = c^2 t/nu = _FOURIER_T_MAX.
    """
    L, t1, _, scale = _unit_frame(t, params)
    with np.errstate(over="ignore", invalid="ignore"):
        smooth, err = _fourier_smooth_with_error(_points("x", x) / L, t1, cfg)
    if not err <= cfg.tol:
        raise AccuracyError("fourier inversion did not meet tolerance", err, cfg.tol)
    smooth = smooth[0] * scale if np.ndim(x) == 0 else smooth * scale
    return KernelValue(smooth=smooth, delta_at=0.0, delta_weight=math.exp(-t1))


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
    ``laplace_green`` table.  A table entry that overflows becomes inf or NaN
    without a warning: the self-check catches it and raises AccuracyError."""
    s, g = _talbot_nodes(t, M)
    s = s + shift
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        values = laplace_green(x[..., None], y[..., None], s, params).reshape(x.size, M, 4)
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
    shift = _laplace_shift(t1, unit)
    degrees = (_TALBOT_DEGREE, _TALBOT_DEGREE + 8)
    with np.errstate(over="ignore", invalid="ignore"):
        x1, y1 = (v / L for v in _half_line_points(x, y))
        outs, probes = (_invert_laplace_talbot(x1, y1, t1, unit, M, shift, orders)
                        for M in degrees)
        errs = [float(np.abs(out - probe).max()) for out, probe in zip(outs, probes)]
    results = []
    for order, probe, err in zip(orders, probes, errs):
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
    warr = _points("w", w, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
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
