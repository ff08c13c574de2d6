"""Method-of-lines finite-difference solvers on a truncated half line.

Two systems share one discretization:

* linear:     u_t + m_x = 0,  m_t + c^2 u_x = nu m_xx          (u = rho - 1)
* nonlinear:  rho_t + m_x = 0,  m_t + (m^2/rho + p(rho))_x = nu (m/rho)_xx

Space: 2nd-order central differences in conservation form (an optional
4th-order interior stencil is available via ``scheme="central-4"``), with a
ghost node enforcing the Robin condition a1 m_x + a2 m = 0 at x = 0 and a
sponge layer at the artificial far boundary (``sponge_strength = 0`` turns
it off).  The density equation carries no physical viscosity, so a small
grid-vanishing fourth-difference dissipation (coefficient kappa4 * c * dx^3)
suppresses odd-even decoupling without reducing the formal order.

Time: classic four-stage Runge-Kutta with a step satisfying the acoustic,
viscous, and dissipation stability limits simultaneously.  The linear
semi-discrete system w' = A w is time-invariant, so one RK4 step is exactly
the matrix S(dt) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 (h = dt): the
same polynomial in A that the four stages evaluate, not an approximation of
it.  Every RHS row reads nodes within 3 of itself, so S is banded.  The
linear solver builds S once per step size by applying the RK4 step to
coloured unit vectors, stores it as dense blocks of a block-tridiagonal
matrix on the interleaved state (u0, m0, u1, m1, ...), and then advances
with one banded matrix-vector product per step.  The nonlinear solver runs
the same RK4 step on its RHS directly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import BoundaryClass, FieldState, Grid1D, ModelParams, Trajectory
from .errors import ConfigurationError, DivergenceError, ParameterError

SCHEMES = ("central-2", "central-4")
# Reach of one RK4 step on the interleaved state: 4 stages x 3 nodes x 2
# fields, plus 1 for the field offset within a node.
REACH = 25


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid1D
    t_end: float
    cfl_hyp: float = 0.45
    cfl_par: float = 0.45
    scheme: str = "central-2"
    sponge_fraction: float = 0.1
    sponge_strength: float = 1.0
    kappa4: float = 0.25
    pressure_gamma: float = 2.0
    pressure_scale: float | None = None  # None -> c^2 / pressure_gamma
    n_snapshots: int = 11

    def __post_init__(self):
        if not (0.0 < self.cfl_hyp <= 0.9 and 0.0 < self.cfl_par <= 0.9):
            raise ConfigurationError("CFL safety factors must lie in (0, 0.9]")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}")
        if not (self.t_end > 0.0):
            raise ConfigurationError("t_end must be positive")
        if self.kappa4 < 0.0:
            raise ConfigurationError("kappa4 must be non-negative")

    def resolved_pressure_scale(self, params: ModelParams) -> float:
        """Pressure prefactor of p(rho) = scale * rho^Gamma.

        The sound speed must satisfy c^2 = p'(1) = scale * Gamma; with the
        default scale = c^2/Gamma this holds identically, an explicit scale
        is validated against it.
        """
        if self.pressure_scale is None:
            return params.c**2 / self.pressure_gamma
        if abs(self.pressure_scale * self.pressure_gamma - params.c**2) > 1e-12:
            raise ConfigurationError(
                f"pressure law inconsistent with sound speed: scale*Gamma = "
                f"{self.pressure_scale * self.pressure_gamma:.6g} but c^2 = {params.c ** 2:.6g}"
            )
        return self.pressure_scale


def default_grid(length: float, params: ModelParams) -> Grid1D:
    """Grid resolving both the viscous scale nu/c and the domain (>= 1000 cells)."""
    dx = min(params.nu / params.c, length / 1000.0)
    return Grid1D(L=length, nx=int(math.ceil(length / dx)))


@dataclass(frozen=True)
class InitialData:
    """Initial perturbation family.

    kind "algebraic": amplitude * (1 + x^2)^(-r) with r > 1/2.  The exponent
        keeps the data integrable, which is what the long-time theory needs;
        with |x|^(-r)-type tails the diffusion-wave amplitude picks up a
        logarithm and the clean decay rates are lost (checked numerically).
    kind "gaussian":  amplitude-mass pulse of the given width at ``center``.
    kind "custom":    explicit node tables (rho_table is the full density).
    ``components`` selects which of (rho - 1, m) carry the profile.
    """

    kind: str = "algebraic"
    amplitude: float = 0.01
    r: float = 1.0
    center: float = 0.0
    width: float = 0.5
    components: tuple[str, ...] = ("rho",)
    rho_table: np.ndarray | None = None
    m_table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("algebraic", "gaussian", "custom"):
            raise ParameterError(f"unknown initial data kind {self.kind!r}")
        if self.kind == "algebraic" and not (self.r > 0.5):
            raise ParameterError(f"algebraic decay needs r > 1/2, got r={self.r}")
        if not set(self.components) <= {"rho", "m"}:
            raise ParameterError(f"components must be within {{'rho','m'}}, got {self.components}")


def _profile(spec: InitialData, x: np.ndarray) -> np.ndarray:
    if spec.kind == "algebraic":
        return spec.amplitude * (1.0 + x**2) ** (-spec.r)
    return (
        spec.amplitude
        / (spec.width * math.sqrt(2.0 * math.pi))
        * np.exp(-((x - spec.center) ** 2) / (2.0 * spec.width**2))
    )


def make_initial_data(spec: InitialData, grid: Grid1D, params: ModelParams) -> FieldState:
    """Discrete fields satisfying the Robin condition at t = 0.

    When the momentum carries a profile, its first three nodes are blended so
    the one-sided discrete boundary relation holds exactly (a few fixed-point
    sweeps of the node-0 correction smeared over nodes 0..2).
    """
    x = grid.x
    if spec.kind == "custom":
        if spec.rho_table is None or spec.m_table is None:
            raise ParameterError("custom initial data needs rho_table and m_table")
        rho = np.asarray(spec.rho_table, dtype=float).copy()
        m = np.asarray(spec.m_table, dtype=float).copy()
        if rho.shape != x.shape or m.shape != x.shape:
            raise ParameterError("custom tables must match the grid node count")
    else:
        prof = _profile(spec, x)
        rho = 1.0 + (prof if "rho" in spec.components else 0.0) * np.ones_like(x)
        m = (prof if "m" in spec.components else 0.0) * np.ones_like(x)

    if np.any(m != 0.0):
        m = _project_boundary_compatible(m, grid, params)
    elif params.boundary_class is BoundaryClass.DIRICHLET:
        m[0] = 0.0
    return FieldState(t=0.0, rho=rho, m=m)


def _project_boundary_compatible(m: np.ndarray, grid: Grid1D, params: ModelParams) -> np.ndarray:
    m = m.copy()
    dx = grid.dx
    if params.boundary_class is BoundaryClass.DIRICHLET:
        delta = -m[0]
        m[0:3] += delta * np.array([1.0, 4.0 / 9.0, 1.0 / 9.0])
        m[0] = 0.0
        return m
    a1, a2 = params.a1, params.a2
    blend = np.array([1.0, 4.0 / 9.0, 1.0 / 9.0])
    for _ in range(6):
        target = a1 * (4.0 * m[1] - m[2]) / (3.0 * a1 - 2.0 * dx * a2)
        m[0:3] += (target - m[0]) * blend
    # final node-0 snap so the one-sided relation holds exactly
    m[0] = a1 * (4.0 * m[1] - m[2]) / (3.0 * a1 - 2.0 * dx * a2)
    return m


# ---------------------------------------------------------------------------
# Discrete operators
# ---------------------------------------------------------------------------


def _grad(f: np.ndarray, dx: float, scheme: str) -> np.ndarray:
    g = np.empty_like(f)
    if scheme == "central-4" and f.size >= 7:
        g[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dx)
        g[1] = (f[2] - f[0]) / (2.0 * dx)
        g[-2] = (f[-1] - f[-3]) / (2.0 * dx)
    else:
        g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def _lap(f: np.ndarray, dx: float, scheme: str) -> np.ndarray:
    g = np.empty_like(f)
    dx2 = dx * dx
    if scheme == "central-4" and f.size >= 7:
        g[2:-2] = (
            -f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]
        ) / (12.0 * dx2)
        g[1] = (f[0] - 2.0 * f[1] + f[2]) / dx2
        g[-2] = (f[-3] - 2.0 * f[-2] + f[-1]) / dx2
    else:
        g[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx2
    g[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / dx2
    g[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / dx2
    return g


def _fourth_difference(f: np.ndarray) -> np.ndarray:
    d = np.zeros_like(f)
    d[2:-2] = f[:-4] - 4.0 * f[1:-3] + 6.0 * f[2:-2] - 4.0 * f[3:-1] + f[4:]
    return d


def _sponge_profile(grid: Grid1D, cfg: SolverConfig) -> np.ndarray:
    xs = grid.L * (1.0 - cfg.sponge_fraction)
    ramp = np.clip((grid.x - xs) / (grid.L - xs), 0.0, None)
    return cfg.sponge_strength * ramp**2


def _robin_ghost(m: np.ndarray, dx: float, params: ModelParams) -> float:
    """Ghost value m[-1] from a1 (m[1] - m[-1])/(2 dx) + a2 m[0] = 0."""
    return m[1] + 2.0 * dx * (params.a2 / params.a1) * m[0]


class _Rhs:
    """Semi-discrete right-hand side shared by the linear/nonlinear systems."""

    def __init__(self, params: ModelParams, cfg: SolverConfig, nonlinear: bool):
        self.params = params
        self.cfg = cfg
        self.nonlinear = nonlinear
        self.sigma = _sponge_profile(cfg.grid, cfg)
        self.dirichlet = params.boundary_class is BoundaryClass.DIRICHLET
        self.p_scale = cfg.resolved_pressure_scale(params) if nonlinear else 0.0

    def __call__(self, u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # u is the density perturbation rho - 1 in both regimes.
        p = self.params
        cfg = self.cfg
        dx = cfg.grid.dx
        scheme = cfg.scheme
        c, nu = p.c, p.nu

        dudt = -_grad(m, dx, scheme)
        if self.nonlinear:
            rho = 1.0 + u
            v = m / rho
            flux = m * v + self.p_scale * rho**cfg.pressure_gamma
            dmdt = -_grad(flux, dx, scheme) + nu * _lap(v, dx, scheme)
        else:
            dmdt = -c**2 * _grad(u, dx, scheme) + nu * _lap(m, dx, scheme)

        # Boundary node: Robin ghost for the viscous stencil, one-sided
        # pressure/flux gradient; Dirichlet pins m(0) = 0.
        if self.dirichlet:
            dmdt[0] = 0.0
        else:
            ghost_m = _robin_ghost(m, dx, p)
            if self.nonlinear:
                ghost_rho = 3.0 * rho[0] - 3.0 * rho[1] + rho[2]
                ghost_v = ghost_m / ghost_rho
                visc = nu * (ghost_v - 2.0 * v[0] + v[1]) / dx**2
                dmdt[0] = -(-3.0 * flux[0] + 4.0 * flux[1] - flux[2]) / (2.0 * dx) + visc
            else:
                visc = nu * (ghost_m - 2.0 * m[0] + m[1]) / dx**2
                dmdt[0] = -c**2 * (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dx) + visc

        if cfg.kappa4 > 0.0:
            dudt -= cfg.kappa4 * c / dx * _fourth_difference(u)
        dudt -= self.sigma * u
        dmdt -= self.sigma * m
        return dudt, dmdt


def _rk4_step(rhs: _Rhs, u: np.ndarray, m: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One classic four-stage Runge-Kutta step of (u, m)' = rhs(u, m)."""
    k1u, k1m = rhs(u, m)
    k2u, k2m = rhs(u + 0.5 * dt * k1u, m + 0.5 * dt * k1m)
    k3u, k3m = rhs(u + 0.5 * dt * k2u, m + 0.5 * dt * k2m)
    k4u, k4m = rhs(u + dt * k3u, m + dt * k3m)
    u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    m = m + (dt / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    return u, m


class _StepMatrix:
    """The linear RK4 step S(dt) as a block-tridiagonal matrix.

    The state is interleaved, w = (u0, m0, u1, m1, ...).  S is assembled by
    applying ``_rk4_step`` to 2 REACH + 1 coloured probes (unit vectors at
    every index of one residue class): columns of one colour lie further
    apart than twice the reach, so each probe's nonzeros belong to exactly
    one column per row.  The block size b is the measured half-bandwidth,
    which puts row block I in column blocks I-1, I, I+1.
    """

    def __init__(self, rhs: _Rhs, n_nodes: int, dt: float):
        n = 2 * n_nodes
        k = 2 * REACH + 1
        rows = np.arange(n)
        probe = np.zeros(n)
        band = np.zeros((k, n))  # band[REACH + j - i, i] = S[i, j]
        for c in range(k):
            probe[c::k] = 1.0
            su, sm = _rk4_step(rhs, probe[0::2], probe[1::2], dt)
            probe[c::k] = 0.0
            diag = (c - rows + REACH) % k
            band[diag[0::2], rows[0::2]] = su
            band[diag[1::2], rows[1::2]] = sm
        b = int(np.abs(np.flatnonzero(band.any(axis=1)) - REACH).max())
        nb = -(-n // b)
        r = np.arange(b)
        self.blocks = np.zeros((nb, b, 3 * b))
        for d in range(-b, b + 1):
            self.blocks[:, r, r + d + b] = np.pad(band[REACH + d], (0, nb * b - n)).reshape(nb, b)
        self.dt = dt
        self.n = n
        self.b = b

    def advance(self, u: np.ndarray, m: np.ndarray, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Apply S n_steps times; zero padding keeps every window in range."""
        b, n = self.b, self.n
        w = np.zeros((self.blocks.shape[0] + 2) * b)
        w[b : b + n : 2] = u
        w[b + 1 : b + n : 2] = m
        windows = sliding_window_view(w, 3 * b)[::b, :, None]
        for _ in range(n_steps):
            w[b:-b] = (self.blocks @ windows).ravel()
        return w[b : b + n : 2], w[b + 1 : b + n : 2]


def _stable_dt(params: ModelParams, cfg: SolverConfig) -> float:
    dx = cfg.grid.dx
    c, nu = params.c, params.nu
    dt = min(cfg.cfl_hyp * dx / c, cfg.cfl_par * dx**2 / nu)
    rate = 4.0 * nu / dx**2 + 16.0 * cfg.kappa4 * c / dx + c / dx + cfg.sponge_strength
    return min(dt, 2.2 / rate)


def _snapshot_times(cfg: SolverConfig, output_times) -> np.ndarray:
    if output_times is None:
        times = np.linspace(0.0, cfg.t_end, cfg.n_snapshots)
    else:
        times = np.asarray(output_times, dtype=float)
        if times[0] != 0.0:
            times = np.concatenate([[0.0], times])
    if np.any(np.diff(times) <= 0) or times[-1] > cfg.t_end + 1e-12:
        raise ConfigurationError("output times must increase and stay within t_end")
    return times


def _boundary_residuals(
    u: np.ndarray, m: np.ndarray, rhs: _Rhs, params: ModelParams, dx: float
) -> tuple[float, float]:
    if params.boundary_class is BoundaryClass.DIRICHLET:
        enforced = abs(m[0])
    else:
        ghost = _robin_ghost(m, dx, params)
        enforced = abs(params.a1 * (m[1] - ghost) / (2.0 * dx) + params.a2 * m[0])
    dudt, _ = rhs(u, m)
    alt = abs(-params.a1 * dudt[0] + params.a2 * m[0])
    return enforced, alt


def _integrate(
    init: FieldState,
    params: ModelParams,
    cfg: SolverConfig,
    nonlinear: bool,
    output_times,
) -> Trajectory:
    if init.rho.shape != cfg.grid.x.shape:
        raise ConfigurationError("initial data does not match the configured grid")
    rhs = _Rhs(params, cfg, nonlinear)
    times = _snapshot_times(cfg, output_times)
    dt_max = _stable_dt(params, cfg)
    dx = cfg.grid.dx

    u = init.rho - 1.0
    m = init.m.copy()
    if rhs.dirichlet:
        m[0] = 0.0

    traj = Trajectory(grid=cfg.grid, params=params)
    r0, ra0 = _boundary_residuals(u, m, rhs, params, dx)
    traj.append(FieldState(t=times[0], rho=1.0 + u, m=m.copy()), r0, ra0)

    t = times[0]
    step = None
    for t_next in times[1:]:
        n_steps = max(1, int(math.ceil((t_next - t) / dt_max)))
        dt = (t_next - t) / n_steps
        if nonlinear:
            for _ in range(n_steps):
                u, m = _rk4_step(rhs, u, m, dt)
        else:
            if step is None or step.dt != dt:
                step = None  # release the old matrix before building the next
                step = _StepMatrix(rhs, u.size, dt)
            u, m = step.advance(u, m, n_steps)
        t = t_next
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(m))):
            exc = DivergenceError("solution lost finiteness", t)
            exc.partial = traj
            raise exc
        if nonlinear and (np.min(u) <= -0.5 or np.max(u) >= 0.5):
            exc = DivergenceError(
                "density left [1/2, 3/2]; reduce the initial amplitude or dx", t
            )
            exc.partial = traj
            raise exc
        r, ra = _boundary_residuals(u, m, rhs, params, dx)
        traj.append(FieldState(t=t, rho=1.0 + u, m=m.copy()), r, ra)
    return traj


def solve_linear(
    init: FieldState, params: ModelParams, cfg: SolverConfig, output_times=None
) -> Trajectory:
    """Evolve the linearized system.  Works for every boundary class; the
    unstable mixed class grows exponentially by design (instability studies)."""
    return _integrate(init, params, cfg, nonlinear=False, output_times=output_times)


def solve_nonlinear(
    init: FieldState, params: ModelParams, cfg: SolverConfig, output_times=None
) -> Trajectory:
    """Evolve the full system in conservation form, monitoring positivity."""
    if params.boundary_class is BoundaryClass.MIXED_UNSTABLE:
        raise ConfigurationError("nonlinear runs require a stable boundary class")
    return _integrate(init, params, cfg, nonlinear=True, output_times=output_times)


@dataclass
class NonlinearTermValue:
    """Pointwise flux-form nonlinearity on the grid: the bracketed flux
    q_tilde and its spatial derivative q = d(q_tilde)/dx."""

    q_tilde: np.ndarray
    q: np.ndarray


def nonlinear_term(
    state: FieldState,
    params: ModelParams,
    grid: Grid1D,
    pressure_gamma: float = 2.0,
    pressure_scale: float | None = None,
) -> NonlinearTermValue:
    """Quadratic flux remainder of the momentum equation around (1, 0):

    q_tilde = -[ m^2/rho + p(rho) - p(1) - p'(1)(rho - 1) + nu ((rho-1) m / rho)_x ]
    """
    rho, m = state.rho, state.m
    if np.any(rho <= 0.0):
        raise ParameterError("density must be positive")
    scale = params.c**2 / pressure_gamma if pressure_scale is None else pressure_scale
    u = rho - 1.0
    p_of = lambda r: scale * r**pressure_gamma  # noqa: E731
    dp1 = scale * pressure_gamma
    inner = u * m / rho
    q_tilde = -(
        m * m / rho + p_of(rho) - p_of(np.ones_like(rho)) - dp1 * u
        + params.nu * _grad(inner, grid.dx, "central-2")
    )
    return NonlinearTermValue(q_tilde=q_tilde, q=_grad(q_tilde, grid.dx, "central-2"))


@dataclass
class GreenColumns:
    """Green's-function columns approximated by narrow-pulse runs.

    ``rho_pulse`` carries the response to a unit-mass density pulse at y0
    (first column), ``m_pulse`` the response to a momentum pulse (second
    column).
    """

    y0: float
    width: float
    rho_pulse: Trajectory
    m_pulse: Trajectory

    def matrix_at(self, x: float, t: float) -> np.ndarray:
        """2x2 column matrix at (x, t); t must be a stored snapshot time."""
        out = np.empty((2, 2))
        for j, traj in enumerate((self.rho_pulse, self.m_pulse)):
            times = traj.times
            k = int(np.argmin(np.abs(times - t)))
            if abs(times[k] - t) > 1e-9 * max(1.0, t):
                raise ParameterError(f"t={t} is not a stored snapshot time")
            st = traj.states[k]
            xg = traj.grid.x
            out[0, j] = np.interp(x, xg, st.rho - 1.0)
            out[1, j] = np.interp(x, xg, st.m)
        return out


def green_column(
    y0: float,
    params: ModelParams,
    cfg: SolverConfig,
    width: float | None = None,
    output_times=None,
) -> GreenColumns:
    """Approximate the two columns of the Green's function by evolving
    unit-mass narrow pulses in each component separately."""
    dx = cfg.grid.dx
    if width is None:
        width = 4.0 * dx
    if width < 4.0 * dx:
        raise ConfigurationError(f"pulse width {width} under-resolved (need >= 4 dx = {4 * dx})")
    if not (10.0 * width <= y0 <= cfg.grid.L - 10.0 * width):
        raise ConfigurationError("pulse center must sit >= 10 widths away from both boundaries")
    runs = {}
    for comp in ("rho", "m"):
        spec = InitialData(kind="gaussian", amplitude=1.0, center=y0, width=width,
                           components=(comp,))
        init = make_initial_data(spec, cfg.grid, params)
        runs[comp] = solve_linear(init, params, cfg, output_times=output_times)
    return GreenColumns(y0=y0, width=width, rho_pulse=runs["rho"], m_pulse=runs["m"])


# ---------------------------------------------------------------------------
# Trajectory output
# ---------------------------------------------------------------------------


def write_trajectory(
    traj: Trajectory, out_dir: str, prefix: str, cfg: SolverConfig | None = None
) -> list[str]:
    """Write one CSV per snapshot (x, rho, m; 17 significant digits) plus a
    JSON manifest echoing params, config, and the residual logs."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    x = traj.grid.x
    for k, st in enumerate(traj.states):
        path = os.path.join(out_dir, f"{prefix}_{k:04d}.csv")
        with open(path, "w") as fh:
            fh.write("x,rho,m\n")
            for xi, ri, mi in zip(x, st.rho, st.m):
                fh.write(f"{xi:.17g},{ri:.17g},{mi:.17g}\n")
        paths.append(path)
    manifest = {
        "params": asdict(traj.params),
        "grid": {"L": traj.grid.L, "nx": traj.grid.nx},
        "times": [st.t for st in traj.states],
        "boundary_residual": traj.boundary_residual,
        "boundary_residual_alt": traj.boundary_residual_alt,
        "snapshots": [os.path.basename(pth) for pth in paths],
    }
    if cfg is not None:
        cfg_dict = asdict(cfg)
        cfg_dict["grid"] = {"L": cfg.grid.L, "nx": cfg.grid.nx}
        manifest["solver"] = cfg_dict
    mpath = os.path.join(out_dir, f"{prefix}_manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2)
    paths.append(mpath)
    return paths
