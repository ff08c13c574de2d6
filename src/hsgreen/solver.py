"""Method-of-lines finite-difference solvers on a truncated half line.

Two systems share one discretization:

* linear:     u_t + m_x = 0,  m_t + c^2 u_x = nu m_xx          (u = rho - 1)
* nonlinear:  rho_t + m_x = 0,  m_t + (m^2/rho + p(rho))_x = nu (m/rho)_xx

Space: 2nd-order central differences in conservation form, with a ghost
node enforcing the Robin condition a1 m_x + a2 m = 0 at x = 0 and a sponge
layer on the last ``_SPONGE_FRACTION`` of [0, L] (``sponge_strength = 0``
turns it off).  The far row of the second difference reads the mirror ghost
f[n] = f[n-2], the far-end twin of the Robin ghost, so it damps there like
the interior; the gradients use one-sided rows at both ends.  The density
equation carries no physical viscosity, so a small grid-vanishing
fourth-difference dissipation (coefficient ``_KAPPA4`` * c * dx^3)
suppresses odd-even decoupling without reducing the formal order.

Time: one second-order IMEX Runge-Kutta scheme, ARS(2,2,2), for both
systems.  The viscous term nu m_xx is implicit, with its boundary rows (the
Robin ghost or the Dirichlet pin at x = 0, the mirror ghost at the far end);
everything else is explicit, including the viscous remainder
nu (m/rho - m)_xx of the nonlinear system.  The step is the smallest of
three limits of the explicit part, chosen afresh for each snapshot segment:
the acoustic CFL, the dissipation limit 2/rate and, in the nonlinear
system, cfl_par dx^2 over the remainder's viscosity, measured on the
segment's starting density (see ``_stable_dt``).  The implicit matrix
I - h nu D2 is tridiagonal and depends on the step size only; it is
factored once per size without pivoting, and LAPACK's dgttrs runs the two
substitutions with identity pivots, so a Dirichlet row returns m(0) = 0
exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .core import BoundaryClass, FieldState, Grid1D, ModelParams, Trajectory, write_csv
from .errors import ConfigurationError, DivergenceError, ParameterError

_KAPPA4 = 0.25
_SPONGE_FRACTION = 0.1


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid1D
    t_end: float
    cfl_hyp: float = 0.45
    cfl_par: float = 0.45
    sponge_strength: float = 1.0
    pressure_gamma: float = 2.0
    n_snapshots: int = 11

    def __post_init__(self):
        if not (0.0 < self.cfl_hyp <= 0.9 and 0.0 < self.cfl_par <= 0.9):
            raise ConfigurationError("CFL safety factors must lie in (0, 0.9]")
        if not (self.t_end > 0.0):
            raise ConfigurationError("t_end must be positive")
        if self.n_snapshots < 2:
            raise ConfigurationError(
                f"n_snapshots counts t = 0 and t_end, so it must be >= 2, got {self.n_snapshots}"
            )


@dataclass(frozen=True)
class InitialData:
    """Initial perturbation family.

    kind "algebraic": amplitude * (1 + x^2)^(-r) with r > 1/2.  The exponent
        keeps the data integrable, which is what the long-time theory needs;
        with |x|^(-r)-type tails the diffusion-wave amplitude picks up a
        logarithm and the clean decay rates are lost (checked numerically).
    kind "gaussian":  amplitude-mass pulse of the given width at ``center``.
    ``components`` selects which of (rho - 1, m) carry the profile.  Other
    data enter the solvers directly as a :class:`FieldState`.
    """

    kind: str = "algebraic"
    amplitude: float = 0.01
    r: float = 1.0
    center: float = 0.0
    width: float = 0.5
    components: tuple[str, ...] = ("rho",)

    def __post_init__(self):
        if self.kind not in ("algebraic", "gaussian"):
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
    the one-sided discrete boundary relation holds to rounding (one linear
    correction, see ``_project_boundary_compatible``).
    """
    x = grid.x
    prof = _profile(spec, x)
    rho = 1.0 + (prof if "rho" in spec.components else 0.0) * np.ones_like(x)
    m = (prof if "m" in spec.components else 0.0) * np.ones_like(x)
    if np.any(m != 0.0):
        m = _project_boundary_compatible(m, grid, params)
    return FieldState(t=0.0, rho=rho, m=m)


def _project_boundary_compatible(m: np.ndarray, grid: Grid1D, params: ModelParams) -> np.ndarray:
    """Add delta * (1, 4/9, 1/9) to nodes 0..2 so that the one-sided relation
    a1 (-3 m0 + 4 m1 - m2)/(2 dx) + a2 m0 = 0 holds.  Its residual, scaled as
    R(m) = m0 - a1 (4 m1 - m2)/(3 a1 - 2 dx a2), is linear in m, so
    delta = -R(m)/R(blend).  For a1 = 0, R(m) = m0 and R(blend) = 1, which pins
    m0 = 0 exactly."""
    a1, a2, dx = params.a1, params.a2, grid.dx
    blend = np.array([1.0, 4.0 / 9.0, 1.0 / 9.0])
    den = 3.0 * a1 - 2.0 * dx * a2

    def resid(v: np.ndarray) -> float:
        return v[0] - a1 * (4.0 * v[1] - v[2]) / den

    if den == 0.0 or resid(blend) == 0.0:
        raise ConfigurationError(
            f"the wall blend cannot meet the one-sided boundary relation at "
            f"dx = {dx:g} for (a1, a2) = ({a1:g}, {a2:g}); refine the grid"
        )
    m = m.copy()
    m[0:3] -= resid(m) / resid(blend) * blend
    return m


# ---------------------------------------------------------------------------
# Discrete operators
# ---------------------------------------------------------------------------


def _grad(f: np.ndarray, dx: float) -> np.ndarray:
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def _lap(f: np.ndarray, dx: float) -> np.ndarray:
    """Second difference with the mirror-ghost far row.  The wall row belongs
    to the caller, which closes it with its own ghost or pin; it is 0 here."""
    g = np.empty_like(f)
    dx2 = dx * dx
    g[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx2
    g[0] = 0.0
    g[-1] = 2.0 * (f[-2] - f[-1]) / dx2  # mirror ghost f[n] = f[n-2]
    return g


def _fourth_difference(f: np.ndarray) -> np.ndarray:
    d = np.zeros_like(f)
    d[2:-2] = f[:-4] - 4.0 * f[1:-3] + 6.0 * f[2:-2] - 4.0 * f[3:-1] + f[4:]
    return d


def _sponge_profile(grid: Grid1D, cfg: SolverConfig) -> np.ndarray:
    xs = grid.L * (1.0 - _SPONGE_FRACTION)
    ramp = np.clip((grid.x - xs) / (grid.L - xs), 0.0, None)
    return cfg.sponge_strength * ramp**2


def _robin_ghost(m: np.ndarray, dx: float, params: ModelParams) -> float:
    """Ghost value m[-1] from a1 (m[1] - m[-1])/(2 dx) + a2 m[0] = 0."""
    return m[1] + 2.0 * dx * (params.a2 / params.a1) * m[0]


class _Rhs:
    """Semi-discrete right-hand side shared by the linear/nonlinear systems.

    It is the sum ``explicit(u, m) + (0, implicit(m))``.  ``implicit`` is the
    viscous term nu m_xx with its boundary rows, which the IMEX step solves
    for; ``explicit`` is everything else, including the viscous remainder
    nu (m/rho - m)_xx of the nonlinear system, which the implicit part does
    not take.
    """

    def __init__(self, params: ModelParams, cfg: SolverConfig, nonlinear: bool):
        self.params = params
        self.cfg = cfg
        self.nonlinear = nonlinear
        self.sigma = _sponge_profile(cfg.grid, cfg)
        self.dirichlet = params.boundary_class is BoundaryClass.DIRICHLET
        # p(rho) = p_scale rho^Gamma, so p'(1) = c^2 by construction
        self.p_scale = params.c**2 / cfg.pressure_gamma if nonlinear else 0.0

    def implicit(self, m: np.ndarray) -> np.ndarray:
        """nu m_xx: central differences in the interior, the Robin ghost in
        row 0 (zero under the Dirichlet pin) and the mirror ghost in the far
        row, so every row reads only its neighbours."""
        dx = self.cfg.grid.dx
        g = _lap(m, dx)
        if self.dirichlet:
            g[0] = 0.0
        else:
            g[0] = (_robin_ghost(m, dx, self.params) - 2.0 * m[0] + m[1]) / dx**2
        return self.params.nu * g

    def explicit(self, u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # u is the density perturbation rho - 1 in both regimes.
        p = self.params
        cfg = self.cfg
        dx = cfg.grid.dx
        c, nu = p.c, p.nu

        dudt = -_grad(m, dx)
        if self.nonlinear:
            rho = 1.0 + u
            v = m / rho
            w = v - m  # nu w_xx is the viscous remainder nu (m/rho - m)_xx
            flux = m * v + self.p_scale * rho**cfg.pressure_gamma
            dmdt = -_grad(flux, dx) + nu * _lap(w, dx)
        else:
            dmdt = -c**2 * _grad(u, dx)

        # Wall row: _grad's one-sided gradient plus, in the nonlinear system,
        # the remainder's Robin-ghost row (_lap leaves 0); Dirichlet pins m(0).
        if self.dirichlet:
            dmdt[0] = 0.0
        elif self.nonlinear:
            ghost_m = _robin_ghost(m, dx, p)
            ghost_rho = 3.0 * rho[0] - 3.0 * rho[1] + rho[2]
            dmdt[0] += nu * (ghost_m / ghost_rho - ghost_m - 2.0 * w[0] + w[1]) / dx**2

        dudt -= _KAPPA4 * c / dx * _fourth_difference(u)
        dudt -= self.sigma * u
        dmdt -= self.sigma * m
        return dudt, dmdt

    def __call__(self, u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dudt, dmdt = self.explicit(u, m)
        return dudt, dmdt + self.implicit(m)

    def explicit_viscosity(self, u: np.ndarray) -> float:
        """Viscosity of the explicit viscous remainder: nu max|1/rho - 1| in
        the nonlinear system, 0 in the linear one."""
        if not self.nonlinear:
            return 0.0
        return self.params.nu * float(np.max(np.abs(u) / (1.0 + u)))


class _ImplicitSolve:
    """Solver of (I - h J) x = b, J the matrix of ``_Rhs.implicit``.

    J is read off by applying ``implicit`` to 3 coloured probes (unit vectors
    at every index of one residue class mod 3): row 0 reads nodes 0-1, an
    interior row its neighbours and the far row nodes n-2 and n-1, so no row
    reads two nodes of one colour.  I - hJ is tridiagonal.  It is factored
    once without pivoting, and LAPACK's dgttrs runs both substitutions on
    those factors with identity pivots.  A pivoting factorization (dgttrf,
    dgtsv) would swap the Dirichlet row once h nu/dx^2 > 1; without swaps a
    row of I - hJ that is a row of I (the Dirichlet pin) returns its entry
    of b exactly.
    """

    def __init__(self, rhs: _Rhs, h: float):
        n = rhs.cfg.grid.n_nodes
        probes = np.zeros((3, n))
        for c in range(3):
            probes[c, c::3] = 1.0
        cols = np.array([rhs.implicit(pr) for pr in probes])
        k = np.arange(n)
        lower = (-h * cols[(k - 1) % 3, k]).tolist()
        diag = (1.0 - h * cols[k % 3, k]).tolist()
        upper = (-h * cols[(k + 1) % 3, k]).tolist()

        mult = [0.0] * n
        for i in range(1, n):
            mult[i] = lower[i] / diag[i - 1]
            diag[i] -= mult[i] * upper[i - 1]

        from scipy.linalg.lapack import dgttrs

        self.h = h
        self._dgttrs = dgttrs
        # dgttrs's dl, d, du, du2 and ipiv; ipiv[i] = i + 1 means no row swap
        self.factors = (
            np.array(mult[1:]),
            np.array(diag),
            np.array(upper[:-1]),
            np.zeros(n - 2),
            np.arange(1, n + 1, dtype=np.int32),
        )

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """The solution x, computed in the array b (contiguous float64)."""
        return self._dgttrs(*self.factors, b, overwrite_b=1)[0]


# ARS(2,2,2): Ascher, Ruuth & Spiteri, Appl. Numer. Math. 25 (1997).
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_DELTA = 1.0 - 1.0 / (2.0 * _GAMMA)


def _imex_step(
    rhs: _Rhs, solve: _ImplicitSolve, u: np.ndarray, m: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One ARS(2,2,2) step; ``solve`` inverts I - _GAMMA dt J."""
    f1u, f1m = rhs.explicit(u, m)
    u2 = u + (_GAMMA * dt) * f1u
    m2 = solve(m + (_GAMMA * dt) * f1m)
    f2u, f2m = rhs.explicit(u2, m2)
    u = u + (_DELTA * dt) * f1u + ((1.0 - _DELTA) * dt) * f2u
    m = solve(
        m + (_DELTA * dt) * f1m + ((1.0 - _DELTA) * dt) * f2m
        + ((1.0 - _GAMMA) * dt) * rhs.implicit(m2)
    )
    return u, m


def _stable_dt(params: ModelParams, cfg: SolverConfig, nu_explicit: float) -> tuple[float, str]:
    """The largest step the explicit part allows, and the limit that sets it.

    The implicit nu m_xx sets no limit.  The explicit part gives three:

    * acoustic: cfl_hyp dx / c;
    * dissipation: 2 / rate with rate = 16 _KAPPA4 c/dx + c/dx + sponge.
      The ARS explicit stability polynomial 1 + z + z^2/2 holds the real
      interval [-2, 0].  The most negative real eigenvalue, at the odd-even
      mode where the central gradients vanish, is -(16 _KAPPA4 c/dx +
      sponge), so the acoustic c/dx in the rate is the margin for the modes
      where the imaginary acoustic eigenvalues meet the dissipation; a von
      Neumann analysis of the interior scheme with _KAPPA4 = 0.25 first fails
      at 2.5 / rate, for every dx and nu tried;
    * explicit-viscous: cfl_par dx^2 / nu_explicit for the viscous remainder
      of viscosity nu_explicit (``_Rhs.explicit_viscosity``), the same rule
      as for a fully explicit nu m_xx.
    """
    dx = cfg.grid.dx
    c = params.c
    rate = 16.0 * _KAPPA4 * c / dx + c / dx + cfg.sponge_strength
    limits = {
        "acoustic": cfg.cfl_hyp * dx / c,
        "dissipation": 2.0 / rate,
        "explicit-viscous": (
            cfg.cfl_par * dx**2 / nu_explicit if nu_explicit > 0.0 else math.inf
        ),
    }
    limit = min(limits, key=limits.get)
    return limits[limit], limit


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


def _boundary_residuals(m: np.ndarray, params: ModelParams, dx: float) -> tuple[float, float]:
    """|a1 m_x + a2 m| at x = 0 with the ghost the solver enforces, and with
    the one-sided m_x = (-3 m0 + 4 m1 - m2)/(2 dx)."""
    if params.boundary_class is BoundaryClass.DIRICHLET:
        enforced = abs(m[0])
    else:
        ghost = _robin_ghost(m, dx, params)
        enforced = abs(params.a1 * (m[1] - ghost) / (2.0 * dx) + params.a2 * m[0])
    m_x = (-3.0 * m[0] + 4.0 * m[1] - m[2]) / (2.0 * dx)
    return enforced, abs(params.a1 * m_x + params.a2 * m[0])


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
    dx = cfg.grid.dx

    u = init.rho - 1.0
    m = init.m.copy()
    if rhs.dirichlet:
        m[0] = 0.0

    traj = Trajectory(grid=cfg.grid, params=params)
    r0, ra0 = _boundary_residuals(m, params, dx)
    traj.append(FieldState(t=times[0], rho=1.0 + u, m=m.copy()), r0, ra0)
    stats = traj.stats
    stats.update(steps=0, factorizations=0, segments=[])
    if nonlinear:
        stats["min_density"] = float(np.min(init.rho))

    solve = None
    for t, t_next in zip(times[:-1], times[1:]):
        dt_max, limit = _stable_dt(params, cfg, rhs.explicit_viscosity(u))
        n_steps = max(1, int(math.ceil((t_next - t) / dt_max)))
        dt = (t_next - t) / n_steps
        if solve is None or solve.h != _GAMMA * dt:
            solve = None  # release the old factors before building the next
            solve = _ImplicitSolve(rhs, _GAMMA * dt)
            stats["factorizations"] += 1
        for _ in range(n_steps):
            u, m = _imex_step(rhs, solve, u, m, dt)
            if nonlinear:
                stats["min_density"] = min(stats["min_density"], 1.0 + float(np.min(u)))
        stats["steps"] += n_steps
        stats["segments"].append({"dt": float(dt), "steps": n_steps, "limit": limit})
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(m))):
            raise DivergenceError("solution lost finiteness", t_next, traj)
        if nonlinear and (np.min(u) <= -0.5 or np.max(u) >= 0.5):
            raise DivergenceError(
                "density left [1/2, 3/2]; reduce the initial amplitude or dx", t_next, traj
            )
        r, ra = _boundary_residuals(m, params, dx)
        traj.append(FieldState(t=t_next, rho=1.0 + u, m=m.copy()), r, ra)
    # each step evaluates the explicit part twice and solves twice
    stats["explicit_rhs_evals"] = 2 * stats["steps"]
    stats["implicit_solves"] = 2 * stats["steps"]
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
    if np.min(init.rho) <= 0.0:
        raise ParameterError("nonlinear runs need a positive initial density")
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
) -> NonlinearTermValue:
    """Quadratic flux remainder of the momentum equation around (1, 0):

    q_tilde = -[ m^2/rho + p(rho) - p(1) - p'(1)(rho - 1) + nu ((rho-1) m / rho)_x ]
    """
    rho, m = state.rho, state.m
    if np.any(rho <= 0.0):
        raise ParameterError("density must be positive")
    scale = params.c**2 / pressure_gamma
    u = rho - 1.0
    p_of = lambda r: scale * r**pressure_gamma  # noqa: E731
    dp1 = scale * pressure_gamma
    inner = u * m / rho
    q_tilde = -(
        m * m / rho + p_of(rho) - p_of(np.ones_like(rho)) - dp1 * u
        + params.nu * _grad(inner, grid.dx)
    )
    return NonlinearTermValue(q_tilde=q_tilde, q=_grad(q_tilde, grid.dx))


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
    paths = [
        write_csv(os.path.join(out_dir, f"{prefix}_{k:04d}.csv"), ("x", "rho", "m"),
                  zip(traj.grid.x, st.rho, st.m))
        for k, st in enumerate(traj.states)
    ]
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
