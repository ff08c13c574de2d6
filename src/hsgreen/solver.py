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
segment's starting density (see ``_stable_dt``).

The linear operators are assembled once per run as sparse matrices on the
stacked state z = (u, m) (``_Rhs``), so an explicit stage is one matrix-
vector product, plus the flux terms in the nonlinear system.  The implicit
matrix I - h J, J = nu D2 with its boundary rows, is tridiagonal, depends
on the step size only and is made symmetric by an exact row scaling; LAPACK
factors it once per step size as L D L^T and solves in place
(``_ImplicitSolve``), and a Dirichlet row returns m(0) = 0 exactly.

The wall check is the one-sided relation ``core.wall_relation``: the
initial momentum is projected onto it, and ``Trajectory.boundary_residual``
is its size on every snapshot.  The ghost enforces the centered relation,
so that residual is O(dx^2) only where the wall closure is right.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .core import (BoundaryClass, FieldState, Grid1D, ModelParams, Trajectory,
                   wall_relation, write_csv)
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
    the one-sided relation ``core.wall_relation`` holds to rounding, with
    m(0) = 0 exactly for Dirichlet; ``_project_boundary_compatible`` refuses
    the grid dx = 2 a1/(3 a2), where no blend can meet it.
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
    r(m) = a1 (-3 m0 + 4 m1 - m2)/(2 dx) + a2 m0 vanishes.  r is linear, so
    delta = -r(m)/r(blend), with r(blend) = a2 - 2 a1/(3 dx).  That is zero at
    dx = 2 a1/(3 a2), and a grid where it is zero to rounding is refused.
    For a1 = 0 the relation is m0 = 0, which is set exactly."""
    a1, a2, dx = params.a1, params.a2, grid.dx
    blend = np.array([1.0, 4.0 / 9.0, 1.0 / 9.0])
    r_blend = wall_relation(blend, dx, params)
    if abs(r_blend) <= 1e-12 * (abs(a2) + 2.0 * abs(a1) / (3.0 * dx)):
        raise ConfigurationError(
            f"the wall blend cannot meet the one-sided boundary relation at dx = {dx:g}: "
            f"(a1, a2) = ({a1:g}, {a2:g}) make it singular at dx = 2 a1/(3 a2) = "
            f"{2.0 * a1 / (3.0 * a2):g}; choose another nx"
        )
    m = m.copy()
    m[0:3] -= wall_relation(m, dx, params) / r_blend * blend
    if a1 == 0.0:
        m[0] = 0.0
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


def _sponge_profile(grid: Grid1D, cfg: SolverConfig) -> np.ndarray:
    xs = grid.L * (1.0 - _SPONGE_FRACTION)
    ramp = np.clip((grid.x - xs) / (grid.L - xs), 0.0, None)
    return cfg.sponge_strength * ramp**2


def _pressure(rho: np.ndarray, params: ModelParams, cfg: SolverConfig) -> np.ndarray:
    """p(rho) = (c^2/Gamma) rho^Gamma with Gamma = ``cfg.pressure_gamma``: p'(1) = c^2."""
    return params.c**2 / cfg.pressure_gamma * rho**cfg.pressure_gamma


def _robin_ghost(m: np.ndarray, dx: float, params: ModelParams) -> float:
    """Ghost value m[-1] from a1 (m[1] - m[-1])/(2 dx) + a2 m[0] = 0."""
    return m[1] + 2.0 * dx * (params.a2 / params.a1) * m[0]


def _stencil_matrix(n: int, *blocks):
    """n x n CSR matrix from ``(rows, {offset: weight})`` blocks: each row i
    of ``rows`` gets ``weight`` in column i + offset.  A weight is a number
    or an array over ``rows``."""
    from scipy import sparse

    rows, cols, vals = [], [], []
    for idx, stencil in blocks:
        idx = np.atleast_1d(idx)
        for offset, weight in stencil.items():
            rows.append(idx)
            cols.append(idx + offset)
            vals.append(np.broadcast_to(weight, idx.shape))
    return sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


class _Rhs:
    """Semi-discrete right-hand side of the linear or nonlinear system on the
    stacked state z = (u, m), u = rho - 1, each half of length n.

    It is the sum ``explicit(z) + (0, implicit(m))``.  The linear operators
    are assembled once, as CSR matrices:

    * D1, the gradient: central rows, one-sided rows at both ends;
    * D2, the second difference: the mirror ghost f[n] = f[n-2] in the far
      row, 0 in the wall row;
    * J = nu D2 plus the wall row of the Robin ghost (0 under the Dirichlet
      pin).  ``implicit(m) = J @ m`` is the viscous term nu m_xx, which the
      IMEX step solves for;
    * A, the linear explicit part,
      ``[[-_KAPPA4 c/dx D4 - S, -D1], [-c^2 D1, -S]]`` with D4 the fourth
      difference and S the sponge.  The nonlinear system has 0 in place of
      -c^2 D1, and under the Dirichlet pin the m wall row of A is 0.

    ``explicit(z) = A @ z``.  The nonlinear system adds the flux gradient
    -D1 (m^2/rho + p(rho)) and the viscous remainder nu D2 w, w = m/rho - m,
    with its Robin-ghost wall row; the implicit part does not take it.
    """

    def __init__(self, params: ModelParams, cfg: SolverConfig, nonlinear: bool):
        from scipy import sparse

        self.params = params
        self.cfg = cfg
        self.nonlinear = nonlinear
        self.dirichlet = params.boundary_class is BoundaryClass.DIRICHLET
        n, dx = cfg.grid.n_nodes, cfg.grid.dx
        c, nu = params.c, params.nu
        self.n = n
        inner = np.arange(1, n - 1)

        g = 0.5 / dx
        d1_rows = [(inner, {-1: -g, 1: g}), (n - 1, {-2: g, -1: -4.0 * g, 0: 3.0 * g})]
        d1 = _stencil_matrix(n, (0, {0: -3.0 * g, 1: 4.0 * g, 2: -g}), *d1_rows)
        # the m rows: the Dirichlet pin holds m(0), so their wall row is 0
        self.d1_m = _stencil_matrix(n, *d1_rows) if self.dirichlet else d1

        r = nu / dx**2
        d2_rows = [(inner, {-1: r, 0: -2.0 * r, 1: r}), (n - 1, {-1: 2.0 * r, 0: -2.0 * r})]
        self.nu_d2 = _stencil_matrix(n, *d2_rows)
        if self.dirichlet:
            self.J = self.nu_d2
        else:
            # (ghost - 2 m[0] + m[1])/dx^2 with the ghost's coefficients on m[0], m[1]
            g0, g1 = (_robin_ghost(e, dx, params) for e in np.eye(2))
            self.J = _stencil_matrix(n, (0, {0: r * (g0 - 2.0), 1: r * (g1 + 1.0)}), *d2_rows)

        k4 = _KAPPA4 * c / dx
        d4 = _stencil_matrix(
            n, (np.arange(2, n - 2), {-2: k4, -1: -4.0 * k4, 0: 6.0 * k4, 1: -4.0 * k4, 2: k4})
        )
        sigma = _sponge_profile(cfg.grid, cfg)
        on = np.flatnonzero(sigma)
        sponge = _stencil_matrix(n, (on, {0: sigma[on]}))
        acoustic = None if nonlinear else -(c**2) * self.d1_m
        self.A = sparse.block_array([[-d4 - sponge, -d1], [acoustic, -sponge]], format="csr")

    def implicit(self, m: np.ndarray) -> np.ndarray:
        """nu m_xx with its boundary rows: J @ m."""
        return self.J @ m

    def explicit(self, z: np.ndarray) -> np.ndarray:
        dzdt = self.A @ z
        if self.nonlinear:
            p = self.params
            n, dx = self.n, self.cfg.grid.dx
            m = z[n:]
            rho = 1.0 + z[:n]
            v = m / rho
            w = v - m  # nu w_xx is the viscous remainder nu (m/rho - m)_xx
            flux = m * v + _pressure(rho, p, self.cfg)
            dmdt = dzdt[n:]
            dmdt -= self.d1_m @ flux
            dmdt += self.nu_d2 @ w
            if not self.dirichlet:  # the remainder's Robin-ghost wall row
                ghost_m = _robin_ghost(m, dx, p)
                ghost_rho = 3.0 * rho[0] - 3.0 * rho[1] + rho[2]
                dmdt[0] += p.nu * (ghost_m / ghost_rho - ghost_m - 2.0 * w[0] + w[1]) / dx**2
        return dzdt

    def __call__(self, z: np.ndarray) -> np.ndarray:
        dzdt = self.explicit(z)
        dzdt[self.n:] += self.implicit(z[self.n:])
        return dzdt

    def explicit_viscosity(self, u: np.ndarray) -> float:
        """Viscosity of the explicit viscous remainder: nu max|1/rho - 1| in
        the nonlinear system, 0 in the linear one."""
        if not self.nonlinear:
            return 0.0
        return self.params.nu * float(np.max(np.abs(u) / (1.0 + u)))


class _ImplicitSolve:
    """Solver of (I - h J) x = b, J the matrix of ``_Rhs.implicit``.

    The three diagonals of the tridiagonal I - hJ are read off J.  Its wall
    and far rows carry exactly twice their neighbour's off-diagonal (the
    ghosts double it), so halving those two rows, which is exact, makes the
    matrix symmetric.  Under the Dirichlet pin row 0 is a row of I instead:
    ``b[1] -= A10 b[0]`` eliminates its column, and x[0] = b[0] exactly.
    LAPACK's dpttrf factors the symmetric matrix once as L D L^T, and dpttrs
    runs both substitutions in place; its back substitution keeps the
    division off the recurrence chain.  A non-positive pivot means I - hJ
    is indefinite, as for the unstable class with a large a2/a1 on a coarse
    grid, and raises ConfigurationError.
    """

    def __init__(self, rhs: _Rhs, h: float):
        from scipy.linalg.lapack import dpttrf, dpttrs

        J = rhs.J
        diag = 1.0 - h * J.diagonal()
        upper = -h * J.diagonal(1)
        self.h = h
        self.pinned = rhs.dirichlet
        if self.pinned:
            self.a10 = -h * J[1, 0]
        else:
            diag[0] *= 0.5
            upper[0] *= 0.5
        diag[-1] *= 0.5
        d, e, info = dpttrf(diag, upper, overwrite_d=1, overwrite_e=1)
        if info > 0:
            raise ConfigurationError(
                f"I - h J is indefinite at h = {h:g}: pivot row {info - 1} of its "
                f"L D L^T factorization is {d[info - 1]:g}; refine the grid"
            )
        self._dpttrs = dpttrs
        self.factors = (d, e)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """The solution x, computed in the array b (contiguous float64)."""
        if self.pinned:
            b[1] -= self.a10 * b[0]
        else:
            b[0] *= 0.5
        b[-1] *= 0.5
        return self._dpttrs(*self.factors, b, overwrite_b=1)[0]


# ARS(2,2,2): Ascher, Ruuth & Spiteri, Appl. Numer. Math. 25 (1997).
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_DELTA = 1.0 - 1.0 / (2.0 * _GAMMA)


def _imex_step(rhs: _Rhs, solve: _ImplicitSolve, z: np.ndarray, dt: float) -> np.ndarray:
    """One ARS(2,2,2) step of the stacked state z = (u, m); ``solve``
    inverts I - _GAMMA dt J in place on the m half."""
    n = rhs.n
    f1 = rhs.explicit(z)
    z2 = (_GAMMA * dt) * f1
    z2 += z
    solve(z2[n:])
    f2 = rhs.explicit(z2)
    # z + DELTA dt f1 + (1 - DELTA) dt f2, summed in that order, in f1's storage
    f1 *= _DELTA * dt
    f1 += z
    f2 *= (1.0 - _DELTA) * dt
    f1 += f2
    f1[n:] += ((1.0 - _GAMMA) * dt) * rhs.implicit(z2[n:])
    solve(f1[n:])
    return f1


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
    n = rhs.n

    z = np.concatenate([init.rho - 1.0, init.m])  # the stacked state (u, m)
    if rhs.dirichlet:
        z[n] = 0.0

    traj = Trajectory(grid=cfg.grid, params=params)
    traj.append(FieldState(t=times[0], rho=1.0 + z[:n], m=z[n:].copy()))
    stats = traj.stats
    stats.update(steps=0, factorizations=0, segments=[])
    if nonlinear:
        stats["min_density"] = float(np.min(init.rho))

    solve = None
    for t, t_next in zip(times[:-1], times[1:]):
        dt_max, limit = _stable_dt(params, cfg, rhs.explicit_viscosity(z[:n]))
        n_steps = max(1, int(math.ceil((t_next - t) / dt_max)))
        dt = (t_next - t) / n_steps
        if solve is None or solve.h != _GAMMA * dt:
            solve = None  # release the old factors before building the next
            solve = _ImplicitSolve(rhs, _GAMMA * dt)
            stats["factorizations"] += 1
        for _ in range(n_steps):
            z = _imex_step(rhs, solve, z, dt)
            if nonlinear:
                stats["min_density"] = min(stats["min_density"], 1.0 + float(np.min(z[:n])))
        stats["steps"] += n_steps
        stats["segments"].append({"dt": float(dt), "steps": n_steps, "limit": limit})
        if not np.all(np.isfinite(z)):
            raise DivergenceError("solution lost finiteness", t_next, traj)
        u = z[:n]
        if nonlinear and (np.min(u) <= -0.5 or np.max(u) >= 0.5):
            raise DivergenceError(
                "density left [1/2, 3/2]; reduce the initial amplitude or dx", t_next, traj
            )
        traj.append(FieldState(t=t_next, rho=1.0 + u, m=z[n:].copy()))
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


def nonlinear_term(state: FieldState, params: ModelParams,
                   cfg: SolverConfig) -> NonlinearTermValue:
    """Quadratic flux remainder of the momentum equation around (1, 0), on
    the grid and with the pressure law of the run ``cfg``:

    q_tilde = -[ m^2/rho + p(rho) - p(1) - p'(1)(rho - 1) + nu ((rho-1) m / rho)_x ]
    """
    rho, m = state.rho, state.m
    if np.any(rho <= 0.0):
        raise ParameterError("density must be positive")
    u = rho - 1.0
    q_tilde = -(
        m * m / rho + _pressure(rho, params, cfg) - _pressure(1.0, params, cfg)
        - params.c**2 * u + params.nu * _grad(u * m / rho, cfg.grid.dx)
    )
    return NonlinearTermValue(q_tilde=q_tilde, q=_grad(q_tilde, cfg.grid.dx))


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

    def matrix_at(self, x, t: float) -> np.ndarray:
        """Column matrices at points x in [0, L], shape x.shape + (2, 2); t must
        be a stored snapshot time."""
        x, L = np.asarray(x, dtype=float), self.rho_pulse.grid.L
        bad = x[~((x >= 0.0) & (x <= L))]
        if bad.size:
            raise ParameterError(f"x={bad[0]} lies outside the solver grid [0, L={L:g}]")
        cols = []
        for traj in (self.rho_pulse, self.m_pulse):
            k = int(np.argmin(np.abs(traj.times - t)))
            if abs(traj.times[k] - t) > 1e-9 * max(1.0, t):
                raise ParameterError(f"t={t} is not a stored snapshot time")
            st, xg = traj.states[k], traj.grid.x
            cols.append(np.stack([np.interp(x, xg, st.rho - 1.0), np.interp(x, xg, st.m)], -1))
        return np.stack(cols, -1)


def pulse_width(y0: float, cfg: SolverConfig, width: float | None = None) -> float:
    """Width of the narrow pulses ``green_column`` starts at y0 (default 4 dx).
    Refuses a width under 4 dx and a y0 nearer than 10 widths to either end."""
    dx = cfg.grid.dx
    width = 4.0 * dx if width is None else width
    if width < 4.0 * dx:
        raise ConfigurationError(f"pulse width {width} under-resolved (need >= 4 dx = {4 * dx})")
    if not (10.0 * width <= y0 <= cfg.grid.L - 10.0 * width):
        raise ConfigurationError(
            f"pulse center y0={y0:g} must sit >= 10 widths ({width:g}) from both boundaries, "
            f"in [{10.0 * width:g}, {cfg.grid.L - 10.0 * width:g}]")
    return width


def green_column(
    y0: float,
    params: ModelParams,
    cfg: SolverConfig,
    width: float | None = None,
    output_times=None,
) -> GreenColumns:
    """Approximate the two columns of the Green's function by evolving
    unit-mass narrow pulses in each component separately."""
    width = pulse_width(y0, cfg, width)
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
    JSON manifest echoing params, config, and each snapshot's boundary
    residual."""
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
