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
system, _CFL dx^2 over the remainder's viscosity, measured on the
segment's starting density (see ``_stable_dt``).

The stencils are assembled once per run, straight into two CSR stage
operators (``_Rhs``): E, the explicit part, acting on the stacked state
z = (u, m) in the linear system and on the work vector (u, m, flux, w) in
the nonlinear one, and F = E + _K (0, J), which also carries the final
stage's implicit term.  So a step makes two sparse products, one per stage;
under a Robin wall the nonlinear system adds one scalar to each, the viscous
remainder's wall row.  The implicit matrix I - h J, J = nu D2 with its
boundary rows, is tridiagonal, depends on the step size only and is made
symmetric by an exact row scaling; LAPACK factors it once per step size as
L D L^T and solves in place (``_ImplicitSolve``), and a Dirichlet row
returns m(0) = 0 exactly.

The wall check is the one-sided relation ``core.wall_relation``: the
initial momentum is projected onto it, and ``Trajectory.boundary_residual``
is its size on every snapshot.  The ghost enforces the centered relation,
so that residual is O(dx^2) only where the wall closure is right.

The sponge's rate rises to ``sponge_strength`` c^2/nu, so every rate scales as c^2/nu:
a run mapped from ``ModelParams.unit_model`` by x = (nu/c) x', t = (nu/c^2) t',
m = c m' takes the same steps, and equals it bitwise when c and nu are powers of 2.

The solvers write no file: a run returns its ``Trajectory``, whose ``stats``
count the steps (two stage products and two implicit solves each), and
``hsgreen solve`` writes the snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryClass, FieldState, Grid1D, ModelParams, Trajectory, wall_relation
from .errors import ConfigurationError, DivergenceError, ParameterError
from .spectral import find_boundary_pole

_KAPPA4 = 0.25
_SPONGE_FRACTION = 0.1
_CFL = 0.45  # safety factor of the acoustic and the explicit-viscous step limits
_PRESSURE_GAMMA = 2.0  # p(rho) = (c^2/Gamma) rho^Gamma


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid1D
    t_end: float
    sponge_strength: float = 1.0
    n_snapshots: int = 11

    def __post_init__(self):
        if not (0.0 < self.t_end < math.inf):
            raise ConfigurationError(f"t_end must be positive and finite, got t_end={self.t_end}")
        if not (0.0 <= self.sponge_strength < math.inf):
            raise ConfigurationError(
                f"sponge_strength must be >= 0 and finite, got {self.sponge_strength}"
            )
        n = self.n_snapshots
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise ConfigurationError(
                f"n_snapshots counts t = 0 and t_end, so it must be an integer >= 2, "
                f"got n_snapshots={n!r}"
            )


@dataclass(frozen=True)
class InitialData:
    """Initial perturbation family.

    kind "algebraic": amplitude * (1 + x^2)^(-r) with r > 1/2.  The exponent
        keeps the data integrable, which is what the long-time theory needs;
        with |x|^(-r)-type tails the diffusion-wave amplitude picks up a
        logarithm and the clean decay rates are lost (checked numerically).
    kind "gaussian":  amplitude-mass pulse of the given width at ``center``.
    ``components`` selects which of (rho - 1, m) carry the profile, and
    ``amplitude``, ``r`` and ``width`` must be finite.  Other data enter the
    solvers directly as a :class:`FieldState`.
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
        for name in ("amplitude", "r", "width"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"need a finite {name}, got {name}={getattr(self, name)}")
        if self.kind == "algebraic" and not (self.r > 0.5):
            raise ParameterError(f"algebraic decay needs r > 1/2, got r={self.r}")
        if not (self.width > 0.0):
            raise ParameterError(f"need width > 0, got width={self.width}")
        if not set(self.components) <= {"rho", "m"}:
            raise ParameterError(f"components must be within {{'rho','m'}}, got {self.components}")
        if not self.components:
            raise ParameterError("components must name at least one of 'rho', 'm'")


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
    the grid dx = 2 a1/(3 a2), where no blend can meet it.  A Gaussian
    center outside [0, L] is refused.
    """
    if spec.kind == "gaussian" and not (0.0 <= spec.center <= grid.L):
        raise ParameterError(
            f"the Gaussian center={spec.center:g} lies outside the grid [0, L={grid.L:g}]")
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


def _sponge_profile(grid: Grid1D, cfg: SolverConfig, params: ModelParams) -> np.ndarray:
    xs = grid.L * (1.0 - _SPONGE_FRACTION)
    ramp = np.clip((grid.x - xs) / (grid.L - xs), 0.0, None)
    return cfg.sponge_strength * params.c**2 / params.nu * ramp**2


def _pressure(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """p(rho) = (c^2/Gamma) rho^Gamma with Gamma = _PRESSURE_GAMMA: p'(1) = c^2."""
    return params.c**2 / _PRESSURE_GAMMA * rho**_PRESSURE_GAMMA


def _robin_ghost(m: np.ndarray, dx: float, params: ModelParams) -> float:
    """Ghost value m[-1] from a1 (m[1] - m[-1])/(2 dx) + a2 m[0] = 0."""
    return m[1] + 2.0 * dx * (params.a2 / params.a1) * m[0]


def _band(n: int, weights) -> tuple[np.ndarray, np.ndarray]:
    """Slot table of the stencil ``weights`` at offsets -(K//2)..K//2 in each of
    n rows: its offsets, shape (K,), and its weights, shape (n, K), to be edited
    row by row."""
    k = len(weights)
    return np.arange(k, dtype=np.int32) - k // 2, np.tile(np.asarray(weights, dtype=float), (n, 1))


def _csr(n: int, n_cols: int, *row_blocks):
    """CSR matrix assembled straight from slot tables, one block of n rows after
    another.  A block is a list of ``(col0, (offsets, weights))``: row i of the
    block holds weights[i, j] in column col0 + i + offsets[i, j] (offsets of
    shape (K,) or (n, K)).  Listed in increasing column order, the slots leave
    each row's columns sorted.  Zero weights are not stored."""
    from scipy import sparse

    rows = np.arange(n, dtype=np.int32)[:, None]
    data, indices, counts = [], [], []
    for block in row_blocks:
        weights = np.hstack([w for _, (_, w) in block])
        keep = weights != 0.0
        data.append(weights[keep])
        indices.append(np.hstack([col0 + rows + off for col0, (off, _) in block])[keep])
        counts.append(np.count_nonzero(keep, axis=1))
    indptr = np.zeros(n * len(row_blocks) + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return sparse.csr_array((np.concatenate(data), np.concatenate(indices), indptr),
                            shape=(n * len(row_blocks), n_cols))


class _Rhs:
    """Semi-discrete right-hand side of the linear or nonlinear system on the
    stacked state z = (u, m), u = rho - 1, each half of length n.

    It is the sum ``stage(E, z) + (0, J @ m)``.  The stencils, each a slot
    table over the n rows:

    * D1, the gradient: central rows, one-sided rows at both ends;
    * D2, the second difference: the mirror ghost f[n] = f[n-2] in the far
      row, 0 in the wall row;
    * J = nu D2 plus the wall row of the Robin ghost (0 under the Dirichlet
      pin).  ``J @ m`` is the viscous term nu m_xx, which the IMEX step
      solves for;
    * D4, the fourth difference, with the coefficient _KAPPA4 c/dx, and S,
      the sponge.

    They are assembled once per run, straight into two CSR stage operators
    and J.  The explicit operator E acts on the work vector (u, m, flux, w)
    of the nonlinear system, flux = m^2/rho + p(rho) and w = m/rho - m:

        E = [[-D4 - S, -D1,   0,    0 ],
             [   0,    -S,  -D1, nu D2]]

    so ``stage(E, z) = E @ (z, flux, w)`` is the flux gradient and the
    viscous remainder nu (m/rho - m)_xx with the linear part in one product.
    The remainder's wall row reads its Robin ghost and is the one scalar
    added after it.  In the linear system E acts on z itself and has
    -c^2 D1 in place of the flux and remainder columns.  Under the Dirichlet
    pin the m wall row of E is 0.  The final operator F = E + _K (0, J) is
    E with _K J added to its m-m block, so ``stage(F, z)`` folds the last
    stage's implicit term into its explicit product (see ``_imex_step``).
    """

    def __init__(self, params: ModelParams, cfg: SolverConfig, nonlinear: bool):
        self.params = params
        self.cfg = cfg
        self.nonlinear = nonlinear
        self.dirichlet = params.boundary_class is BoundaryClass.DIRICHLET
        n, dx = cfg.grid.n_nodes, cfg.grid.dx
        c, nu = params.c, params.nu
        self.n = n

        g = 0.5 / dx
        d1_off, nd1 = _band(n, [g, 0.0, -g])  # -D1
        d1_off = np.tile(d1_off, (n, 1))
        d1_off[0], nd1[0] = (0, 1, 2), (3.0 * g, -4.0 * g, g)
        d1_off[-1], nd1[-1] = (-2, -1, 0), (-g, 4.0 * g, -3.0 * g)
        nd1_m = nd1
        if self.dirichlet:  # the pin holds m(0), so the m wall row is 0
            nd1_m = nd1.copy()
            nd1_m[0] = 0.0

        r = nu / dx**2
        d2_off, nu_d2 = _band(n, [r, -2.0 * r, r])
        nu_d2[0] = 0.0
        nu_d2[-1] = (2.0 * r, -2.0 * r, 0.0)
        j = nu_d2.copy()
        if not self.dirichlet:
            # (ghost - 2 m[0] + m[1])/dx^2 with the ghost's coefficients on m[0], m[1]
            g0, g1 = (_robin_ghost(e, dx, params) for e in np.eye(2))
            j[0, 1:] = r * (g0 - 2.0), r * (g1 + 1.0)
        self.J = _csr(n, n, [(0, (d2_off, j))])

        k4 = _KAPPA4 * c / dx
        d4_off, uu = _band(n, [-k4, 4.0 * k4, -6.0 * k4, 4.0 * k4, -k4])  # -D4
        uu[[0, 1, -2, -1]] = 0.0
        sigma = _sponge_profile(cfg.grid, cfg, params)
        uu[:, 2] -= sigma
        u_rows = [(0, (d4_off, uu)), (n, (d1_off, nd1))]
        mm_e = (np.zeros(1, dtype=np.int32), -sigma[:, None])
        j *= _K  # the m-m block of F, _K J - S
        j[:, 1] -= sigma
        mm_f = (d2_off, j)
        if nonlinear:
            tail = [(2 * n, (d1_off, nd1_m)), (3 * n, (d2_off, nu_d2))]
            self.E = _csr(n, 4 * n, u_rows, [(n, mm_e), *tail])
            self.F = _csr(n, 4 * n, u_rows, [(n, mm_f), *tail])
            self._work = np.zeros(4 * n)
            self._rho = np.empty(n)
        else:
            acoustic = (0, (d1_off, c**2 * nd1_m))
            self.E = _csr(n, 2 * n, u_rows, [acoustic, (n, mm_e)])
            self.F = _csr(n, 2 * n, u_rows, [acoustic, (n, mm_f)])

    def stage(self, op, z: np.ndarray) -> np.ndarray:
        """The stage product with op, E or F: op @ z (linear), or
        op @ (z, flux, w) plus the remainder's wall row."""
        if not self.nonlinear:
            return op @ z
        p, n, dx = self.params, self.n, self.cfg.grid.dx
        work, rho = self._work, self._rho
        work[:2 * n] = z
        _, m, flux, w = work.reshape(4, n)
        np.add(work[:n], 1.0, out=rho)
        np.divide(m, rho, out=w)  # v = m/rho
        np.multiply(m, w, out=flux)
        flux += _pressure(rho, p)
        w -= m  # nu w_xx is the viscous remainder nu (m/rho - m)_xx
        dzdt = op @ work
        if not self.dirichlet:  # the remainder's Robin-ghost wall row
            ghost_m = _robin_ghost(m, dx, p)
            ghost_rho = 3.0 * rho[0] - 3.0 * rho[1] + rho[2]
            dzdt[n] += p.nu * (ghost_m / ghost_rho - ghost_m - 2.0 * w[0] + w[1]) / dx**2
        return dzdt

    def remainder_viscosity(self, u: np.ndarray) -> float:
        """Viscosity of the explicit viscous remainder: nu max|1/rho - 1| in
        the nonlinear system, 0 in the linear one."""
        if not self.nonlinear:
            return 0.0
        return self.params.nu * float(np.max(np.abs(u) / (1.0 + u)))


class _ImplicitSolve:
    """Solver of (I - h J) x = b, J the viscous matrix ``_Rhs.J``.

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

    def solve(self, b: np.ndarray) -> np.ndarray:
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
# the final stage's implicit weight over its explicit one, sqrt(2) - 1
_K = (1.0 - _GAMMA) / (1.0 - _DELTA)


def _imex_step(rhs: _Rhs, implicit: _ImplicitSolve, z: np.ndarray, dt: float) -> np.ndarray:
    """One ARS(2,2,2) step of the stacked state z = (u, m); ``implicit``
    inverts I - _GAMMA dt J in place on the m half.

    The final stage z + DELTA dt f1 + (1 - DELTA) dt f2 + (1 - GAMMA) dt (0, J m2)
    takes f2 and the implicit term from one product, ``rhs.stage(rhs.F, z2)`` =
    f2 + _K (0, J m2), so a step makes two sparse products."""
    n = rhs.n
    f1 = rhs.stage(rhs.E, z)
    z2 = (_GAMMA * dt) * f1
    z2 += z
    implicit.solve(z2[n:])
    f2 = rhs.stage(rhs.F, z2)
    # z + DELTA dt f1 + (1 - DELTA) dt f2, summed in that order, in f1's storage
    f1 *= _DELTA * dt
    f1 += z
    f2 *= (1.0 - _DELTA) * dt
    f1 += f2
    implicit.solve(f1[n:])
    return f1


def _stable_dt(params: ModelParams, cfg: SolverConfig, nu_explicit: float) -> tuple[float, str]:
    """The largest step the explicit part allows, and the limit that sets it.

    The implicit nu m_xx sets no limit.  The explicit part gives three:

    * acoustic: _CFL dx / c;
    * dissipation: 2 / rate with rate = 16 _KAPPA4 c/dx + c/dx + sponge_strength c^2/nu.
      The ARS explicit stability polynomial 1 + z + z^2/2 holds the real
      interval [-2, 0].  The most negative real eigenvalue, at the odd-even
      mode where the central gradients vanish, is -(16 _KAPPA4 c/dx +
      sponge), so the acoustic c/dx in the rate is the margin for the modes
      where the imaginary acoustic eigenvalues meet the dissipation; a von
      Neumann analysis of the interior scheme with _KAPPA4 = 0.25 first fails
      at 2.5 / rate, for every dx and nu tried;
    * explicit-viscous: _CFL dx^2 / nu_explicit for the viscous remainder
      of viscosity nu_explicit (``_Rhs.remainder_viscosity``), the same rule
      as for a fully explicit nu m_xx.
    """
    dx = cfg.grid.dx
    c = params.c
    rate = 16.0 * _KAPPA4 * c / dx + c / dx + cfg.sponge_strength * c**2 / params.nu
    limits = {
        "acoustic": _CFL * dx / c,
        "dissipation": 2.0 / rate,
        "explicit-viscous": _CFL * dx**2 / nu_explicit if nu_explicit > 0.0 else math.inf,
    }
    limit = min(limits, key=limits.get)
    return limits[limit], limit


def _snapshot_times(cfg: SolverConfig, output_times) -> np.ndarray:
    if output_times is None:
        times = np.linspace(0.0, cfg.t_end, cfg.n_snapshots)
    else:
        times = np.atleast_1d(np.asarray(output_times, dtype=float))
        if times.size == 0:
            raise ConfigurationError("need at least one output time")
        if times[0] != 0.0:
            times = np.concatenate([[0.0], times])
    flat = ~(np.diff(times) > 0)
    if flat.any():
        k = int(np.argmax(flat))
        raise ConfigurationError(
            f"output times must increase from 0, got {float(times[k])} then {float(times[k + 1])}"
        )
    beyond = ~(times <= cfg.t_end + 1e-12)
    if beyond.any():
        raise ConfigurationError(
            f"output time {float(times[np.argmax(beyond)])} lies beyond t_end = {cfg.t_end}"
        )
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

    implicit = None
    try:
        for t, t_next in zip(times[:-1], times[1:]):
            dt_max, limit = _stable_dt(params, cfg, rhs.remainder_viscosity(z[:n]))
            n_steps = max(1, int(math.ceil((t_next - t) / dt_max)))
            dt = (t_next - t) / n_steps
            if implicit is None or implicit.h != _GAMMA * dt:
                implicit = None  # release the old factors before building the next
                implicit = _ImplicitSolve(rhs, _GAMMA * dt)
                stats["factorizations"] += 1
            for _ in range(n_steps):
                z = _imex_step(rhs, implicit, z, dt)
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
    finally:  # also on divergence
        stats["stage_nnz"] = {"explicit": rhs.E.nnz, "final": rhs.F.nnz}
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
        raise ConfigurationError(
            "nonlinear runs require a stable boundary class: for a1*a2 > 0 the reflection "
            f"coefficient has a right-half-plane pole at s* = {find_boundary_pole(params):.6g}"
        )
    if np.min(init.rho) <= 0.0:
        raise ParameterError("nonlinear runs need a positive initial density")
    return _integrate(init, params, cfg, nonlinear=True, output_times=output_times)


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
    Refuses a non-finite width, a width under 4 dx and a y0 nearer than 10 widths
    to either end."""
    dx = cfg.grid.dx
    width = 4.0 * dx if width is None else width
    if not math.isfinite(width):
        raise ConfigurationError(f"need a finite pulse width, got width={width}")
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

