import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgreen.core import Grid1D, ModelParams
from hsgreen.errors import ConfigurationError, DivergenceError, ParameterError
from hsgreen import solver as so
from hsgreen import transforms as tr

P = ModelParams()
PD = ModelParams(a1=0.0, a2=1.0)
# the four boundary classes and the scaled set
CLASS_CASES = [P, PD, ModelParams(a1=1.0, a2=0.0), ModelParams(a1=1.0, a2=1.0),
               ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)]
CLASS_IDS = ["mixed", "dirichlet", "neumann", "unstable", "scaled"]


def small_cfg(L=40.0, nx=800, t_end=2.0, **kw):
    return so.SolverConfig(grid=Grid1D(L=L, nx=nx), t_end=t_end, **kw)


class TestConfig:
    @pytest.mark.parametrize("n", [0, 1, 2.5, 11.0])
    def test_needs_two_snapshots(self, n):
        # the t = 0 state and t_end are both snapshots; a float count would
        # reach np.linspace in solve_linear and raise a bare TypeError there
        with pytest.raises(ConfigurationError, match=f"n_snapshots={n}"):
            small_cfg(n_snapshots=n)
        assert small_cfg(n_snapshots=np.int64(2)).n_snapshots == 2

    @pytest.mark.parametrize("make, error, named", [
        (lambda: small_cfg(t_end=math.inf), ConfigurationError, "t_end=inf"),
        (lambda: small_cfg(t_end=math.nan), ConfigurationError, "t_end=nan"),
        (lambda: small_cfg(sponge_strength=math.inf), ConfigurationError, "sponge_strength"),
        (lambda: Grid1D(L=math.inf, nx=10), ParameterError, "L=inf"),
        (lambda: Grid1D(L=math.nan, nx=10), ParameterError, "L=nan"),
    ], ids=["t_end-inf", "t_end-nan", "sponge-inf", "L-inf", "L-nan"])
    def test_non_finite_refused(self, make, error, named):
        # refused in the dataclass itself, naming the field, with no warning first
        with pytest.raises(error, match=named):
            make()


class TestInitialData:
    def test_algebraic_profile_formula(self):
        grid = Grid1D(L=10.0, nx=10)
        spec = so.InitialData(kind="algebraic", amplitude=0.01, r=1.0)
        st = so.make_initial_data(spec, grid, P)
        expected = 0.01 * (1.0 + grid.x**2) ** (-1.0)
        assert np.abs(st.rho - 1.0 - expected).max() <= 1e-15
        assert np.abs(st.m).max() == 0.0

    def test_algebraic_needs_r_above_half(self):
        with pytest.raises(ParameterError):
            so.InitialData(kind="algebraic", r=0.4)

    @pytest.mark.parametrize("field", ["amplitude", "r", "width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_data_refused(self, field, value):
        with pytest.raises(ParameterError, match=f"{field}={value}"):
            so.InitialData(**{field: value})

    def test_gaussian_pulse_mass(self):
        grid = Grid1D(L=40.0, nx=2000)
        spec = so.InitialData(kind="gaussian", amplitude=1.0, center=20.0, width=0.5)
        st = so.make_initial_data(spec, grid, P)
        mass = np.trapezoid(st.rho - 1.0, grid.x)
        assert abs(mass - 1.0) <= 1e-3

    def test_zero_amplitude_is_constant_state(self):
        grid = Grid1D(L=10.0, nx=50)
        spec = so.InitialData(kind="gaussian", amplitude=0.0, center=5.0)
        st = so.make_initial_data(spec, grid, P)
        assert np.all(st.rho == 1.0) and np.all(st.m == 0.0)

    def test_momentum_profile_projected_onto_boundary_relation(self):
        # the mixed default, and two grids with 3 a1 = 2 dx a2, where the
        # relation reduces to 4 m1 = m2 and the blend still meets it
        spec = so.InitialData(kind="gaussian", amplitude=0.3, center=2.0, width=1.0,
                              components=("m",))
        for params, grid in [(P, Grid1D(L=40.0, nx=800)),
                             (ModelParams(a1=1.0, a2=3.0), Grid1D(L=10.0, nx=20)),
                             (ModelParams(a1=1.0, a2=1.5), Grid1D(L=10.0, nx=10))]:
            st = so.make_initial_data(spec, grid, params)
            onesided = (-3.0 * st.m[0] + 4.0 * st.m[1] - st.m[2]) / (2.0 * grid.dx)
            assert abs(params.a1 * onesided + params.a2 * st.m[0]) <= 1e-12

    def test_wall_blend_degenerate_grid_rejected(self):
        # the blend's own residual a2 - 2 a1/(3 dx) vanishes at dx = 2 a1/(3 a2):
        # no blend amplitude meets the one-sided relation there
        grid = Grid1D(L=40.0, nx=60)
        spec = so.InitialData(kind="gaussian", amplitude=0.3, center=20.0, width=1.0,
                              components=("rho", "m"))
        with pytest.raises(ConfigurationError, match=r"dx = 2 a1/\(3 a2\) = 0.666667"):
            so.make_initial_data(spec, grid, ModelParams(a1=1.0, a2=1.0))

    def test_dirichlet_momentum_pinned(self):
        grid = Grid1D(L=40.0, nx=400)
        spec = so.InitialData(kind="gaussian", amplitude=0.3, center=3.0, width=1.0,
                              components=("m",))
        # a2 m0 = 0 is m0 = 0, exactly, whatever a2 scales it by
        for a2 in (0.3, 1.0, 3.0, 7.3):
            st = so.make_initial_data(spec, grid, ModelParams(a1=0.0, a2=a2))
            assert st.m[0] == 0.0


class TestLinearSolver:
    def test_stationary_state_machine_precision(self):
        grid = Grid1D(L=20.0, nx=200)
        cfg = so.SolverConfig(grid=grid, t_end=2.0)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.0, center=10.0), grid, P
        )
        traj = so.solve_linear(init, P, cfg)
        assert max(np.abs(s.rho - 1.0).max() + np.abs(s.m).max() for s in traj.states) == 0.0

    def test_dirichlet_mass_invariance(self):
        grid = Grid1D(L=160.0, nx=3200)
        cfg = so.SolverConfig(grid=grid, t_end=20.0)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=1.0, center=70.0, width=0.5),
            grid, PD,
        )
        traj = so.solve_linear(init, PD, cfg)
        masses = [np.trapezoid(s.rho - 1.0, grid.x) for s in traj.states]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-8

    def test_boundary_residual_enforced(self):
        grid = Grid1D(L=40.0, nx=800)
        cfg = so.SolverConfig(grid=grid, t_end=5.0)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.5, center=15.0, width=1.0,
                           components=("rho", "m")), grid, P,
        )
        traj = so.solve_linear(init, P, cfg)
        m_max = max(np.abs(s.m).max() for s in traj.states)
        assert max(traj.boundary_residual) <= 1e-6 * m_max

    def test_boundary_residual_sees_a_wrong_wall_row(self, monkeypatch):
        # the Neumann ghost m[-1] = m[1] in the viscous wall row, which J and
        # the final stage operator both take, while the initial data and the
        # check keep the Robin relation: the one-sided residual of criterion
        # 10's run must exceed the criterion's tolerance
        monkeypatch.setattr(so, "_robin_ghost", lambda m, dx, params: m[1])
        grid = Grid1D(L=40.0, nx=800)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.5, center=15.0, width=1.0,
                           components=("rho", "m")), grid, P,
        )
        traj = so.solve_linear(init, P, so.SolverConfig(grid=grid, t_end=5.0))
        m_max = max(np.abs(s.m).max() for s in traj.states)
        assert max(traj.boundary_residual) > 1e-6 * m_max

    @pytest.mark.parametrize("params", CLASS_CASES, ids=CLASS_IDS)
    def test_alt_residual_is_one_sided_relation(self, params):
        # boundary_residual is |a1 m_x + a2 m| at x = 0 with the one-sided
        # m_x, read off each stored snapshot
        grid = Grid1D(L=40.0, nx=400)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.5, center=5.0, width=1.0,
                           components=("rho", "m")), grid, params,
        )
        traj = so.solve_linear(init, params, so.SolverConfig(grid=grid, t_end=2.0))
        assert len(traj.boundary_residual) == len(traj.states)
        for st, resid in zip(traj.states, traj.boundary_residual):
            m_x = (-3.0 * st.m[0] + 4.0 * st.m[1] - st.m[2]) / (2.0 * grid.dx)
            assert resid == pytest.approx(abs(params.a1 * m_x + params.a2 * st.m[0]),
                                          rel=1e-12, abs=0.0)

    def test_energy_non_increasing_dirichlet(self):
        grid = Grid1D(L=60.0, nx=1200)
        cfg = so.SolverConfig(grid=grid, t_end=8.0, n_snapshots=9)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.1, center=25.0, width=1.5),
            grid, PD,
        )
        traj = so.solve_linear(init, PD, cfg)
        x = grid.x
        energies = [
            0.5 * np.trapezoid(PD.c**2 * (s.rho - 1.0) ** 2 + s.m**2, x)
            for s in traj.states
        ]
        assert all(e2 <= e1 * (1.0 + 1e-10) for e1, e2 in zip(energies, energies[1:]))

    def test_convergence_order(self):
        def run(nx):
            grid = Grid1D(L=40.0, nx=nx)
            cfg = so.SolverConfig(grid=grid, t_end=2.0, n_snapshots=2)
            init = so.make_initial_data(
                so.InitialData(kind="gaussian", amplitude=0.1, center=15.0, width=2.5,
                               components=("rho", "m")), grid, P,
            )
            return so.solve_linear(init, P, cfg).states[-1]

        s1, s2, s4 = run(400), run(800), run(1600)
        e1 = np.abs(s1.rho - s2.rho[::2]).max() + np.abs(s1.m - s2.m[::2]).max()
        e2 = np.abs(s2.rho - s4.rho[::2]).max() + np.abs(s2.m - s4.m[::2]).max()
        assert math.log2(e1 / e2) >= 1.9

    def test_whole_line_analogue_matches_fourier_convolution(self):
        grid = Grid1D(L=60.0, nx=3000)
        cfg = so.SolverConfig(grid=grid, t_end=2.0, n_snapshots=2)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=1.0, center=30.0, width=1.2),
            grid, P,
        )
        fin = so.solve_linear(init, P, cfg).states[-1]
        x = grid.x
        u0 = init.rho - 1.0
        offs = np.linspace(-45.0, 45.0, 4501)
        kv = tr.invert_fourier_fundamental(offs, 2.0, P, tr.QuadratureConfig(tol=1e-7))
        window = (x > 15.0) & (x < 45.0)
        xc = x[window]
        g11 = np.interp(xc[:, None] - x[None, :], offs, kv.smooth[:, 0, 0])
        g21 = np.interp(xc[:, None] - x[None, :], offs, kv.smooth[:, 1, 0])
        rho_pred = g11 @ u0 * grid.dx + kv.delta_weight * np.interp(xc, x, u0)
        m_pred = g21 @ u0 * grid.dx
        scale = np.abs(fin.rho[window] - 1.0).max()
        err = max(np.abs(rho_pred - (fin.rho[window] - 1.0)).max(),
                  np.abs(m_pred - fin.m[window]).max())
        assert err <= 1e-4 * scale


def _stencil_rhs(params, cfg, nonlinear, u, m):
    """The solver's stencils written out: the explicit (du/dt, dm/dt) and the
    implicit nu m_xx."""
    dx, x, L = cfg.grid.dx, cfg.grid.x, cfg.grid.L
    c, nu, a1, a2 = params.c, params.nu, params.a1, params.a2
    dirichlet = a1 == 0.0

    def grad(f):  # central, one-sided at both ends
        g = np.empty_like(f)
        g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
        g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
        g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
        return g

    def lap(f):  # mirror ghost f[n] = f[n-2] in the far row, wall row 0
        g = np.zeros_like(f)
        g[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx**2
        g[-1] = 2.0 * (f[-2] - f[-1]) / dx**2
        return g

    def ghost(f):  # a1 (f[1] - f[-1])/(2 dx) + a2 f[0] = 0
        return f[1] + 2.0 * dx * (a2 / a1) * f[0]

    d4 = np.zeros_like(u)
    d4[2:-2] = u[:-4] - 4.0 * u[1:-3] + 6.0 * u[2:-2] - 4.0 * u[3:-1] + u[4:]
    xs = L * (1.0 - so._SPONGE_FRACTION)
    sigma = cfg.sponge_strength * c**2 / nu * np.clip((x - xs) / (L - xs), 0.0, None) ** 2

    dudt = -grad(m) - so._KAPPA4 * c / dx * d4 - sigma * u
    if nonlinear:
        rho = 1.0 + u
        w = m / rho - m
        flux = m * m / rho + c**2 / so._PRESSURE_GAMMA * rho**so._PRESSURE_GAMMA
        dmdt = -grad(flux) + nu * lap(w)
        if not dirichlet:
            g_m, g_rho = ghost(m), 3.0 * rho[0] - 3.0 * rho[1] + rho[2]
            dmdt[0] += nu * (g_m / g_rho - g_m - 2.0 * w[0] + w[1]) / dx**2
    else:
        dmdt = -c**2 * grad(u)
    dmdt -= sigma * m
    implicit = nu * lap(m)
    if dirichlet:  # the pin holds m(0)
        dmdt[0] = implicit[0] = 0.0
    else:
        implicit[0] = nu * (ghost(m) - 2.0 * m[0] + m[1]) / dx**2
    return dudt, dmdt, implicit


class TestAssembledOperators:
    @pytest.mark.parametrize("params", CLASS_CASES, ids=CLASS_IDS)
    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    @pytest.mark.parametrize("sponge_strength", [0.0, 1.0])
    def test_match_stencils(self, params, nonlinear, sponge_strength):
        cfg = small_cfg(L=10.0, nx=60, sponge_strength=sponge_strength)
        n = cfg.grid.n_nodes
        rhs = so._Rhs(params, cfg, nonlinear)
        z = 0.1 * np.random.default_rng(1).standard_normal(2 * n)
        if rhs.dirichlet:
            z[n] = 0.0
        u, m = z[:n], z[n:]
        dzdt = rhs.stage(rhs.E, z)
        got = (dzdt[:n], dzdt[n:], rhs.J @ m)
        ref = _stencil_rhs(params, cfg, nonlinear, u, m)
        # the wall rows, the far rows and the interior, each to its own scale
        for rows in (slice(0, 3), slice(n - 3, n), slice(3, n - 3)):
            for g, r in zip(got, ref):
                assert np.abs(g[rows] - r[rows]).max() <= 1e-13 * np.abs(r[rows]).max()
        if rhs.dirichlet:
            assert dzdt[n] == 0.0 and got[2][0] == 0.0

    @pytest.mark.parametrize("params", CLASS_CASES, ids=CLASS_IDS)
    def test_ghost_rows_double_the_off_diagonal(self, params):
        # so halving the wall and far rows of I - hJ makes it symmetric exactly
        J = so._Rhs(params, small_cfg(L=10.0, nx=60), nonlinear=False).J.toarray()
        lower, upper = np.diagonal(J, -1), np.diagonal(J, 1)
        assert np.array_equal(lower[1:-1], upper[1:-1])
        assert lower[-1] == 2.0 * upper[-1]
        assert upper[0] == (0.0 if params.a1 == 0.0 else 2.0 * lower[0])


def _rk4_step(rhs, z, h):
    def full(v):  # the explicit part plus the implicit nu m_xx
        dzdt = rhs.stage(rhs.E, v)
        dzdt[rhs.n:] += rhs.J @ v[rhs.n:]
        return dzdt

    k1 = full(z)
    k2 = full(z + 0.5 * h * k1)
    k3 = full(z + 0.5 * h * k2)
    k4 = full(z + h * k3)
    return z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# one-step cases over the boundary classes; each id names the solver's
# spatial discretization, the second-order central difference, and the class
STEP_CASES = [P, PD, ModelParams(a1=1.0, a2=0.0), ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)]
STEP_IDS = ["central-2-" + name for name in ("mixed", "dirichlet", "neumann", "scaled")]


class TestStepMatrix:
    @pytest.mark.parametrize("params", STEP_CASES, ids=STEP_IDS)
    @pytest.mark.parametrize("sponge_strength", [0.0, 1.0])
    def test_matches_rk4_step(self, params, sponge_strength):
        # one IMEX step of the linear system against a classical RK4 step of
        # the full rhs: RK4's local error is O(h^5), so their difference is
        # the IMEX local error, O(h^3) for a second-order step
        cfg = small_cfg(L=10.0, nx=60, sponge_strength=sponge_strength)
        rhs = so._Rhs(params, cfg, nonlinear=False)
        dt, _ = so._stable_dt(params, cfg, rhs.remainder_viscosity(np.zeros(cfg.grid.n_nodes)))
        # the stacked state (u, m)
        z = np.random.default_rng(0).standard_normal(2 * cfg.grid.n_nodes)
        if rhs.dirichlet:
            z[cfg.grid.n_nodes] = 0.0
        diffs = []
        for h in (dt / 64.0, dt / 128.0):
            got = so._imex_step(rhs, so._ImplicitSolve(rhs, so._GAMMA * h), z, h)
            diffs.append(np.abs(got - _rk4_step(rhs, z, h)).max())
        assert math.log2(diffs[0] / diffs[1]) >= 2.8


def _unfused_stepper(params, cfg, nonlinear, dt):
    """One ARS(2,2,2) step of size dt written from the stencils, unfused: two
    explicit evaluations, the final stage's implicit term as a product of its
    own, and dense solves of I - GAMMA dt J."""
    n = cfg.grid.n_nodes

    def explicit(z):
        du, dm, _ = _stencil_rhs(params, cfg, nonlinear, z[:n], z[n:])
        return np.concatenate([du, dm])

    zero = np.zeros(n)
    J = np.column_stack([_stencil_rhs(params, cfg, False, zero, e)[2] for e in np.eye(n)])
    inv = np.linalg.inv(np.eye(n) - so._GAMMA * dt * J)

    def step(z):
        f1 = explicit(z)
        z2 = z + so._GAMMA * dt * f1
        z2[n:] = inv @ z2[n:]
        out = z + so._DELTA * dt * f1 + (1.0 - so._DELTA) * dt * explicit(z2)
        out[n:] += (1.0 - so._GAMMA) * dt * (J @ z2[n:])
        out[n:] = inv @ out[n:]
        return out

    return step


class TestStageFold:
    # the final stage's implicit term folded into F = E + K (0, J) against the
    # unfused step, over the boundary classes, both systems and both grids
    @pytest.mark.parametrize("params", STEP_CASES, ids=STEP_IDS)
    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    @pytest.mark.parametrize("sponge_strength", [0.0, 1.0])
    @pytest.mark.parametrize("nx", [60, 600])
    def test_matches_unfused_step(self, params, nonlinear, sponge_strength, nx):
        cfg = small_cfg(L=10.0, nx=nx, sponge_strength=sponge_strength)
        n = cfg.grid.n_nodes
        rhs = so._Rhs(params, cfg, nonlinear)
        z = 0.1 * np.random.default_rng(2).standard_normal(2 * n)
        if rhs.dirichlet:
            z[n] = 0.0
        dt, _ = so._stable_dt(params, cfg, rhs.remainder_viscosity(z[:n]))
        solve = so._ImplicitSolve(rhs, so._GAMMA * dt)
        unfused = _unfused_stepper(params, cfg, nonlinear, dt)
        got = ref = z
        for _ in range(10):
            got = so._imex_step(rhs, solve, got, dt)
            ref = unfused(ref)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    def test_two_sparse_products_per_step(self, monkeypatch, nonlinear):
        from scipy import sparse

        shapes = []
        matmul = sparse.csr_array.__matmul__

        def counted(op, other):
            shapes.append(op.shape)
            return matmul(op, other)

        monkeypatch.setattr(sparse.csr_array, "__matmul__", counted)
        cfg = small_cfg(L=20.0, nx=200, t_end=1.0, n_snapshots=3)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.1, center=10.0), cfg.grid, P)
        solve = so.solve_nonlinear if nonlinear else so.solve_linear
        stats = solve(init, P, cfg).stats
        n = cfg.grid.n_nodes
        # every product is a stage operator's, on (u, m, flux, w) or on (u, m)
        assert set(shapes) == {(2 * n, (4 if nonlinear else 2) * n)}
        assert len(shapes) == 2 * stats["steps"]

        rhs = so._Rhs(P, cfg, nonlinear)
        assert stats["stage_nnz"] == {"explicit": rhs.E.nnz, "final": rhs.F.nnz}
        for op in (rhs.E, rhs.F):  # no stored zeros
            assert np.count_nonzero(op.data) == op.nnz
        # F holds E's entries and J's, which share the sponge's diagonal
        sponge = np.count_nonzero(so._sponge_profile(cfg.grid, cfg, P))
        assert rhs.F.nnz - rhs.E.nnz == rhs.J.nnz - sponge


class TestImexStep:
    # nx = 600 puts h nu/dx^2 near 7, where a pivoting tridiagonal solve
    # swaps the Dirichlet row and no longer returns x[0] == 0 exactly;
    # L = 400, nx = 4000 is the criterion-8 decay grid
    @pytest.mark.parametrize(
        "params, L, nx",
        [(p, 10.0, 60) for p in STEP_CASES]
        + [(p, 10.0, 600) for p in STEP_CASES]
        + [(p, 400.0, 4000) for p in STEP_CASES],
        ids=STEP_IDS + [i + "-nx600" for i in STEP_IDS] + [i + "-L400-nx4000" for i in STEP_IDS],
    )
    @pytest.mark.parametrize("sponge_strength", [0.0, 1.0])
    def test_implicit_solve_residual(self, params, L, nx, sponge_strength):
        cfg = small_cfg(L=L, nx=nx, sponge_strength=sponge_strength)
        rhs = so._Rhs(params, cfg, nonlinear=False)
        dt, _ = so._stable_dt(params, cfg, rhs.remainder_viscosity(np.zeros(cfg.grid.n_nodes)))
        h = so._GAMMA * dt
        b = np.random.default_rng(0).standard_normal(cfg.grid.n_nodes)
        if rhs.dirichlet:
            b[0] = 0.0
        b_in = b.copy()
        x = so._ImplicitSolve(rhs, h).solve(b_in)
        # the solve is in place: a copy made on the way into LAPACK would
        # leave b_in unchanged
        assert np.shares_memory(x, b_in)
        assert np.abs(x - h * (rhs.J @ x) - b).max() <= 1e-14
        if rhs.dirichlet:
            assert x[0] == 0.0

    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    def test_temporal_order(self, nonlinear):
        # fixed grid, so the spatial error cancels; without the sponge the
        # stable step is 0.04, so n snapshot segments take one step each and
        # dt = 2/n halves with each level
        grid = Grid1D(L=40.0, nx=400)
        solve = so.solve_nonlinear if nonlinear else so.solve_linear
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.5, center=15.0, width=2.5,
                           components=("rho", "m")), grid, P,
        )
        cfg = so.SolverConfig(grid=grid, t_end=2.0, sponge_strength=0.0)
        finals = []
        for n in (100, 200, 400):
            traj = solve(init, P, cfg, output_times=np.linspace(0.0, 2.0, n + 1))
            assert traj.stats["steps"] == n
            finals.append(traj.states[-1])
        e1, e2 = (
            np.abs(a.rho - b.rho).max() + np.abs(a.m - b.m).max()
            for a, b in zip(finals, finals[1:])
        )
        assert math.log2(e1 / e2) >= 1.9

    def test_odd_even_mode_damped(self):
        # the central gradients vanish on this mode, so its explicit
        # eigenvalue is -dt (16 kappa4 c/dx + sponge): the dissipation limit
        # keeps it inside [-2, 0]
        grid = Grid1D(L=10.0, nx=200)
        u0 = 1e-3 * (-1.0) ** np.arange(grid.n_nodes) * np.exp(-((grid.x - 5.0) ** 2))
        init = so.FieldState(t=0.0, rho=1.0 + u0, m=np.zeros(grid.n_nodes))
        cfg = so.SolverConfig(grid=grid, t_end=2.0, n_snapshots=2)
        traj = so.solve_linear(init, P, cfg)
        assert traj.stats["segments"][0]["limit"] == "dissipation"
        fin = traj.states[-1]
        assert np.abs(fin.rho - 1.0).max() + np.abs(fin.m).max() <= 1e-9

    def test_explicit_viscous_limit_keeps_strong_nonlinearity_stable(self):
        # peak density 1.3, |1/rho - 1| = 0.23: the explicit remainder
        # nu (m/rho - m)_xx sets dt on this grid
        grid = Grid1D(L=20.0, nx=400)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.3 * math.sqrt(2.0 * math.pi),
                           center=10.0, width=1.0), grid, P,
        )
        assert np.max(np.abs(1.0 / init.rho - 1.0)) >= 0.2
        cfg = so.SolverConfig(grid=grid, t_end=1.0, n_snapshots=3)
        run = so.solve_nonlinear(init, P, cfg)
        assert run.stats["segments"][0]["limit"] == "explicit-viscous"
        # the reference takes one step per snapshot segment, at most half the
        # default run's smallest step
        ref_run = so.solve_nonlinear(init, P, cfg, output_times=np.linspace(0.0, 1.0, 415))
        assert ref_run.stats["steps"] == 414
        assert 1.0 / 414 <= 0.5 * min(seg["dt"] for seg in run.stats["segments"])
        fin, ref = run.states[-1], ref_run.states[-1]
        assert np.all(np.isfinite(fin.rho)) and np.all(np.isfinite(fin.m))
        scale = np.abs(ref.rho - 1.0).max()
        assert np.abs(fin.rho - ref.rho).max() <= 1e-4 * scale
        assert np.abs(fin.m - ref.m).max() <= 1e-4 * scale

    def test_criterion8_step_count(self):
        grid = Grid1D(L=400.0, nx=4000)
        init = so.make_initial_data(
            so.InitialData(kind="algebraic", amplitude=0.01, r=1.0), grid, P
        )
        times = np.unique(
            np.concatenate([np.linspace(0.0, 5.0, 6), np.geomspace(5.0, 50.0, 25)])
        )
        traj = so.solve_nonlinear(
            init, P, so.SolverConfig(grid=grid, t_end=50.0), output_times=times
        )
        stats = traj.stats
        assert stats["steps"] <= 1300
        assert stats["steps"] == sum(seg["steps"] for seg in stats["segments"])
        assert len(stats["segments"]) == len(times) - 1
        assert 0.5 < stats["min_density"] <= min(s.rho.min() for s in traj.states)

    def test_one_factorization_per_step_size(self):
        grid = Grid1D(L=20.0, nx=200)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.1, center=10.0), grid, P
        )
        cfg = so.SolverConfig(grid=grid, t_end=3.0)
        even = so.solve_linear(init, P, cfg, output_times=[0.0, 1.0, 2.0, 3.0])
        uneven = so.solve_linear(init, P, cfg, output_times=[0.0, 1.0, 3.0])
        assert even.stats["factorizations"] == 1
        assert uneven.stats["factorizations"] == 2


class TestWallClosure:
    # a rho + m pulse at x = 4 reaches the wall and reflects by t = 8
    @pytest.mark.parametrize("params", CLASS_CASES, ids=CLASS_IDS)
    def test_second_order_at_the_wall(self, params):
        finals, residuals = [], []
        for nx in (400, 800, 1600, 3200):
            grid = Grid1D(L=40.0, nx=nx)
            init = so.make_initial_data(
                so.InitialData(kind="gaussian", amplitude=0.5, center=4.0, width=1.0,
                               components=("rho", "m")), grid, params,
            )
            traj = so.solve_linear(init, params, so.SolverConfig(grid=grid, t_end=8.0))
            finals.append((grid, traj.states[-1]))
            m_max = max(np.abs(s.m).max() for s in traj.states)
            residuals.append(max(traj.boundary_residual) / m_max)
        # the error on the quarter next to the wall, against the finer grid
        errors = []
        for (grid, a), (_, b) in zip(finals, finals[1:]):
            wall = grid.x <= grid.L / 4.0
            errors.append(max(np.abs(a.rho - b.rho[::2])[wall].max(),
                              np.abs(a.m - b.m[::2])[wall].max()))

        def orders(e):
            return [math.log2(coarse / fine) for coarse, fine in zip(e, e[1:])]

        assert min(orders(errors)) >= 1.8
        if params.a1 == 0.0:
            # the one-sided relation is m(0) = 0, which the pin holds exactly
            assert max(residuals) == 0.0
        else:
            assert min(orders(residuals)) >= 1.8

    def test_indefinite_implicit_matrix_raises(self):
        # the unstable class with a2/a1 = 50: on this grid the Robin wall row
        # leaves I - hJ with a negative pivot at the solver's own step
        params = ModelParams(a1=1.0, a2=50.0)
        cfg = small_cfg(L=40.0, nx=800)
        rhs = so._Rhs(params, cfg, nonlinear=False)
        dt, _ = so._stable_dt(params, cfg, 0.0)
        with pytest.raises(ConfigurationError, match="indefinite"):
            so._ImplicitSolve(rhs, so._GAMMA * dt)


class TestFarBoundary:
    # odd-even density data reaches the far node x = L at full amplitude;
    # the far-row closure must not turn it into growth there
    @staticmethod
    def _growth(params, nx, sponge_strength=1.0, nonlinear=False):
        grid = Grid1D(L=10.0, nx=nx)
        u0 = 1e-3 * (-1.0) ** np.arange(grid.n_nodes)
        init = so.FieldState(t=0.0, rho=1.0 + u0, m=np.zeros(grid.n_nodes))
        cfg = so.SolverConfig(grid=grid, t_end=2.0, sponge_strength=sponge_strength)
        solve = so.solve_nonlinear if nonlinear else so.solve_linear
        sup = max(max(np.abs(s.rho - 1.0).max(), np.abs(s.m).max())
                  for s in solve(init, params, cfg).states)
        return sup / np.abs(u0).max()

    @pytest.mark.parametrize("params", [P, PD, ModelParams(a1=1.0, a2=0.0)],
                             ids=["mixed", "dirichlet", "neumann"])
    @pytest.mark.parametrize("nx", [200, 400])
    @pytest.mark.parametrize("sponge_strength", [0.0, 1.0])
    def test_linear_odd_even_data_bounded(self, params, nx, sponge_strength):
        assert self._growth(params, nx, sponge_strength) <= 3.0

    @pytest.mark.parametrize("nx", [200, 400])
    def test_nonlinear_odd_even_data_bounded(self, nx):
        assert self._growth(P, nx, nonlinear=True) <= 3.0


class TestNonlinearSolver:
    def test_stationary_preserved(self):
        grid = Grid1D(L=20.0, nx=200)
        cfg = so.SolverConfig(grid=grid, t_end=2.0)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.0, center=10.0), grid, P
        )
        traj = so.solve_nonlinear(init, P, cfg)
        assert max(np.abs(s.rho - 1.0).max() + np.abs(s.m).max() for s in traj.states) == 0.0

    def test_linearization_consistency(self):
        grid = Grid1D(L=60.0, nx=1200)
        cfg = so.SolverConfig(grid=grid, t_end=5.0, n_snapshots=2)
        ratios = []
        for eps in (2e-4, 1e-4):
            init = so.make_initial_data(
                so.InitialData(kind="gaussian", amplitude=eps, center=25.0, width=1.5),
                grid, P,
            )
            lin = so.solve_linear(init, P, cfg).states[-1]
            non = so.solve_nonlinear(init, P, cfg).states[-1]
            diff = np.abs(non.rho - lin.rho).max() + np.abs(non.m - lin.m).max()
            ratios.append(diff / eps**2)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.2)  # O(eps^2) scaling

    def test_positivity_loss_raises_divergence(self):
        grid = Grid1D(L=20.0, nx=200)
        cfg = so.SolverConfig(grid=grid, t_end=5.0)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=2.0, center=10.0, width=0.5),
            grid, P,
        )
        with pytest.raises(DivergenceError):
            so.solve_nonlinear(init, P, cfg)

    def test_divergence_keeps_work_counters(self):
        grid = Grid1D(L=20.0, nx=200)
        cfg = so.SolverConfig(grid=grid, t_end=5.0)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=2.0, center=10.0, width=0.5),
            grid, P,
        )
        with pytest.raises(DivergenceError) as info:
            so.solve_nonlinear(init, P, cfg)
        stats = info.value.partial.stats
        assert stats["steps"] > 0
        assert stats["steps"] == sum(seg["steps"] for seg in stats["segments"])
        assert set(stats["stage_nnz"]) == {"explicit", "final"}

    def test_nonpositive_initial_density_refused(self):
        grid = Grid1D(L=10.0, nx=100)
        rho = np.ones(grid.n_nodes)
        rho[50] = 0.0
        init = so.FieldState(t=0.0, rho=rho, m=np.zeros(grid.n_nodes))
        with pytest.raises(ParameterError):
            so.solve_nonlinear(init, P, so.SolverConfig(grid=grid, t_end=1.0))

    def test_unstable_class_refused(self):
        pu = ModelParams(a1=1.0, a2=1.0)
        grid = Grid1D(L=20.0, nx=200)
        cfg = so.SolverConfig(grid=grid, t_end=1.0)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.01, center=10.0), grid, pu
        )
        with pytest.raises(ConfigurationError):
            so.solve_nonlinear(init, pu, cfg)


class TestGreenColumn:
    @pytest.fixture(scope="class")
    def narrow_columns(self):
        cfg = so.SolverConfig(grid=Grid1D(L=30.0, nx=600), t_end=2.0, n_snapshots=3)
        return so.green_column(10.0, P, cfg, width=0.3)

    def test_width_and_placement_validated(self):
        cfg = small_cfg()
        with pytest.raises(ConfigurationError):
            so.green_column(5.0, P, cfg, width=cfg.grid.dx)
        with pytest.raises(ConfigurationError):
            so.green_column(0.5, P, cfg, width=1.0)
        for width in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=f"width={width}"):
                so.green_column(10.0, P, cfg, width=width)
        assert so.pulse_width(5.0, cfg) == 4.0 * cfg.grid.dx

    def test_delta_persistence_short_time(self):
        # at t << nu/c^2 the density pulse keeps mass ~ exp(-c^2 t/nu) near
        # the source: the window mass approaches that weight from above as
        # the window shrinks onto the persistent peak (the smooth remainder
        # has spread over ~sqrt(2 nu t) and drops out first)
        grid = Grid1D(L=30.0, nx=3000)
        t_end = 0.05
        cfg = so.SolverConfig(grid=grid, t_end=t_end, n_snapshots=2)
        cols = so.green_column(15.0, P, cfg, width=0.05)
        st = cols.rho_pulse.states[-1]
        x = grid.x
        q = math.exp(-P.c**2 * t_end / P.nu)
        masses = []
        for half_width in (0.6, 0.3, 0.18):
            window = np.abs(x - 15.0) <= half_width
            masses.append(np.trapezoid((st.rho - 1.0)[window], x[window]))
        excess = [m - q for m in masses]
        assert excess[0] > excess[1] > excess[2] > -0.005
        assert abs(masses[-1] - q) <= 0.03

    def test_dirichlet_momentum_vanishes_at_wall(self):
        grid = Grid1D(L=30.0, nx=600)
        cfg = so.SolverConfig(grid=grid, t_end=6.0, n_snapshots=7)
        cols = so.green_column(10.0, PD, cfg, width=0.3)
        for traj in (cols.rho_pulse, cols.m_pulse):
            assert max(abs(s.m[0]) for s in traj.states) == 0.0

    def test_reflection_arrival_time(self):
        # the boundary-induced wave reaches position x at t ~ (x + y0)/c:
        # subtracting the whole-line (direct) part via the Fourier oracle,
        # the remainder at the probe is tiny long before arrival and O(1)
        # of the reflected-ridge amplitude at arrival
        grid = Grid1D(L=40.0, nx=1200)
        y0, probe = 8.0, 4.0
        times = np.array([0.0, 4.0, 12.0])  # arrival at probe: (4 + 8)/c = 12
        cfg = so.SolverConfig(grid=grid, t_end=12.0, n_snapshots=3)
        cols = so.green_column(y0, P, cfg, width=0.2, output_times=times)
        k = int(round(probe / grid.dx))
        refl = {}
        for st in cols.rho_pulse.states[1:]:
            kv = tr.invert_fourier_fundamental(probe - y0, st.t, P)
            refl[st.t] = abs((st.rho[k] - 1.0) - kv.smooth[0, 0])
        assert refl[12.0] > 3.0 * refl[4.0]

    def test_matrix_at_requires_snapshot_time(self):
        grid = Grid1D(L=30.0, nx=600)
        cfg = so.SolverConfig(grid=grid, t_end=2.0, n_snapshots=3)
        cols = so.green_column(10.0, P, cfg, width=0.3)
        cols.matrix_at(5.0, 1.0)
        with pytest.raises(ParameterError):
            cols.matrix_at(5.0, 0.77)

    @pytest.mark.parametrize("times, message", [
        ([1.0, 3.0], r"output time 3.0 lies beyond t_end = 2.0"),
        ([1.0, 1.0], r"must increase from 0, got 1.0 then 1.0"),
        ([2.0, 1.0], r"must increase from 0, got 2.0 then 1.0"),
        ([], r"at least one output time"),
    ], ids=["beyond-t_end", "repeated", "decreasing", "empty"])
    def test_bad_output_times_named(self, times, message):
        cfg = so.SolverConfig(grid=Grid1D(L=30.0, nx=300), t_end=2.0)
        with pytest.raises(ConfigurationError, match=message):
            so.green_column(10.0, P, cfg, output_times=times)

    @pytest.mark.parametrize("x", [30.5, -0.1, math.nan, [5.0, 31.0]],
                             ids=["beyond-L", "negative", "nan", "array"])
    def test_matrix_at_refuses_points_off_grid(self, narrow_columns, x):
        # np.interp would clamp them to the nearest end of [0, L]
        with pytest.raises(ParameterError, match=r"x=(30.5|-0.1|nan|31.0) .*L=30\]"):
            narrow_columns.matrix_at(x, 1.0)

    @given(xs=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=8),
           t=st.sampled_from([0.0, 1.0, 2.0]))
    @settings(max_examples=30)
    def test_matrix_at_array_equals_scalar_loop(self, narrow_columns, xs, t):
        got = narrow_columns.matrix_at(np.array(xs), t)
        ref = np.stack([narrow_columns.matrix_at(x, t) for x in xs])
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestImportBoundary:
    # scipy.special, scipy.linalg and scipy.sparse load on first use, so a
    # process pays only for what it runs, and nothing at import loads numpy.ma;
    # the pytest process has them loaded
    @staticmethod
    def _loaded_after(code, modules="('scipy.special', 'scipy.linalg', 'scipy.sparse')"):
        probe = f"{code}\nimport sys; print(*(m in sys.modules for m in {modules}))"
        # the child finds hsgreen where this process found it
        src = os.path.dirname(os.path.dirname(so.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        )
        return out.stdout.split()

    def test_cli_import_loads_none(self):
        modules = "('scipy.special', 'scipy.linalg', 'scipy.sparse', 'numpy.ma')"
        assert self._loaded_after("import hsgreen.cli", modules) == ["False"] * 4

    def test_solve_loads_linalg_and_sparse(self):
        code = (
            "from hsgreen.core import Grid1D, ModelParams\n"
            "from hsgreen import solver as so\n"
            "cfg = so.SolverConfig(grid=Grid1D(L=10.0, nx=60), t_end=0.1)\n"
            "init = so.make_initial_data(so.InitialData(), cfg.grid, ModelParams())\n"
            "so.solve_linear(init, ModelParams(), cfg)"
        )
        assert self._loaded_after(code) == ["False", "True", "True"]

    def test_erfcx_loads_special(self):
        assert self._loaded_after("from hsgreen import kernels; kernels.erfcx(0.0)")[0] == "True"
