"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rP`) to see the
per-criterion lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hsgreen.core import Grid1D, ModelParams
from hsgreen import cli
from hsgreen import kernels as K
from hsgreen import solver as so
from hsgreen import transforms as tr
from hsgreen import verify as vf

P = ModelParams()  # c = nu = 1, a1 = -1, a2 = 1 (stable mixed, gamma = 1)
PD = ModelParams(a1=0.0, a2=1.0)
PN = ModelParams(a1=1.0, a2=0.0)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def decay_traj():
    """Criterion 8 run: eps0 = 0.01, r = 1 on [0, 400] to t = 50."""
    grid = Grid1D(L=400.0, nx=4000)
    init = so.make_initial_data(
        so.InitialData(kind="algebraic", amplitude=0.01, r=1.0), grid, P
    )
    times = np.unique(
        np.concatenate([np.linspace(0.0, 5.0, 6), np.geomspace(5.0, 50.0, 25)])
    )
    return so.solve_nonlinear(
        init, P, so.SolverConfig(grid=grid, t_end=50.0), output_times=times
    )


@pytest.fixture(scope="module")
def columns():
    """Criterion 5 runs: narrow-pulse Green's-function columns at y0 = 6."""
    grid = Grid1D(L=30.0, nx=1200)
    cfg = so.SolverConfig(grid=grid, t_end=10.0)
    times = np.array([0.0, 2.0, 5.0, 10.0])
    return so.green_column(6.0, P, cfg, width=0.1, output_times=times)


# ---------------------------------------------------------------------------
# 1. Special-function exactness
# ---------------------------------------------------------------------------


def test_criterion_1_special_functions():
    # erfcx against the high-precision oracle.  Values for z < -26.6 exceed
    # the double range (~1e390 at z = -30), so the comparison covers the
    # representable part of [-30, 30] and asserts saturation beyond.
    zs = np.concatenate([np.linspace(-26.6, 30.0, 142), [-26.62, 29.97]])
    with mp.workdps(40):
        worst_z = max(
            abs(K.erfcx(float(z)) - float(mp.exp(mp.mpf(float(z)) ** 2) * mp.erfc(float(z))))
            / float(mp.exp(mp.mpf(float(z)) ** 2) * mp.erfc(float(z)))
            for z in zs
        )
    ok = worst_z <= 1e-12 and math.isinf(K.erfcx(-30.0))

    # E-function closed form against adaptive quadrature of its definition.
    worst_e = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            for d0 in (1.0, 2.0, 4.0):
                for t in (0.5, 3.7, 50.0):
                    for x in (-50.0, -12.5, 0.0, 7.5, 50.0):
                        cf = K.e_function(x, t, lam, d0, gamma)
                        center = max(lam * t - x, 0.0)
                        width = max(1.0 / gamma, math.sqrt(d0 * t))
                        hi = center + 60.0 * width
                        pts = [p for p in (center, center + width) if 0.0 < p < hi]
                        qd, _ = quad(
                            lambda z: math.exp(-gamma * z)
                            * math.exp(-((x + z - lam * t) ** 2) / (d0 * t)),
                            0.0, hi, epsabs=0.0, epsrel=1e-12, limit=400,
                            points=pts or None,
                        )
                        if cf == 0.0 and qd == 0.0:
                            continue  # below the double underflow floor
                        worst_e = max(worst_e, abs(cf - qd) / qd)
    ok = ok and worst_e <= 1e-9
    report(1, "special functions", ok,
           f"erfcx worst rel {worst_z:.2e} (<=1e-12), "
           f"E vs quadrature worst rel {worst_e:.2e} (<=1e-9)")


# ---------------------------------------------------------------------------
# 2. E-function derivative identity and heat-kernel realization
# ---------------------------------------------------------------------------


def test_criterion_2_e_identities():
    # d/dx E = gamma E - exp(-(x - lam t)^2/(d0 t)) at 4th-order FD accuracy
    kw = dict(t=2.0, lam=1.0, d0=2.0, gamma=1.0)
    fd_ok = True
    worst_ratio = 0.0
    for x in (-4.0, -1.0, 0.0, 2.0, 6.0):
        exact = K.e_function_dx(x, **kw)
        errs = []
        for h in (2e-2, 1e-2):
            vals = K.e_function(x + h * np.array([-2, -1, 1, 2]), **kw)
            fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            errs.append(abs(fd - exact))
        ratio = errs[1] / max(errs[0], 1e-300)
        worst_ratio = max(worst_ratio, ratio)
        fd_ok = fd_ok and (errs[1] <= errs[0] / 8.0 + 1e-14)

    # advection-diffusion evolution of e^{gamma x} 1_{x<=0} lands on
    # E / sqrt(pi d0 t) at t = 1 (remark normalization: diffusivity d0/4)
    gamma, lam, d0 = 1.0, 1.0, 2.0
    diff = d0 / 4.0
    lo, hi_x, dx = -20.0, 14.0, 0.01
    n = int(round((hi_x - lo) / dx)) + 1
    x = np.linspace(lo, hi_x, n)
    a, b = x - dx / 2.0, x + dx / 2.0
    u = np.zeros(n)
    negc = b <= 0.0
    u[negc] = (np.exp(gamma * b[negc]) - np.exp(gamma * a[negc])) / (gamma * dx)
    midc = (a < 0.0) & (b > 0.0)
    u[midc] = (1.0 - np.exp(gamma * a[midc])) / (gamma * dx)

    def rhs(v):
        dv = np.zeros_like(v)
        dv[1:-1] = (-lam * (v[2:] - v[:-2]) / (2 * dx)
                    + diff * (v[2:] - 2 * v[1:-1] + v[:-2]) / dx**2)
        return dv

    dt = min(0.4 * dx * dx / diff, 0.4 * dx / lam)
    steps = int(math.ceil(1.0 / dt))
    dt = 1.0 / steps
    for _ in range(steps):
        k1 = rhs(u); k2 = rhs(u + dt / 2 * k1)
        k3 = rhs(u + dt / 2 * k2); k4 = rhs(u + dt * k3)
        u += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    f_exact = K.e_function(x, 1.0, lam, d0, gamma) / math.sqrt(math.pi * d0)
    win = np.abs(x) <= 8.0
    rel = np.abs(u[win] - f_exact[win]).max() / np.abs(f_exact[win]).max()
    ok = fd_ok and rel <= 1e-4
    report(2, "E-function identities", ok,
           f"FD error ratio at h/2: {worst_ratio:.3f} (<=0.125+eps), "
           f"advection-diffusion match {rel:.2e} (<=1e-4)")


# ---------------------------------------------------------------------------
# 3. Transform-identity suite
# ---------------------------------------------------------------------------


def test_criterion_3_transform_identities():
    from hsgreen.spectral import (
        dispersion_sigma, fourier_fundamental, laplace_fundamental, laplace_green,
    )

    worst_vieta = 0.0
    for xi in np.linspace(-20.0, 20.0, 81):
        rs, rp = dispersion_sigma(float(xi), P).vieta_residuals(float(xi), P)
        worst_vieta = max(worst_vieta, rs, rp)

    xi_all = np.linspace(-6.0, 6.0, 121)
    worst_det = 0.0
    for t in (0.5, 1.0, 3.0):
        xi = xi_all[P.nu * xi_all**2 * t - 2.0 * t <= 12.0]
        F = fourier_fundamental(xi, t, P)
        det = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        target = np.exp(-P.nu * xi**2 * t)
        worst_det = max(worst_det, float((np.abs(det - target) / target).max()))

    ident = max(
        float(np.abs(fourier_fundamental(xi, 0.0, P) - np.eye(2)).max())
        for xi in (0.0, 1.0, 2.0, 17.0)
    )

    s = 1.3 + 0.8j
    plus = laplace_fundamental(2.2, s, P)
    minus = laplace_fundamental(-2.2, s, P)
    parity = float(np.abs(minus - plus * np.array([[1, -1], [-1, 1]])).max())

    worst_bnd = 0.0
    for sv in (0.5 + 0.3j, 2.0 + 0.0j, 1.0 + 2.0j):
        gv = laplace_green(0.0, 3.0, sv, P)
        row = -P.a1 * sv * gv[0, :] + P.a2 * gv[1, :]
        worst_bnd = max(worst_bnd, float(np.abs(row).max()))

    ok = (worst_vieta <= 1e-12 and worst_det <= 1e-10 and ident == 0.0
          and parity <= 1e-15 and worst_bnd <= 1e-8)
    report(3, "transform identities", ok,
           f"vieta {worst_vieta:.1e}, det {worst_det:.1e}, F(xi,0)=I {ident:.1e}, "
           f"parity {parity:.1e}, boundary identity {worst_bnd:.1e}")


# ---------------------------------------------------------------------------
# 4. Dirichlet/Neumann closed forms
# ---------------------------------------------------------------------------


def test_criterion_4_degenerate_closed_forms():
    xs = np.linspace(1.0, 20.0, 6)
    ys = np.linspace(1.7, 19.3, 6)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    worst = 0.0
    for params in (PD, PN):
        for t in (2.0, 5.0, 10.0):
            gl = tr.invert_laplace_green(X, Y, t, params)
            built = tr.fourier_green(X, Y, t, params)
            scale = np.abs(built).max()
            worst = max(worst, float(np.abs(gl - built).max() / scale))
    ok = worst <= 1e-6
    report(4, "Dirichlet/Neumann closed forms", ok,
           f"worst sup-relative difference {worst:.2e} (<=1e-6)")


# ---------------------------------------------------------------------------
# 5. Three-oracle agreement (mixed stable)
# ---------------------------------------------------------------------------


def test_criterion_5_three_oracle_agreement(columns):
    y0 = columns.y0

    # pairwise agreement of the two numerical oracles at smooth interior
    # points: <= 1% relative to the per-time field scale
    worst_pair = 0.0
    for t in (2.0, 5.0, 10.0):
        xs = np.linspace(1.0, 16.0, 31)
        xs = xs[np.abs(xs - y0) > 0.25]
        lap = tr.invert_laplace_green(xs, np.full_like(xs, y0), t, P)
        pde = columns.matrix_at(xs, t)
        scale = np.abs(lap).max()
        keep = np.abs(lap).max(axis=(1, 2)) >= 0.05 * scale
        diff = np.abs(lap - pde).max(axis=(1, 2))[keep]
        ref = np.abs(lap).max(axis=(1, 2))[keep]
        worst_pair = max(worst_pair, float((diff / ref).max()))

    # leading-order kernel within the pointwise envelope of the transform
    # oracle, sup ratio stable under one 2x refinement of the grid
    sups = []
    for n in (31, 61):
        sup = 0.0
        for t in (2.0, 5.0, 10.0):
            xs = np.linspace(1.0, 16.0, n)
            xs = xs[np.abs(xs - y0) > 0.25]
            lap = tr.invert_laplace_green(xs, np.full_like(xs, y0), t, P)
            lead = K.green_leading(xs, y0, t, P).smooth
            ratio = np.abs(lap - lead).max(axis=(1, 2)) / vf.pointwise_envelope(
                xs, y0, t, P, eps=1.0
            )
            sup = max(sup, float(ratio.max()))
        sups.append(sup)
    stable = abs(sups[1] - sups[0]) <= 0.1 * sups[0]
    ok = worst_pair <= 0.01 and np.isfinite(sups[1]) and stable
    report(5, "three-oracle agreement", ok,
           f"pairwise numeric oracles {worst_pair:.3%} (<=1%), "
           f"leading-vs-oracle envelope sup {sups[1]:.3f} "
           f"(coarse {sups[0]:.3f}, stable={stable})")


# ---------------------------------------------------------------------------
# 6. Pointwise envelope of the Green's function
# ---------------------------------------------------------------------------


def test_criterion_6_green_bound():
    details = []
    ok = True
    for alpha in (0, 1):
        rep = vf.green_bound_report(
            P,
            np.linspace(0.0, 25.0, 13),
            np.linspace(0.13, 24.9, 13),
            np.linspace(1.0, 20.0, 6),
            alpha=alpha,
        )
        ok = ok and rep.status == "pass"
        details.append(
            f"alpha={alpha}: sup {rep.sup_ratio:.3f} at "
            f"{rep.details['ridge_distance_sigmas']:.2f} sigma from a ridge"
        )
    report(6, "pointwise envelope", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Instability dichotomy
# ---------------------------------------------------------------------------


def test_criterion_7_instability_dichotomy():
    pu = ModelParams(a1=1.0, a2=1.0)
    rep = vf.instability_report(pu)
    rate_ok = rep.status == "pass" and rep.fitted["relative_error"] <= 0.05

    # stable mixed pair: sup norm non-increasing once the transient (the
    # boundary reflection of the left-moving wave) has passed, and no
    # exponential growth anywhere in [0, 30]
    grid = Grid1D(L=60.0, nx=1200)
    scfg = so.SolverConfig(grid=grid, t_end=30.0, n_snapshots=31)
    init = so.make_initial_data(
        so.InitialData(kind="gaussian", amplitude=0.01, center=6.0, width=1.0),
        grid, P,
    )
    traj = so.solve_linear(init, P, scfg)
    ts = traj.times
    sups = np.array([max(np.abs(s.rho - 1.0).max(), np.abs(s.m).max())
                     for s in traj.states])
    after = sups[ts >= 12.0]
    mono = bool(np.all(np.diff(after) <= 1e-12))
    decayed = sups[-1] < 0.5 * sups[ts >= 2.0][0]
    ok = rate_ok and mono and decayed
    report(7, "instability dichotomy", ok,
           f"measured rate {rep.fitted['growth_rate']:.4f} vs pole "
           f"{rep.fitted['pole']:.4f} ({rep.fitted['relative_error']:.2%} <= 5%); "
           f"stable case monotone after transient: {mono}, decayed: {decayed}")


# ---------------------------------------------------------------------------
# 8. Nonlinear decay rates and ansatz boundedness
# ---------------------------------------------------------------------------


def test_criterion_8_nonlinear_decay(decay_traj):
    rep = vf.decay_report(decay_traj, P)
    slopes = {k: v["slope"] for k, v in rep.fitted.items()}
    ok = (
        rep.status == "pass"
        and abs(slopes["Linf"] + 0.5) <= 0.1
        and abs(slopes["L2"] + 0.25) <= 0.1
        and rep.details["weighted_sup_growth"] <= 0.05
        and rep.details["M_growth"] <= 0.05
    )
    report(8, "nonlinear decay", ok,
           f"Linf slope {slopes['Linf']:.3f} (target -0.5±0.1), "
           f"L2 slope {slopes['L2']:.3f} (target -0.25±0.1), "
           f"L4 slope {slopes['L4']:.3f}, weighted-sup growth "
           f"{rep.details['weighted_sup_growth']:.2%}, M growth "
           f"{rep.details['M_growth']:.2%} (both <=5%)")


def test_decay_grid_derived_from_horizon(decay_traj):
    # the report's window reaches the ridge c t' plus 8 heat-kernel widths at t'_end on
    # the fewest cells of criterion 8's dx = 0.1, so the run keeps its dt and steps
    cfg = cli.DECAY_SOLVER
    edge = cfg.t_end + 8.0 * math.sqrt(2.0 * cfg.t_end)
    assert vf.DECAY_WINDOW * (cfg.grid.L - cfg.grid.dx) < edge <= vf.DECAY_WINDOW * cfg.grid.L
    assert cfg.grid.dx == decay_traj.grid.dx == 0.1
    assert np.array_equal(cli.DECAY_TIMES, decay_traj.times)
    init = so.make_initial_data(so.InitialData(kind="algebraic", amplitude=0.01, r=1.0),
                                cfg.grid, P)
    traj = so.solve_nonlinear(init, P, cfg, output_times=cli.DECAY_TIMES)
    assert traj.stats["steps"] == decay_traj.stats["steps"]


def test_decay_cli_matches_criterion_8(decay_traj, tmp_path):
    # the CLI's run on the derived grid gives criterion 8's L = 400 verdict and norms
    assert cli.main(["verify", "--which", "decay", "--out", str(tmp_path)]) == cli.EXIT_PASS
    got = json.loads((tmp_path / "decay.json").read_text())
    want = vf.decay_report(decay_traj, P)
    assert got["status"] == want.status == "pass"
    for key, fit in want.fitted.items():
        assert abs(got["fitted"][key]["slope"] - fit["slope"]) <= 1e-6
    assert abs(got["details"]["M_final"] / want.details["M_final"] - 1.0) <= 1e-9
    assert abs(got["details"]["weighted_sup_growth"]
               - want.details["weighted_sup_growth"]) <= 1e-6


# ---------------------------------------------------------------------------
# 9. Convolution lemma checkers
# ---------------------------------------------------------------------------


def test_criterion_9_lemma_checkers():
    r41 = vf.lemma_initial_data_check(
        2.0, 1.0, 3.0, np.linspace(0.0, 100.0, 17), np.linspace(0.0, 100.0, 17)
    )
    details = [f"4.1 sup {r41.sup_ratio:.3f} ({r41.status})"]
    ok = r41.status == "pass"
    for alpha, expect_log in ((2.0, False), (3.0, True)):
        same = vf.lemma_wave_interaction_check(
            "same-speed", alpha, 0.5, 2.0 * P.nu, P.c,
            t_values=(4.0, 16.0, 48.0),
        )
        cross = vf.lemma_wave_interaction_check(
            "cross-speed", alpha, 0.5, 2.0 * P.nu, P.c, -P.c,
            t_values=(4.0, 16.0, 48.0),
        )
        ok = ok and same.status == "pass" and cross.status == "pass"
        ok = ok and same.details["log_branches"]["psi_log"] is expect_log
        details.append(
            f"(a={alpha:g}) same {same.sup_ratio:.2f}, cross {cross.sup_ratio:.2f}, "
            f"log={same.details['log_branches']['psi_log']}"
        )
    report(9, "convolution lemmas", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. Solver hygiene
# ---------------------------------------------------------------------------


def test_criterion_10_solver_hygiene():
    # boundary residual with momentum-carrying data
    grid = Grid1D(L=40.0, nx=800)
    cfg = so.SolverConfig(grid=grid, t_end=5.0)
    init = so.make_initial_data(
        so.InitialData(kind="gaussian", amplitude=0.5, center=15.0, width=1.0,
                       components=("rho", "m")), grid, P,
    )
    traj = so.solve_linear(init, P, cfg)
    m_max = max(np.abs(s.m).max() for s in traj.states)
    resid_ok = max(traj.boundary_residual) <= 1e-6 * m_max

    # Dirichlet mass invariance before any boundary is reached
    gridm = Grid1D(L=160.0, nx=3200)
    cfgm = so.SolverConfig(grid=gridm, t_end=20.0)
    initm = so.make_initial_data(
        so.InitialData(kind="gaussian", amplitude=1.0, center=70.0, width=0.5),
        gridm, PD,
    )
    trajm = so.solve_linear(initm, PD, cfgm)
    masses = [np.trapezoid(s.rho - 1.0, gridm.x) for s in trajm.states]
    drift = max(abs(mss - masses[0]) for mss in masses)

    # observed spatial convergence order on a smooth solution
    def run(nx):
        g = Grid1D(L=40.0, nx=nx)
        c = so.SolverConfig(grid=g, t_end=2.0, n_snapshots=2)
        ini = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.1, center=15.0, width=2.5,
                           components=("rho", "m")), g, P,
        )
        return so.solve_linear(ini, P, c).states[-1]

    s1, s2, s4 = run(400), run(800), run(1600)
    e1 = np.abs(s1.rho - s2.rho[::2]).max() + np.abs(s1.m - s2.m[::2]).max()
    e2 = np.abs(s2.rho - s4.rho[::2]).max() + np.abs(s2.m - s4.m[::2]).max()
    order = math.log2(e1 / e2)

    # stationary state preserved to machine precision
    gs = Grid1D(L=20.0, nx=200)
    inis = so.make_initial_data(
        so.InitialData(kind="gaussian", amplitude=0.0, center=10.0), gs, P
    )
    stat = so.solve_nonlinear(inis, P, so.SolverConfig(grid=gs, t_end=2.0))
    stat_dev = max(np.abs(s.rho - 1.0).max() + np.abs(s.m).max() for s in stat.states)

    ok = resid_ok and drift <= 1e-8 and order >= 1.9 and stat_dev == 0.0
    report(10, "solver hygiene", ok,
           f"boundary residual <= {max(traj.boundary_residual):.1e} "
           f"(tol {1e-6 * m_max:.1e}), mass drift {drift:.1e} (<=1e-8), "
           f"order {order:.2f} (>=1.9), stationary deviation {stat_dev:.1e}")
