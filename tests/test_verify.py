import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hsgreen.core import BoundEnvelope, Grid1D, ModelParams
from hsgreen.errors import ParameterError, UsageError
from hsgreen import solver as so
from hsgreen import transforms as tr
from hsgreen import verify as vf

P = ModelParams()


@pytest.fixture(scope="module")
def nonlinear_traj():
    grid = Grid1D(L=200.0, nx=2000)
    init = so.make_initial_data(
        so.InitialData(kind="algebraic", amplitude=0.01, r=1.0), grid, P
    )
    times = np.unique(np.concatenate([np.linspace(0.0, 5.0, 6), np.geomspace(5.0, 50.0, 18)]))
    return so.solve_nonlinear(
        init, P, so.SolverConfig(grid=grid, t_end=50.0), output_times=times
    )


class TestPointwiseEnvelope:
    def test_three_ridges_present(self):
        env = BoundEnvelope()
        t = 10.0
        base = vf.pointwise_envelope(24.0, 1.0, t, P, env)  # off every ridge
        on_ridge = vf.pointwise_envelope(1.0 + P.c * t, 1.0, t, P, env)
        assert on_ridge > 5.0 * base

    def test_green_bound_report_passes_and_locates_ridge(self):
        rep = vf.green_bound_report(
            P, np.linspace(0.0, 25.0, 9), np.linspace(0.13, 24.9, 9),
            np.linspace(1.0, 20.0, 5), alpha=0,
        )
        assert rep.status == "pass"
        assert rep.sup_ratio is not None and np.isfinite(rep.sup_ratio)
        assert rep.details["ridge_distance_sigmas"] <= 3.0

    def test_alpha_validation_and_unstable_refusal(self):
        with pytest.raises(ParameterError):
            vf.green_bound_report(P, [1.0], [2.0], [1.0], alpha=2)
        with pytest.raises(UsageError):
            vf.green_bound_report(ModelParams(a1=1.0, a2=1.0), [1.0], [2.0], [1.0])

    @pytest.mark.parametrize("x, y", [(18.75, 18.7075), (5.0, 5.03), (5.0, 4.9)])
    def test_alpha1_near_diagonal(self, x, y):
        # the smooth part jumps at x = y; the derivative must not see the jump
        rep = vf.green_bound_report(P, [x], [y], [1.0], alpha=1)
        assert rep.sup_ratio <= 0.2

    def test_no_off_diagonal_point_rejected(self):
        with pytest.raises(ParameterError):
            vf.green_bound_report(P, [5.0], [5.0], [1.0])

    def test_report_serializes(self, tmp_path):
        rep = vf.green_bound_report(
            P, np.linspace(1.0, 10.0, 4), np.linspace(1.3, 9.7, 4),
            np.linspace(2.0, 6.0, 2), alpha=0, out_dir=str(tmp_path),
        )
        path = rep.to_json(str(tmp_path / "rep.json"))
        data = json.loads(Path(path).read_text())
        assert data["name"] == "green_bound_alpha0"
        assert data["status"] in ("pass", "fail", "inconclusive")
        csv = Path(rep.artifacts[0]).read_text().splitlines()[0]
        assert csv == "x,y_or_s,t,lhs,rhs,ratio"

    def test_coarse_sup_is_the_given_grid_alone(self):
        # the report inverts the refined grid once; its coarse sup must be the
        # one that inversions at the given points alone give, bitwise
        xg, yg, tg = np.linspace(0.0, 12.0, 5), np.linspace(0.13, 11.9, 4), [1.0, 4.0, 7.0]
        rep = vf.green_bound_report(P, xg, yg, tg)
        X, Y = np.meshgrid(xg, yg, indexing="ij")
        sup = max(
            float((np.abs(tr.invert_laplace_green(X.ravel(), Y.ravel(), t, P)).max(axis=(-2, -1))
                   / vf.pointwise_envelope(X.ravel(), Y.ravel(), t, P, BoundEnvelope())).max())
            for t in tg
        )
        assert rep.grid_levels[0]["sup"] == sup
        assert rep.grid_levels[0]["sup"] <= rep.grid_levels[1]["sup"]

    def test_unsorted_grid_gives_sorted_sups(self):
        xg, yg = np.linspace(0.0, 12.0, 5), np.linspace(0.13, 11.9, 4)
        tg = np.array([1.0, 4.0, 7.0])
        ref = vf.green_bound_report(P, xg, yg, tg, alpha=1)
        rep = vf.green_bound_report(P, xg[[3, 0, 4, 1, 2]], yg[::-1], tg[[2, 0, 1]], alpha=1)
        assert [lv["sup"] for lv in rep.grid_levels] == [lv["sup"] for lv in ref.grid_levels]
        assert rep.details == ref.details

    def test_one_inversion_per_refined_time(self, monkeypatch):
        # the coarse grid is read off the refined one, not inverted again, and
        # one inversion, one laplace_green table per Talbot degree, serves both alphas
        calls, tables = [], []
        invert, table = tr._invert_laplace, tr.laplace_green

        def counted(*args, **kwargs):
            calls.append(args)
            return invert(*args, **kwargs)

        def counted_table(*args, **kwargs):
            tables.append(args)
            return table(*args, **kwargs)

        monkeypatch.setattr(vf, "_invert_laplace", counted)
        monkeypatch.setattr(tr, "laplace_green", counted_table)
        n_t = 6
        reps = vf.green_bound_reports(P, np.linspace(0.0, 25.0, 5), np.linspace(0.13, 24.9, 5),
                                      np.linspace(1.0, 20.0, n_t), alphas=(0, 1))
        assert [r.name for r in reps] == ["green_bound_alpha0", "green_bound_alpha1"]
        assert len(calls) == 2 * n_t - 1
        assert len(tables) == 2 * (2 * n_t - 1)

    def test_alpha_that_misses_tol_fails_alone(self):
        # each alpha keeps its own self-check on the shared table: alpha = 1
        # misses tol here and alpha = 0 passes, as separate reports give (the
        # unit-model differences are 1.3e-10 and 6.5e-10)
        pm = ModelParams(c=0.3, nu=0.05, a1=-1.0, a2=0.6)
        grids = (np.linspace(0.083, 0.58, 4), [0.0, 0.02], [0.278, 0.3])
        cfg = tr.QuadratureConfig(tol=3e-10)
        both = vf.green_bound_reports(pm, *grids, alphas=(0, 1), cfg=cfg)
        assert [r.status for r in both] == ["pass", "inconclusive"]
        assert "achieved 6.547e-10, target 3.000e-10" in both[1].details["reason"]
        alone = [vf.green_bound_report(pm, *grids, alpha=alpha, cfg=cfg) for alpha in (0, 1)]
        assert [dataclasses.asdict(r) for r in both] == [dataclasses.asdict(r) for r in alone]


# (c, nu), (a1, a2): a2/a1 from 0.01 to 1000, both unstable sign pairs and off-unit (c, nu)
INSTABILITY_SETS = [
    ((1.0, 1.0), (1.0, 0.01)), ((1.0, 1.0), (1.0, 0.2)), ((1.0, 1.0), (1.0, 1.0)),
    ((1.0, 1.0), (1.0, 5.0)), ((1.0, 1.0), (1.0, 20.0)), ((1.0, 1.0), (1.0, 50.0)),
    ((1.0, 1.0), (1.0, 200.0)), ((1.0, 1.0), (1.0, 1000.0)), ((1.0, 1.0), (-2.0, -0.5)),
    ((1.7, 0.3), (1.3, 2.9)), ((3.0, 0.05), (1.0, 0.6)), ((0.3, 0.05), (1.0, 1.0)),
]


class TestInstabilityReport:
    def test_stable_class_refused(self):
        with pytest.raises(UsageError):
            vf.instability_report(P)

    def test_growth_rate_matches_pole(self):
        pu = ModelParams(a1=1.0, a2=1.0)
        rep = vf.instability_report(pu)
        assert rep.status == "pass"
        assert rep.fitted["relative_error"] <= 0.05
        assert rep.fitted["pole"] == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_second_parameter_pair(self):
        pu = ModelParams(a1=1.0, a2=2.0)
        rep = vf.instability_report(pu)
        assert rep.status == "pass"
        assert rep.fitted["pole"] == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))

    @pytest.mark.parametrize("speeds, wall", INSTABILITY_SETS,
                             ids=[f"c{c:g}-nu{nu:g}-a1_{a1:g}-a2_{a2:g}"
                                  for (c, nu), (a1, a2) in INSTABILITY_SETS])
    def test_exact_mode_rate_across_parameters(self, speeds, wall):
        # the grid and run derive from a2/a1 and s*: ell/40 cells on [0, 40 ell], three e-folds
        params = ModelParams(*speeds, *wall)
        rep = vf.instability_report(params)
        assert rep.status == "pass"
        assert rep.fitted["relative_error"] <= 2e-3
        ell = wall[0] / wall[1]
        assert rep.parameters["L"] == pytest.approx(40.0 * ell)
        assert rep.parameters["nx"] == 1600
        assert rep.parameters["t_end"] == pytest.approx(3.0 / rep.fitted["pole"])
        assert rep.details["dt"] * rep.fitted["pole"] <= 0.1 + 1e-12


class TestDecayReports:
    def test_zero_data_gives_zero_M(self):
        grid = Grid1D(L=20.0, nx=100)
        init = so.make_initial_data(
            so.InitialData(kind="gaussian", amplitude=0.0, center=10.0), grid, P
        )
        traj = so.solve_linear(init, P, so.SolverConfig(grid=grid, t_end=2.0))
        times, series = vf.ansatz_M(traj, P)
        assert np.all(series == 0.0)

    def test_linear_run_bounded_M(self):
        grid = Grid1D(L=120.0, nx=1200)
        init = so.make_initial_data(
            so.InitialData(kind="algebraic", amplitude=0.01, r=1.0), grid, P
        )
        traj = so.solve_linear(
            init, P, so.SolverConfig(grid=grid, t_end=30.0),
            output_times=np.linspace(0.0, 30.0, 16),
        )
        rep = vf.ansatz_report(traj, P)
        assert rep.status == "pass"
        assert rep.fitted["M_final"] < 1.0

    def test_window_leaves_out_the_sponge(self):
        grid = Grid1D(L=200.0, nx=2000)
        sigma = so._sponge_profile(grid, so.SolverConfig(grid=grid, t_end=1.0))
        keep = vf._window_mask(grid)
        assert keep.sum() > 0.8 * grid.x.size
        assert not np.any(sigma[keep])

    def test_decay_report_slopes(self, nonlinear_traj):
        rep = vf.decay_report(nonlinear_traj, P)
        assert rep.status == "pass"
        assert abs(rep.fitted["Linf"]["slope"] + 0.5) <= 0.1
        assert abs(rep.fitted["L2"]["slope"] + 0.25) <= 0.1
        assert rep.details["slopes_monotone_in_p"]
        # ansatz bound realized: M stays O(eps0)
        assert rep.details["M_final"] <= 10.0 * 0.01

    def test_p_equal_one_refused(self, nonlinear_traj):
        with pytest.raises(ParameterError):
            vf.decay_report(nonlinear_traj, P, p_list=(1,))

    def test_short_window_inconclusive(self, nonlinear_traj):
        rep = vf.decay_report(nonlinear_traj, P, t_min=30.0)
        assert rep.status == "inconclusive"

    def test_flux_remainder_obeys_two_wave_envelope(self, nonlinear_traj):
        # |q_tilde| <= O(1) M^2 [psi^2(x,t;c) + psi^2(x,t;-c)]: the observed
        # sup ratio over the trajectory is finite and does not grow in time
        from hsgreen.core import psi_envelope

        _, m_series = vf.ansatz_M(nonlinear_traj, P)
        m_sq = float(m_series[-1]) ** 2
        grid = nonlinear_traj.grid
        cfg = so.SolverConfig(grid=grid, t_end=50.0)  # the fixture's run
        keep = grid.x <= 0.85 * grid.L
        ratios = []
        for st in nonlinear_traj.states:
            if st.t < 1.0:
                continue
            val = so.nonlinear_term(st, P, cfg)
            env = m_sq * (
                psi_envelope(grid.x, st.t, P.c, 2.0)
                + psi_envelope(grid.x, st.t, -P.c, 2.0)
            )
            ratios.append(float((np.abs(val.q_tilde)[keep] / env[keep]).max()))
        ratios = np.array(ratios)
        assert np.all(np.isfinite(ratios))
        assert ratios[-5:].max() <= 2.0 * ratios.max(initial=1e-300)
        assert ratios.max() < 50.0


class TestLemmaInitialData:
    def test_hypotheses_enforced(self):
        with pytest.raises(ParameterError):
            vf.lemma_initial_data_check(2.0, 0.4, 3.0, [0.0], [0.0])
        with pytest.raises(ParameterError):
            vf.lemma_initial_data_check(2.0, 1.0, 1.5, [0.0], [0.0])

    @pytest.mark.parametrize("x, t", [([], [0.0]), ([0.0], [])], ids=["x", "t"])
    def test_empty_grid_rejected(self, x, t):
        # with no node the sup ratio would be -inf, a "fail" that checked nothing
        with pytest.raises(ParameterError):
            vf.lemma_initial_data_check(2.0, 1.0, 3.0, x, t)

    def test_stated_instance_passes(self):
        rep = vf.lemma_initial_data_check(
            2.0, 1.0, 3.0, np.linspace(0.0, 100.0, 15), np.linspace(0.0, 100.0, 15)
        )
        assert rep.status == "pass"
        assert np.isfinite(rep.sup_ratio)
        # core region reproduces I <= O(1)/sqrt(t+1)
        assert rep.details["core_sup_scaled"] is not None
        assert rep.details["core_sup_scaled"] <= 10.0


class TestLemmaWaveInteraction:
    def test_hypotheses_enforced(self):
        with pytest.raises(ParameterError):
            vf.lemma_wave_interaction_check("same-speed", 1.0, 2.0, 0.5, 2.0, 1.0)
        with pytest.raises(ParameterError):
            vf.lemma_wave_interaction_check("same-speed", 4.0, 0.0, 0.5, 2.0, 1.0)
        with pytest.raises(ParameterError):
            vf.lemma_wave_interaction_check("cross-speed", 0.5, 0.0, 0.5, 2.0, 1.0, -1.0)
        with pytest.raises(ParameterError):
            vf.lemma_wave_interaction_check("cross-speed", 2.0, 0.0, 0.5, 2.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            vf.lemma_wave_interaction_check(
                "cross-speed", 2.0, 0.0, 0.5, 2.0, 1.0, -1.0, K=3.0
            )

    def test_same_speed_instantiation(self):
        rep = vf.lemma_wave_interaction_check(
            "same-speed", 2.0, 0.0, 0.5, 2.0, 1.0, t_values=(4.0, 16.0), n_x=25
        )
        assert rep.status == "pass"
        assert rep.details["gamma_exponent"] == 1.0
        assert rep.details["log_branches"] == {"theta_log": False, "psi_log": False}

    def test_alpha_three_activates_log_branch(self):
        rep = vf.lemma_wave_interaction_check(
            "same-speed", 3.0, 0.0, 0.5, 2.0, 1.0, t_values=(4.0, 16.0), n_x=25
        )
        assert rep.status == "pass"
        assert rep.details["log_branches"]["psi_log"] is True

    def test_cross_speed_zone_term(self):
        # the zone strip is non-empty only once t+1 > (K/2)^2 / min(|lam|)^2
        rep = vf.lemma_wave_interaction_check(
            "cross-speed", 2.0, 0.0, 0.5, 2.0, 1.0, -1.0, t_values=(48.0,), n_x=31
        )
        assert rep.status == "pass"
        lo, hi = rep.details["zone_bounds"]
        tp = 49.0
        K = rep.parameters["K"]
        assert lo == pytest.approx(-tp + K * math.sqrt(tp))
        assert hi == pytest.approx(tp - K * math.sqrt(tp))
        assert 0.0 < rep.details["zone_fraction"] < 1.0

    def test_zone_empty_at_early_times(self):
        rep = vf.lemma_wave_interaction_check(
            "cross-speed", 2.0, 0.0, 0.5, 2.0, 1.0, -1.0, t_values=(16.0,), n_x=31
        )
        assert rep.details["zone_fraction"] == 0.0

    def test_beta_switches_logged(self):
        rep = vf.lemma_wave_interaction_check(
            "same-speed", 2.0, 1.0, 1.5, 2.0, 1.0, t_values=(4.0,), n_x=15
        )
        assert rep.details["log_branches"]["theta_log"] is True
