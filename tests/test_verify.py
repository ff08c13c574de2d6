import json
import math
from pathlib import Path

import numpy as np
import pytest

from hsgreen.core import BoundEnvelope, Grid1D, ModelParams
from hsgreen.errors import ParameterError, UsageError
from hsgreen import solver as so
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


class TestInstabilityReport:
    def test_stable_class_refused(self):
        cfg = so.SolverConfig(grid=Grid1D(L=40.0, nx=400), t_end=5.0)
        with pytest.raises(UsageError):
            vf.instability_report(P, cfg)

    def test_growth_rate_matches_pole(self):
        pu = ModelParams(a1=1.0, a2=1.0)
        cfg = so.SolverConfig(grid=Grid1D(L=40.0, nx=800), t_end=12.0, n_snapshots=25)
        rep = vf.instability_report(pu, cfg)
        assert rep.status == "pass"
        assert rep.fitted["relative_error"] <= 0.05
        assert rep.fitted["pole"] == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_second_parameter_pair(self):
        pu = ModelParams(a1=1.0, a2=2.0)
        cfg = so.SolverConfig(grid=Grid1D(L=40.0, nx=1600), t_end=6.0, n_snapshots=25)
        rep = vf.instability_report(pu, cfg)
        assert rep.status == "pass"
        assert rep.fitted["pole"] == pytest.approx(2.0 + 2.0 * math.sqrt(2.0))


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
