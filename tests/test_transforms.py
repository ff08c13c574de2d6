import logging

import numpy as np
import pytest

from hsgreen.core import ModelParams
from hsgreen.errors import AccuracyError, ConfigurationError, ParameterError
from hsgreen import transforms as tr

P = ModelParams()
PD = ModelParams(a1=0.0, a2=1.0)
PN = ModelParams(a1=1.0, a2=0.0)
PS = ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)


def gauss_integral(f_vals, nodes, wts):
    return float(wts @ f_vals)


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tr.QuadratureConfig(n_xi=2)
        with pytest.raises(ConfigurationError):
            tr.QuadratureConfig(contour="circle")
        with pytest.raises(ConfigurationError):
            tr.QuadratureConfig(tol=0.5)


class TestInvertFourier:
    def test_mass_identity(self):
        # integral of the (1,1) smooth part plus the delta weight equals the
        # exact zero-wavenumber symbol value, which is 1
        t = 5.0
        edges = np.linspace(-45.0, 45.0, 181)
        nodes, wts = tr._gauss_panels(edges, 12)
        kv = tr.invert_fourier_fundamental(nodes, t, P)
        mass = gauss_integral(kv.smooth[:, 0, 0], nodes, wts) + kv.deltas[0][1][0, 0]
        assert abs(mass - 1.0) <= 1e-6

    def test_parity(self):
        xs = np.linspace(0.3, 25.0, 23)
        t = 3.0
        plus = tr.invert_fourier_fundamental(xs, t, P).smooth
        minus = tr.invert_fourier_fundamental(-xs, t, P).smooth
        assert np.abs(plus[:, 0, 0] - minus[:, 0, 0]).max() <= 1e-12
        assert np.abs(plus[:, 1, 1] - minus[:, 1, 1]).max() <= 1e-12
        assert np.abs(plus[:, 0, 1] + minus[:, 0, 1]).max() <= 1e-12
        assert np.abs(plus[:, 1, 0] + minus[:, 1, 0]).max() <= 1e-12

    def test_scalar_input_returns_matrix(self):
        kv = tr.invert_fourier_fundamental(2.0, 1.0, P)
        assert kv.smooth.shape == (2, 2)
        assert kv.deltas[0][0] == 0.0

    def test_requires_positive_time(self):
        with pytest.raises(ParameterError):
            tr.invert_fourier_fundamental(1.0, 0.0, P)

    def test_refinement_monotonicity(self):
        # doubling the nodes-per-panel count reduces the self-reported error
        x = np.array([1.0, 6.0])
        errs = []
        for n_xi in (6, 12):
            cfg = tr.QuadratureConfig(n_xi=n_xi, tol=5e-3)
            _, err = tr._fourier_smooth_with_error(x, 2.0, P, cfg)
            errs.append(err)
        assert errs[1] < errs[0]

    def test_accuracy_error_carries_estimate(self):
        cfg = tr.QuadratureConfig(n_xi=4, tol=1e-12)
        with pytest.raises(AccuracyError) as exc:
            tr.invert_fourier_fundamental(np.array([1.0]), 0.6, P, cfg)
        assert exc.value.achieved > 1e-12

    def test_matches_five_point_time_derivative(self):
        # the inverse transform solves the PDE row-wise away from x = 0
        t, h = 2.0, 2e-3
        xs = np.array([3.0, 7.0])
        vals = {k: tr.invert_fourier_fundamental(xs, t + k * h, P).smooth
                for k in (-2, -1, 0, 1, 2)}
        dt = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * h)
        hx = 1e-3
        sl = {k: tr.invert_fourier_fundamental(xs + k * hx, t, P).smooth
              for k in (-2, -1, 0, 1, 2)}
        dx = (sl[-2] - 8 * sl[-1] + 8 * sl[1] - sl[2]) / (12 * hx)
        dxx = (-sl[-2] + 16 * sl[-1] - 30 * sl[0] + 16 * sl[1] - sl[2]) / (12 * hx**2)
        A = np.array([[0.0, 1.0], [P.c**2, 0.0]])
        B = np.diag([0.0, P.nu])
        resid = dt + np.einsum("ab,xbc->xac", A, dx) - np.einsum("ab,xbc->xac", B, dxx)
        assert np.abs(resid).max() <= 1e-5


def flat_phase_sum(x, t, params, refine, gamma):
    """The unfactored sum (1/pi) sum_k w_k Re(r_k e^{i x xi_k}) over every
    node xi_k of the oracle's grid, plus the closed-form model terms."""
    cfg = tr.QuadratureConfig()
    gx, gw = np.polynomial.legendre.leggauss(cfg.n_xi)
    segments = tr._xi_grid(t, float(np.abs(x).max()), params, cfg, refine, gamma)
    xi = np.concatenate([(mid[:, None] + h * gx).ravel() for mid, h in segments])
    wts = np.concatenate([np.tile(h * gw, mid.size) for mid, h in segments])
    res = tr._smooth_residual(xi, t, params, gamma) * (wts / np.pi)[:, None]
    phase = np.outer(x, xi)
    flat = np.cos(phase) @ res.real - np.sin(phase) @ res.imag
    return flat.reshape(x.shape + (2, 2)) + tr._model_terms(x, t, params, gamma)


class TestPhaseFactorization:
    # panel phases times node phases reproduce the flat sum over all nodes
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("t", [2.0, 10.0])
    @pytest.mark.parametrize("params", [P, PS], ids=["mixed", "scaled"])
    @pytest.mark.parametrize("mirror", [False, True], ids=["whole_line", "mirror"])
    def test_matches_flat_sum(self, mirror, params, t, refine):
        gamma = params.gamma if mirror else None
        x = np.linspace(0.0, 15.0, 16) if mirror else np.linspace(-12.0, 15.0, 28)
        got = tr._fourier_smooth_grid(x, t, params, tr.QuadratureConfig(), refine, gamma)
        assert np.abs(got - flat_phase_sum(x, t, params, refine, gamma)).max() <= 1e-12

    def test_chunked_points(self, monkeypatch):
        x = np.linspace(-9.0, 11.0, 41)
        segments = tr._xi_grid(2.0, 11.0, P, tr.QuadratureConfig())
        monkeypatch.setattr(tr, "_PHASE_CHUNK", 500)
        assert all(tr._PHASE_CHUNK // mid.size < x.size for mid, _ in segments)
        got = tr._fourier_smooth_grid(x, 2.0, P, tr.QuadratureConfig())
        assert np.abs(got - flat_phase_sum(x, 2.0, P, 1, None)).max() <= 1e-12

    def test_self_check_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="hsgreen.transforms"):
            _, err = tr._fourier_smooth_with_error(np.array([1.0, 6.0]), 2.0, P,
                                                   tr.QuadratureConfig())
        (record,) = caplog.records
        msg = record.getMessage()
        assert record.levelno == logging.DEBUG
        assert "points=2 " in msg and f"diff={err:.3g}" in msg
        coarse, fine = msg.split("nodes=")[1].split()[0].split("/")
        assert 0 < int(coarse) < int(fine)


class TestInvertLaplace:
    def test_dirichlet_identity(self):
        # half-line kernel equals the fundamental-solution combination
        t = 5.0
        x = np.array([3.0, 7.0, 12.0])
        y = np.array([2.0, 6.5, 4.0])
        gl = tr.invert_laplace_green(x, y, t, PD)
        direct = tr.invert_fourier_fundamental(x - y, t, PD).smooth
        image = tr.invert_fourier_fundamental(x + y, t, PD).smooth
        built = direct + image * np.array([1.0, -1.0])
        scale = np.abs(built).max()
        assert np.abs(gl - built).max() <= 1e-6 * scale

    def test_neumann_identity(self):
        t = 2.0
        x, y = np.array([4.0]), np.array([1.5])
        gl = tr.invert_laplace_green(x, y, t, PN)
        built = (
            tr.invert_fourier_fundamental(x - y, t, PN).smooth
            - tr.invert_fourier_fundamental(x + y, t, PN).smooth * np.array([1.0, -1.0])
        )
        assert np.abs(gl - built).max() <= 1e-6 * np.abs(built).max()

    def test_two_contours_agree(self):
        t = 5.0
        x = np.array([3.0, 8.0])
        y = np.array([1.7, 5.2])
        talbot = tr.invert_laplace_green(x, y, t, P)
        line = tr.invert_laplace_green(x, y, t, P, tr.QuadratureConfig(contour="line"))
        scale = np.abs(talbot).max()
        assert np.abs(talbot - line).max() <= 1e-6 * scale

    def test_self_check_logged_at_debug(self, caplog):
        # logged when the check passes, and before it raises
        x, y, t = np.array([3.0, 8.0]), np.array([1.7, 5.2]), 5.0
        with caplog.at_level(logging.DEBUG, logger="hsgreen.transforms"):
            tr.invert_laplace_green(x, y, t, P)
            with pytest.raises(AccuracyError) as exc:
                tr.invert_laplace_green(x, y, t, P, tr.QuadratureConfig(tol=1e-16))
            tr.invert_laplace_green(x, y, t, P, tr.QuadratureConfig(contour="line"))
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        passed, failed, line = (r.getMessage() for r in caplog.records)
        assert passed.startswith("talbot self-check: points=2 degrees=32/40 diff=")
        assert failed.endswith(f"diff={exc.value.achieved:.3g}")
        assert line.startswith("line self-check: points=2 imag_residue=")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_fails_self_check(self):
        # far beyond the acoustic front the symbol overflows to NaN; the
        # self-check must raise and carry the NaN rather than pass it on
        y, t = 2.0, 64.0
        x = np.linspace(0.05, y + PS.c * t + 5.0 * np.sqrt(2.0 * PS.nu * t), 401)
        with pytest.raises(AccuracyError) as exc:
            tr.invert_laplace_green(x, y, t, PS)
        assert np.isnan(exc.value.achieved)

    @pytest.mark.parametrize("oracle", ["fourier", "mirror", "line"])
    def test_nan_symbol_fails_other_self_checks(self, monkeypatch, oracle):
        for name in ("fourier_fundamental", "laplace_green"):
            exact = getattr(tr, name)
            monkeypatch.setattr(tr, name, lambda *a, f=exact: f(*a) * np.nan)
        run = {
            "fourier": lambda: tr.invert_fourier_fundamental(np.array([1.0, 2.0]), 1.0, P),
            "mirror": lambda: tr.mirror_by_quadrature(np.array([1.0, 2.0]), 1.0, P),
            "line": lambda: tr.invert_laplace_green(
                3.0, 1.0, 2.0, P, tr.QuadratureConfig(contour="line")),
        }[oracle]
        with pytest.raises(AccuracyError) as exc:
            run()
        assert np.isnan(exc.value.achieved)

    def test_real_output(self):
        out = tr.invert_laplace_green(3.0, 1.0, 2.0, P)
        assert out.dtype == np.float64

    def test_diagonal_rejected(self):
        with pytest.raises(ParameterError):
            tr.invert_laplace_green(2.0, 2.0, 1.0, P)

    def test_line_contour_rejects_near_diagonal(self):
        with pytest.raises(ConfigurationError):
            tr.invert_laplace_green(2.05, 2.0, 1.0, P, tr.QuadratureConfig(contour="line"))

    def test_unstable_class_uses_shifted_contour(self):
        pu = ModelParams(a1=1.0, a2=1.0)
        out = tr.invert_laplace_green(6.0, 3.0, 2.0, pu)
        assert np.all(np.isfinite(out))
        # cross-check against the line contour right of the pole
        line = tr.invert_laplace_green(6.0, 3.0, 2.0, pu, tr.QuadratureConfig(contour="line"))
        assert np.abs(out - line).max() <= 1e-5

    def test_pde_residual_in_time(self):
        t, h = 3.0, 2e-3
        x, y = 5.0, 2.0
        vals = {k: tr.invert_laplace_green(x, y, t + k * h, P) for k in (-1, 0, 1)}
        dt = (vals[1] - vals[-1]) / (2 * h)
        hx = 2e-3
        sl = {k: tr.invert_laplace_green(x + k * hx, y, t, P) for k in (-2, -1, 0, 1, 2)}
        dx = (sl[-2] - 8 * sl[-1] + 8 * sl[1] - sl[2]) / (12 * hx)
        dxx = (-sl[-2] + 16 * sl[-1] - 30 * sl[0] + 16 * sl[1] - sl[2]) / (12 * hx**2)
        A = np.array([[0.0, 1.0], [P.c**2, 0.0]])
        B = np.diag([0.0, P.nu])
        resid = dt + A @ dx - B @ dxx
        assert np.abs(resid).max() <= 1e-4


class TestInvertLaplaceDx:
    SETS = {"dirichlet": PD, "neumann": PN, "mixed": P,
            "scaled": ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)}

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_matches_fine_stencil(self, name):
        # five-point stencil with h = 1e-2, every stencil point >= 0.5 off x = y
        pr, h = self.SETS[name], 1e-2
        x = np.array([0.5, 1.0, 3.0, 6.5, 9.0, 12.0])
        y = np.array([2.0, 0.3, 4.0, 1.2, 5.5, 8.0])
        for t in (1.0, 2.0):
            exact = tr.invert_laplace_green_dx(x, y, t, pr)
            sl = [tr.invert_laplace_green(x + k * h, y, t, pr) for k in (-2, -1, 1, 2)]
            fd = (sl[0] - 8 * sl[1] + 8 * sl[2] - sl[3]) / (12 * h)
            assert np.abs(exact - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("name", sorted(SETS))
    def test_two_contours_agree(self, name):
        pr, t = self.SETS[name], 2.0
        x = np.array([3.0, 8.0, 12.0, 0.0])
        y = np.array([1.5, 5.2, 9.0, 2.0])
        talbot = tr.invert_laplace_green_dx(x, y, t, pr)
        line = tr.invert_laplace_green_dx(x, y, t, pr, tr.QuadratureConfig(contour="line"))
        assert np.abs(talbot - line).max() <= 5e-5 * np.abs(talbot).max()

    @pytest.mark.parametrize("invert", [tr.invert_laplace_green, tr.invert_laplace_green_dx])
    def test_empty_point_set_rejected(self, invert):
        with pytest.raises(ParameterError):
            invert([], [], 1.0, P)


class TestMirrorByQuadrature:
    CFG = tr.QuadratureConfig(tol=1e-6)

    def test_requires_stable_mixed(self):
        with pytest.raises(ParameterError):
            tr.mirror_by_quadrature(1.0, 1.0, PD, self.CFG)

    def test_boundary_ode_residual(self):
        # (a2 + a1 d/dw) g = 2 a2 G with g recovered from the mirror kernel
        t, h = 5.0, 0.02
        wt = np.array([3.0, 5.0, 8.0])
        pts = np.concatenate([wt - 2 * h, wt - h, wt, wt + h, wt + 2 * h])
        gm = tr.mirror_by_quadrature(pts, t, P, self.CFG)
        G = tr._fourier_smooth_grid(pts, t, P, tr.QuadratureConfig())
        g_all = gm * np.array([1.0, -1.0]) + G
        n = wt.size
        gm2, gm1, g0, gp1, gp2 = (g_all[i * n:(i + 1) * n] for i in range(5))
        dg = (gm2 - 8 * gm1 + 8 * gp1 - gp2) / (12 * h)
        resid = P.a2 * g0 + P.a1 * dg - 2 * P.a2 * G[2 * n: 3 * n]
        scale = np.abs(2 * P.a2 * G[2 * n: 3 * n]).max()
        assert np.abs(resid).max() <= 1e-4 * scale + 1e-7

    def test_large_gamma_approaches_doubled_kernel(self):
        # g(w, t) = 2 gamma int e^{-gamma z} G(w + z) dz -> 2 G(w, t) as
        # gamma grows (Watson limit; the factor 2 is what turns the mirror
        # kernel into the Dirichlet image +G diag(1,-1))
        t, w = 3.0, np.array([4.5])
        pg = ModelParams(a1=-1.0, a2=100.0)  # gamma = 100
        gm = tr.mirror_by_quadrature(w, t, pg, self.CFG)
        G = tr._fourier_smooth_grid(w, t, pg, tr.QuadratureConfig())
        g = gm * np.array([1.0, -1.0]) + G
        assert np.abs(g - 2.0 * G).max() <= 0.05 * np.abs(G).max()

    def test_agreement_with_independent_pipeline(self):
        # G_mir(w) must equal (half-line kernel) - (whole-line kernel)
        t = 5.0
        ws = np.array([3.0, 5.0, 8.0, 12.0])
        y = 1.3
        xs = ws - y
        gm = tr.mirror_by_quadrature(ws, t, P, self.CFG)
        ref = tr.invert_laplace_green(xs, np.full_like(xs, y), t, P) - \
            tr.invert_fourier_fundamental(xs - y, t, P).smooth
        assert np.abs(gm - ref).max() <= 2e-5

    @pytest.mark.parametrize("gamma", [0.01, 0.1, 1.0, 10.0, 1000.0])
    def test_gamma_sweep_against_independent_pipeline(self, gamma):
        # from near-Neumann to near-Dirichlet walls: the multiplier's
        # xi-scale gamma must be resolved at either end
        pg = ModelParams(a1=-1.0, a2=gamma)
        ws = np.linspace(0.7, 20.0, 12)
        y = 0.3
        xs = ws - y
        for t in (2.0, 5.0):
            gm = tr.mirror_by_quadrature(ws, t, pg, self.CFG)
            ref = tr.invert_laplace_green(xs, np.full_like(xs, y), t, pg) - \
                tr.invert_fourier_fundamental(xs - y, t, pg).smooth
            assert np.abs(gm - ref).max() <= 2e-5
