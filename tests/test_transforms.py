import logging
import math

import numpy as np
import pytest

from hsgreen.core import ModelParams
from hsgreen.errors import AccuracyError, ConfigurationError, ParameterError, UsageError
from hsgreen import transforms as tr

P = ModelParams()
PD = ModelParams(a1=0.0, a2=1.0)
PN = ModelParams(a1=1.0, a2=0.0)
PS = ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)


def gauss_integral(f_vals, nodes, wts):
    return float(wts @ f_vals)


def unshifted_talbot(x, y, t, params, M=48):
    """The parabolic contour without the shift: for r = 2M/(5t) > s* it
    encloses the pole s* too, so it is a second evaluator of the unstable G."""
    assert 2.0 * M / (5.0 * t) > tr.find_boundary_pole(params)
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    return tr._invert_laplace_talbot(x, y, t, params, M, 0.0, (0,))[0]


class TestQuadratureConfig:
    def test_validation(self):
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

    def test_accuracy_error_carries_estimate(self):
        cfg = tr.QuadratureConfig(tol=1e-15)
        with pytest.raises(AccuracyError) as exc:
            tr.invert_fourier_fundamental(np.array([1.0]), 0.6, P, cfg)
        assert exc.value.achieved > 1e-15

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


def flat_phase_sum(x, t, refine, gamma):
    """The unfactored sum (1/pi) sum_k w_k Re(r_k e^{i x xi_k}) over every
    node xi_k of the oracle's grid, plus the closed-form model terms."""
    gx, gw = np.polynomial.legendre.leggauss(tr._N_XI)
    segments = tr._xi_grid(t, float(np.abs(x).max()), tr.QuadratureConfig(), refine, gamma)
    xi = np.concatenate([(mid[:, None] + h * gx).ravel() for mid, h in segments])
    wts = np.concatenate([np.tile(h * gw, mid.size) for mid, h in segments])
    res = tr._smooth_residual(xi, t, gamma) * (wts / np.pi)[:, None]
    phase = np.outer(x, xi)
    flat = np.cos(phase) @ res.real - np.sin(phase) @ res.imag
    return flat.reshape(x.shape + (2, 2)) + tr._model_terms(x, t, gamma)


class TestPhaseFactorization:
    # panel phases times node phases reproduce the flat sum over all nodes, at
    # the unit-model point (x/L, t', gamma') that each set's (x, t) maps to
    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("t", [2.0, 10.0])
    @pytest.mark.parametrize("params", [P, PS], ids=["mixed", "scaled"])
    @pytest.mark.parametrize("mirror", [False, True], ids=["whole_line", "mirror"])
    def test_matches_flat_sum(self, mirror, params, t, refine):
        L, t1, unit, _ = tr._unit_frame(t, params)
        gamma = unit.gamma if mirror else None
        x = (np.linspace(0.0, 15.0, 16) if mirror else np.linspace(-12.0, 15.0, 28)) / L
        got = tr._fourier_smooth_grid(x, t1, tr.QuadratureConfig(), refine, gamma)
        assert np.abs(got - flat_phase_sum(x, t1, refine, gamma)).max() <= 1e-12

    def test_chunked_points(self, monkeypatch):
        x = np.linspace(-9.0, 11.0, 41)
        segments = tr._xi_grid(2.0, 11.0, tr.QuadratureConfig())
        monkeypatch.setattr(tr, "_PHASE_CHUNK", 500)
        # each chunk holds _PHASE_CHUNK // (A n_xi 4) points of a segment
        assert all(tr._PHASE_CHUNK // (tr._panel_table(mid.size).shape[1] * 40) < x.size
                   for mid, _ in segments)
        got = tr._fourier_smooth_grid(x, 2.0, tr.QuadratureConfig())
        assert np.abs(got - flat_phase_sum(x, 2.0, 1, None)).max() <= 1e-12

    @pytest.mark.parametrize("panels", [1, 13, 49], ids=["one", "prime", "square"])
    @pytest.mark.parametrize("mirror", [False, True], ids=["whole_line", "mirror"])
    def test_panel_counts(self, monkeypatch, mirror, panels):
        # P = 1, a prime P (padded to A B = 16) and a perfect square (7 x 7)
        def grid(t, x_absmax, cfg, refine=1, gamma=None):
            segments = []
            for lo, hi in ((0.0, 4.0), (4.0, 30.0)):
                edges = np.linspace(lo, hi, panels + 1)
                segments.append((0.5 * (edges[:-1] + edges[1:]), 0.5 * (hi - lo) / panels))
            return segments

        monkeypatch.setattr(tr, "_xi_grid", grid)
        gamma = P.gamma if mirror else None
        x = np.linspace(0.0, 15.0, 16) if mirror else np.linspace(-12.0, 15.0, 28)
        got = tr._fourier_smooth_grid(x, 2.0, tr.QuadratureConfig(), 1, gamma)
        flat = flat_phase_sum(x, 2.0, 1, gamma)
        assert np.abs(got - flat).max() <= 1e-13 * np.abs(flat).max()

    def test_panel_table_covers_each_panel_once(self):
        for n in range(1, 300):
            p = tr._panel_table(n)
            n_b, n_a = p.shape
            assert n_b == math.ceil(math.sqrt(n)) and (n_a - 1) * n_b < n <= n_a * n_b
            assert np.array_equal(np.sort(p.ravel()), np.arange(p.size))

    def test_self_check_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="hsgreen.transforms"):
            _, err = tr._fourier_smooth_with_error(np.array([1.0, 6.0]), 2.0,
                                                   tr.QuadratureConfig())
        (record,) = caplog.records
        msg = record.getMessage()
        assert record.levelno == logging.DEBUG
        assert "points=2 " in msg and "t'=2 " in msg and f"diff={err:.3g}" in msg
        coarse, fine = msg.split("nodes=")[1].split()[0].split("/")
        assert 0 < int(coarse) < int(fine)


class TestInvertLaplace:
    def test_dirichlet_identity(self):
        # half-line kernel equals the fundamental-solution combination
        t = 5.0
        x = np.array([3.0, 7.0, 12.0])
        y = np.array([2.0, 6.5, 4.0])
        gl = tr.invert_laplace_green(x, y, t, PD)
        built = tr.fourier_green(x, y, t, PD)
        assert np.abs(gl - built).max() <= 1e-6 * np.abs(built).max()

    def test_neumann_identity(self):
        t = 2.0
        x, y = np.array([4.0]), np.array([1.5])
        gl = tr.invert_laplace_green(x, y, t, PN)
        built = tr.fourier_green(x, y, t, PN)
        assert np.abs(gl - built).max() <= 1e-6 * np.abs(built).max()

    def test_two_contours_agree(self):
        # the Laplace contour against the Fourier-side G
        x = np.array([3.0, 8.0])
        y = np.array([1.7, 5.2])
        for params, t in ((P, 5.0), (PS, 2.0)):
            talbot = tr.invert_laplace_green(x, y, t, params)
            fourier = tr.fourier_green(x, y, t, params)
            scale = np.abs(talbot).max()
            assert np.abs(talbot - fourier).max() <= 1e-6 * scale

    def test_self_check_logged_at_debug(self, caplog):
        # logged when the check passes, and before it raises
        x, y, t = np.array([3.0, 8.0]), np.array([1.7, 5.2]), 5.0
        with caplog.at_level(logging.DEBUG, logger="hsgreen.transforms"):
            tr.invert_laplace_green(x, y, t, P)
            with pytest.raises(AccuracyError) as exc:
                tr.invert_laplace_green(x, y, t, P, tr.QuadratureConfig(tol=1e-16))
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        passed, failed = (r.getMessage() for r in caplog.records)
        assert passed.startswith("talbot self-check: points=2 degrees=32/40 t'=5 diff=")
        assert failed.endswith(f"diff={exc.value.achieved:.3g}")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_fails_self_check(self):
        # far beyond the acoustic front the symbol overflows to NaN; the
        # self-check must raise and carry the NaN rather than pass it on
        y, t = 2.0, 64.0
        x = np.linspace(0.05, y + PS.c * t + 5.0 * np.sqrt(2.0 * PS.nu * t), 401)
        with pytest.raises(AccuracyError) as exc:
            tr.invert_laplace_green(x, y, t, PS)
        assert np.isnan(exc.value.achieved)

    @pytest.mark.parametrize("oracle", ["fourier", "mirror"])
    def test_nan_symbol_fails_other_self_checks(self, monkeypatch, oracle):
        exact = tr.fourier_fundamental
        monkeypatch.setattr(tr, "fourier_fundamental", lambda *a: exact(*a) * np.nan)
        run = {
            "fourier": lambda: tr.invert_fourier_fundamental(np.array([1.0, 2.0]), 1.0, P),
            "mirror": lambda: tr.mirror_by_quadrature(np.array([1.0, 2.0]), 1.0, P),
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

    def test_unstable_class_uses_shifted_contour(self):
        pu = ModelParams(a1=1.0, a2=1.0)
        out = tr.invert_laplace_green(6.0, 3.0, 2.0, pu)
        assert np.all(np.isfinite(out))
        # cross-check against the unshifted contour around the pole
        assert np.abs(out - unshifted_talbot(6.0, 3.0, 2.0, pu)).max() <= 1e-5

    @pytest.mark.parametrize("t", [5.0, 8.0])
    def test_unstable_self_check_runs_in_shifted_frame(self, t):
        # G grows like e^{s* t}; the M vs M + 8 difference is compared before
        # that factor, so it no longer fails on the growth alone
        pu, x, y = ModelParams(a1=1.0, a2=1.0), np.array([1.0, 5.0]), np.full(2, 3.0)
        out = tr.invert_laplace_green(x, y, t, pu)
        ref = unshifted_talbot(x, y, t, pu)
        assert np.abs(out - ref).max() <= 5e-5 * np.abs(ref).max()
        with pytest.raises(AccuracyError):
            tr.invert_laplace_green(x, y, t, pu, tr.QuadratureConfig(tol=1e-16))

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
        # against a five-point forward stencil of the Fourier-side G with
        # h = 1e-2, which stays on x >= 0 at the wall point x = 0
        pr, t, h = self.SETS[name], 2.0, 1e-2
        x = np.array([3.0, 8.0, 12.0, 0.0])
        y = np.array([1.5, 5.2, 9.0, 2.0])
        talbot = tr.invert_laplace_green_dx(x, y, t, pr)
        f = [tr.fourier_green(x + k * h, y, t, pr) for k in range(5)]
        fd = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
        assert np.abs(talbot - fd).max() <= 5e-5 * np.abs(talbot).max()

    @pytest.mark.parametrize("invert", [tr.invert_laplace_green, tr.invert_laplace_green_dx])
    def test_empty_point_set_rejected(self, invert):
        with pytest.raises(ParameterError):
            invert([], [], 1.0, P)


class TestOraclePoints:
    # Bad point sets are refused with a ParameterError that names the value,
    # before any quadrature runs.
    @pytest.mark.parametrize("oracle", ["fourier", "mirror"])
    def test_empty_fourier_side_rejected(self, oracle):
        run = {"fourier": tr.invert_fourier_fundamental, "mirror": tr.mirror_by_quadrature}
        with pytest.raises(ParameterError, match="at least one"):
            run[oracle](np.array([]), 1.0, P)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_fourier_point_rejected(self, bad):
        with pytest.raises(ParameterError, match=f"x={bad}"):
            tr.invert_fourier_fundamental(np.array([1.0, bad]), 1.0, P)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_mirror_point_rejected(self, bad):
        with pytest.raises(ParameterError, match=f"w={bad}"):
            tr.mirror_by_quadrature(np.array([bad]), 1.0, P)

    def test_negative_mirror_point_rejected(self):
        with pytest.raises(ParameterError, match="got w=-0.5"):
            tr.mirror_by_quadrature(np.array([1.0, -0.5, -2.0]), 1.0, P)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("oracle",
                             ["fourier", "mirror", "talbot", "talbot_dx", "fourier_green"])
    def test_non_finite_time_rejected(self, oracle, bad):
        run = {
            "fourier": lambda t: tr.invert_fourier_fundamental(1.0, t, P),
            "mirror": lambda t: tr.mirror_by_quadrature(1.0, t, P),
            "talbot": lambda t: tr.invert_laplace_green(2.0, 1.0, t, P),
            "talbot_dx": lambda t: tr.invert_laplace_green_dx(2.0, 1.0, t, P),
            "fourier_green": lambda t: tr.fourier_green(2.0, 1.0, t, P),
        }[oracle]
        with pytest.raises(ParameterError, match=f"t={bad}"):
            run(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("coord", ["x", "y"])
    def test_non_finite_laplace_point_rejected(self, coord, bad):
        pts = {"x": np.array([1.0]), "y": np.array([2.0])}
        pts[coord] = np.array([bad])
        with pytest.raises(ParameterError, match=f"{coord}={bad}"):
            tr.invert_laplace_green(pts["x"], pts["y"], 1.0, P)
        with pytest.raises(ParameterError, match=f"{coord}={bad}"):
            tr.fourier_green(pts["x"], pts["y"], 1.0, P)


class TestSymbolCalls:
    # The oracles evaluate their symbol through the module binding, once per
    # Talbot degree and once per Fourier grid level, so a wrapper there sees
    # every evaluation.
    def test_talbot_calls_laplace_green_once_per_degree(self, monkeypatch):
        sizes, exact = [], tr.laplace_green

        def counted(x, y, s, params):
            sizes.append(np.broadcast(x, y, s).size)
            return exact(x, y, s, params)

        monkeypatch.setattr(tr, "laplace_green", counted)
        tr.invert_laplace_green(np.array([2.0, 3.0]), np.array([1.0, 1.5]), 2.0, P)
        assert sizes == [2 * 32, 2 * 40]

    def test_fourier_calls_symbol_once_per_level(self, monkeypatch):
        calls, exact = [], tr.fourier_fundamental

        def counted(xi, t, params):
            calls.append(np.size(xi))
            return exact(xi, t, params)

        monkeypatch.setattr(tr, "fourier_fundamental", counted)
        tr.invert_fourier_fundamental(np.array([1.0, 4.0]), 2.0, P)
        assert len(calls) == 2 and 0 < calls[0] < calls[1]


class TestFourierGreen:
    # the whole-line oracle at x - y plus the image at x + y
    def test_unstable_class_names_pole(self):
        with pytest.raises(UsageError, match=r"s\* = 1\.61803"):
            tr.fourier_green(3.0, 1.0, 2.0, ModelParams(a1=1.0, a2=1.0))

    # one refusal serves the three half-line oracles; the fourier_green cases keep
    # the bare point ids
    @pytest.mark.parametrize("oracle, x, y", [
        pytest.param(oracle, x, y, id=pid if name == "fourier_green" else f"{pid}-{name}")
        for name, oracle in [("fourier_green", tr.fourier_green),
                             ("talbot", tr.invert_laplace_green),
                             ("talbot_dx", tr.invert_laplace_green_dx)]
        for pid, x, y in [("negative_x", -0.5, 1.0), ("negative_y", 1.0, -0.5),
                          ("diagonal", 2.0, 2.0)]
    ])
    def test_bad_point_rejected(self, oracle, x, y):
        with pytest.raises(ParameterError, match=f"got x={x}, y={y}"):
            oracle(np.array([3.0, x]), np.array([1.0, y]), 2.0, P)

    def test_shapes(self):
        assert tr.fourier_green(3.0, 1.0, 2.0, P).shape == (2, 2)
        assert tr.fourier_green(np.array([3.0, 5.0]), 1.0, 2.0, P).shape == (2, 2, 2)
        assert tr.fourier_green(2.0, np.array([[0.5], [1.0]]), 2.0, P).shape == (2, 1, 2, 2)

    @pytest.mark.parametrize("params, calls", [
        (PD, ["invert_fourier_fundamental"] * 2),
        (PN, ["invert_fourier_fundamental"] * 2),
        (P, ["invert_fourier_fundamental", "mirror_by_quadrature"]),
    ], ids=["dirichlet", "neumann", "mixed"])
    def test_calls_module_bindings(self, monkeypatch, params, calls):
        # the oracles are looked up at call time, so a wrapper there sees them
        seen = []
        for name in ("invert_fourier_fundamental", "mirror_by_quadrature"):
            exact = getattr(tr, name)
            monkeypatch.setattr(tr, name, lambda *a, f=exact, n=name: seen.append(n) or f(*a))
        tr.fourier_green(np.array([3.0, 5.0]), 1.0, 2.0, params)
        assert seen == calls


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
        G = tr._fourier_smooth_grid(pts, t, tr.QuadratureConfig())
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
        G = tr._fourier_smooth_grid(w, t, tr.QuadratureConfig())
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
