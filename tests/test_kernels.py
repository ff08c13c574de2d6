import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hsgreen.core import ModelParams
from hsgreen.errors import ParameterError, UsageError
from hsgreen import kernels as K
from hsgreen import transforms as tr

P = ModelParams()


def erfcx_oracle(z: float) -> float:
    """High-precision scaled complementary error function."""
    with mp.workdps(40):
        return float(mp.exp(mp.mpf(z) ** 2) * mp.erfc(mp.mpf(z)))


def e_quadrature_oracle(x, t, lam, d0, gamma, epsrel=1e-12):
    """Adaptive quadrature of the defining integral of the weighted moment."""
    center = max(lam * t - x, 0.0)
    width = max(1.0 / gamma, math.sqrt(d0 * t))
    hi = center + 60.0 * width

    def integrand(z):
        return math.exp(-gamma * z) * math.exp(-((x + z - lam * t) ** 2) / (d0 * t))

    pts = [p for p in (center, center + width) if 0.0 < p < hi]
    val, _ = quad(integrand, 0.0, hi, epsabs=0.0, epsrel=epsrel, limit=400,
                  points=pts or None)
    return val


class TestErfcx:
    def test_at_zero(self):
        assert K.erfcx(0.0) == 1.0

    def test_pinned_oracle_values(self):
        # values frozen from the mpmath oracle
        assert K.erfcx(10.0) == pytest.approx(0.05614099274382259, rel=1e-13)
        assert K.erfcx(-1.0) == pytest.approx(5.008980080762283, rel=1e-13)

    def test_reflection_identity(self):
        # erfcx(-z) exp(-z^2) = 2 - erfc(z)
        z = 1.0
        lhs = K.erfcx(-z) * math.exp(-z * z)
        assert lhs == pytest.approx(2.0 - 0.15729920705028513, rel=1e-12)

    def test_against_oracle_on_range(self):
        # erfcx(z) for z < -26.6 exceeds the double-precision range (~1e390
        # at z = -30), so the pointwise comparison runs over the values that
        # doubles can represent and the overflow saturation is asserted.
        zs = np.concatenate([np.linspace(-26.0, 30.0, 113), np.linspace(-26.6, -26.0, 7)])
        worst = max(
            abs(K.erfcx(float(z)) - erfcx_oracle(float(z))) / erfcx_oracle(float(z))
            for z in zs
        )
        assert worst <= 1e-12

    def test_overflow_saturates_to_inf(self):
        assert math.isinf(K.erfcx(-30.0))
        with mp.workdps(30):
            assert mp.exp(mp.mpf(900)) > mp.mpf("1.8e308")


class TestEFunction:
    def test_args_validation(self):
        with pytest.raises(ParameterError, match="t=0.0"):
            K.e_function(0.0, 0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ParameterError, match="d0=-2.0"):
            K.e_function(0.0, 1.0, 1.0, -2.0, 1.0)
        with pytest.raises(ParameterError, match="gamma=0.0"):
            K.e_function(0.0, 1.0, 1.0, 2.0, 0.0)

    def test_pinned_closed_form(self):
        # x - lam t = 0, gamma = 1, d0 = 2, t = 1:
        # E = (sqrt(2 pi)/2) e^{1/2} Erfc(1/sqrt(2)), frozen from the oracle
        val = K.e_function(1.0, 1.0, 1.0, 2.0, 1.0)
        expected = 0.5 * math.sqrt(2.0 * math.pi) * erfcx_oracle(1.0 / math.sqrt(2.0))
        assert val == pytest.approx(0.6556795424187985, rel=1e-12)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_matches_quadrature_across_regimes(self):
        cases = [
            (0.0, 1.0, 0.0, 2.0, 1.0),
            (3.0, 2.0, 1.0, 2.0, 0.5),
            (-30.0, 10.0, 2.0, 4.0, 2.0),
            (40.0, 5.0, -1.0, 1.0, 1.0),
            (-50.0, 50.0, 2.0, 4.0, 2.0),
        ]
        for x, t, lam, d0, g in cases:
            cf = K.e_function(x, t, lam, d0, g)
            qd = e_quadrature_oracle(x, t, lam, d0, g)
            assert cf == pytest.approx(qd, rel=1e-9)

    def test_one_erfcx_per_point_is_bitwise(self):
        # the two-erfcx form: erfcx(w) right of w = -1, erfcx(-w) left of it
        rng = np.random.default_rng(7)
        for _ in range(40):
            t, lam = rng.uniform(0.1, 20.0), rng.uniform(-2.0, 2.0)
            d0, gamma = rng.uniform(0.2, 4.0), rng.uniform(0.05, 5.0)
            root = math.sqrt(d0 * t)
            # w = (x - lam t + gamma d0 t / 2) / sqrt(d0 t) spans (-6, 6)
            x = lam * t - 0.5 * gamma * d0 * t + root * rng.uniform(-6.0, 6.0, 200)
            u = x - lam * t
            w = (u + 0.5 * gamma * d0 * t) / root
            gauss = np.exp(-(u * u) / (d0 * t))
            left = w <= -1.0
            direct = K.erfcx(np.where(left, 0.0, w)) * gauss
            exponent = np.where(left, gamma * u + 0.25 * gamma**2 * d0 * t, -1.0)
            reflected = 2.0 * np.exp(exponent) - K.erfcx(np.where(left, -w, 0.0)) * gauss
            ref = 0.5 * math.sqrt(math.pi) * root * np.where(left, reflected, direct)
            assert left.any() and (~left).any()
            assert np.array_equal(K.e_function(x, t, lam, d0, gamma), ref)
            assert K.e_function(float(x[0]), t, lam, d0, gamma) == ref[0]

    def test_positive_and_decaying(self):
        vals = K.e_function(np.array([0.0, 10.0, 40.0]), 2.0, 1.0, 2.0, 1.0)
        assert np.all(vals > 0.0)
        assert vals[0] > vals[1] > vals[2]

    def test_derivative_identity_fourth_order(self):
        kw = dict(t=2.0, lam=1.0, d0=2.0, gamma=1.0)
        for x in (-3.0, 0.0, 2.0, 5.0):
            exact = K.e_function_dx(x, **kw)
            resids = []
            for h in (2e-2, 1e-2):
                vals = K.e_function(x + h * np.array([-2, -1, 1, 2]), **kw)
                fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
                resids.append(abs(fd - exact))
            assert resids[1] <= resids[0] / 8.0 + 1e-14  # ~4th order


class TestEBoundCheck:
    def test_ratio_finite_and_stable_under_refinement(self):
        sup = {}
        for n in (60, 120):
            xs = np.linspace(-50.0, 50.0, n)
            ts = np.geomspace(0.5, 50.0, n // 2)
            sup[n] = max(
                K.e_bound_check(xs, float(t), 1.0, 2.0, 1.0, eps=0.1, bigC=10.0).max()
                for t in ts
            )
        assert np.isfinite(sup[120])
        assert abs(sup[120] - sup[60]) <= 0.1 * sup[60]

    def test_deep_left_region_uses_exponential_tail(self):
        # Far left of the drift ray the Gaussian envelope term is negligible
        # and the exp(-(|x|+t)/C) term carries the bound.
        x, t, lam, d0 = -40.0, 4.0, 1.0, 2.0
        u = x - lam * t
        gauss = math.exp(-u * u / ((d0 + 0.1) * t))
        tail = math.exp(-(abs(x) + t) / 10.0)
        assert tail > gauss
        assert np.isfinite(K.e_bound_check(x, t, lam, d0, 1.0, eps=0.1, bigC=10.0))

    def test_moving_frame_core_uses_gaussian(self):
        t = 9.0
        x, lam, d0 = 1.0 * t + math.sqrt(t) / 2, 1.0, 2.0
        u = x - lam * t
        gauss = math.exp(-u * u / ((d0 + 0.1) * t))
        tail = math.exp(-(abs(x) + t) / 10.0)
        assert gauss > tail
        assert np.isfinite(K.e_bound_check(x, t, lam, d0, 1.0, eps=0.1, bigC=10.0))

    def test_derivative_order_validated(self):
        with pytest.raises(ParameterError):
            K.e_bound_check(0.0, 1.0, 1.0, 2.0, 1.0, eps=0.1, bigC=10.0, k=2)


class TestProjections:
    def test_projection_algebra_exact(self):
        pp = K.acoustic_projection(+1, P)
        pm = K.acoustic_projection(-1, P)
        A = np.array([[0.0, 1.0], [P.c**2, 0.0]])
        assert np.array_equal(pp @ pp, pp)
        assert np.array_equal(pm @ pm, pm)
        assert np.abs(pp @ pm).max() == 0.0
        assert np.array_equal(pp + pm, np.eye(2))
        assert np.array_equal(A @ pp, P.c * pp)
        assert np.array_equal(A @ pm, -P.c * pm)

    def test_projection_entries(self):
        p2 = ModelParams(c=2.0)
        pp = K.acoustic_projection(+1, p2)
        assert np.array_equal(pp, np.array([[0.5, 0.25], [1.0, 0.5]]))


class TestFundamentalLeading:
    def test_requires_positive_time(self):
        with pytest.raises(ParameterError):
            K.fundamental_leading(0.0, 0.0, P)

    def test_delta_weight_variants(self):
        kv = K.fundamental_leading(1.0, 2.0, P)
        assert kv.deltas[0][1][0, 0] == pytest.approx(math.exp(-2.0))

    def test_mass_identity(self):
        t = 10.0
        edges = np.linspace(-60.0, 60.0, 241)
        gx, gw = np.polynomial.legendre.leggauss(10)
        half = 0.5 * np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mids[:, None] + half[:, None] * gx).ravel()
        wts = (half[:, None] * gw).ravel()
        sm = K.fundamental_leading(nodes, t, P).smooth
        mass = float(wts @ sm[:, 0, 0]) + K.singular_weight(t, P)
        assert abs(mass - 1.0) <= math.exp(-10.0) + 1e-12
        assert abs(float(wts @ sm[:, 0, 1])) <= 1e-14

    def test_pointwise_against_fourier_oracle(self):
        # difference obeys the one-order-down envelope with a stable constant
        t = 10.0
        xs = np.linspace(-30.0, 30.0, 41)
        oracle = tr.invert_fourier_fundamental(xs, t, P).smooth
        lead = K.fundamental_leading(xs, t, P).smooth
        env = (t + 1.0) ** -0.5 * t**-0.5 * (
            np.exp(-((xs - P.c * t) ** 2) / (4.0 * t))
            + np.exp(-((xs + P.c * t) ** 2) / (4.0 * t))
        ) + np.exp(-(np.abs(xs) + t) / 10.0)
        ratio = np.abs(oracle - lead).max(axis=(1, 2)) / env
        assert np.isfinite(ratio).all()
        assert ratio.max() <= 5.0


class TestMirrorLeading:
    def test_wrong_class_rejected(self):
        with pytest.raises(UsageError):
            K.mirror_leading(1.0, 1.0, ModelParams(a1=0.0, a2=1.0))

    def test_decays_at_large_offset(self):
        vals = np.abs(K.mirror_leading(np.array([5.0, 20.0, 40.0]), 5.0, P)).max(axis=(1, 2))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= 1e-12

    def test_watson_limit_recovers_dirichlet(self):
        # gamma -> infinity turns the reflected term into +G(w) diag(1, -1)
        t, w = 5.0, 6.0
        errs = []
        for gam in (1.0, 10.0, 100.0):
            pg = ModelParams(a1=-1.0, a2=gam)
            dirichlet = K.fundamental_leading(w, t, pg).smooth * np.array([1.0, -1.0])
            errs.append(np.abs(K.mirror_leading(w, t, pg) - dirichlet).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.1 * errs[1]  # ~1/gamma convergence

    def test_matches_quadrature_oracle_off_core(self):
        t = 5.0
        ws = np.array([13.0, 16.0, 20.0, 25.0, 30.0])
        quad_vals = tr.mirror_by_quadrature(ws, t, P, tr.QuadratureConfig(tol=1e-6))
        lead_vals = K.mirror_leading(ws, t, P)
        scale = max(
            np.abs(tr.mirror_by_quadrature(np.array([P.c * t]), t, P,
                                           tr.QuadratureConfig(tol=1e-6))).max(),
            np.abs(quad_vals).max(),
        )
        assert np.abs(quad_vals - lead_vals).max() <= 0.02 * scale


class TestGreenLeading:
    def test_unstable_class_named_pole(self):
        pu = ModelParams(a1=1.0, a2=1.0)
        with pytest.raises(UsageError, match="1.618"):
            K.green_leading(1.0, 2.0, 1.0, pu)

    def test_dirichlet_momentum_row_vanishes_at_wall(self):
        pd = ModelParams(a1=0.0, a2=1.0)
        for y in (1.0, 5.0):
            for t in (1.0, 6.0):
                kv = K.green_leading(0.0, y, t, pd)
                assert np.abs(kv.smooth[1, :]).max() <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("coord", ["x", "y", "t"])
    def test_non_finite_argument_rejected(self, coord, bad):
        args = {"x": 3.0, "y": 2.0, "t": 1.5}
        args[coord] = bad
        with pytest.raises(ParameterError, match=f"{coord}={bad}"):
            K.green_leading(args["x"], args["y"], args["t"], P)

    def test_delta_sits_at_source(self):
        kv = K.green_leading(3.0, 2.0, 1.5, P)
        assert kv.deltas[0][0] == 2.0

    def test_reflection_ridge_dominated_by_weighted_moment_term(self):
        # on x + y = ct the boundary part of the (2,2) entry is carried by
        # the reflected-moment term, not the image Gaussian
        t = 10.0
        x, y = 6.0, 4.0  # x + y = ct = 10
        pref = 1.0 / math.sqrt(2.0 * math.pi * P.nu * t)
        e_term = 2.0 * P.gamma * pref * K.e_function(x + y, t, P.c, 2.0 * P.nu, P.gamma) * 0.5
        image = pref * math.exp(-((x + y - P.c * t) ** 2) / (2.0 * P.nu * t)) * 0.5
        mir = K.mirror_leading(x + y, t, P)
        assert e_term > image * 0.5
        assert abs(mir[1, 1]) > 0.0

    def test_dirichlet_neumann_assembly(self):
        t, x, y = 3.0, 4.0, 1.5
        for a1, a2, sign in ((0.0, 1.0, +1.0), (1.0, 0.0, -1.0)):
            pp = ModelParams(a1=a1, a2=a2)
            kv = K.green_leading(x, y, t, pp)
            direct = K.fundamental_leading(x - y, t, pp).smooth
            image = K.fundamental_leading(x + y, t, pp).smooth * np.array([1.0, -1.0])
            assert np.abs(kv.smooth - (direct + sign * image)).max() <= 1e-15


# Dirichlet, Neumann, stable mixed (the default) and the scaled set
STABLE = [ModelParams(a1=0.0, a2=1.0), ModelParams(a1=1.0, a2=0.0), P,
          ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)]
POINTS = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=8).map(np.array)
TIMES = st.floats(0.5, 10.0)


def assert_matches_loop(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


class TestArrayCalls:
    """An array call equals the loop of scalar calls; a scalar call returns a
    float or a 2x2 matrix."""

    @given(params=st.sampled_from(STABLE), xs=POINTS, y=st.floats(0.0, 20.0), t=TIMES)
    @settings(max_examples=40)
    def test_green_leading(self, params, xs, y, t):
        kv = K.green_leading(xs, y, t, params)
        loop = [K.green_leading(float(x), y, t, params) for x in xs]
        assert_matches_loop(kv.smooth, np.stack([v.smooth for v in loop]))
        assert kv.deltas[0][0] == y and loop[0].smooth.shape == (2, 2)

    @given(params=st.sampled_from(STABLE), xs=POINTS.map(lambda x: x - 15.0), t=TIMES)
    @settings(max_examples=30)
    def test_fundamental_leading(self, params, xs, t):
        loop = [K.fundamental_leading(float(x), t, params).smooth for x in xs]
        assert_matches_loop(K.fundamental_leading(xs, t, params).smooth, np.stack(loop))

    @given(ws=POINTS, t=TIMES, gamma=st.floats(0.1, 10.0))
    @settings(max_examples=30)
    def test_mirror_leading(self, ws, t, gamma):
        params = ModelParams(a1=-1.0, a2=gamma)
        loop = [K.mirror_leading(float(w), t, params) for w in ws]
        assert_matches_loop(K.mirror_leading(ws, t, params), np.stack(loop))

    @given(xs=POINTS.map(lambda x: 3.0 * x - 45.0), t=st.floats(0.1, 50.0),
           lam=st.floats(-2.0, 2.0), d0=st.floats(0.2, 4.0), gamma=st.floats(0.05, 5.0))
    @settings(max_examples=40)
    def test_e_function_and_derivative(self, xs, t, lam, d0, gamma):
        for fn in (K.e_function, K.e_function_dx):
            loop = [fn(float(x), t, lam, d0, gamma) for x in xs]
            assert all(np.ndim(v) == 0 for v in loop)
            assert_matches_loop(fn(xs, t, lam, d0, gamma), np.array(loop))

    def test_array_source_refused(self):
        with pytest.raises(ParameterError, match="one source y"):
            K.green_leading(np.array([3.0, 4.0]), np.array([2.0, 2.5]), 1.5, P)

    def test_unstable_class_refused_for_arrays(self):
        with pytest.raises(UsageError, match="1.618"):
            K.green_leading(np.array([3.0, 4.0]), 2.0, 1.5, ModelParams(a1=1.0, a2=1.0))

    @pytest.mark.parametrize("call, bad", [
        (lambda x: K.green_leading(x, 2.0, 1.5, P), "x"),
        (lambda x: K.fundamental_leading(x, 1.5, P), "x"),
        (lambda x: K.mirror_leading(x, 1.5, P), "w"),
        (lambda x: K.e_function(x, 1.5, 1.0, 2.0, 1.0), "x"),
        (lambda x: K.e_function_dx(x, 1.5, 1.0, 2.0, 1.0), "x"),
    ], ids=["green", "fundamental", "mirror", "e", "e-dx"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_point_named(self, call, bad, value):
        with pytest.raises(ParameterError, match=f"{bad}={value}"):
            call(np.array([1.0, value, 2.0, math.nan]))

    @pytest.mark.parametrize("call, bad", [
        (lambda x: K.green_leading(x, 2.0, 1.5, P), "x"),
        (lambda x: K.mirror_leading(x, 1.5, P), "w"),
    ], ids=["green", "mirror"])
    def test_negative_point_named(self, call, bad):
        with pytest.raises(ParameterError, match=f"{bad}=-0.5"):
            call(np.array([1.0, -0.5, -2.0]))

    @pytest.mark.parametrize("call", [
        lambda t: K.green_leading(np.array([1.0, 3.0]), 2.0, t, P),
        lambda t: K.fundamental_leading(np.array([1.0, 3.0]), t, P),
        lambda t: K.mirror_leading(np.array([1.0, 3.0]), t, P),
        lambda t: K.e_function(np.array([1.0, 3.0]), t, 1.0, 2.0, 1.0),
    ], ids=["green", "fundamental", "mirror", "e"])
    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_time_named(self, call, t):
        with pytest.raises(ParameterError, match=f"t={t}"):
            call(t)
