"""The scaling identity of the model.

With L = nu/c, T = nu/c^2 and D = diag(1, c),

    G(x, y, t; c, nu, a1, a2) = (1/L) D G(x/L, y/L, t/T; 1, 1, a1, a2 L) D^{-1},

so (c, nu) only set a length and a time.  Each property draws (c, nu) and a
point of the unit model (t', gamma' = gamma L), maps it to physical units and
checks that an evaluator there equals its unit-model value mapped back.  The
x-derivative carries one more 1/L; the persistent delta's weight exp(-t') is
not scaled, since delta(x) = delta(x/L)/L.

An oracle's tol is absolute in unit-model units, so both sides use the default
tol, and the physical call passes or raises with the unit-model call at the
point it maps to.  Talbot is held to that tol in unit-model units; its
roundoff, amplified by the contour's exponential weights, exceeds 1e-8 of the
sup where G is small.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgreen import kernels as K
from hsgreen import solver as so
from hsgreen import transforms as tr
from hsgreen.core import FieldState, Grid1D, ModelParams
from hsgreen.errors import AccuracyError

SPEEDS = st.floats(0.3, 3.0)
VISCOSITIES = st.floats(0.05, 3.0)
GAMMAS = st.floats(0.1, 10.0)
# Talbot misses its tolerance at some points once t' reaches about 30; the
# Fourier side has no such limit.
TIMES = st.floats(0.5, 20.0)
LATE_TIMES = st.floats(0.5, 100.0)
# Both sides of the Fourier and mirror properties sum on one unit-model grid,
# but x/L and t/T round: an ulp there moves the sums by up to 3e-12 of the sup.
FOURIER_REL = 1e-11


def models(c: float, nu: float, gamma1: float):
    """The physical stable mixed model, its unit model, L, T and the entry
    scale [[1, 1/c], [c, 1]]/L."""
    L, T = nu / c, nu / c**2
    phys = ModelParams(c=c, nu=nu, a1=-1.0, a2=gamma1 / L)
    unit = ModelParams(c=1.0, nu=1.0, a1=phys.a1, a2=phys.a2 * L)
    return phys, unit, L, T, np.array([[1.0, 1.0 / c], [c, 1.0]]) / L


def half_line_points(t1: float, y1: float):
    """Unit-model points from the wall past the right-moving ridge x' = y' + t',
    at least 0.5 off the source y'."""
    x1 = np.linspace(0.0, y1 + t1 + 3.0 * math.sqrt(2.0 * t1), 15)
    x1 = x1[np.abs(x1 - y1) >= 0.5]
    return x1, np.full_like(x1, y1)


def assert_scaled(phys: np.ndarray, unit: np.ndarray, scale: np.ndarray, rel: float):
    expected = unit * scale
    assert np.abs(phys - expected).max() <= rel * np.abs(expected).max()


class TestScalingIdentity:
    @given(c=SPEEDS, nu=VISCOSITIES, gamma1=GAMMAS, t1=TIMES, y1=st.floats(0.0, 4.0))
    @settings(max_examples=50)
    def test_green_leading(self, c, nu, gamma1, t1, y1):
        phys, unit, L, T, scale = models(c, nu, gamma1)
        x1, _ = half_line_points(t1, y1)
        got = K.green_leading(x1 * L, y1 * L, t1 * T, phys)
        ref = K.green_leading(x1, y1, t1, unit)
        assert_scaled(got.smooth, ref.smooth, scale, 1e-12)
        assert math.isclose(got.delta_weight, ref.delta_weight, rel_tol=1e-12)

    @given(c=SPEEDS, nu=VISCOSITIES, t1=TIMES)
    @settings(max_examples=50)
    def test_invert_fourier_fundamental(self, c, nu, t1):
        phys, unit, L, T, scale = models(c, nu, 1.0)
        z1 = np.linspace(-(t1 + 4.0), t1 + 4.0, 17)
        got = tr.invert_fourier_fundamental(z1 * L, t1 * T, phys)
        ref = tr.invert_fourier_fundamental(z1, t1, unit)
        assert_scaled(got.smooth, ref.smooth, scale, FOURIER_REL)
        assert math.isclose(got.delta_weight, ref.delta_weight, rel_tol=1e-12)

    @given(c=SPEEDS, nu=VISCOSITIES, gamma1=GAMMAS, t1=TIMES)
    @settings(max_examples=50)
    def test_mirror_by_quadrature(self, c, nu, gamma1, t1):
        phys, unit, L, T, scale = models(c, nu, gamma1)
        w1 = np.linspace(0.0, t1 + 4.0, 9)
        got = tr.mirror_by_quadrature(w1 * L, t1 * T, phys)
        assert_scaled(got, tr.mirror_by_quadrature(w1, t1, unit), scale, FOURIER_REL)

    @given(c=SPEEDS, nu=VISCOSITIES, gamma1=GAMMAS, t1=LATE_TIMES, y1=st.floats(0.0, 4.0))
    @settings(max_examples=50)
    def test_fourier_green(self, c, nu, gamma1, t1, y1):
        phys, unit, L, T, scale = models(c, nu, gamma1)
        x1, y1 = half_line_points(t1, y1)
        got = tr.fourier_green(x1 * L, y1 * L, t1 * T, phys)
        assert_scaled(got, tr.fourier_green(x1, y1, t1, unit), scale, FOURIER_REL)

    @given(c=SPEEDS, nu=VISCOSITIES, gamma1=GAMMAS, t1=TIMES, y1=st.floats(0.0, 4.0))
    @settings(max_examples=50)
    def test_invert_laplace_green(self, c, nu, gamma1, t1, y1):
        phys, unit, L, T, scale = models(c, nu, gamma1)
        x1, y1 = half_line_points(t1, y1)
        got = tr.invert_laplace_green(x1 * L, y1 * L, t1 * T, phys)
        ref = tr.invert_laplace_green(x1, y1, t1, unit)
        assert np.abs(got / scale - ref).max() <= 1e-8

    @given(c=SPEEDS, nu=VISCOSITIES, gamma1=GAMMAS, t1=TIMES, y1=st.floats(0.0, 4.0))
    @settings(max_examples=50)
    def test_invert_laplace_green_dx(self, c, nu, gamma1, t1, y1):
        phys, unit, L, T, scale = models(c, nu, gamma1)
        x1, y1 = half_line_points(t1, y1)
        got = tr.invert_laplace_green_dx(x1 * L, y1 * L, t1 * T, phys)
        ref = tr.invert_laplace_green_dx(x1, y1, t1, unit)
        assert np.abs(got / (scale / L) - ref).max() <= 1e-8


class TestLateTime:
    # Where the parabolic contour misses its self-check (a known defect: at
    # these points its M vs M + 8 difference is 1e-3 to 5e-5 on the scaled
    # set and overflows at (c, nu) = (3, 0.05)), the Fourier side meets the
    # default tol.
    SCALED = ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)
    SHORT = ModelParams(c=3.0, nu=0.05)

    @pytest.mark.parametrize("params, x, t", [
        (SCALED, np.linspace(0.3, 12.0, 40), 5.0),
        (SCALED, np.linspace(0.3, 12.0, 40), 10.0),
        (SHORT, np.linspace(0.3, 6.0, 20), 0.5),
        (SHORT, np.linspace(0.3, 6.0, 20), 2.0),
    ], ids=["scaled-t5", "scaled-t10", "short-t0.5", "short-t2"])
    def test_fourier_green_meets_default_tol(self, params, x, t):
        g = tr.fourier_green(x, 2.0, t, params)
        assert g.shape == x.shape + (2, 2) and np.all(np.isfinite(g))


def outcome(oracle, *args) -> str:
    try:
        oracle(*args)
    except AccuracyError:
        return "raise"
    return "pass"


class TestCovariantVerdicts:
    # Each oracle self-checks in unit-model units, so the physical call and the
    # unit-model call at the point it maps to (x/L, tc/L, as ``_unit_frame``
    # rounds them) pass or raise together.  Talbot misses its tol from t' of
    # about 30, so its draws meet both outcomes.
    ORACLES = {
        "fourier": (lambda x, y, t, p: tr.invert_fourier_fundamental(x - y, t, p)),
        "mirror": (lambda x, y, t, p: tr.mirror_by_quadrature(x + y, t, p)),
        "talbot": tr.invert_laplace_green,
        "talbot_dx": tr.invert_laplace_green_dx,
    }

    @pytest.mark.parametrize("name", list(ORACLES))
    @given(c=SPEEDS, nu=VISCOSITIES, gamma1=GAMMAS, t1=LATE_TIMES, y1=st.floats(0.0, 4.0))
    @settings(max_examples=50)
    def test_same_outcome(self, name, c, nu, gamma1, t1, y1):
        phys, _, L, T, _ = models(c, nu, gamma1)
        x1, y1 = half_line_points(t1, y1)
        x, y, t = x1 * L, y1 * L, t1 * T
        _, t_unit, unit, _ = tr._unit_frame(t, phys)
        oracle = self.ORACLES[name]
        assert outcome(oracle, x, y, t, phys) == outcome(oracle, x / L, y / L, t_unit, unit)

    def test_short_length_dx_meets_default_tol(self):
        # (c, nu, a1, a2) = (0.3, 0.05, -1, 0.6) at t' = 0.5: L = 1/6, and the
        # entries of G_x reach 43.  The two Talbot degrees differ by 8e-10 in
        # unit-model units, within the default tol, and by 2.9e-8 once mapped
        # back, which the check does not see.
        phys, unit, L, T, scale = models(0.3, 0.05, 0.1)
        x1, y1 = half_line_points(0.5, 0.0)
        got = tr.invert_laplace_green_dx(x1 * L, y1 * L, 0.5 * T, phys)
        ref = tr.invert_laplace_green_dx(x1, y1, 0.5, unit)
        assert np.abs(got).max() > 40.0
        assert np.abs(got / (scale / L) - ref).max() <= 1e-8


class TestSolverCovariance:
    def test_mapped_run_is_the_unit_run(self):
        # (c, nu) = (2, 0.5): L = 1/4 and T = 1/8 are powers of 2, so every scale
        # factor is exact and the run on the mapped grid, data and times is the
        # unit-model run, bitwise, with m = c m'.  The waves enter the sponge
        # (x' >= 36) within the run, so its rate must scale with c^2/nu too.
        phys = ModelParams(c=2.0, nu=0.5, a1=-1.0, a2=4.0)
        unit = phys.unit_model
        L, T = phys.nu / phys.c, phys.nu / phys.c**2
        spec = so.InitialData(kind="gaussian", amplitude=0.5, center=10.0, width=2.0,
                              components=("rho", "m"))
        grid = Grid1D(L=40.0, nx=200)
        init = so.make_initial_data(spec, grid, unit)
        times = np.linspace(0.0, 32.0, 5)
        ref = so.solve_nonlinear(init, unit, so.SolverConfig(grid=grid, t_end=32.0),
                                 output_times=times)
        got = so.solve_nonlinear(
            FieldState(t=0.0, rho=init.rho, m=phys.c * init.m), phys,
            so.SolverConfig(grid=Grid1D(L=40.0 * L, nx=200), t_end=32.0 * T),
            output_times=times * T)
        assert got.stats["steps"] == ref.stats["steps"]
        for mapped, st in zip(got.states, ref.states):
            assert np.array_equal(mapped.rho, st.rho)
            assert np.array_equal(mapped.m, phys.c * st.m)
        sponge = grid.x >= 36.0
        assert np.abs(ref.states[-1].rho[sponge] - 1.0).max() > 1e-3
