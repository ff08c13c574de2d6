import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsgreen.core import ModelParams
from hsgreen.errors import BranchCutError, ParameterError, PoleError
from hsgreen.spectral import (
    dispersion_sigma,
    find_boundary_pole,
    fourier_fundamental,
    lambda_of_s,
    laplace_fundamental,
    laplace_green,
    reflection_coefficient,
)
from hsgreen.transforms import (_invert_laplace_talbot, _laplace_shift, _talbot_nodes,
                                invert_laplace_green_dx)

P = ModelParams()  # c = nu = 1, a1 = -1, a2 = 1 (stable mixed)
PS = ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def green_dx(x, y, s, params):
    """L[G_x] = -s [[0, 1/w], [1, 0]] L[G], w = nu s + c^2, from the first-order system."""
    g = laplace_green(x, y, s, params)
    s = np.asarray(s, dtype=complex)[..., None]
    w = params.nu * s + params.c**2
    return np.stack([-s / w * g[..., 1, :], -s * g[..., 0, :]], axis=-2)


class TestDispersion:
    def test_zero_wavenumber(self):
        cp = dispersion_sigma(0.0, P)
        assert cp.sigma_plus == 0.0 and cp.sigma_minus == 0.0

    def test_double_root_at_2c_over_nu(self):
        cp = dispersion_sigma(2.0, P)
        assert cp.sigma_plus == pytest.approx(-2.0, abs=1e-14)
        assert cp.sigma_minus == pytest.approx(-2.0, abs=1e-14)

    def test_unit_wavenumber_pinned(self):
        cp = dispersion_sigma(1.0, P)
        assert cp.sigma_plus == pytest.approx(-0.5 - 0.8660254037844386j, abs=1e-14)
        assert cp.sigma_minus == pytest.approx(-0.5 + 0.8660254037844386j, abs=1e-14)

    @given(xi=st.floats(-50, 50), c=st.floats(0.2, 3), nu=st.floats(0.2, 3))
    @example(xi=5e-324, c=1.0, nu=1.0)  # sigma+ underflows to 0
    @settings(max_examples=150)
    def test_vieta_identities(self, xi, c, nu):
        params = ModelParams(c=c, nu=nu)
        res_sum, res_prod = dispersion_sigma(xi, params).vieta_residuals(xi, params)
        assert res_sum <= 1e-12 and res_prod <= 1e-12


class TestFourierFundamental:
    def test_initial_condition_is_identity(self):
        for xi in (0.0, 0.37, 2.0, 55.0):
            assert np.abs(fourier_fundamental(xi, 0.0, P) - np.eye(2)).max() == 0.0

    def test_zero_wavenumber_identity(self):
        for t in (0.5, 3.0, 20.0):
            assert np.abs(fourier_fundamental(0.0, t, P) - np.eye(2)).max() <= 1e-14

    def test_determinant_identity(self):
        # The identity det F = exp(-nu xi^2 t) holds exactly for the closed
        # form; numerically it is a difference of products of size
        # ~exp(-2 c^2 t / nu), so it is only resolvable in doubles where the
        # target is not exponentially smaller than that scale.
        xi_all = np.concatenate([np.linspace(-8, 8, 161), [2.0, -2.0, 1.999999, 2.000001]])
        for t in (0.3, 1.0, 5.0):
            xi = xi_all[P.nu * xi_all**2 * t - 2.0 * P.c**2 * t / P.nu <= 12.0]
            F = fourier_fundamental(xi, t, P)
            det = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
            target = np.exp(-P.nu * xi**2 * t)
            assert (np.abs(det - target) / np.abs(target)).max() <= 1e-10

    def test_det_pinned_value(self):
        F = fourier_fundamental(1.0, 1.0, P)
        assert np.linalg.det(F) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_generator_ode_residual(self):
        # dF/dt = (-i xi A - xi^2 B) F, second-order in the time step
        xi, t = 1.3, 2.0
        A = np.array([[0.0, 1.0], [P.c**2, 0.0]])
        B = np.diag([0.0, P.nu])
        M = -1j * xi * A - xi**2 * B
        resids = []
        for h in (1e-3, 5e-4):
            dF = (fourier_fundamental(xi, t + h, P) - fourier_fundamental(xi, t - h, P)) / (2 * h)
            resids.append(np.abs(dF - M @ fourier_fundamental(xi, t, P)).max())
        assert resids[1] <= 0.3 * resids[0]  # ~2nd order

    def test_confluent_window_is_continuous(self):
        F_in = fourier_fundamental(2.0 + 1e-10, 1.0, P)
        F_out = fourier_fundamental(2.0 + 1e-2, 1.0, P)
        F_mid = fourier_fundamental(2.0 + 5e-3, 1.0, P)
        assert np.abs(F_in - F_mid).max() <= 0.1
        assert np.abs(F_out - F_mid).max() <= 0.1

    @pytest.mark.parametrize("params", [P, PS], ids=["mixed", "scaled"])
    def test_real_form_matches_complex_formula(self, params):
        # The complex-arithmetic form with sqrt(D^2) taken in C, written out.
        c, nu = params.c, params.nu
        k = 2.0 * c / nu
        xi = np.concatenate([np.linspace(-400.0, 400.0, 8001),
                             [0.0, k - 1e-3, k + 1e-3, -k - 1e-3, -k + 1e-3]])
        mu = -0.5 * nu * xi**2
        delta = np.sqrt((mu**2 - c**2 * xi**2).astype(complex))
        for t in (0.0, 0.01, 0.5, 2.0, 10.0, 64.0):
            ep, em = np.exp((mu + delta) * t), np.exp((mu - delta) * t)
            small = np.abs(delta * t) <= 1e-2
            z2 = np.where(small, delta * t, 0.0) ** 2
            sinhc = np.where(small, t * np.exp(mu * t) * (1.0 + z2 / 6.0 + z2 * z2 / 120.0),
                             (ep - em) / (2.0 * np.where(small, 1.0, delta)))
            ref = np.empty(xi.shape + (2, 2), dtype=complex)
            ref[:, 0, 0] = 0.5 * (ep + em) - mu * sinhc
            ref[:, 1, 1] = 0.5 * (ep + em) + mu * sinhc
            ref[:, 0, 1] = -1j * xi * sinhc
            ref[:, 1, 0] = c**2 * ref[:, 0, 1]
            got = fourier_fundamental(xi, t, params)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), t


class TestLambda:
    def test_zero(self):
        assert lambda_of_s(0.0 + 0.0j, P) == 0.0

    def test_pinned_value(self):
        lam = lambda_of_s(2.0 + 0.0j, P)
        assert lam == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
        assert abs(lam * np.sqrt(P.nu * 2.0 + P.c**2) - 2.0) <= 1e-14

    @given(s=st.floats(1e-6, 1e3))
    @settings(max_examples=50)
    def test_positive_real_axis(self, s):
        lam = lambda_of_s(complex(s), P)
        assert lam.imag == 0.0 and lam.real > 0.0

    @given(re=st.floats(0, 50), im=st.floats(-50, 50))
    @settings(max_examples=150)
    def test_decaying_mode_selection(self, re, im):
        lam = lambda_of_s(complex(re, im), P)
        assert lam.real >= -1e-13

    def test_branch_point_rejected(self):
        with pytest.raises(BranchCutError):
            lambda_of_s(complex(-P.c**2 / P.nu), P)
        with pytest.raises(BranchCutError):
            lambda_of_s(complex(-5.0), P)


class TestLaplaceFundamental:
    def test_parity_structure(self):
        s = 1.7 + 0.9j
        plus = laplace_fundamental(2.5, s, P)
        minus = laplace_fundamental(-2.5, s, P)
        flip = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.abs(minus - plus * flip).max() <= 1e-15

    def test_pde_residual_second_order(self):
        # (s I + A d/dx - B d/dx^2) L[G] = 0 away from x = 0
        s = 1.5 + 0.5j
        A = np.array([[0.0, 1.0], [P.c**2, 0.0]])
        B = np.diag([0.0, P.nu])
        resids = []
        for h in (2e-3, 1e-3):
            xs = np.array([3.0 - 2 * h, 3.0 - h, 3.0, 3.0 + h, 3.0 + 2 * h])
            g = laplace_fundamental(xs, s, P)
            gx = (g[3] - g[1]) / (2 * h)
            gxx = (g[3] - 2 * g[2] + g[1]) / h**2
            resids.append(np.abs(s * g[2] + A @ gx - B @ gxx).max())
        assert resids[1] <= 0.3 * resids[0]

    def test_fourier_consistency(self):
        # FT in x of the smooth part matches the resolvent minus the delta
        # term; Simpson with a node pinned at the x = 0 kink
        from scipy.integrate import simpson

        s = 1.0 + 0.0j
        xs = np.linspace(-70, 70, 140001)
        lg = laplace_fundamental(xs, s, P)
        w = P.nu * s + P.c**2
        for xi in (0.4, 1.1):
            ker = np.exp(-1j * xi * xs)[:, None, None] * lg
            mid = xs.size // 2
            integ = simpson(ker[: mid + 1], x=xs[: mid + 1], axis=0)
            integ = integ + simpson(ker[mid:], x=xs[mid:], axis=0)
            target = np.array(
                [[s + P.nu * xi**2, -1j * xi], [-1j * P.c**2 * xi, s]]
            ) / (s**2 + w * xi**2) - np.diag([P.nu / w, 0.0])
            assert np.abs(integ - target).max() <= 1e-8


class TestReflection:
    def test_dirichlet_is_plus_one(self):
        pd = ModelParams(a1=0.0, a2=3.0)
        for s in (0.5 + 0.0j, 2.0 + 1.0j, 10.0 - 3.0j):
            assert reflection_coefficient(s, pd) == pytest.approx(1.0)

    def test_neumann_is_minus_one(self):
        pn = ModelParams(a1=2.0, a2=0.0)
        for s in (0.5 + 0.0j, 2.0 + 1.0j):
            assert reflection_coefficient(s, pn) == pytest.approx(-1.0)

    def test_zero_s_gives_plus_one(self):
        assert reflection_coefficient(0.0 + 0.0j, P) == pytest.approx(1.0)

    @given(re=st.floats(0.01, 20), im=st.floats(-20, 20))
    @settings(max_examples=100)
    def test_conjugate_symmetry(self, re, im):
        s = complex(re, im)
        r1 = reflection_coefficient(s, P)
        r2 = reflection_coefficient(s.conjugate(), P)
        assert r1.conjugate() == pytest.approx(r2, rel=1e-12)

    def test_stable_class_bounded_on_right_half_plane(self):
        res = np.linspace(0.0, 10.0, 21)
        ims = np.linspace(-10.0, 10.0, 21)
        S = res[:, None] + 1j * ims[None, :]
        vals = reflection_coefficient(S.ravel() + 1e-9, P)
        assert np.all(np.isfinite(vals))

    def test_pole_raises(self):
        pu = ModelParams(a1=1.0, a2=1.0)
        with pytest.raises(PoleError):
            reflection_coefficient(complex(GOLDEN), pu)


class TestBoundaryPole:
    def test_golden_ratio_case(self):
        s = find_boundary_pole(ModelParams(a1=1.0, a2=1.0))
        assert s == pytest.approx(GOLDEN, rel=1e-14)
        lam = lambda_of_s(complex(s), ModelParams())
        assert abs(1.0 - 1.0 * lam) <= 1e-12  # a2 - a1 lam with a1 = a2 = 1

    def test_one_two_case(self):
        s = find_boundary_pole(ModelParams(a1=1.0, a2=2.0))
        assert s == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-14)

    def test_stable_and_degenerate_classes_have_none(self):
        assert find_boundary_pole(ModelParams(a1=-1.0, a2=1.0)) is None
        assert find_boundary_pole(ModelParams(a1=0.0, a2=1.0)) is None
        assert find_boundary_pole(ModelParams(a1=1.0, a2=0.0)) is None

    def test_negative_pair_also_unstable(self):
        s = find_boundary_pole(ModelParams(a1=-1.0, a2=-1.0))
        assert s == pytest.approx(GOLDEN, rel=1e-14)


class TestLaplaceGreen:
    def test_dirichlet_momentum_row_vanishes_at_wall(self):
        pd = ModelParams(a1=0.0, a2=1.0)
        for s in (0.8 + 0.0j, 1.0 + 2.0j):
            for y in (1.0, 4.5):
                gv = laplace_green(0.0, y, s, pd)
                assert np.abs(gv[1, :]).max() <= 1e-15

    def test_robin_condition_at_wall(self):
        # a1 dG/dx + a2 G = 0 in the momentum row at x = 0, exact derivative
        for pr in (ModelParams(a1=1.0, a2=0.0), P, ModelParams(a1=1.0, a2=1.0),
                   ModelParams(c=1.7, nu=0.3, a1=-1.3, a2=2.9)):
            for s in (0.5 + 0.3j, 2.0 + 0.0j, 1.0 + 2.0j):
                for y in (1.0, 4.5):
                    g = laplace_green(0.0, y, s, pr)[1, :]
                    dg = green_dx(0.0, y, s, pr)[1, :]
                    scale = (abs(pr.a1 * lambda_of_s(s, pr)) + abs(pr.a2)) * np.abs(
                        laplace_fundamental(y, s, pr)[1, :]).max()
                    assert np.abs(pr.a1 * dg + pr.a2 * g).max() <= 1e-14 * scale

    def test_derivative_matches_symbol_difference(self):
        # d/dx of e^{-lambda|x - y|} away from the jump at x = y
        h, s = 1e-4, 1.0 + 2.0j
        for x, y in ((0.7, 3.0), (4.0, 1.5)):
            rows = [laplace_green(x + k * h, y, s, P) for k in (-1, 1)]
            fd = (rows[1] - rows[0]) / (2.0 * h)
            exact = green_dx(x, y, s, P)
            assert np.abs(fd - exact).max() <= 1e-7 * np.abs(exact).max()

    @pytest.mark.parametrize(
        "params",
        [ModelParams(a1=0.0, a2=1.0), ModelParams(a1=1.0, a2=0.0), P,
         ModelParams(a1=1.0, a2=1.0), PS],
        ids=["dirichlet", "neumann", "mixed-stable", "mixed-unstable", "scaled"],
    )
    def test_regrouped_tables_match_term_composition(self, params):
        # direct L[G](x - y) plus image R L[G](x + y) diag(1, -1), and for the
        # derivative -lambda (sgn(x - y) direct + image), built term by term
        t = 2.0
        nodes, g = _talbot_nodes(t, 40)
        shift = _laplace_shift(t, params)
        s = nodes + shift
        x = np.array([0.0, 0.7, 3.0, 9.5, 0.2])[:, None]
        y = np.array([1.2, 2.0, 0.4, 6.0, 4.0])[:, None]
        direct = laplace_fundamental(x - y, s, params)
        image = (reflection_coefficient(s, params)[:, None, None]
                 * laplace_fundamental(x + y, s, params) * np.array([1.0, -1.0]))
        lam = lambda_of_s(s, params)[:, None, None]
        sgn = np.sign(x - y)[..., None, None]
        # entrywise, relative to the two terms (the sum cancels at the wall)
        scale = np.abs(direct) + np.abs(image)
        got = laplace_green(x, y, s, params)
        assert np.all(np.abs(got - (direct + image)) <= 1e-14 * scale)
        got_dx = green_dx(x, y, s, params)
        ref_dx = -lam * (sgn * direct + image)
        assert np.all(np.abs(got_dx - ref_dx) <= 1e-14 * np.abs(lam) * scale)
        # the library's derivative path: the contour sum of the same identity
        (lib_dx,) = _invert_laplace_talbot(x.ravel(), y.ravel(), t, params, 40, shift, (1,))
        ref_sum = np.einsum("k,pkij->pij", g, ref_dx).real
        bound = np.einsum("k,pkij->pij", np.abs(g), np.abs(lam) * scale)
        assert np.all(np.abs(lib_dx - ref_sum) <= 1e-14 * bound)

    def test_derivative_refuses_diagonal(self):
        with pytest.raises(ParameterError):
            invert_laplace_green_dx(np.array([1.0, 2.0]), 2.0, 1.0, P)

    def test_mixed_boundary_identity(self):
        # transform of (-a1 rho_t + a2 m)|_{x=0} = 0
        for s in (0.5 + 0.3j, 2.0 + 0.0j, 1.0 + 2.0j):
            gv = laplace_green(0.0, 3.0, s, P)
            row = -P.a1 * s * gv[0, :] + P.a2 * gv[1, :]
            assert np.abs(row).max() <= 1e-8

    def test_rejects_negative_coordinates(self):
        # the refusal names the first bad point
        with pytest.raises(ParameterError, match=r"got x=-0\.5, y=1\.0$"):
            laplace_green(-0.5, 1.0, 1.0 + 0.0j, P)
        with pytest.raises(ParameterError, match=r"got x=2\.0, y=-3\.0$"):
            laplace_green(np.array([1.0, 2.0]), np.array([1.5, -3.0]), 1.0 + 0.0j, P)


class TestBroadcastMatchesPointwise:
    # The contour inversions evaluate on (points, 1) x (nodes,); each entry must
    # equal the scalar evaluation at its own (x, y, s).  Not bitwise: NumPy's
    # vector and scalar paths round differently.
    @pytest.mark.parametrize(
        "params",
        [ModelParams(a1=0.0, a2=1.0), ModelParams(a1=1.0, a2=0.0), P,
         ModelParams(a1=1.0, a2=1.0)],
        ids=["dirichlet", "neumann", "mixed-stable", "mixed-unstable"],
    )
    def test_matches_scalar_loop(self, params):
        t = 2.0
        s = _talbot_nodes(t, 32)[0] + _laplace_shift(t, params)
        x = np.array([0.0, 0.7, 3.0, 9.5])[:, None]
        y = np.array([1.2, 2.0, 0.4, 6.0])[:, None]
        evaluators = {
            "fundamental": lambda xs, ys, ss: laplace_fundamental(xs - ys, ss, params),
            "green": lambda xs, ys, ss: laplace_green(xs, ys, ss, params),
        }
        for name, f in evaluators.items():
            grid = f(x, y, s)
            assert grid.shape == (x.size, s.size, 2, 2)
            loop = np.array([[f(x[i, 0], y[i, 0], s[k]) for k in range(s.size)]
                             for i in range(x.size)])
            assert np.all(np.abs(grid - loop) <= 1e-14 * np.abs(loop)), name
