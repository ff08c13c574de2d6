import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgreen.core import (
    BoundaryClass,
    Grid1D,
    ModelParams,
    Trajectory,
    a0_profile,
    classify_boundary,
    psi_envelope,
    theta_envelope,
    write_csv,
)
from hsgreen.core import FieldState
from hsgreen.errors import ParameterError, UsageError
from hsgreen.spectral import find_boundary_pole, refuse_unstable

finite_coeff = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestModelParams:
    def test_defaults_are_stable_mixed(self):
        p = ModelParams()
        assert p.boundary_class is BoundaryClass.MIXED_STABLE
        assert p.gamma == 1.0

    @pytest.mark.parametrize("kwargs", [dict(c=0.0), dict(c=-1.0), dict(nu=0.0),
                                        dict(a1=0.0, a2=0.0), dict(c=math.inf),
                                        dict(nu=math.inf), dict(a1=-math.inf),
                                        dict(a2=math.nan)])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    def test_gamma_undefined_for_dirichlet(self):
        with pytest.raises(ParameterError):
            ModelParams(a1=0.0, a2=1.0).gamma

    def test_gamma_positive_for_stable_mixed(self):
        assert ModelParams(a1=-2.0, a2=3.0).gamma == 1.5
        assert ModelParams(a1=2.0, a2=-3.0).gamma == 1.5


class TestBoundaryClassification:
    @given(a1=finite_coeff, a2=finite_coeff)
    @settings(max_examples=200)
    def test_total_and_exclusive(self, a1, a2):
        if a1 == 0.0 and a2 == 0.0:
            with pytest.raises(ParameterError):
                classify_boundary(a1, a2)
            return
        cls = classify_boundary(a1, a2)
        expected = None
        if a1 == 0.0:
            expected = BoundaryClass.DIRICHLET
        elif a2 == 0.0:
            expected = BoundaryClass.NEUMANN
        elif (a1 < 0.0) != (a2 < 0.0):
            expected = BoundaryClass.MIXED_STABLE
        else:
            expected = BoundaryClass.MIXED_UNSTABLE
        assert cls is expected

    @pytest.mark.parametrize("a1, a2, expected", [
        (1e-200, -1e-200, BoundaryClass.MIXED_STABLE),
        (-1e-200, 1e-200, BoundaryClass.MIXED_STABLE),
        (1e-200, 1e-200, BoundaryClass.MIXED_UNSTABLE),
        (5e-324, -5e-324, BoundaryClass.MIXED_STABLE),
        (-5e-324, -5e-324, BoundaryClass.MIXED_UNSTABLE),
    ], ids=["tiny-stable", "tiny-stable-flipped", "tiny-unstable",
            "subnormal-stable", "subnormal-unstable"])
    def test_tiny_coefficients_classed_by_sign(self, a1, a2, expected):
        # a1*a2 underflows to 0 here; gamma = -a2/a1 = -1 or 1 does not
        params = ModelParams(a1=a1, a2=a2)
        assert params.boundary_class is expected
        if expected is BoundaryClass.MIXED_STABLE:
            assert params.gamma == 1.0
            assert find_boundary_pole(params) is None
            refuse_unstable(params)
        else:
            assert params.gamma == -1.0
            with pytest.raises(UsageError, match=r"s\* = 1\.61803"):
                refuse_unstable(params)


class TestEnvelopes:
    def test_theta_on_ray_is_one(self):
        for t in (0.0, 1.0, 7.3):
            assert theta_envelope(2.0 * (t + 1.0), t, lam=2.0, D=3.0, alpha=0.0) == 1.0

    def test_theta_pinned_value(self):
        # (x=0, t=0, lam=1, D=2, alpha=2) -> exp(-1/2)
        assert theta_envelope(0.0, 0.0, 1.0, 2.0, 2.0) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )

    def test_theta_zero_exponent_prefactor(self):
        assert theta_envelope(0.0, 3.0, 0.0, 1.0, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_theta_rejects_bad_width(self):
        with pytest.raises(ParameterError):
            theta_envelope(0.0, 1.0, 0.0, -1.0, 0.0)

    def test_psi_pinned_values(self):
        assert psi_envelope(4.0, 3.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert psi_envelope(0.0, 0.0, 0.0, 2.0) == pytest.approx(1.0, rel=1e-15)
        assert psi_envelope(3.0, 0.0, 0.0, 1.0) == pytest.approx(0.25, rel=1e-15)

    @given(
        x=st.floats(-50, 50), t=st.floats(0, 100), mu=st.floats(-3, 3),
        alpha=st.floats(0.1, 4),
    )
    @settings(max_examples=100)
    def test_psi_reciprocal_identity(self, x, t, mu, alpha):
        prod = psi_envelope(x, t, mu, alpha) * psi_envelope(x, t, mu, -alpha)
        assert prod == pytest.approx(1.0, rel=1e-12)

    def test_psi_decreases_away_from_ray(self):
        t, mu = 4.0, 1.0
        d = [abs(psi_envelope(mu * (t + 1.0) + s, t, mu, 2.0)) for s in (0.0, 1.0, 3.0)]
        assert d[0] > d[1] > d[2]

    def test_a0_pinned_values(self):
        assert a0_profile(0.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        # x = c(t+1) with c=1, t=3: 1/2 + 1/10
        assert a0_profile(4.0, 3.0, 1.0) == pytest.approx(0.6, rel=1e-15)

    @given(x=st.floats(-30, 30), t=st.floats(0, 50))
    @settings(max_examples=100)
    def test_a0_even_in_x(self, x, t):
        assert a0_profile(x, t, 1.3) == pytest.approx(a0_profile(-x, t, 1.3), rel=1e-13)

    def test_envelope_evaluations_pure(self):
        args = (1.234, 5.678, 0.9, 2.3, 1.0)
        assert theta_envelope(*args) == theta_envelope(*args)
        assert psi_envelope(1.2, 3.4, 0.5, 2.0) == psi_envelope(1.2, 3.4, 0.5, 2.0)


class TestContainers:
    def test_grid_properties(self):
        g = Grid1D(L=10.0, nx=100)
        assert g.dx == pytest.approx(0.1)
        assert g.n_nodes == 101
        assert g.x[0] == 0.0 and g.x[-1] == 10.0
        assert np.array_equal(Grid1D(L=10.0, nx=np.int64(100)).x, g.x)

    @pytest.mark.parametrize("nx", [100.0, 10.5, np.float64(100.0)],
                             ids=["float", "fraction", "numpy-float"])
    def test_grid_refuses_non_integer_nx(self, nx):
        # .x would raise a bare TypeError from np.linspace
        with pytest.raises(ParameterError, match=re.escape(f"nx={nx!r}")):
            Grid1D(L=10.0, nx=nx)

    def test_trajectory_requires_increasing_times(self):
        g = Grid1D(L=1.0, nx=4)
        traj = Trajectory(grid=g, params=ModelParams())
        z = np.zeros(5)
        traj.append(FieldState(t=0.0, rho=1 + z, m=z))
        with pytest.raises(ParameterError):
            traj.append(FieldState(t=0.0, rho=1 + z, m=z))


def old_write_csv(path, header, rows):
    """The per-row writer that ``write_csv`` replaced."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class TestWriteCsv:
    def test_bytes_match_per_row_writer(self, tmp_path):
        header = ["value", "count", "flag"]
        rows = [
            [0.1, 3, True],
            [np.float64(1.0) / 3.0, -7, False],
            [-0.0, 0, np.float64(5e-324)],
            [math.inf, 2**60, np.float64(-math.inf)],
            [math.nan, np.float64(math.nan), -1e-300],
            [np.float64(123456789.123456789), 1e300, np.int64(-3)],
        ]
        for table in (rows, []):
            new = write_csv(str(tmp_path / "sub" / "new.csv"), header, iter(table))
            old_write_csv(str(tmp_path / "old.csv"), header, table)
            assert new == str(tmp_path / "sub" / "new.csv")
            assert (tmp_path / "sub" / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
