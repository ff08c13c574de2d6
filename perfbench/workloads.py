"""The three workloads, their operations and the correctness gates.

An operation is one evaluator call on one (parameter set, t) batch, one
harness report, or one solve.  It fails on a raised AccuracyError,
DivergenceError or ParameterError, a non-zero CLI exit, a report status
other than "pass", or a missed tolerance.  The tolerances are the ones the
test suite pins; a check that needs the output of a failed operation fails
with it.

Every call into hsgreen goes through a module attribute (``tr.X``,
``cli.main``) so that a traced pass sees the wrappers of ``tracing``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import hsgreen.cli as cli
import hsgreen.kernels as K
import hsgreen.solver as so
import hsgreen.transforms as tr
from hsgreen.core import Grid1D, KernelValue, ModelParams
from hsgreen.errors import AccuracyError, DivergenceError, ParameterError

from . import inputs as gen

TYPED_ERRORS = (AccuracyError, DivergenceError, ParameterError)

# Tolerances pinned by the test suite.
DN_TOL = 1e-6  # Dirichlet/Neumann Talbot vs Fourier direct +- image (criterion 4)
MIRROR_TOL = 2e-5  # mirror vs Talbot - Fourier (test_transforms.py)
MIRROR_CFG = tr.QuadratureConfig(tol=1e-6)  # the mirror tests' quadrature
COLUMN_TOL = 0.01  # narrow-pulse columns vs Talbot, pairwise (criterion 5)
COLUMN_FLOOR = 0.05  # criterion 5 compares where |G| >= 5% of its sup
SLOPE_WINDOW = 0.1  # decay slopes (criterion 8)
PLATEAU = 0.05  # decay plateaus (criterion 8)

DN_SIGNS = {"dirichlet": 1.0, "neumann": -1.0}  # sign of the image term

#: Operations that fail at the parent commit: the Talbot contour misses its
#: tolerance at the scaled parameter set for t = 5 and t = 10, and the mirror
#: check there needs that Talbot value as its reference.
KNOWN_DEFECTS = frozenset({
    "talbot/scaled/t=5",
    "talbot/scaled/t=10",
    "mirror/scaled/t=5",
})


@dataclass
class Ledger:
    """Outcome of every operation, plus the worst error each gate measured."""

    ops: list[tuple[str, str | None]] = field(default_factory=list)
    achieved: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, reason: str | None) -> bool:
        self.ops.append((name, reason))
        return reason is None

    def gate(self, name: str, layers: tuple[str, ...], err: float, tol: float) -> bool:
        """Record ``name`` as failed unless err <= tol; note err per layer."""
        if np.isfinite(err):
            for layer in layers:
                self.achieved[layer] = max(self.achieved.get(layer, 0.0), float(err))
        ok = bool(err <= tol)
        return self.record(name, None if ok else f"error {err:.3e} exceeds {tol:g}")

    def check(self, name, why, missing, layers, error, tol) -> bool:
        """Record ``name``: failed with its own reason ``why``, else failed
        with the reference operation ``missing``, else gated on error()."""
        if why is None and missing is not None:
            why = f"reference {missing} failed"
        if why is not None:
            return self.record(name, why)
        return self.gate(name, layers, error(), tol)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(n, r) for n, r in self.ops if r is not None]

    @property
    def unexpected(self) -> list[tuple[str, str]]:
        return [(n, r) for n, r in self.failures if n not in KNOWN_DEFECTS]


def attempt(fn, *args, **kwargs):
    """(value, None), or (None, reason) on a typed error or non-finite output."""
    try:
        value = fn(*args, **kwargs)
    except TYPED_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"
    arr = value.smooth if isinstance(value, KernelValue) else value
    if isinstance(arr, np.ndarray) and not np.all(np.isfinite(arr)):
        return None, "non-finite output"
    return value, None


# ---------------------------------------------------------------------------
# Gates (pure functions of oracle outputs)
# ---------------------------------------------------------------------------


def dn_error(talbot: np.ndarray, direct: np.ndarray, image: np.ndarray, sign: float) -> float:
    """Sup-relative difference of Talbot from direct + sign * image diag(1, -1)."""
    built = direct + sign * image * np.array([1.0, -1.0])
    return float(np.abs(talbot - built).max() / np.abs(built).max())


def mirror_error(mirror: np.ndarray, talbot: np.ndarray, direct: np.ndarray) -> float:
    """Largest absolute difference of the mirror kernel from Talbot - Fourier."""
    return float(np.abs(mirror - (talbot - direct)).max())


def column_error(lap: np.ndarray, pde: np.ndarray) -> float:
    """Worst pairwise relative difference where |lap| >= 5% of its sup."""
    size = np.abs(lap).max(axis=(1, 2))
    keep = size >= COLUMN_FLOOR * size.max()
    return float((np.abs(lap - pde).max(axis=(1, 2))[keep] / size[keep]).max())


def decay_reason(code: int, report: dict | None) -> str | None:
    if code != 0:
        return f"CLI exit {code}"
    if report is None:
        return "no decay report"
    if report["status"] != "pass":
        return f"status {report['status']}"
    for key, fit in report["fitted"].items():
        if abs(fit["slope"] - fit["target"]) > SLOPE_WINDOW:
            return f"{key} slope {fit['slope']:.3f} outside {fit['target']}+-{SLOPE_WINDOW}"
    for key in ("weighted_sup_growth", "M_growth"):
        if report["details"][key] > PLATEAU:
            return f"{key} {report['details'][key]:.3f} > {PLATEAU}"
    return None


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_report(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def _params(values) -> ModelParams:
    c, nu, a1, a2 = values
    return ModelParams(c=c, nu=nu, a1=a1, a2=a2)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Oracles:
    """Kernels and transform oracles at scattered points, plus the pointwise
    harness; no solver work."""

    def __init__(self, inp: dict, workdir: str):
        self.x = np.array(inp["x"])
        self.y = np.array(inp["y"])
        self.t = inp["t"]
        self.params = {k: _params(v) for k, v in inp["param_sets"].items()}
        self.mirror_t = inp["mirror_t"]
        self.workdir = workdir

    def run_pass(self, ledger: Ledger, tag: str) -> None:
        x, y, n = self.x, self.y, self.x.size
        for name, p in self.params.items():
            for t in self.t:
                key = f"{name}/t={t:g}"
                _, why = attempt(
                    lambda: np.stack([K.green_leading(a, b, t, p).smooth
                                      for a, b in zip(x.tolist(), y.tolist())])
                )
                ledger.record(f"leading/{key}", why)
                lap, why = attempt(tr.invert_laplace_green, x, y, t, p)
                ledger.record(f"talbot/{key}", why)
                talbot_failed = None if why is None else f"talbot/{key}"
                four, why = attempt(tr.invert_fourier_fundamental,
                                    np.concatenate([x - y, x + y]), t, p)
                if name in DN_SIGNS:
                    ledger.check(
                        f"fourier/{key}", why, talbot_failed,
                        ("transforms.talbot", "transforms.fourier"),
                        lambda: dn_error(lap, four.smooth[:n], four.smooth[n:], DN_SIGNS[name]),
                        DN_TOL,
                    )
                else:
                    ledger.record(f"fourier/{key}", why)
                if name in gen.MIXED_SETS and t == self.mirror_t:
                    mir, mir_why = attempt(tr.mirror_by_quadrature, x + y, t, p, MIRROR_CFG)
                    ledger.check(
                        f"mirror/{key}", mir_why,
                        talbot_failed or (None if why is None else f"fourier/{key}"),
                        ("transforms.mirror",),
                        lambda: mirror_error(mir, lap, four.smooth[:n]),
                        MIRROR_TOL,
                    )
        self._pointwise(ledger, tag)

    def _pointwise(self, ledger: Ledger, tag: str) -> None:
        out = os.path.join(self.workdir, f"pointwise-{tag}")
        code = _run_cli(["verify", "--which", "pointwise", "--out", out])
        for alpha in (0, 1):
            rep = _read_report(os.path.join(out, f"green_bound_alpha{alpha}.json"))
            if code != 0:
                why = f"CLI exit {code}"
            elif rep is None or rep["status"] != "pass":
                why = f"status {None if rep is None else rep['status']}"
            else:
                why = None
            ledger.record(f"pointwise/alpha={alpha}", why)


class Columns:
    """Narrow-pulse Green's-function columns against the Talbot oracle."""

    def __init__(self, inp: dict, workdir: str):
        self.y0 = inp["y0"]
        self.x = np.array(inp["x"])
        self.t = inp["t"]
        self.params = _params(inp["params"])
        grid = Grid1D(L=inp["grid"]["L"], nx=inp["grid"]["nx"])
        self.cfg = so.SolverConfig(grid=grid, t_end=max(self.t))
        self.width = inp["width"]

    def run_pass(self, ledger: Ledger, tag: str) -> None:
        p, xs = self.params, self.x
        cols, why = attempt(
            lambda: so.green_column(self.y0, p, self.cfg, width=self.width,
                                    output_times=np.array([0.0] + list(self.t)))
        )
        laps, talbot_failed = {}, None
        for t in self.t:
            laps[t], lap_why = attempt(tr.invert_laplace_green, xs, np.full_like(xs, self.y0), t, p)
            ledger.record(f"talbot/mixed/t={t:g}", lap_why)
            if lap_why is not None:
                talbot_failed = f"talbot/mixed/t={t:g}"

        def worst() -> float:
            return max(
                column_error(lap, np.stack([cols.matrix_at(float(x), t) for x in xs]))
                for t, lap in laps.items()
            )

        ledger.check("column", why, talbot_failed, ("solver",), worst, COLUMN_TOL)


class Decay:
    """``hsgreen verify --which decay`` in-process on a generated config."""

    def __init__(self, inp: dict, workdir: str):
        self.workdir = workdir
        self.config = os.path.join(workdir, "decay.json")
        with open(self.config, "w") as fh:
            json.dump(inp["config"], fh, sort_keys=True)

    def run_pass(self, ledger: Ledger, tag: str) -> None:
        out = os.path.join(self.workdir, f"decay-{tag}")
        code = _run_cli(["verify", "--which", "decay", "--config", self.config, "--out", out])
        report = _read_report(os.path.join(out, "decay.json"))
        ledger.record("decay", decay_reason(code, report))


WORKLOADS = {"oracles": Oracles, "columns": Columns, "decay": Decay}
