"""Command-line front end.

Subcommands map one-to-one onto the verification workflows:

    hsgreen green-eval --config cfg.json --out dir [--point X Y T ...]
    hsgreen solve      --config cfg.json --out dir --kind nonlinear
    hsgreen verify     --config cfg.json --out dir --which decay

Configuration is a single JSON file with the schema of DEFAULT_CONFIG,
whose dataclass sections are the dataclasses' own field defaults.  Unknown
keys and values of the wrong kind are rejected, and every run writes a
manifest echoing the fully resolved configuration, so runs are reproducible
byte for byte.  Exit codes: 0 pass, 1 verified fail, 2 config error, 3 accuracy
error, 4 inconclusive, 5 divergence.

This module writes every file a run leaves.  The solvers return trajectories
and the harnesses return reports that hold their tables
(``VerificationReport.tables``); ``verify`` writes each report's tables and
then its JSON as soon as its target returns.  ``solve`` writes one CSV per
snapshot and one ``manifest.json``, also when the run diverges.

``verify`` reads no config section of its own: the pointwise window (x in [0, 25],
y in [0.13, 24.9], t in [1, 20]) and the lemma 4.1 nodes are the constants
POINTWISE_GRIDS and LEMMA41_NODES, and the harnesses take the rest from ``model``,
``transforms`` and the amplitude and r of ``solver.initial``.
``verify --which instability`` starts from the exact unstable mode e^{-(a2/a1) x}, on a
grid and run derived from a2/a1 and the pole s*, not from ``solver``.  A stable model
runs (a1, a2) = (1, 1), and the report's ``details.substituted_for`` names its pair.
``verify --which decay`` runs ``model.unit_model`` on DECAY_SOLVER, whose domain is sized
from its horizon and the report's window, and DECAY_TIMES from the algebraic data of
``solver.initial``'s amplitude and r, and judges its decay rates
and ansatz norm M(T) in ``decay.json``, ``decay_norms.csv`` and ``ansatz_M.csv``.  It
refuses a Neumann wall, which holds the wall density at its initial value.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .core import BoundaryClass, Grid1D, ModelParams, write_csv
from .errors import AccuracyError, ConfigurationError, DivergenceError, ParameterError, UsageError
from .kernels import green_leading
from .solver import (
    InitialData,
    SolverConfig,
    green_column,
    make_initial_data,
    pulse_width,
    solve_linear,
    solve_nonlinear,
)
from .spectral import refuse_unstable
from .transforms import QuadratureConfig, invert_laplace_green
from . import verify as vf

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_ACCURACY = 3
EXIT_INCONCLUSIVE = 4
EXIT_DIVERGENCE = 5


def _field_defaults(cls) -> dict:
    """The field defaults of a dataclass as a config section."""
    return {
        f.name: f.default
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING
    }


# The sections that build a dataclass take its field defaults; the literals are
# the values only the CLI uses.  A tuple default is a JSON list.
DEFAULT_CONFIG: dict = {
    "model": _field_defaults(ModelParams),
    "solver": {
        "L": 400.0,
        "nx": 4000,
        "t_end": 50.0,
        **_field_defaults(SolverConfig),
        "initial": _field_defaults(InitialData),
    },
    "transforms": _field_defaults(QuadratureConfig),
}

_KINDS = {dict: "an object", tuple: "a list", str: "a string", int: "an integer",
          float: "a number"}

# Integer keys count nodes, cells or times: 1 to a float array's largest length, less 1.
_MAX_COUNT = np.iinfo(np.intp).max // 8 - 1


class _LongInt(str):
    """The digits of a JSON integer longer than ``int`` converts."""


def _json_int(digits: str):
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


def _merge_checked(default, given, path: str = ""):
    """``given`` merged over ``default`` after checking it has the kind of
    ``default``: an object (no unknown keys), a list (items of the kind of the
    default's first item, stored as a tuple), a string, an integral number for
    an int default (stored as int) or a finite real number for a float default
    (stored as float).  A bool is not a number, and an int is a count in
    [1, _MAX_COUNT].
    Raises ConfigurationError naming the key path."""
    kind = type(default)
    number = isinstance(given, (int, float)) and not isinstance(given, bool)
    where = f"config key {path!r}" if path else "the config"
    if isinstance(given, _LongInt):
        raise ConfigurationError(f"{where} is an integer of {len(given.lstrip('-'))} digits")
    if kind is dict and isinstance(given, dict):
        out = copy.deepcopy(default)
        for key, val in given.items():
            key_path = f"{path}.{key}" if path else key
            if key not in default:
                raise ConfigurationError(f"unknown config key {key_path!r}")
            out[key] = _merge_checked(default[key], val, key_path)
        return out
    if kind is tuple and isinstance(given, list):
        return tuple(_merge_checked(default[0], v, f"{path}[{i}]") for i, v in enumerate(given))
    if kind is str and isinstance(given, str):
        return given
    if kind is float and number:
        try:
            value = float(given)
        except OverflowError:
            raise ConfigurationError(f"{where} is an integer too large for a float") from None
        if not math.isfinite(value):
            raise ConfigurationError(f"{where} must be finite, got {json.dumps(given)}")
        return value
    if kind is int and number and (isinstance(given, int) or given.is_integer()):
        if not 1 <= given <= _MAX_COUNT:
            raise ConfigurationError(f"{where} is a count and must lie in [1, {_MAX_COUNT}], "
                                     f"got {given}")
        return int(given)
    raise ConfigurationError(f"{where} must be {_KINDS[kind]}, got {json.dumps(given)}")


class RunConfig:
    """Fully resolved run configuration built from a JSON file."""

    def __init__(self, raw):
        self.raw = _merge_checked(DEFAULT_CONFIG, raw)
        self.model = ModelParams(**self.raw["model"])
        solver = dict(self.raw["solver"])
        self.initial = InitialData(**solver.pop("initial"))
        self.grid = Grid1D(L=solver.pop("L"), nx=solver.pop("nx"))
        self.solver = SolverConfig(grid=self.grid, **solver)
        self.quadrature = QuadratureConfig(**self.raw["transforms"])

    @classmethod
    def from_file(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls({})
        with open(path) as fh:
            return cls(json.load(fh, parse_int=_json_int))

    def write_manifest(self, out_dir: str, command: str, extra: dict):
        return _write_json(os.path.join(out_dir, "manifest.json"),
                           {"command": command, "config": self.raw, **extra}, sort_keys=True)


def _write_json(path: str, record: dict, **dump_kw) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, **dump_kw)
    return path


def _parse_grid_spec(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        if not 1 <= int(n) <= _MAX_COUNT:
            raise ValueError(n)
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigurationError(f"grid spec must be lo:hi:n with 1 <= n <= {_MAX_COUNT}, "
                                 f"got {spec!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_green_eval(cfg: RunConfig, args) -> int:
    params = cfg.model
    if args.point:
        pts = [(float(x), float(y), float(t)) for x, y, t in args.point]
    else:
        xs = _parse_grid_spec(args.x_grid)
        ys = _parse_grid_spec(args.y_grid)
        tg = _parse_grid_spec(args.t_grid)
        pts = [(float(x), float(y), float(t)) for t in tg for y in ys for x in xs]
    clash = next(((x, y) for x, y, _ in pts if x == y), None)
    if clash is not None:
        raise ConfigurationError(
            f"green-eval needs x != y at every point; first offending (x, y) = "
            f"({clash[0]:g}, {clash[1]:g})"
        )
    refuse_unstable(params)  # a model fault is named before a placement fault
    L, t_end = cfg.grid.L, cfg.solver.t_end
    for x, y, t in pts:
        pulse_width(y, cfg.solver)
        if not 0.0 <= x <= L:
            raise ConfigurationError(f"x={x} lies outside the solver grid [0, L={L:g}]")
        if not 0.0 < t <= t_end:
            raise ConfigurationError(f"t={t:g} lies outside the solver run (0, t_end={t_end:g}]")
    columns = ["x", "y", "t"]
    for tag in ("lead", "lap", "pde"):
        columns += [f"{tag}_{i}{j}" for i in (1, 2) for j in (1, 2)]
    rows = []
    pde_cache: dict[float, object] = {}
    snap_times = np.array(sorted({t for _, _, t in pts}))
    for x, y, t in pts:
        lead = green_leading(x, y, t, params).smooth
        lap = invert_laplace_green(x, y, t, params, cfg.quadrature)
        if y not in pde_cache:
            pde_cache[y] = green_column(y, params, cfg.solver, output_times=snap_times)
        pde = pde_cache[y].matrix_at(x, t)
        rows.append([x, y, t] + [m[i, j] for m in (lead, lap, pde) for i in range(2) for j in range(2)])
    path = write_csv(os.path.join(args.out, "greens.csv"), columns, rows)
    cfg.write_manifest(args.out, "green-eval", {"points": len(rows), "table": "greens.csv"})
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_PASS


def cmd_solve(cfg: RunConfig, args) -> int:
    params = cfg.model
    init = make_initial_data(cfg.initial, cfg.grid, params)
    solver_fn = solve_nonlinear if args.kind == "nonlinear" else solve_linear
    try:
        traj, prefix, diverged = solver_fn(init, params, cfg.solver), args.kind, None
    except DivergenceError as exc:
        if exc.partial is None:
            raise
        traj, prefix, diverged = exc.partial, f"{args.kind}_partial", exc
    names = [f"{prefix}_{k:04d}.csv" for k in range(len(traj.states))]
    for name, st in zip(names, traj.states):
        write_csv(os.path.join(args.out, name), ("x", "rho", "m"), zip(traj.grid.x, st.rho, st.m))
    extra = {"kind": args.kind, "times": [st.t for st in traj.states],
             "boundary_residual": traj.boundary_residual, "snapshots": names}
    if diverged is not None:
        extra["diverged_at"] = diverged.t
    cfg.write_manifest(args.out, "solve", extra)
    if diverged is not None:
        print(f"divergence: {diverged}; last good snapshot: "
              f"{os.path.join(args.out, names[-1])}", file=sys.stderr)
        return EXIT_DIVERGENCE
    print(f"wrote {len(names)} snapshots + manifest to {args.out}")
    return EXIT_PASS


# The pointwise window: the coarse x, y and t nodes.
POINTWISE_GRIDS = (np.linspace(0.0, 25.0, 11), np.linspace(0.13, 24.9, 11),
                   np.linspace(1.0, 20.0, 6))


def _verify_pointwise(cfg: RunConfig):
    return vf.green_bound_reports(cfg.model, *POINTWISE_GRIDS, (0, 1), cfg=cfg.quadrature)


def _verify_instability(cfg: RunConfig):
    model = cfg.model
    if model.boundary_class is BoundaryClass.MIXED_UNSTABLE:
        return [vf.instability_report(model)]
    rep = vf.instability_report(dataclasses.replace(model, a1=1.0, a2=1.0))
    rep.details["substituted_for"] = {"a1": model.a1, "a2": model.a2}
    return [rep]


# Criterion 8's horizon, grid and output times, in the unit model's units (c = nu = 1).
# The diffusion waves leave the wall at speed c with heat-kernel width sqrt(2 nu t), so
# the report's window, the first vf.DECAY_WINDOW of [0, L], need only reach the ridge
# plus 8 widths at t_end (x = 130 at t_end = 50); the grid is the fewest cells of
# dx = 0.1 that cover it.
_DECAY_T_END, _DECAY_DX = 50.0, 0.1
_DECAY_NX = math.ceil((_DECAY_T_END + 8.0 * math.sqrt(2.0 * _DECAY_T_END))
                      / vf.DECAY_WINDOW / _DECAY_DX)
DECAY_SOLVER = SolverConfig(grid=Grid1D(L=_DECAY_NX * _DECAY_DX, nx=_DECAY_NX),
                            t_end=_DECAY_T_END)
DECAY_TIMES = np.concatenate([np.linspace(0.0, 5.0, 6)[:-1],
                              np.geomspace(5.0, _DECAY_T_END, 25)])


def _verify_decay(cfg: RunConfig):
    # the configured model's pole s*, not the unit model's s* nu/c^2
    refuse_unstable(cfg.model)
    if cfg.model.boundary_class is BoundaryClass.NEUMANN:
        raise UsageError(
            "decay verification refuses a Neumann wall: a2 = 0 gives m_x(0) = 0, so "
            "rho_t(0) = 0 and the wall density stays at rho(0) - 1 = "
            f"{cfg.initial.amplitude:g}; the run would measure a state the wall drives")
    data = InitialData(amplitude=cfg.initial.amplitude, r=cfg.initial.r)
    unit = cfg.model.unit_model
    traj = solve_nonlinear(make_initial_data(data, DECAY_SOLVER.grid, unit), unit,
                           DECAY_SOLVER, output_times=DECAY_TIMES)
    return [vf.decay_report(traj, unit)]


# The lemma 4.1 nodes, both the x and the t nodes of its check.
LEMMA41_NODES = np.linspace(0.0, 100.0, 21)


def _verify_lemma41(cfg: RunConfig):
    # The lemma convolves the heat kernel of width d0 = 2 nu with the algebraic data
    # (1 + y^2)^{-r}; any E > d0 meets its hypothesis, and 1.5 d0 is 3 at nu = 1.
    d0 = 2.0 * cfg.model.nu
    return [vf.lemma_initial_data_check(d0, cfg.initial.r, 1.5 * d0, LEMMA41_NODES,
                                        LEMMA41_NODES)]


def _verify_wave_interaction(cfg: RunConfig, kind: str, *speeds: float):
    return [
        vf.lemma_wave_interaction_check(kind, alpha, 0.5, 2.0 * cfg.model.nu, *speeds)
        for alpha in (2.0, 3.0)
    ]


# ``verify --which`` targets in the order ``all`` runs them.
VERIFY_TARGETS = {
    "pointwise": _verify_pointwise,
    "instability": _verify_instability,
    "decay": _verify_decay,
    "lemma41": _verify_lemma41,
    "lemma42": lambda cfg: _verify_wave_interaction(cfg, "same-speed", cfg.model.c),
    "lemma43": lambda cfg: _verify_wave_interaction(
        cfg, "cross-speed", cfg.model.c, -cfg.model.c),
}


def _write_report(rep: vf.VerificationReport, out_dir: str) -> None:
    """Write the report's tables, then ``<name>.json``, whose ``artifacts``
    list the tables; the JSON path is appended to ``artifacts`` last."""
    for name, (header, rows) in rep.tables.items():
        rep.artifacts.append(write_csv(os.path.join(out_dir, name), header, rows))
    # asdict deep-copies every value, so the tables are left out before it runs
    record = dataclasses.asdict(dataclasses.replace(rep, tables={}))
    del record["tables"]
    rep.artifacts.append(_write_json(os.path.join(out_dir, f"{rep.name}.json"), record,
                                     default=float))


def cmd_verify(cfg: RunConfig, args) -> int:
    names = list(VERIFY_TARGETS) if args.which == "all" else [args.which]
    reports = []
    # Write each report as its target finishes, so a later target that raises keeps them.
    try:
        for name in names:
            for rep in VERIFY_TARGETS[name](cfg):
                _write_report(rep, args.out)
                line = f"{rep.name}: {rep.status}"
                if rep.sup_ratio is not None:
                    line += f" (sup ratio {rep.sup_ratio:.4g})"
                if rep.fitted:
                    line += f" {rep.fitted}"
                print(line)
                reports.append(rep)
    finally:
        cfg.write_manifest(args.out, "verify", {"which": args.which,
                                                "reports": [r.name for r in reports]})
    if any(r.status == "inconclusive" for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hsgreen", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("green-eval", help="tabulate Green's-function evaluators")
    g.add_argument("--config", default=None)
    g.add_argument("--out", required=True)
    g.add_argument("--point", nargs=3, action="append", metavar=("X", "Y", "T"))
    g.add_argument("--x-grid", default="1:20:5")
    g.add_argument("--y-grid", default="4.5:18:4")
    g.add_argument("--t-grid", default="2:10:3")
    g.set_defaults(fn=cmd_green_eval)

    s = sub.add_parser("solve", help="run a solver and write snapshots")
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--kind", choices=("linear", "nonlinear"), default="nonlinear")
    s.set_defaults(fn=cmd_solve)

    vcmd = sub.add_parser("verify", help="run verification harnesses")
    vcmd.add_argument("--config", default=None)
    vcmd.add_argument("--out", required=True)
    vcmd.add_argument(
        "--which",
        choices=(*VERIFY_TARGETS, "all"),
        default="all",
    )
    vcmd.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
    except (ConfigurationError, ParameterError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(cfg, args)
    except (ConfigurationError, ParameterError, UsageError, MemoryError) as exc:
        # a count within _MAX_COUNT can still ask for more memory than the host has
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
