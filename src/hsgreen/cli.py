"""Command-line front end.

Subcommands map one-to-one onto the verification workflows:

    hsgreen green-eval    --config cfg.json --out dir [--point X Y T ...]
    hsgreen solve         --config cfg.json --out dir --kind nonlinear
    hsgreen verify        --config cfg.json --out dir --which decay
    hsgreen stability-map --config cfg.json --out dir

Configuration is a single JSON file with the schema documented in
DEFAULT_CONFIG; unknown keys are rejected and every run writes a manifest
echoing the fully resolved configuration, so runs are reproducible byte for
byte.  Exit codes: 0 pass, 1 verified fail, 2 config error, 3 accuracy
error, 4 inconclusive, 5 divergence.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from .core import BoundaryClass, BoundEnvelope, Grid1D, ModelParams, classify_boundary, write_csv
from .errors import (
    AccuracyError,
    ConfigurationError,
    DivergenceError,
    ParameterError,
    UsageError,
)
from .kernels import green_leading
from .solver import (
    InitialData,
    SolverConfig,
    green_column,
    make_initial_data,
    solve_linear,
    solve_nonlinear,
    write_trajectory,
)
from .spectral import find_boundary_pole
from .transforms import QuadratureConfig, invert_laplace_green
from . import verify as vf

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_ACCURACY = 3
EXIT_INCONCLUSIVE = 4
EXIT_DIVERGENCE = 5

DEFAULT_CONFIG: dict = {
    "model": {"c": 1.0, "nu": 1.0, "a1": -1.0, "a2": 1.0},
    "solver": {
        "L": 400.0,
        "nx": 4000,
        "t_end": 50.0,
        "cfl_hyp": 0.45,
        "cfl_par": 0.45,
        "sponge_strength": 1.0,
        "pressure_gamma": 2.0,
        "n_snapshots": 11,
        "initial": {
            "kind": "algebraic",
            "amplitude": 0.01,
            "r": 1.0,
            "center": 0.0,
            "width": 0.5,
            "components": ["rho"],
        },
    },
    "transforms": {
        "n_xi": 10,
        "contour": "talbot",
        "n_nodes": 32,
        "tol": 1e-8,
    },
    "verify": {
        "x_max": 25.0,
        "n_x": 11,
        "t_min": 1.0,
        "t_max": 20.0,
        "n_t": 6,
        "envelope": {"bigC": 10.0, "eps": 0.5},
        "decay_t_min": 5.0,
        "lemma41": {"d0": 2.0, "r": 1.0, "E": 3.0, "x_max": 100.0, "n": 21},
        "lemma_nu": 2.0,
    },
}


def _merge_checked(default: dict, given: dict, path: str = "") -> dict:
    out = copy.deepcopy(default)
    for key, val in given.items():
        if key not in default:
            raise ConfigurationError(f"unknown config key {path + key!r}")
        if isinstance(default[key], dict) and isinstance(val, dict):
            out[key] = _merge_checked(default[key], val, path + key + ".")
        else:
            out[key] = val
    return out


class RunConfig:
    """Fully resolved run configuration built from a JSON file."""

    def __init__(self, raw: dict):
        self.raw = _merge_checked(DEFAULT_CONFIG, raw)
        m = self.raw["model"]
        self.model = ModelParams(c=m["c"], nu=m["nu"], a1=m["a1"], a2=m["a2"])
        s = self.raw["solver"]
        self.grid = Grid1D(L=s["L"], nx=int(s["nx"]))
        self.solver = SolverConfig(
            grid=self.grid,
            t_end=s["t_end"],
            cfl_hyp=s["cfl_hyp"],
            cfl_par=s["cfl_par"],
            sponge_strength=s["sponge_strength"],
            pressure_gamma=s["pressure_gamma"],
            n_snapshots=int(s["n_snapshots"]),
        )
        ini = s["initial"]
        self.initial = InitialData(
            kind=ini["kind"],
            amplitude=ini["amplitude"],
            r=ini["r"],
            center=ini["center"],
            width=ini["width"],
            components=tuple(ini["components"]),
        )
        q = self.raw["transforms"]
        self.quadrature = QuadratureConfig(
            n_xi=int(q["n_xi"]),
            contour=q["contour"],
            n_nodes=int(q["n_nodes"]),
            tol=q["tol"],
        )
        self.verify = self.raw["verify"]

    @classmethod
    def from_file(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls({})
        with open(path) as fh:
            return cls(json.load(fh))

    def write_manifest(self, out_dir: str, command: str, extra: dict | None = None):
        os.makedirs(out_dir, exist_ok=True)
        manifest = {"command": command, "config": self.raw}
        if extra:
            manifest.update(extra)
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return path


def _parse_grid_spec(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigurationError(f"grid spec must be lo:hi:n, got {spec!r}") from exc


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
    columns = ["x", "y", "t"]
    for tag in ("lead", "lap", "pde"):
        columns += [f"{tag}_{i}{j}" for i in (1, 2) for j in (1, 2)]
    rows = []
    pde_cache: dict[float, object] = {}
    snap_times = sorted({t for _, _, t in pts})
    for x, y, t in pts:
        lead = green_leading(x, y, t, params).smooth
        lap = invert_laplace_green(x, y, t, params, cfg.quadrature)
        if y not in pde_cache:
            pde_cache[y] = green_column(
                y, params, cfg.solver, output_times=np.array(snap_times)
            )
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
        traj = solver_fn(init, params, cfg.solver)
    except DivergenceError as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None and partial.states:
            paths = write_trajectory(partial, args.out, f"{args.kind}_partial", cfg.solver)
            print(f"divergence: {exc}; last good snapshot: {paths[-2]}", file=sys.stderr)
        else:
            print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    paths = write_trajectory(traj, args.out, args.kind, cfg.solver)
    cfg.write_manifest(args.out, "solve", {"kind": args.kind, "snapshots": len(traj.states)})
    print(f"wrote {len(paths) - 1} snapshots + manifest to {args.out}")
    return EXIT_PASS


def _verify_reports(cfg: RunConfig, which: str, out_dir: str):
    params = cfg.model
    v = cfg.verify
    env = BoundEnvelope(bigC=v["envelope"]["bigC"], eps=v["envelope"]["eps"])
    names = (
        ["pointwise", "instability", "decay", "ansatz", "lemma41", "lemma42", "lemma43"]
        if which == "all"
        else [which]
    )
    reports = []
    traj = None
    for name in names:
        if name == "pointwise":
            n_x = int(v["n_x"])
            xg = np.linspace(0.0, v["x_max"], n_x)
            yg = np.linspace(0.13, v["x_max"] - 0.1, n_x)
            tg = np.linspace(v["t_min"], v["t_max"], int(v["n_t"]))
            for alpha in (0, 1):
                reports.append(
                    vf.green_bound_report(
                        params, xg, yg, tg, alpha=alpha,
                        envelope=env,
                        cfg=cfg.quadrature, out_dir=out_dir,
                    )
                )
        elif name == "instability":
            up = params
            if up.boundary_class is not BoundaryClass.MIXED_UNSTABLE:
                up = ModelParams(c=params.c, nu=params.nu, a1=1.0, a2=1.0)
            grid = Grid1D(L=40.0, nx=800)
            scfg = SolverConfig(grid=grid, t_end=12.0, n_snapshots=25)
            reports.append(vf.instability_report(up, scfg, out_dir=out_dir))
        elif name in ("decay", "ansatz"):
            if params.boundary_class is BoundaryClass.MIXED_UNSTABLE:
                raise UsageError("decay verification needs a stable boundary class")
            if traj is None:
                init = make_initial_data(cfg.initial, cfg.grid, params)
                traj = solve_nonlinear(
                    init, params, cfg.solver,
                    output_times=np.unique(np.concatenate([
                        np.linspace(0.0, min(5.0, cfg.solver.t_end / 2.0), 6),
                        np.geomspace(min(5.0, cfg.solver.t_end / 2.0),
                                     cfg.solver.t_end, 25),
                    ])),
                )
            if name == "decay":
                reports.append(
                    vf.decay_report(traj, params, t_min=v["decay_t_min"], out_dir=out_dir)
                )
            else:
                reports.append(vf.ansatz_report(traj, params, out_dir=out_dir))
        elif name == "lemma41":
            l4 = v["lemma41"]
            # One grid serves as both the x and the t nodes: x_max is also
            # the largest time and n also the number of times.
            nodes = np.linspace(0.0, l4["x_max"], int(l4["n"]))
            reports.append(
                vf.lemma_initial_data_check(
                    l4["d0"], l4["r"], l4["E"], nodes, nodes, out_dir=out_dir
                )
            )
        elif name == "lemma42":
            for alpha in (2.0, 3.0):
                reports.append(
                    vf.lemma_wave_interaction_check(
                        "same-speed", alpha, 0.0, 0.5, v["lemma_nu"], params.c,
                        out_dir=out_dir,
                    )
                )
        elif name == "lemma43":
            for alpha in (2.0, 3.0):
                reports.append(
                    vf.lemma_wave_interaction_check(
                        "cross-speed", alpha, 0.0, 0.5, v["lemma_nu"], params.c,
                        -params.c, out_dir=out_dir,
                    )
                )
        else:
            raise ConfigurationError(f"unknown verification target {name!r}")
    return reports


def cmd_verify(cfg: RunConfig, args) -> int:
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    reports = _verify_reports(cfg, args.which, out_dir)
    any_inconclusive = False
    all_pass = True
    for rep in reports:
        rep.artifacts.append(rep.to_json(os.path.join(out_dir, f"{rep.name}.json")))
        line = f"{rep.name}: {rep.status}"
        if rep.sup_ratio is not None:
            line += f" (sup ratio {rep.sup_ratio:.4g})"
        if rep.fitted:
            line += f" {rep.fitted}"
        print(line)
        any_inconclusive |= rep.status == "inconclusive"
        all_pass &= rep.status == "pass"
    cfg.write_manifest(out_dir, "verify", {"which": args.which,
                                           "reports": [r.name for r in reports]})
    if any_inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_stability_map(cfg: RunConfig, args) -> int:
    a1g = _parse_grid_spec(args.a1_grid)
    a2g = _parse_grid_spec(args.a2_grid)
    rows = []
    for a1 in a1g:
        for a2 in a2g:
            if a1 == 0.0 and a2 == 0.0:
                rows.append((a1, a2, "invalid", None))
                continue
            params = ModelParams(c=cfg.model.c, nu=cfg.model.nu, a1=a1, a2=a2)
            rows.append((a1, a2, classify_boundary(a1, a2).value, find_boundary_pole(params)))
    header = ("a1", "a2", "class", "pole")
    path = write_csv(os.path.join(args.out, "stability_map.csv"), header, rows)
    cfg.write_manifest(args.out, "stability-map", {"table": "stability_map.csv"})
    print(f"wrote {path}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hsgreen", description=__doc__)
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
        choices=("pointwise", "instability", "decay", "ansatz",
                 "lemma41", "lemma42", "lemma43", "all"),
        default="all",
    )
    vcmd.set_defaults(fn=cmd_verify)

    m = sub.add_parser("stability-map", help="classify (a1, a2) cells and poles")
    m.add_argument("--config", default=None)
    m.add_argument("--out", required=True)
    m.add_argument("--a1-grid", default="-2:2:9")
    m.add_argument("--a2-grid", default="-2:2:9")
    m.set_defaults(fn=cmd_stability_map)
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
    except (ConfigurationError, ParameterError, UsageError) as exc:
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
