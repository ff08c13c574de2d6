import json
import math
from pathlib import Path

import numpy as np
import pytest

from hsgreen import cli


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL_SOLVER = {
    "solver": {
        "L": 60.0,
        "nx": 600,
        "t_end": 2.0,
        "n_snapshots": 3,
        "initial": {"kind": "gaussian", "amplitude": 0.01, "center": 25.0, "width": 1.0},
    }
}

# deleted config keys, each with a value it used to accept
REMOVED_KEYS = {
    "solver.scheme": "central-2",
    "solver.sponge_fraction": 0.1,
    "solver.kappa4": 0.25,
    "solver.pressure_scale": 0.5,
    "transforms.xi_max": 8.0,
    "transforms.abscissa": 1.0,
    "verify.envelope.D": 2.0,
    "output_dir": "out",
    "transforms.contour": "talbot",
}

# every leaf of the resolved default config, sorted by key path
DEFAULT_LEAVES = [
    ("model.a1", -1.0), ("model.a2", 1.0), ("model.c", 1.0), ("model.nu", 1.0),
    ("solver.L", 400.0), ("solver.cfl_hyp", 0.45), ("solver.cfl_par", 0.45),
    ("solver.initial.amplitude", 0.01), ("solver.initial.center", 0.0),
    ("solver.initial.components", ("rho",)), ("solver.initial.kind", "algebraic"),
    ("solver.initial.r", 1.0), ("solver.initial.width", 0.5),
    ("solver.n_snapshots", 11), ("solver.nx", 4000), ("solver.pressure_gamma", 2.0),
    ("solver.sponge_strength", 1.0), ("solver.t_end", 50.0),
    ("transforms.n_nodes", 32), ("transforms.n_xi", 10), ("transforms.tol", 1e-8),
    ("verify.decay_t_min", 5.0), ("verify.envelope.bigC", 10.0), ("verify.envelope.eps", 0.5),
    ("verify.lemma41.E", 3.0), ("verify.lemma41.d0", 2.0), ("verify.lemma41.n", 21),
    ("verify.lemma41.r", 1.0), ("verify.lemma41.x_max", 100.0), ("verify.lemma_nu", 2.0),
    ("verify.n_t", 6), ("verify.n_x", 11), ("verify.t_max", 20.0), ("verify.t_min", 1.0),
    ("verify.x_max", 25.0),
]

# configs whose values have the wrong kind, with the key path the error names
BAD_KINDS = {
    "string-for-float": ({"model": {"c": "fast"}}, "model.c"),
    "null-section": ({"model": None}, "model"),
    "string-for-int": ({"transforms": {"n_xi": "ten"}}, "transforms.n_xi"),
    "list-at-top": ([1, 2], "the config"),
    "fractional-int": ({"solver": {"nx": 600.7}}, "solver.nx"),
    "bool-for-int": ({"solver": {"n_snapshots": True}}, "solver.n_snapshots"),
    "list-item": ({"solver": {"initial": {"components": [["m"]]}}},
                  "solver.initial.components[0]"),
}


def leaves(tree, path=""):
    for key, val in tree.items():
        key_path = f"{path}.{key}" if path else key
        if isinstance(val, dict):
            yield from leaves(val, key_path)
        else:
            yield key_path, val


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        cfgp = write_config(tmp_path, {"modell": {}})
        assert run_cli(["verify", "--config", cfgp, "--out", str(tmp_path / "o"),
                        "--which", "lemma41"]) == cli.EXIT_CONFIG

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfgp = write_config(tmp_path, {"model": {"speed": 2.0}})
        assert run_cli(["stability-map", "--config", cfgp,
                        "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_manifest_echoes_resolved_config(self, tmp_path):
        out = tmp_path / "map"
        assert run_cli(["stability-map", "--out", str(out),
                        "--a1-grid=-1:1:3", "--a2-grid=-1:1:3"]) == cli.EXIT_PASS
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["command"] == "stability-map"
        assert manifest["config"]["model"]["c"] == 1.0
        assert "verify" in manifest["config"]

    def test_default_leaves_pinned(self):
        got = sorted(leaves(cli.RunConfig({}).raw))
        assert got == DEFAULT_LEAVES
        assert [type(v) for _, v in got] == [type(v) for _, v in DEFAULT_LEAVES]

    @pytest.mark.parametrize("payload, key_path", list(BAD_KINDS.values()), ids=list(BAD_KINDS))
    def test_wrong_kind_is_config_error(self, tmp_path, capsys, payload, key_path):
        cfgp = write_config(tmp_path, payload)
        assert run_cli(["stability-map", "--config", cfgp,
                        "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert key_path in capsys.readouterr().err

    def test_integral_float_runs_as_int(self, tmp_path):
        # the manifest echoes the cell count that ran, not the float given
        cfgp = write_config(tmp_path, {"solver": {"nx": 4000.0}})
        out = tmp_path / "map"
        assert run_cli(["stability-map", "--config", cfgp, "--out", str(out),
                        "--a1-grid=-1:1:3", "--a2-grid=-1:1:3"]) == cli.EXIT_PASS
        assert '"nx": 4000,' in (out / "manifest.json").read_text()
        assert type(cli.RunConfig({"solver": {"nx": 4000.0}}).grid.nx) is int

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_snapshots_is_config_error(self, tmp_path, n):
        cfgp = write_config(tmp_path, {"solver": {**SMALL_SOLVER["solver"], "n_snapshots": n}})
        out = tmp_path / "s"
        assert run_cli(["solve", "--config", cfgp, "--out", str(out),
                        "--kind", "linear"]) == cli.EXIT_CONFIG
        assert not out.exists()


class TestStabilityMap:
    def test_classes_and_poles(self, tmp_path):
        out = tmp_path / "map"
        assert run_cli(["stability-map", "--out", str(out),
                        "--a1-grid=-1:1:3", "--a2-grid=-1:1:3"]) == cli.EXIT_PASS
        rows = open(out / "stability_map.csv").read().strip().splitlines()
        assert rows[0] == "a1,a2,class,pole"
        table = {tuple(r.split(",")[:2]): r.split(",")[2:] for r in rows[1:]}
        assert table[("0", "1")][0] == "dirichlet"
        assert table[("1", "0")][0] == "neumann"
        assert table[("-1", "1")] == ["mixed_stable", ""]
        cls, pole = table[("1", "1")]
        assert cls == "mixed_unstable"
        assert float(pole) == pytest.approx(1.618033988749895)


class TestGreenEval:
    def test_single_point_column_contract(self, tmp_path):
        cfgp = write_config(tmp_path, {"solver": {"L": 60.0, "nx": 900, "t_end": 4.0,
                                                  "n_snapshots": 5}})
        out = tmp_path / "ge"
        assert run_cli(["green-eval", "--config", cfgp, "--out", str(out),
                        "--point", "5", "3", "4"]) == cli.EXIT_PASS
        lines = open(out / "greens.csv").read().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["x", "y", "t"]
        assert len(header) == 15  # 3 keys + 3 evaluators x 4 entries
        values = lines[1].split(",")
        assert len(values) == 15
        # the two numerical oracles agree to a few percent at this point
        lap = np.array([float(v) for v in values[7:11]])
        pde = np.array([float(v) for v in values[11:15]])
        assert np.abs(lap - pde).max() <= 0.05 * np.abs(lap).max()

    def test_readme_example_runs(self, tmp_path):
        # every documented green-eval invocation succeeds on the default
        # config and writes one row per point
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [ln for ln in readme.read_text().splitlines()
                 if ln.startswith("hsgreen green-eval")]
        assert len(lines) >= 2
        for k, line in enumerate(lines):
            argv = line.split("#")[0].split()[1:]
            out = tmp_path / f"ge{k}"
            argv[argv.index("--out") + 1] = str(out)
            assert run_cli(argv) == cli.EXIT_PASS
            args = cli.build_parser().parse_args(argv)
            n_points = len(args.point) if args.point else math.prod(
                len(cli._parse_grid_spec(g)) for g in (args.x_grid, args.y_grid, args.t_grid))
            rows = open(out / "greens.csv").read().strip().splitlines()
            assert len(rows) - 1 == n_points

    def test_default_grids_are_evaluable(self):
        # every default source sits >= 10 pulse widths (4 dx) from both ends,
        # and no default x hits a source (the oracles need x != y)
        args = cli.build_parser().parse_args(["green-eval", "--out", "unused"])
        grid = cli.RunConfig({}).grid
        margin = 10.0 * 4.0 * grid.dx
        ys = cli._parse_grid_spec(args.y_grid)
        assert np.all((ys >= margin) & (ys <= grid.L - margin))
        assert not np.isin(cli._parse_grid_spec(args.x_grid), ys).any()

    def test_source_on_grid_point_rejected_up_front(self, tmp_path, capsys):
        out = tmp_path / "ge"
        code = run_cli(["green-eval", "--out", str(out), "--y-grid", "5:20:4"])
        assert code == cli.EXIT_CONFIG
        assert "(20, 20)" in capsys.readouterr().err
        assert not (out / "greens.csv").exists()

    def test_grid_row_count(self, tmp_path):
        cfgp = write_config(tmp_path, {"solver": {"L": 40.0, "nx": 400, "t_end": 3.0,
                                                  "n_snapshots": 4}})
        out = tmp_path / "ge"
        assert run_cli(["green-eval", "--config", cfgp, "--out", str(out),
                        "--x-grid", "2:10:3", "--y-grid", "12:14:2",
                        "--t-grid", "1:3:2"]) == cli.EXIT_PASS
        lines = open(out / "greens.csv").read().strip().splitlines()
        assert len(lines) - 1 == 3 * 2 * 2

    def test_unstable_params_exit_config_naming_pole(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, {"model": {"a1": 1.0, "a2": 1.0}})
        code = run_cli(["green-eval", "--config", cfgp, "--out", str(tmp_path / "o"),
                        "--point", "5", "3", "4"])
        assert code == cli.EXIT_CONFIG
        assert "1.618" in capsys.readouterr().err


class TestSolve:
    def test_snapshots_and_determinism(self, tmp_path):
        # every CSV-writing subcommand, run twice, writes the same bytes
        cfgp = write_config(tmp_path, SMALL_SOLVER)
        runs = [
            (["solve", "--kind", "nonlinear"], "nonlinear_0002.csv"),
            (["stability-map"], "stability_map.csv"),
            (["green-eval", "--point", "5", "28", "2"], "greens.csv"),
            (["verify", "--which", "lemma41"], "lemma_initial_data.csv"),
        ]
        for argv, table in runs:
            out1, out2 = (tmp_path / f"{argv[0]}{k}" for k in (1, 2))
            for out in (out1, out2):
                assert run_cli(argv + ["--config", cfgp, "--out", str(out)]) == cli.EXIT_PASS
            tables = sorted(p.name for p in out1.glob("*.csv"))
            assert table in tables
            assert tables == sorted(p.name for p in out2.glob("*.csv"))
            for name in tables:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_divergence_exit_code(self, tmp_path):
        bad = {
            "solver": {
                "L": 20.0, "nx": 200, "t_end": 5.0, "n_snapshots": 6,
                "initial": {"kind": "gaussian", "amplitude": 2.0, "center": 10.0,
                            "width": 0.5},
            }
        }
        cfgp = write_config(tmp_path, bad)
        code = run_cli(["solve", "--config", cfgp, "--out", str(tmp_path / "o"),
                        "--kind", "nonlinear"])
        assert code == cli.EXIT_DIVERGENCE

    @pytest.mark.parametrize("argv", [
        ["solve", "--kind", "linear", "--plot-data"],
        ["verify", "--refine", "2"],
    ], ids=["solve-plot-data", "verify-refine"])
    def test_removed_flag_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", str(tmp_path / "s")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", list(REMOVED_KEYS))
    def test_removed_config_key_rejected(self, tmp_path, key):
        # a config that still sets a deleted key is a config error, not a
        # silent no-op
        *path, leaf = key.split(".")
        payload = {leaf: REMOVED_KEYS[key]}
        for part in reversed(path):
            payload = {part: payload}
        cfgp = write_config(tmp_path, payload)
        assert run_cli(["solve", "--config", cfgp, "--out", str(tmp_path / "s"),
                        "--kind", "linear"]) == cli.EXIT_CONFIG


class TestExitCodes:
    def test_accuracy_error_exit_code(self, tmp_path):
        # starving the contour of nodes at a tight tolerance -> exit 3
        cfg = {"transforms": {"n_nodes": 8, "tol": 1e-13}}
        cfgp = write_config(tmp_path, cfg)
        code = run_cli(["green-eval", "--config", cfgp, "--out", str(tmp_path / "o"),
                        "--point", "7", "5", "4"])
        assert code == cli.EXIT_ACCURACY

    def test_inconclusive_exit_code(self, tmp_path):
        # decay window shorter than a decade -> inconclusive -> exit 4
        cfg = {
            "solver": {"L": 80.0, "nx": 800, "t_end": 12.0,
                       "initial": {"kind": "algebraic", "amplitude": 0.005, "r": 1.0}},
            "verify": {"decay_t_min": 5.0},
        }
        cfgp = write_config(tmp_path, cfg)
        code = run_cli(["verify", "--config", cfgp, "--out", str(tmp_path / "v"),
                        "--which", "decay"])
        assert code == cli.EXIT_INCONCLUSIVE


class TestVerifyCommand:
    def test_lemma41_pass(self, tmp_path):
        out = tmp_path / "v"
        code = run_cli(["verify", "--out", str(out), "--which", "lemma41"])
        assert code == cli.EXIT_PASS
        rep = json.load(open(out / "lemma_initial_data.json"))
        assert rep["status"] == "pass"

    def test_pointwise_pass(self, tmp_path):
        out = tmp_path / "v"
        code = run_cli(["verify", "--out", str(out), "--which", "pointwise"])
        assert code == cli.EXIT_PASS
        rep = json.load(open(out / "green_bound_alpha0.json"))
        assert rep["status"] == "pass"
        assert rep["details"]["ridge_distance_sigmas"] <= 3.0

    def test_pointwise_single_x_point(self, tmp_path):
        # x = 0 alone: the alpha = 1 check needs no stencil room at the wall
        cfgp = write_config(tmp_path, {"verify": {"n_x": 1}})
        out = tmp_path / "v"
        code = run_cli(["verify", "--config", cfgp, "--out", str(out),
                        "--which", "pointwise"])
        assert code == cli.EXIT_PASS
        rep = json.load(open(out / "green_bound_alpha1.json"))
        assert rep["sup_ratio"] > 0.0

    def test_instability_pass(self, tmp_path):
        out = tmp_path / "v"
        code = run_cli(["verify", "--out", str(out), "--which", "instability"])
        assert code == cli.EXIT_PASS
        rep = json.load(open(out / "instability.json"))
        assert rep["fitted"]["relative_error"] <= 0.05
