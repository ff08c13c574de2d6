import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hsgreen import cli
from hsgreen import solver as so
from hsgreen import verify as vf


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
    "verify.lemma_nu": 2.0,
    "verify.lemma41.d0": 2.0,
    "verify.lemma41.r": 1.0,
    "verify.lemma41.E": 3.0,
    "verify.decay_t_min": 5.0,
    "verify.envelope.bigC": 10.0,
    "verify.envelope.eps": 0.5,
    "transforms.n_xi": 10,
    "transforms.n_nodes": 32,
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
    ("transforms.tol", 1e-8),
    ("verify.lemma41.n", 21), ("verify.lemma41.x_max", 100.0), ("verify.n_t", 6),
    ("verify.n_x", 11), ("verify.t_max", 20.0), ("verify.t_min", 1.0), ("verify.x_max", 25.0),
]

# configs whose values have the wrong kind, with the key path the error names
BAD_KINDS = {
    "string-for-float": ({"model": {"c": "fast"}}, "model.c"),
    "null-section": ({"model": None}, "model"),
    "string-for-int": ({"verify": {"n_x": "ten"}}, "verify.n_x"),
    "list-at-top": ([1, 2], "the config"),
    "fractional-int": ({"solver": {"nx": 600.7}}, "solver.nx"),
    "bool-for-int": ({"solver": {"n_snapshots": True}}, "solver.n_snapshots"),
    "list-item": ({"solver": {"initial": {"components": [["m"]]}}},
                  "solver.initial.components[0]"),
    "huge-integer-for-float": ({"model": {"c": 10**400}}, "model.c"),
    # counts that no array can hold; the grid is refused before it is allocated
    "huge-integer-for-int": ({"verify": {"n_x": 10**400}}, "verify.n_x"),
    "count-beyond-array": ({"verify": {"n_x": 2**62}}, "verify.n_x"),
    "float-count-beyond-array": ({"solver": {"nx": 1e300}}, "solver.nx"),
}


@pytest.fixture
def small_wave_lemmas(monkeypatch):
    """The CLI's wave-lemma checks on one time level and five x nodes."""
    check = vf.lemma_wave_interaction_check
    monkeypatch.setattr(vf, "lemma_wave_interaction_check",
                        lambda *a, **kw: check(*a, t_values=(4.0,), n_x=5, **kw))


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
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "stability-map"
        assert manifest["config"]["model"]["c"] == 1.0
        assert "verify" in manifest["config"]

    def test_default_leaves_pinned(self):
        got = sorted(leaves(cli.RunConfig({}).raw))
        assert got == DEFAULT_LEAVES
        assert [type(v) for _, v in got] == [type(v) for _, v in DEFAULT_LEAVES]

    def test_readme_key_paths_exist(self):
        # every backticked config key path in the README names a key or a
        # section of the default config; code is written `hsgreen.<module>...`
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paths = re.findall(r"`((?:model|solver|transforms|verify)\.[\w.]+)`", readme)
        assert "verify.lemma41.n" in paths
        for path in paths:
            node = cli.DEFAULT_CONFIG
            for part in path.split("."):
                assert isinstance(node, dict) and part in node, path
                node = node[part]

    def test_readme_code_references_resolve(self):
        # every backticked `hsgreen.<module>` or `hsgreen.<module>.<name>` in
        # the README imports, and the module has that name
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        refs = re.findall(r"`hsgreen\.(\w+)(?:\.(\w+))?`", readme)
        assert ("transforms", "fourier_green") in refs
        for module, name in refs:
            mod = importlib.import_module(f"hsgreen.{module}")
            assert not name or hasattr(mod, name), f"hsgreen.{module}.{name}"

    @pytest.mark.parametrize("payload, key_path", list(BAD_KINDS.values()), ids=list(BAD_KINDS))
    def test_wrong_kind_is_config_error(self, tmp_path, capsys, payload, key_path):
        cfgp = write_config(tmp_path, payload)
        assert run_cli(["stability-map", "--config", cfgp,
                        "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert key_path in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["verify.n_x", "model.c"])
    def test_integer_beyond_int_digits_is_config_error(self, tmp_path, capsys, key):
        # more digits than int() converts (4,300 by default): json.load would raise
        # ValueError on it, so the loader keeps its digits and the key check names it
        section, leaf = key.split(".")
        cfgp = tmp_path / "long.json"
        cfgp.write_text(f'{{"{section}": {{"{leaf}": 1{"0" * 5000}}}}}')
        assert run_cli(["stability-map", "--config", str(cfgp),
                        "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert f"config key {key!r} is an integer of 5001 digits" in capsys.readouterr().err

    def test_integral_float_runs_as_int(self, tmp_path):
        # the manifest echoes the cell count that ran, not the float given
        cfgp = write_config(tmp_path, {"solver": {"nx": 4000.0}})
        out = tmp_path / "map"
        assert run_cli(["stability-map", "--config", cfgp, "--out", str(out),
                        "--a1-grid=-1:1:3", "--a2-grid=-1:1:3"]) == cli.EXIT_PASS
        assert '"nx": 4000,' in (out / "manifest.json").read_text()
        assert type(cli.RunConfig({"solver": {"nx": 4000.0}}).grid.nx) is int

    def test_integral_number_for_float_key_stored_as_float(self, tmp_path):
        # {"a2": 2} and {"a2": 2.0} describe one run, so they write one manifest
        texts = []
        for name, a2 in (("int", 2), ("float", 2.0)):
            cfgp = write_config(tmp_path, {"model": {"a2": a2}}, name=f"{name}.json")
            out = tmp_path / name
            assert run_cli(["stability-map", "--config", cfgp, "--out", str(out),
                            "--a1-grid=-1:1:3", "--a2-grid=-1:1:3"]) == cli.EXIT_PASS
            texts.append((out / "manifest.json").read_text())
        assert texts[0] == texts[1]
        assert '"a2": 2.0,' in texts[0]

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_snapshots_is_config_error(self, tmp_path, n):
        cfgp = write_config(tmp_path, {"solver": {**SMALL_SOLVER["solver"], "n_snapshots": n}})
        out = tmp_path / "s"
        assert run_cli(["solve", "--config", cfgp, "--out", str(out),
                        "--kind", "linear"]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text, which", [
        ('{"model": {"c": 1e400}}', "pointwise"),
        ('{"verify": {"lemma41": {"n": 0}}}', "lemma41"),
        ('{"verify": {"lemma41": {"n": -1}}}', "lemma41"),
        ('{"verify": {"n_t": -1}}', "pointwise"),
        ('{"verify": {"n_x": -3}}', "pointwise"),
        ('{"solver": {"initial": {"kind": "gaussian", "r": 0.5}}}', "lemma41"),
    ], ids=["infinite-c", "empty-lemma-grid", "negative-lemma-grid", "negative-n_t",
            "negative-n_x", "lemma-r-half"])
    def test_out_of_range_value_is_config_error(self, tmp_path, text, which):
        # json reads 1e400 as inf; n = 0 leaves the lemma grid empty, a
        # negative count is no grid at all, and lemma 4.1 takes r from the
        # initial data, whose Gaussian kind does not check it
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(text)
        assert run_cli(["verify", "--config", str(cfgp), "--out", str(tmp_path / "v"),
                        "--which", which]) == cli.EXIT_CONFIG


class TestStabilityMap:
    def test_classes_and_poles(self, tmp_path):
        out = tmp_path / "map"
        assert run_cli(["stability-map", "--out", str(out),
                        "--a1-grid=-1:1:3", "--a2-grid=-1:1:3"]) == cli.EXIT_PASS
        rows = (out / "stability_map.csv").read_text().strip().splitlines()
        assert rows[0] == "a1,a2,class,pole"
        table = {tuple(r.split(",")[:2]): r.split(",")[2:] for r in rows[1:]}
        assert table[("0", "1")][0] == "dirichlet"
        assert table[("1", "0")][0] == "neumann"
        assert table[("-1", "1")] == ["mixed_stable", ""]
        cls, pole = table[("1", "1")]
        assert cls == "mixed_unstable"
        assert float(pole) == pytest.approx(1.618033988749895)

    def test_zero_count_grid_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "map"
        assert run_cli(["stability-map", "--out", str(out),
                        "--a1-grid=-1:1:0"]) == cli.EXIT_CONFIG
        assert "'-1:1:0'" in capsys.readouterr().err
        assert not (out / "stability_map.csv").exists()

    def test_count_beyond_array_grid_is_config_error(self, tmp_path, capsys):
        # refused by the count bound, before any array is allocated
        spec = f"-1:1:{2**62}"
        assert run_cli(["stability-map", "--out", str(tmp_path / "map"),
                        f"--a1-grid={spec}"]) == cli.EXIT_CONFIG
        assert f"1 <= n <= {cli._MAX_COUNT}, got {spec!r}" in capsys.readouterr().err


class TestGreenEval:
    def test_single_point_column_contract(self, tmp_path):
        cfgp = write_config(tmp_path, {"solver": {"L": 60.0, "nx": 900, "t_end": 4.0,
                                                  "n_snapshots": 5}})
        out = tmp_path / "ge"
        assert run_cli(["green-eval", "--config", cfgp, "--out", str(out),
                        "--point", "5", "3", "4"]) == cli.EXIT_PASS
        lines = (out / "greens.csv").read_text().strip().splitlines()
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
            rows = (out / "greens.csv").read_text().strip().splitlines()
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

    def test_source_near_wall_names_allowed_interval(self, tmp_path, capsys):
        # a pulse at y = 2 would reach the wall; the message names y0, the
        # pulse width (4 dx) and the interval y0 may take on the default grid
        code = run_cli(["green-eval", "--out", str(tmp_path / "ge"), "--point", "1", "2", "3"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "y0=2 " in err and "(0.4)" in err and "[4, 396]" in err

    def test_source_placement_checked_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # y = 2 is refused before the y = 5 columns of the first point are solved
        solves = []
        real = so.solve_linear
        monkeypatch.setattr(so, "solve_linear", lambda *a, **kw: solves.append(1) or real(*a, **kw))
        out = tmp_path / "ge"
        code = run_cli(["green-eval", "--out", str(out),
                        "--point", "7", "5", "4", "--point", "1", "2", "3"])
        assert code == cli.EXIT_CONFIG
        assert "y0=2 " in capsys.readouterr().err
        assert solves == [] and not out.exists()

    def test_point_beyond_solver_grid_is_config_error(self, tmp_path, capsys):
        # np.interp would clamp x = 23 to the far end x = L = 20
        cfgp = write_config(tmp_path, {"solver": {"L": 20.0, "nx": 200, "t_end": 2.0,
                                                  "n_snapshots": 2}})
        out = tmp_path / "ge"
        assert run_cli(["green-eval", "--config", cfgp, "--out", str(out),
                        "--point", "23", "5", "2"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "x=23.0 " in err and "L=20]" in err
        assert not (out / "greens.csv").exists()

    @pytest.mark.parametrize("solver, point, named", [
        ({"L": 20.0, "nx": 400, "t_end": 20.0}, ["23", "5", "18"], ["x=23.0 ", "L=20]"]),
        ({}, ["7", "5", "60"], ["t=60 ", "t_end=50]"]),
    ], ids=["x-beyond-L", "t-beyond-t_end"])
    def test_point_outside_solver_run_refused_before_any_evaluator(
            self, tmp_path, capsys, monkeypatch, solver, point, named):
        calls = []
        for mod, name in [(cli, "green_leading"), (cli, "invert_laplace_green"),
                          (so, "solve_linear")]:
            monkeypatch.setattr(mod, name, lambda *a, **kw: calls.append(a))
        cfgp = write_config(tmp_path, {"solver": solver})
        out = tmp_path / "ge"
        assert run_cli(["green-eval", "--config", cfgp, "--out", str(out),
                        "--point", *point]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(text in err for text in named)
        assert calls == [] and not out.exists()

    def test_source_on_grid_point_rejected_up_front(self, tmp_path, capsys):
        out = tmp_path / "ge"
        code = run_cli(["green-eval", "--out", str(out), "--y-grid", "5:20:4"])
        assert code == cli.EXIT_CONFIG
        assert "(20, 20)" in capsys.readouterr().err
        assert not (out / "greens.csv").exists()

    def test_zero_count_grid_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ge"
        assert run_cli(["green-eval", "--out", str(out), "--x-grid", "1:20:0"]) == cli.EXIT_CONFIG
        assert "'1:20:0'" in capsys.readouterr().err
        assert not (out / "greens.csv").exists()

    def test_grid_row_count(self, tmp_path):
        cfgp = write_config(tmp_path, {"solver": {"L": 40.0, "nx": 400, "t_end": 3.0,
                                                  "n_snapshots": 4}})
        out = tmp_path / "ge"
        assert run_cli(["green-eval", "--config", cfgp, "--out", str(out),
                        "--x-grid", "2:10:3", "--y-grid", "12:14:2",
                        "--t-grid", "1:3:2"]) == cli.EXIT_PASS
        lines = (out / "greens.csv").read_text().strip().splitlines()
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

    @pytest.mark.parametrize("a2, L, nx, code", [
        (3.0, 10.0, 20, cli.EXIT_PASS),    # 3 a1 = 2 dx a2: the relation is 4 m1 = m2
        (1.0, 40.0, 60, cli.EXIT_CONFIG),  # dx = 2 a1/(3 a2): the blend cannot meet it
    ], ids=["feasible", "singular"])
    def test_wall_blend_grid_rule(self, tmp_path, a2, L, nx, code):
        initial = {"kind": "gaussian", "amplitude": 0.01, "center": L / 2, "width": 1.0,
                   "components": ["rho", "m"]}
        cfgp = write_config(tmp_path, {
            "model": {"a1": 1.0, "a2": a2},
            "solver": {"L": L, "nx": nx, "t_end": 1.0, "n_snapshots": 2, "initial": initial},
        })
        assert run_cli(["solve", "--config", cfgp, "--out", str(tmp_path / "s"),
                        "--kind", "linear"]) == code

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
        assert (tmp_path / "o" / "nonlinear_partial_manifest.json").exists()

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
        # a tolerance below the contour's degree-32 vs 40 difference -> exit 3
        cfg = {"transforms": {"tol": 1e-13}}
        cfgp = write_config(tmp_path, cfg)
        code = run_cli(["green-eval", "--config", cfgp, "--out", str(tmp_path / "o"),
                        "--point", "7", "5", "4"])
        assert code == cli.EXIT_ACCURACY

    def test_non_finite_time_is_config_error(self, tmp_path, capsys):
        code = run_cli(["green-eval", "--out", str(tmp_path / "o"), "--point", "7", "5", "inf"])
        assert code == cli.EXIT_CONFIG
        assert "t=inf" in capsys.readouterr().err

    def test_inconclusive_exit_code(self, tmp_path):
        # decay window shorter than a decade -> inconclusive -> exit 4
        cfg = {
            "solver": {"L": 80.0, "nx": 800, "t_end": 12.0,
                       "initial": {"kind": "algebraic", "amplitude": 0.005, "r": 1.0}},
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
        rep = json.loads((out / "lemma_initial_data.json").read_text())
        assert rep["status"] == "pass"

    def test_pointwise_pass(self, tmp_path):
        out = tmp_path / "v"
        code = run_cli(["verify", "--out", str(out), "--which", "pointwise"])
        assert code == cli.EXIT_PASS
        rep = json.loads((out / "green_bound_alpha0.json").read_text())
        assert rep["status"] == "pass"
        assert rep["details"]["ridge_distance_sigmas"] <= 3.0

    def test_pointwise_reports_match_single_alpha_calls(self, tmp_path):
        # one shared inversion per time level writes what two separate reports write
        out, ref = tmp_path / "v", tmp_path / "ref"
        assert run_cli(["verify", "--out", str(out), "--which", "pointwise"]) == cli.EXIT_PASS
        v = cli.DEFAULT_CONFIG["verify"]
        grids = (np.linspace(0.0, v["x_max"], v["n_x"]),
                 np.linspace(0.13, v["x_max"] - 0.1, v["n_x"]),
                 np.linspace(v["t_min"], v["t_max"], v["n_t"]))
        for alpha in (0, 1):
            name = f"green_bound_alpha{alpha}"
            rep = vf.green_bound_report(cli.RunConfig({}).model, *grids, alpha=alpha,
                                        out_dir=str(ref))
            rep.to_json(str(ref / f"{name}.json"))
            assert (out / f"{name}.csv").read_bytes() == (ref / f"{name}.csv").read_bytes()
            got, want = (json.loads((d / f"{name}.json").read_text()) for d in (out, ref))
            assert got.pop("artifacts") != want.pop("artifacts")
            assert got == want

    def test_pointwise_single_x_point(self, tmp_path):
        # x = 0 alone: the alpha = 1 check needs no stencil room at the wall
        cfgp = write_config(tmp_path, {"verify": {"n_x": 1}})
        out = tmp_path / "v"
        code = run_cli(["verify", "--config", cfgp, "--out", str(out),
                        "--which", "pointwise"])
        assert code == cli.EXIT_PASS
        rep = json.loads((out / "green_bound_alpha1.json").read_text())
        assert rep["sup_ratio"] > 0.0

    def test_instability_indefinite_implicit_matrix(self, tmp_path, capsys):
        # a2/a1 = 50 on a user-set grid (L = 40, nx = 800): I - hJ is indefinite
        # at the solver's step, a config error rather than a run
        cfgp = write_config(tmp_path, {"model": {"a1": 1, "a2": 50}, "solver": {
            "L": 40, "nx": 800, "t_end": 1, "n_snapshots": 2}})
        code = run_cli(["solve", "--config", cfgp, "--out", str(tmp_path / "s"),
                        "--kind", "linear"])
        assert code == cli.EXIT_CONFIG
        assert "indefinite" in capsys.readouterr().err

    def test_instability_pass(self, tmp_path):
        out = tmp_path / "v"
        code = run_cli(["verify", "--out", str(out), "--which", "instability"])
        assert code == cli.EXIT_PASS
        rep = json.loads((out / "instability.json").read_text())
        assert rep["fitted"]["relative_error"] <= 0.05
        # the stable default wall ran as (1, 1), and the report says which pair it replaced
        assert rep["parameters"]["params"]["a1"] == rep["parameters"]["params"]["a2"] == 1.0
        assert rep["details"]["substituted_for"] == {"a1": -1.0, "a2": 1.0}

    @pytest.mark.parametrize("a2", [10.0, 50.0])
    def test_instability_stiff_wall_passes(self, tmp_path, a2):
        # the grid and run derive from a2/a1, so a stiff unstable wall runs unchanged
        cfgp = write_config(tmp_path, {"model": {"a1": 1.0, "a2": a2}})
        out = tmp_path / "v"
        code = run_cli(["verify", "--config", cfgp, "--out", str(out), "--which", "instability"])
        assert code == cli.EXIT_PASS
        rep = json.loads((out / "instability.json").read_text())
        assert rep["fitted"]["relative_error"] <= 0.05
        assert "substituted_for" not in rep["details"]

    def test_norm_tables_name_their_columns(self, tmp_path):
        # the norm series are not sup-ratio tables and carry their own headers
        cfgp = write_config(tmp_path, {"solver": {
            "L": 60.0, "nx": 300, "t_end": 50.0,
            "initial": {"kind": "algebraic", "amplitude": 0.005, "r": 1.0},
        }})
        out = tmp_path / "v"
        for which in ("instability", "decay", "ansatz"):
            assert run_cli(["verify", "--config", cfgp, "--out", str(out),
                            "--which", which]) == cli.EXIT_PASS
        headers = {name: (out / name).read_text().splitlines()[0]
                   for name in ("instability_norms.csv", "decay_norms.csv", "ansatz_M.csv")}
        assert headers == {"instability_norms.csv": "t,max_abs_m,fit",
                           "decay_norms.csv": "t,L2,L4,Linf",
                           "ansatz_M.csv": "t,M"}

    def test_wave_reports_named_by_alpha(self, tmp_path, small_wave_lemmas):
        # alpha = 2 and 3 of each wave lemma write their own report files
        out = tmp_path / "v"
        for which in ("lemma42", "lemma43"):
            assert run_cli(["verify", "--out", str(out), "--which", which]) == cli.EXIT_PASS
        names = [f"lemma_wave_{kind}_alpha{alpha}"
                 for kind in ("same_speed", "cross_speed") for alpha in (2, 3)]
        for suffix in ("json", "csv"):
            assert sorted(p.stem for p in out.glob(f"lemma_wave_*.{suffix}")) == sorted(names)
        assert json.loads((out / "manifest.json").read_text())["reports"] == names[2:]

    def test_lemma_constants_follow_model(self, tmp_path, small_wave_lemmas):
        # the lemma width is the model's 2 nu, not the nu = 1 value 2
        cfgp = write_config(tmp_path, {"model": {"c": 1.7, "nu": 0.3}})
        out = tmp_path / "v"
        for which in ("lemma41", "lemma42", "lemma43"):
            assert run_cli(["verify", "--config", cfgp, "--out", str(out),
                            "--which", which]) == cli.EXIT_PASS
        lemma41 = json.loads((out / "lemma_initial_data.json").read_text())["parameters"]
        assert lemma41["d0"] == pytest.approx(0.6)
        assert lemma41["E"] == pytest.approx(0.9)
        assert lemma41["r"] == 1.0
        for name in ("same_speed", "cross_speed"):
            wave = json.loads((out / f"lemma_wave_{name}_alpha3.json").read_text())["parameters"]
            assert wave["nu"] == pytest.approx(0.6)
            assert wave["lam"] == 1.7

    def test_finished_reports_survive_later_divergence(self, tmp_path):
        # the decay run diverges after pointwise and instability have passed:
        # their reports are on disk and the manifest lists them
        cfgp = write_config(tmp_path, {"solver": {
            "L": 20.0, "nx": 200, "t_end": 5.0,
            "initial": {"kind": "gaussian", "amplitude": 2.0, "center": 10.0, "width": 0.5},
        }})
        out = tmp_path / "v"
        code = run_cli(["verify", "--config", cfgp, "--out", str(out), "--which", "all"])
        assert code == cli.EXIT_DIVERGENCE
        done = ["green_bound_alpha0", "green_bound_alpha1", "instability"]
        for name in done:
            assert json.loads((out / f"{name}.json").read_text())["status"] == "pass"
        assert json.loads((out / "manifest.json").read_text())["reports"] == done
