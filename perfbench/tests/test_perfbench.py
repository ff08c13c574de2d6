"""Tests of the benchmark's own logic: span arithmetic, gates, seeded inputs.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsgreen.transforms as tr
from hsgreen.core import ModelParams
from perfbench import inputs, run, tracing, workloads
from perfbench.tracing import Span

ROOT = Path(__file__).resolve().parents[2]


def _span(i, layer, start, end, parent, **attrs):
    return Span(i, f"s{i}", layer, start, end, parent, "r", attrs)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        _span(0, "cli", 0.0, 10.0, None),
        _span(1, "verify", 1.0, 4.0, 0),
        _span(2, "transforms.talbot", 2.0, 3.0, 1),
        _span(3, "solver", 5.0, 9.0, 0),
        _span(4, "spectral", 8.0, 9.0, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "verify", 0.0, 10.0, None),
        _span(1, "solver", 2.0, 6.0, 0),
        _span(2, "solver", 4.0, 8.0, 0),
        _span(3, "solver", 9.0, 12.0, 0),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_on_synthetic_tree():
    spans = [
        _span(0, "cli", 0.0, 10.0, None, bytes_written=100),
        _span(1, "verify", 1.0, 9.0, 0, inconclusive=1),
        _span(2, "transforms.talbot", 2.0, 5.0, 1, points=10),
        _span(3, "spectral", 2.5, 4.5, 2, nodes=320),
        _span(4, "transforms.talbot", 6.0, 7.0, 1, points=10, error="AccuracyError"),
        _span(5, "solver", 7.5, 8.5, 1, node_time=1e3),
    ]
    m = tracing.layer_metrics(spans, 1, {"transforms.talbot": 1e-9}, [10.5], [10.0])
    assert set(m) == set(tracing.PER_LAYER_UNITS)
    assert m["cli.busy_s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["verify.busy_s"] == pytest.approx(8.0)
    assert m["verify.self_s"] == pytest.approx(8.0 - 3.0 - 1.0 - 1.0)
    assert m["verify.inconclusive"] == 1
    assert m["transforms.talbot.calls"] == 2
    assert m["transforms.talbot.self_s"] == pytest.approx(2.0)
    assert m["transforms.talbot.us_per_point"] == pytest.approx(4.0 / 20 * 1e6)
    assert m["transforms.talbot.achieved_err"] == 1e-9
    assert m["transforms.accuracy_errors"] == 1
    assert m["spectral.ns_per_node"] == pytest.approx(2.0 / 320 * 1e9)
    assert m["solver.ns_per_node_time"] == pytest.approx(1.0 / 1e3 * 1e9)
    assert m["cli.bytes_written"] == 100
    assert m["trace.spans"] == 6
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_layer_busy_does_not_double_count_nested_spans():
    spans = [
        _span(0, "verify", 0.0, 4.0, None),
        _span(1, "verify", 1.0, 3.0, 0),
    ]
    m = tracing.layer_metrics(spans, 2, {}, [1.0], [1.0])
    assert m["verify.calls"] == 0.5
    assert m["verify.busy_s"] == pytest.approx(2.0)
    assert m["verify.self_s"] == pytest.approx(2.0)


def test_instrumented_spans_real_calls_and_restores_bindings():
    original = tr.invert_laplace_green
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert tr.invert_laplace_green is not original
        tr.invert_laplace_green(np.array([2.0, 3.0]), np.array([1.0, 1.5]), 2.0, ModelParams())
    assert tr.invert_laplace_green is original
    talbot, *spectral = tracer.spans
    assert talbot.layer == "transforms.talbot" and talbot.attrs["points"] == 2
    # Two parabolic contours (degree M and M + 8) of the default M = 32.
    assert [s.attrs["nodes"] for s in spectral] == [2 * 32, 2 * 40]
    assert all(s.parent == talbot.id for s in spectral)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def test_perturbed_oracle_value_counts_as_failed():
    p = ModelParams(a1=0.0, a2=1.0)  # Dirichlet
    x, y, t = np.array([3.0, 6.0, 9.0]), np.array([1.5, 7.2, 4.0]), 5.0
    lap = tr.invert_laplace_green(x, y, t, p)
    four = tr.invert_fourier_fundamental(np.concatenate([x - y, x + y]), t, p).smooth
    ledger = workloads.Ledger()
    err = workloads.dn_error(lap, four[:3], four[3:], 1.0)
    assert ledger.gate("fourier/dirichlet/t=5", ("transforms.talbot",), err, workloads.DN_TOL)
    bad = lap.copy()
    bad[1, 0, 1] += 1e-5 * np.abs(lap).max()
    err_bad = workloads.dn_error(bad, four[:3], four[3:], 1.0)
    assert not ledger.gate("fourier/dirichlet/t=5", ("transforms.talbot",), err_bad,
                           workloads.DN_TOL)
    assert ledger.attempted == 2 and len(ledger.failures) == 1
    assert [n for n, _ in ledger.unexpected] == ["fourier/dirichlet/t=5"]
    assert ledger.achieved["transforms.talbot"] == pytest.approx(err_bad)


def test_known_defects_fail_without_being_unexpected():
    ledger = workloads.Ledger()
    ledger.record("talbot/scaled/t=5", "AccuracyError: ...")
    ledger.record("talbot/scaled/t=2", None)
    assert len(ledger.failures) == 1 and not ledger.unexpected


def test_decay_gate_checks_verdict_slopes_and_plateaus():
    good = {
        "status": "pass",
        "fitted": {"Linf": {"slope": -0.48, "target": -0.5}},
        "details": {"weighted_sup_growth": 0.01, "M_growth": 0.0},
    }
    assert workloads.decay_reason(0, good) is None
    assert workloads.decay_reason(1, good) == "CLI exit 1"
    assert workloads.decay_reason(0, None) is not None
    off = json.loads(json.dumps(good))
    off["fitted"]["Linf"]["slope"] = -0.35
    assert "slope" in workloads.decay_reason(0, off)
    grown = json.loads(json.dumps(good))
    grown["details"]["M_growth"] = 0.06
    assert "M_growth" in workloads.decay_reason(0, grown)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_bytes(workload):
    gen = inputs.GENERATORS[workload]
    assert inputs.canonical(gen(7)) == inputs.canonical(gen(7))
    assert inputs.canonical(gen(7)) != inputs.canonical(gen(8))


def test_seed_draws_only_locations_and_amplitudes():
    a, b = inputs.oracles(1), inputs.oracles(2)
    assert {k: v for k, v in a.items() if k not in ("x", "y")} == \
        {k: v for k, v in b.items() if k not in ("x", "y")}
    for inp in (a, b):
        x, y = np.array(inp["x"]), np.array(inp["y"])
        assert x.size == inputs.ORACLE_POINTS
        assert np.abs(x - y).min() >= inputs.ORACLE_MIN_GAP
        assert (x + y).min() == 2.5 and (x + y).max() == 23.5
    ca, cb = inputs.columns(1), inputs.columns(2)
    assert {k: v for k, v in ca.items() if k not in ("y0", "x")} == \
        {k: v for k, v in cb.items() if k not in ("y0", "x")}
    assert 5.0 <= ca["y0"] <= 7.0
    amp = inputs.decay(1)["config"]["solver"]["initial"]["amplitude"]
    assert 0.005 <= amp <= 0.01


# ---------------------------------------------------------------------------
# The benchmark definition and entry point
# ---------------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
