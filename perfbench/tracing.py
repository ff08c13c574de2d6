"""In-memory spans around hsgreen's public functions, and per-layer metrics.

Wrappers replace a function at the binding its caller looks up (for example
``hsgreen.verify.invert_laplace_green`` for the pointwise harness) and are
removed again when the traced pass ends, so untraced passes run the program
untouched.  A span records name, layer, start, end, parent and run id; the
whole list is written out once at the end of the run.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

import hsgreen.cli
import hsgreen.kernels
import hsgreen.solver
import hsgreen.transforms
import hsgreen.verify

# name -> unit of every per-layer metric a traced run reports.
PER_LAYER_UNITS: dict[str, str] = {
    "spectral.calls": "count",
    "spectral.nodes": "count",
    "spectral.busy_s": "s",
    "spectral.ns_per_node": "ns",
}
for _t in ("talbot", "fourier", "mirror"):
    PER_LAYER_UNITS.update({
        f"transforms.{_t}.calls": "count",
        f"transforms.{_t}.points": "count",
        f"transforms.{_t}.busy_s": "s",
        f"transforms.{_t}.self_s": "s",
        f"transforms.{_t}.us_per_point": "us",
        f"transforms.{_t}.achieved_err": "abs" if _t == "mirror" else "rel",
    })
PER_LAYER_UNITS.update({
    "transforms.accuracy_errors": "count",
    "kernels.calls": "count",
    "kernels.points": "count",
    "kernels.busy_s": "s",
    "kernels.us_per_point": "us",
    "solver.calls": "count",
    "solver.busy_s": "s",
    "solver.node_time": "count",
    "solver.ns_per_node_time": "ns",
    "solver.divergences": "count",
    "solver.achieved_err": "rel",
    "verify.calls": "count",
    "verify.busy_s": "s",
    "verify.self_s": "s",
    "verify.inconclusive": "count",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
})

TRANSFORM_LAYERS = ("transforms.talbot", "transforms.fourier", "transforms.mirror")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``run`` tags the spans of one workload pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, layer, time.perf_counter(), 0.0, parent, self.run, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, layer: str, measure=None, observe=None):
        """``fn`` inside a span; ``measure(*args, **kw)`` gives work counts from
        the arguments, ``observe(result, args, kw)`` counts from the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = measure(*args, **kwargs) if measure else {}
            with self.span(name, layer, **attrs) as sp:
                out = fn(*args, **kwargs)
                if observe:
                    sp.attrs.update(observe(out, args, kwargs))
                return out

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


# ---------------------------------------------------------------------------
# Work counts computed from arguments and results
# ---------------------------------------------------------------------------


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _fourier_symbol_nodes(xi, t, params):
    return {"nodes": _size(xi)}


def _laplace_green_nodes(x, y, s, params):
    return {"nodes": _size(x, y, s)}


def _talbot_points(x, y, t, params, cfg=None):
    return {"points": _size(x, y)}


def _offset_points(x, t, params, cfg=None):
    return {"points": _size(x)}


def _one_point(*args, **kwargs):
    return {"points": 1}


def _node_time(init, params, cfg, output_times=None):
    t_final = cfg.t_end if output_times is None else float(np.max(output_times))
    return {"node_time": cfg.grid.n_nodes * t_final}


def _inconclusive(report, args, kwargs):
    return {"inconclusive": int(report.status == "inconclusive")}


def _bytes_written(code, args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    out = argv[argv.index("--out") + 1]
    total = 0
    for root, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return {"bytes_written": total}


def bindings():
    """(module, attribute, layer, measure, observe) for every wrapped binding."""
    tr, vf = hsgreen.transforms, hsgreen.verify
    return [
        (tr, "fourier_fundamental", "spectral", _fourier_symbol_nodes, None),
        (tr, "laplace_green", "spectral", _laplace_green_nodes, None),
        (tr, "invert_laplace_green", "transforms.talbot", _talbot_points, None),
        (vf, "invert_laplace_green", "transforms.talbot", _talbot_points, None),
        (tr, "invert_fourier_fundamental", "transforms.fourier", _offset_points, None),
        (tr, "mirror_by_quadrature", "transforms.mirror", _offset_points, None),
        (hsgreen.kernels, "green_leading", "kernels", _one_point, None),
        (hsgreen.solver, "solve_linear", "solver", _node_time, None),
        (hsgreen.cli, "solve_nonlinear", "solver", _node_time, None),
        (vf, "green_bound_report", "verify", None, _inconclusive),
        (vf, "decay_report", "verify", None, _inconclusive),
        (hsgreen.cli, "main", "cli", None, _bytes_written),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, layer, measure, observe in bindings():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            name = f"{module.__name__}.{attr}"
            setattr(module, attr, tracer.wrap(fn, name, layer, measure, observe))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for ch in sorted(children.get(sp.id, []), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = sp.duration - covered
    return out


def _outermost(spans: list[Span], layer: str) -> list[Span]:
    """Spans of ``layer`` with no ancestor in the same layer."""
    by_id = {sp.id: sp for sp in spans}

    def nested(sp: Span) -> bool:
        p = sp.parent
        while p is not None:
            if by_id[p].layer == layer:
                return True
            p = by_id[p].parent
        return False

    return [sp for sp in spans if sp.layer == layer and not nested(sp)]


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


LAYERS = ("spectral", *TRANSFORM_LAYERS, "kernels", "solver", "verify", "cli")
COUNTS = ("nodes", "points", "node_time", "inconclusive", "bytes_written")
ERRORS = {"AccuracyError": "accuracy_errors", "DivergenceError": "divergences"}


def layer_metrics(
    spans: list[Span],
    passes: int,
    achieved: dict[str, float],
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Every metric in PER_LAYER_UNITS, per traced pass.

    ``achieved`` maps a layer to the worst error its gates measured.
    """
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        outer = _outermost(spans, layer)
        m[f"{layer}.calls"] = len(outer)
        m[f"{layer}.busy_s"] = sum(sp.duration for sp in outer)
        m[f"{layer}.self_s"] = sum(selfs[sp.id] for sp in spans if sp.layer == layer)
        for key in COUNTS:
            m[f"{layer}.{key}"] = sum(sp.attrs.get(key, 0) for sp in outer)
        for kind, key in ERRORS.items():
            m[f"{layer}.{key}"] = sum(sp.attrs.get("error") == kind for sp in outer)
    m = {k: v / passes for k, v in m.items()}

    m["spectral.ns_per_node"] = _ratio(m["spectral.busy_s"], m["spectral.nodes"], 1e9)
    for layer in (*TRANSFORM_LAYERS, "kernels"):
        m[f"{layer}.us_per_point"] = _ratio(m[f"{layer}.busy_s"], m[f"{layer}.points"], 1e6)
    m["solver.ns_per_node_time"] = _ratio(m["solver.busy_s"], m["solver.node_time"], 1e9)
    m["transforms.accuracy_errors"] = sum(m[f"{t}.accuracy_errors"] for t in TRANSFORM_LAYERS)
    for layer in (*TRANSFORM_LAYERS, "solver"):
        m[f"{layer}.achieved_err"] = achieved.get(layer, 0.0)
    m["trace.spans"] = len(spans) / passes
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return {name: m[name] for name in PER_LAYER_UNITS}
