"""Run one workload of the hsgreen benchmark and print its metrics.

    python3 perfbench/run.py --workload oracles --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones; the line before
it is the run record (versions, machine, seed, op counts, samples), which is
also written with the spans to ``perfbench/out/``.  See perfbench/README.md.
"""

import os

# Cap BLAS/OpenMP threads before anything imports NumPy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("oracles", "columns", "decay")
SETUP_PROBES = 7
# No pass starts that could end after this many seconds of process time.
DEADLINE_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "fraction"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up, print seconds since the monotonic instant given, exit.
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int):
    """Everything before the first pass: imports, seeded inputs, work dir."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs, tracing, workloads  # noqa: F401

    inp = inputs.GENERATORS[workload](seed)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    return inp, workloads.WORKLOADS[workload](inp, str(workdir)), workdir


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter, from spawn to ready-to-run."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-probe", repr(t0)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1])


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hsgreen" / "__init__.py").is_file():
        print(f"error: no hsgreen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        _, _, workdir = setup(args.workload, args.seed)
        ready = time.monotonic() - args.setup_probe
        shutil.rmtree(workdir)
        print(ready)
        return 0

    t_process = time.monotonic()
    inp, work, workdir = setup(args.workload, args.seed)
    import numpy as np
    import scipy

    from perfbench import inputs, tracing, workloads

    try:
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
        ledger = workloads.Ledger()
        tracer = tracing.Tracer()
        walls = {True: [], False: []}  # traced -> pass wall times
        start = time.perf_counter()
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            tracer.run = f"{args.workload}-{args.seed}-p{k}"
            t0 = time.perf_counter()
            if traced:
                with tracing.instrumented(tracer):
                    work.run_pass(ledger, f"p{k}")
            else:
                work.run_pass(ledger, f"p{k}")
            walls[traced].append(time.perf_counter() - t0)
            k += 1
            done = time.perf_counter() - start >= args.seconds and (
                walls[True] or not args.trace
            )
            longest = max(walls[True] + walls[False])
            if done or time.monotonic() - t_process + longest > DEADLINE_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = walls[False]
    failed = len(ledger.failures)
    if args.trace:
        metrics = tracing.layer_metrics(
            tracer.spans, len(walls[True]), ledger.achieved, walls[True], untraced
        )
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / ledger.attempted,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "inputs_sha256": inputs.digest(inp),
        "setup_s_samples": setup_samples,
        "wall_s": {
            "median": statistics.median(untraced),
            "max": max(untraced),
            "n": len(untraced),
            "samples": untraced,
        },
        "traced_wall_s": walls[True],
        "attempted": ledger.attempted,
        "failed": failed,
        "failed_frac": failed / ledger.attempted,
        "failures": dict(Counter(f"{n}: {r}" for n, r in ledger.failures)),
        "unexpected_failures": sorted({n for n, _ in ledger.unexpected}),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "spans": tracer.to_json()}, fh)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
