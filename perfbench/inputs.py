"""Seeded workload inputs.

The seed draws only locations and amplitudes; times, boundary coefficients
and grid sizes are fixed here, so every seed runs the same amount of work.
Inputs are plain JSON-serialisable dicts: the same seed gives byte-identical
``canonical`` bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

T_VALUES = (2.0, 5.0, 10.0)

#: (c, nu, a1, a2).  "scaled" is the point at which the scaling identity
#: G(c, nu, a1, a2) = G(1, 1, a1, a2 nu/c) was checked; it exercises the
#: nu-dependent node counts of the Fourier oracle (xi_max grows like c/nu).
PARAM_SETS = {
    "dirichlet": (1.0, 1.0, 0.0, 1.0),
    "neumann": (1.0, 1.0, 1.0, 0.0),
    "mixed": (1.0, 1.0, -1.0, 1.0),
    "scaled": (1.7, 0.3, -1.3, 2.9),
}
MIXED_SETS = ("mixed", "scaled")
MIRROR_T = 5.0

ORACLE_POINTS = 48
ORACLE_BOX = (1.0, 12.0)
# Scattered points keep this distance from the diagonal x = y, where the
# smooth part of the Green's function has a kink.
ORACLE_MIN_GAP = 0.5

# Criterion-5 column grid and comparison abscissae.
COLUMN_GRID = {"L": 30.0, "nx": 1200}
COLUMN_WIDTH = 0.1
COLUMN_Y0 = (5.0, 7.0)
# Criterion 5 compares at x = 1, 1.5, ..., 16 with the source at y0 = 6, one
# of those points, so no abscissa is closer than 0.5 to the source.  The
# abscissae move with the seeded source to keep that geometry: 0.3-0.4 from
# the source the pulse columns differ from Talbot by 4-8%, a regime criterion
# 5 does not cover (see README, known defects and limitations).
COLUMN_OFFSETS = [k / 2 for k in range(-9, 21) if k != 0]

DECAY_AMPLITUDE = (0.005, 0.01)


def oracles(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    lo, hi = ORACLE_BOX
    # The two extreme points of the box are always present: they fix the
    # smallest and largest x + y, on which the Fourier and mirror oracles size
    # their grids, so the work per pass does not depend on the seed.
    xs, ys = [lo, hi], [lo + ORACLE_MIN_GAP, hi - ORACLE_MIN_GAP]
    while len(xs) < ORACLE_POINTS:
        x, y = (float(v) for v in rng.uniform(*ORACLE_BOX, size=2))
        if abs(x - y) >= ORACLE_MIN_GAP:
            xs.append(x)
            ys.append(y)
    return {
        "x": xs,
        "y": ys,
        "t": list(T_VALUES),
        "param_sets": {k: list(v) for k, v in PARAM_SETS.items()},
        "mirror_t": MIRROR_T,
    }


def columns(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    y0 = float(rng.uniform(*COLUMN_Y0))
    return {
        "y0": y0,
        "x": [y0 + dx for dx in COLUMN_OFFSETS],
        "t": list(T_VALUES),
        "grid": dict(COLUMN_GRID),
        "width": COLUMN_WIDTH,
        "params": list(PARAM_SETS["mixed"]),
    }


def decay(seed: int) -> dict:
    """A CLI config: the default run with a seeded initial amplitude."""
    rng = np.random.default_rng(seed)
    amplitude = float(rng.uniform(*DECAY_AMPLITUDE))
    return {"config": {"solver": {"initial": {"amplitude": amplitude}}}}


GENERATORS = {"oracles": oracles, "columns": columns, "decay": decay}


def canonical(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True).encode()


def digest(inputs: dict) -> str:
    return hashlib.sha256(canonical(inputs)).hexdigest()
