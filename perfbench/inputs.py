"""Seeded workload inputs and the exact references they are checked against.

Everything here depends only on the workload seed and an index, so the
same seed gives the same media, trace files and search panel.  The
references are closed forms written out independently of the package.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Media are drawn around the package defaults (Omega 420 MHz, Delta
# 800 MHz, depth 500); every draw in these boxes has a flux-neutral
# crossing in the default -150..50 MHz window.  The media form a fixed
# pool, the first draws of stream 0, and the workload seed picks their
# order.  Fresh draws per seed would fail now and then: a scan point
# next to the sharp resonance near the Raman dip can make a 256-slab
# step fail its own CP check (see README).  Every pool member runs.
MEDIA_POOL = 40
MEDIUM_BOX = {
    "Omega_MHz": (380.0, 460.0),
    "Delta_MHz": (750.0, 850.0),
    "depth": (400.0, 600.0),
}
# scan sizes spread around the default of 251 points
SCAN_POINTS = (226, 277)

# The profile search panel: search seeds 0 and 1 for 1 and 2 segments
# and seed 0 for 3 segments, all other arguments at their defaults.
# The found gemellity varies ten-fold and the cost five-fold with the
# search seed, so a panel drawn from the workload seed could not give a
# steady median; the workload seed only sets the order.
SEARCH_PANEL = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0))

SQRT5 = math.sqrt(5.0)
LUMPED_GAIN = SQRT5 - 1.0
LUMPED_GEMELLITY_DB = 10.0 * math.log10(5.0 - 2.0 * SQRT5)


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def pool_medium(member: int) -> tuple[dict[str, float], int]:
    """Documented [atomic] keys of one pool medium and its scan size."""
    rng = rng_for(0, 1, member)
    keys = {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in MEDIUM_BOX.items()}
    return keys, int(rng.integers(*SCAN_POINTS))


def draw_medium(seed: int, index: int) -> tuple[dict[str, float], int]:
    """The index-th medium of the pool in the order the seed gives."""
    order = rng_for(seed, 4, 0).permutation(MEDIA_POOL)
    return pool_medium(int(order[index % MEDIA_POOL]))


def medium_config(keys: dict[str, float]) -> str:
    return "[atomic]\n" + "".join(f"{k} = {v!r}\n" for k, v in keys.items())


def search_order(seed: int) -> list[tuple[int, int]]:
    order = rng_for(seed, 3, 0).permutation(len(SEARCH_PANEL))
    return [SEARCH_PANEL[i] for i in order]


def cascade_figures(gain: float, ta: float, tb: float) -> dict[str, float]:
    """Closed forms of gain-then-loss for a unit coherent probe seed."""
    f_a = ta * (2.0 * gain - 1.0) + 1.0 - ta
    f_b = tb * (2.0 * gain - 1.0) + 1.0 - tb
    c = 2.0 * math.sqrt(ta * tb * gain * (gain - 1.0)) / math.sqrt(f_a * f_b)
    p_a, p_b = ta * gain, tb * (gain - 1.0)
    diff = (p_a * f_a + p_b * f_b - 2.0 * math.sqrt(p_a * p_b * f_a * f_b) * c) / (p_a + p_b)
    gem = (f_a + f_b) / 2.0 - math.sqrt(c * c * f_a * f_b + ((f_a - f_b) / 2.0) ** 2)
    return {"f_a": f_a, "f_b": f_b, "p_a": p_a, "p_b": p_b, "diff": diff, "gemellity": gem}


def _db(x):
    return 10.0 * np.log10(x)


def _lin(x_db):
    return 10.0 ** (np.asarray(x_db) / 10.0)


TRACE_POINTS = 40001
TRACE_RBW_HZ = 30e3


def write_trace_file(path: Path, seed: int, index: int) -> dict[str, float]:
    """Analyzer traces of a seeded cascade; returns the analyze arguments
    and the gemellity the traces encode.

    All five labels share a detector roll-off and sit above a flat
    electronic floor.  The difference trace has its minimum exactly at a
    grid point inside the default analysis band, and the conjugate trace
    is sampled on a grid shifted by half a step, so parsing has to
    resample it.
    """
    rng = rng_for(seed, 2, index)
    ref = cascade_figures(
        float(rng.uniform(1.2, 2.5)), float(rng.uniform(0.6, 1.0)), float(rng.uniform(0.6, 1.0))
    )
    freq = np.linspace(0.1e6, 10.1e6, TRACE_POINTS)
    step = freq[1] - freq[0]
    f0 = float(freq[int(rng.integers(np.searchsorted(freq, 1e6), np.searchsorted(freq, 4e6)))])
    sql_dbm = float(rng.uniform(-78.0, -72.0))
    floor_dbm = sql_dbm - float(rng.uniform(14.0, 18.0))

    def raw(grid, level_db):
        rolloff = -3.0 * (grid / 8e6) ** 2
        return _db(_lin(sql_dbm + rolloff + level_db) + _lin(floor_dbm))

    shifted = freq + step / 2.0
    labels = (
        ("difference", freq, raw(freq, _db(ref["diff"]) + 2.0 * ((freq - f0) / 2e6) ** 2)),
        ("probe", freq, raw(freq, _db(ref["f_a"]))),
        ("conjugate", shifted, raw(shifted, _db(ref["f_b"]))),
        ("sql", freq, raw(freq, 0.0)),
        ("electronic", freq, np.full(freq.size, floor_dbm)),
    )
    lines = ["freq_hz,psd_db,label,rbw_hz"]
    for label, grid, psd in labels:
        lines.extend(
            f"{f:.3f},{p:.7f},{label},{TRACE_RBW_HZ!r}"
            for f, p in zip(grid.tolist(), psd.tolist())
        )
    path.write_text("\n".join(lines) + "\n")
    return {
        "probe_frac": ref["p_a"],
        "conj_frac": ref["p_b"],
        "gemellity": ref["gemellity"],
    }
