"""Write the stored references of `tests/golden/reference_*.csv`.

Each reference cell is computed from the exact float inputs of a command
at 40 digits and printed with 25 significant digits, so that
`tests/test_reference.py` can measure the error of every printed double in
units of its own ulp.

- `lumped-optimize`: the closed form G = sqrt5 - 1, T_a = (sqrt5 - 1)/2,
  T_b = 1 and gemellity 5 - 2 sqrt5.
- `sweep-delta` on the default medium at depths 500 and 3e4: for each
  detuning of the command's grid, the pair generator of
  `oracles.mpmath_pair_block` and the pair map of that unrounded block
  (`oracles.mpmath_pair_maps`), read as `propagation._pair_outputs` reads a
  map.  About 45 ms a row, 12 s a file.

Run from the repository root:

    PYTHONPATH=src python tests/reference.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath
import numpy as np

from oracles import mpmath_gemellity, mpmath_pair_block, mpmath_pair_maps
from twinbeam import atomic
from twinbeam.configio import angular_from_mhz

DIGITS = 40
PRINTED = 25
GOLDEN = Path(__file__).parent / "golden"
LUMPED = GOLDEN / "reference_lumped_optimize.csv"
LUMPED_COLUMNS = ("gain", "probe_transmission", "conj_transmission", "gemellity", "gemellity_dB")
# the sweep files by the depth of their medium, which is otherwise the default
SWEEPS = {
    "500": GOLDEN / "reference_sweep_delta_depth500.csv",
    "3e4": GOLDEN / "reference_sweep_delta_depth3e4.csv",
}
SWEEP_COLUMNS = ("delta_MHz", "delta", "G_a", "G_b", "sum", "gemellity_dB")


def lumped_row() -> list[str]:
    """The closed-form lumped optimum, one cell per output column."""
    with mpmath.workdps(DIGITS):
        root5 = mpmath.sqrt(5)
        gemellity = 5 - 2 * root5
        cells = (root5 - 1, (root5 - 1) / 2, 1, gemellity, 10 * mpmath.log10(gemellity))
        return [mpmath.nstr(x, PRINTED) for x in cells]


def sweep_grid() -> np.ndarray:
    """The detunings in MHz of the default `sweep-delta` grid, as the command
    forms them."""
    return np.linspace(*atomic._WINDOW_MHZ, atomic._SCAN_POINTS)


def sweep_row(depth: str, delta_mhz: float) -> list[str]:
    """The reference row of `sweep-delta` at one detuning: the detuning in
    MHz and in rad/s as float.hex(), then G_a, G_b, their sum and the
    gemellity in dB."""
    delta = angular_from_mhz(delta_mhz)
    block = mpmath_pair_block(atomic.AtomicParams(depth=float(depth)), delta, DIGITS)
    _, (m, q) = mpmath_pair_maps([(block, 1.0)], DIGITS)
    with mpmath.workdps(DIGITS):
        gemellity = mpmath_gemellity(m, q)
        g_a, g_b = abs(m[0, 0]) ** 2, abs(m[1, 0]) ** 2
        cells = [mpmath.nstr(x, PRINTED) for x in (g_a, g_b, g_a + g_b, 10 * mpmath.log10(gemellity))]
    return [float(delta_mhz).hex(), delta.hex(), *cells]


def _write(path: Path, note: str, columns, rows) -> None:
    lines = [f"# {note}", ",".join(columns), *(",".join(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def read(path: Path) -> list[dict[str, str]]:
    """The rows of a reference file, as {column: cell}."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def main() -> None:
    _write(LUMPED, f"closed form at {DIGITS} digits", LUMPED_COLUMNS, [lumped_row()])
    for depth, path in SWEEPS.items():
        rows = [sweep_row(depth, x) for x in sweep_grid().tolist()]
        note = f"default medium at depth {depth}, {DIGITS}-digit pair generator and pair map"
        _write(path, note, SWEEP_COLUMNS, rows)


if __name__ == "__main__":
    main()
