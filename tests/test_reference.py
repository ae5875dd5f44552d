"""The printed digits of `lumped-optimize` and `sweep-delta` against their
stored references (`tests/reference.py` writes them): the worst error of
every output column, in units of the ulp of the printed double."""

import json
import math

import mpmath
import pytest

import reference
from twinbeam import cli

# the sweep-delta config of each reference file
_CONFIGS = {depth: f"[atomic]\ndepth = {depth}\n" for depth in reference.SWEEPS}

# each column's worst error in ulps of the printed double when the
# references were stored, rounded up to four digits; no column may get worse.
# Relative to the reference, the depth-500 columns are at most 2.7e-13 off,
# next to the Raman dip, and the depth-3e4 gemellity 3.5e-4 off
_BOUNDS = {
    "lumped": {
        "gain": 0.4893,
        "probe_transmission": 1.511,
        "conj_transmission": 0.0,
        "gemellity": 0.04288,
        "gemellity_dB": 0.7973,
    },
    "500": {"G_a": 1343.0, "G_b": 1180.0, "sum": 402.5, "gemellity_dB": 43640.0},
    "3e4": {"G_a": 12420.0, "G_b": 52640.0, "sum": 8027.0, "gemellity_dB": 3.443e11},
}


def _ulps(printed: float, exact: str) -> float:
    with mpmath.workdps(reference.DIGITS):
        return float(abs(mpmath.mpf(printed) - mpmath.mpf(exact)) / math.ulp(printed))


def _printed(directory, name: str) -> list[dict]:
    """The rows of one command's JSON output, run in process."""
    argv = ["lumped-optimize"]
    if name != "lumped":
        config = directory / f"{name}.cfg"
        config.write_text(_CONFIGS[name])
        argv = ["sweep-delta", "--config", str(config)]
    out = directory / f"{name}.json"
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())["rows"]


@pytest.fixture(scope="module")
def errors(tmp_path_factory) -> dict[str, dict[str, list[float]]]:
    """Per command, each output column's errors in ulps, row by row; a
    detuning must be the stored float itself."""
    directory = tmp_path_factory.mktemp("reference")
    found = {}
    for name in _BOUNDS:
        printed = _printed(directory, name)
        stored = reference.read(reference.SWEEPS.get(name, reference.LUMPED))
        if name != "lumped":
            assert [row["delta_MHz"].hex() for row in printed] == [row["delta_MHz"] for row in stored]
        assert len(printed) == len(stored)
        found[name] = {
            column: [_ulps(got[column], want[column]) for got, want in zip(printed, stored)]
            for column in printed[0]
            if column != "delta_MHz"
        }
    return found


@pytest.mark.parametrize("name", list(_BOUNDS))
def test_every_printed_column_stays_within_its_measured_error(errors, name):
    worst = {column: max(values) for column, values in errors[name].items()}
    assert all(worst[column] <= bound for column, bound in _BOUNDS[name].items()), worst
    assert worst.keys() == _BOUNDS[name].keys()


def test_the_stored_lumped_optimum_is_the_closed_form():
    assert list(reference.read(reference.LUMPED)[0].values()) == reference.lumped_row()


@pytest.mark.parametrize("depth", list(reference.SWEEPS))
def test_the_stored_sweep_is_what_the_generator_writes(errors, depth):
    # the first row, the last and the one whose printed gemellity is worst
    rows = reference.read(reference.SWEEPS[depth])
    gemellity = errors[depth]["gemellity_dB"]
    for i in sorted({0, len(rows) - 1, gemellity.index(max(gemellity))}):
        want = list(rows[i].values())
        assert reference.sweep_row(depth, float.fromhex(want[0])) == want, i
