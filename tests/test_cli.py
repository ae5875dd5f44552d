"""End-to-end command-line checks: output formats, determinism, exit codes."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twinbeam import atomic, cli, gaussian, lumped, propagation
from twinbeam.propagation import Slab, SlabProfile

JSON_SCHEMA = {
    "type": "object",
    "required": ["metadata", "summary", "rows"],
    "additionalProperties": False,
    "properties": {
        "metadata": {
            "type": "object",
            "required": ["version", "command", "config_sha256", "seed"],
            "properties": {
                "version": {"type": "string"},
                "command": {"type": "string"},
                "config_sha256": {"type": ["string", "null"]},
                "seed": {"type": ["integer", "null"]},
            },
        },
        "summary": {"type": "object"},
        "rows": {"type": "array", "items": {"type": "object"}},
    },
}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    summary = {}
    table_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            summary[key] = value
        elif line:
            table_lines.append(line)
    if not table_lines:
        return summary, [], []
    header = table_lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in table_lines[1:]]
    return summary, header, rows


def test_lumped_optimize_csv_matches_the_library(capsys):
    code, out, _ = run(capsys, ["lumped-optimize"])
    assert code == 0
    summary, header, rows = parse_csv(out)
    assert summary == {"interior_in_gain": "true", "conj_at_boundary": "true"}
    assert header == [
        "gain",
        "probe_transmission",
        "conj_transmission",
        "gemellity",
        "gemellity_dB",
    ]
    assert len(rows) == 1
    ref = lumped.optimize_unit_transmission()
    assert float(rows[0]["gain"]) == pytest.approx(ref.config.gain, abs=1e-9)
    assert float(rows[0]["gemellity_dB"]) == pytest.approx(ref.gemellity_db, abs=1e-9)


def test_lumped_optimize_json_schema_and_file_output(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    out_path = tmp_path / "opt.json"
    code, out, _ = run(
        capsys,
        ["lumped-optimize", "--format", "json", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""  # everything went to the file
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, JSON_SCHEMA)
    assert doc["metadata"]["command"] == "lumped-optimize"
    assert doc["metadata"]["config_sha256"] is None
    assert doc["metadata"]["seed"] is None
    assert doc["summary"] == {"interior_in_gain": True, "conj_at_boundary": True}
    assert doc["rows"][0]["gain"] == pytest.approx(np.sqrt(5.0) - 1.0, abs=1e-3)


def test_repeated_runs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["lumped-optimize"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


SWEEP_CONFIG = """\
[atomic]
depth = 500

[sweep]
delta_min_MHz = -60
delta_max_MHz = -30
points = 7
"""


def test_sweep_delta_columns_and_worker_independence(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    before = cfg.read_bytes()
    results = []
    for _ in range(2):
        code, out, _ = run(capsys, ["sweep-delta", "--config", str(cfg)])
        assert code == 0
        results.append(out)
    assert results[0] == results[1]
    assert cfg.read_bytes() == before  # the config file is never touched
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep-delta", "--config", str(cfg), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    _, header, rows = parse_csv(results[0])
    assert header == ["delta_MHz", "G_a", "G_b", "sum", "gemellity_dB"]
    assert len(rows) == 7
    assert float(rows[0]["delta_MHz"]) == pytest.approx(-60.0)
    assert float(rows[-1]["delta_MHz"]) == pytest.approx(-30.0)
    sums = [float(r["sum"]) for r in rows]
    assert all(s > 0.0 for s in sums)


BEAM_CONFIG = """\
[window]
min_MHz = -60
max_MHz = -40
points = 41
"""


def test_beam_splitter_finds_the_crossing(tmp_path, capsys):
    cfg = tmp_path / "beam.cfg"
    cfg.write_text(BEAM_CONFIG)
    code, out, _ = run(capsys, ["beam-splitter", "--config", str(cfg)])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["delta_MHz", "G_a", "G_b", "sum", "gemellity", "gemellity_dB"]
    row = rows[0]
    assert float(row["delta_MHz"]) == pytest.approx(-49.333, abs=0.01)
    assert row["sum"] == "1"
    assert float(row["gemellity"]) < 1.0


SEARCH_CONFIG = """\
[search]
segments = 2
restarts = 1
"""


def test_beat_limit_seeded_run_is_reproducible(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    cfg = tmp_path / "search.cfg"
    cfg.write_text(SEARCH_CONFIG)
    outputs = []
    for _ in range(2):
        code, out, err = run(
            capsys,
            [
                "beat-limit",
                "--config",
                str(cfg),
                "--seed",
                "123",
                "--format",
                "json",
            ],
        )
        assert code == 0
        assert "nondeterministic" not in err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    jsonschema.validate(doc, JSON_SCHEMA)
    assert doc["metadata"]["seed"] == 123
    assert doc["metadata"]["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert doc["summary"]["found"] is True
    assert doc["summary"]["gemellity_dB"] < -2.8
    assert abs(doc["summary"]["sum"] - 1.0) <= 0.01
    assert len(doc["rows"]) == 2
    assert sorted(doc["rows"][0]) == ["alpha_a", "alpha_b", "dz", "g", "segment"]


def test_beat_limit_takes_the_search_s_own_defaults(monkeypatch, capsys):
    # with no config, every argument but the seed is the search's default
    search = propagation.search_beyond_lumped_limit
    monkeypatch.setattr(search, "__defaults__", (1, 0, 20.0, 0.01, 1))
    code, out, err = run(capsys, ["beat-limit", "--seed", "0"])
    assert code == 0, err
    _, _, rows = parse_csv(out)
    assert len(rows) == 1


def test_beat_limit_warns_without_a_seed(tmp_path, capsys):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("[search]\nsegments = 1\nrestarts = 1\n")
    code, _, err = run(capsys, ["beat-limit", "--config", str(cfg)])
    assert code == 0
    assert "nondeterministic" in err


@pytest.mark.parametrize("rate_bound", ["800", "1000", "1e6"])
def test_beat_limit_survives_a_rate_bound_beyond_the_float_range(tmp_path, capsys, rate_bound):
    # e^{g dz} of the largest rates overflows; such candidates score as
    # infeasible instead of ending the run with an OverflowError
    cfg = tmp_path / "search.cfg"
    cfg.write_text(f"[search]\nsegments = 1\nrestarts = 1\nrate_bound = {rate_bound}\n")
    code, out, err = run(capsys, ["beat-limit", "--config", str(cfg), "--seed", "0"])
    assert code == 0, err
    summary, _, rows = parse_csv(out)
    assert summary["found"] in ("true", "false")
    assert len(rows) == 1


def test_a_start_on_the_overflow_plateau_is_not_lost(tmp_path, capsys):
    # seed 0 draws a start whose map overflows, and so does every neighbour
    # the pattern search tries; halved toward zero it reaches a flux-neutral
    # profile instead of reporting the trivial one
    cfg = tmp_path / "search.cfg"
    cfg.write_text("[search]\nsegments = 1\nrestarts = 1\nrate_bound = 1000\n")
    code, out, err = run(capsys, ["beat-limit", "--config", str(cfg), "--seed", "0"])
    assert code == 0, err
    summary, _, rows = parse_csv(out)
    assert abs(float(summary["sum"]) - 1.0) <= 0.01
    assert float(summary["gemellity_dB"]) < 0.0
    assert float(rows[0]["g"]) > 0.0


def test_beat_limit_ranks_no_gemellity_lost_to_rounding(tmp_path, capsys):
    # the search's best was a gemellity of 4.9e-4 within the rounding bound
    # 6.0e-3 of noise figures of 3.4e12, which the reported propagation
    # refused with exit 3; such a candidate now scores as infeasible
    cfg = tmp_path / "search.cfg"
    cfg.write_text("[search]\nsegments = 3\nrestarts = 3\nrate_bound = 1000\n")
    runs = [run(capsys, ["beat-limit", "--config", str(cfg), "--seed", "0"]) for _ in range(2)]
    code, out, err = runs[0]
    assert code == 0, err
    summary, _, rows = parse_csv(out)
    assert summary["found"] == "true"
    assert len(rows) == 3
    assert runs[1][1] == out


def test_beat_limit_completes_where_the_slab_path_failed(tmp_path, capsys):
    # this search used to raise a CP error and exit 2
    cfg = tmp_path / "search.cfg"
    cfg.write_text("[search]\nsegments = 1\n")
    code, out, err = run(capsys, ["beat-limit", "--config", str(cfg), "--seed", "2"])
    assert code == 0, err
    summary, _, rows = parse_csv(out)
    assert summary["found"] == "true"
    assert len(rows) == 1


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("sweep-delta", "sweep", "n_slabs"),
        ("beam-splitter", "window", "n_slabs"),
        ("beat-limit", "search", "subdivisions"),
        # found compares against the lumped limit itself, 5 - 2 sqrt(5)
        ("beat-limit", "search", "target_dB"),
    ],
)
def test_discretization_keys_are_rejected(tmp_path, capsys, command, section, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"[{section}]\n{key} = 64\n")
    seed = ["--seed", "0"] if command == "beat-limit" else []
    code, out, err = run(capsys, [command, "--config", str(cfg), *seed])
    assert code == 2
    assert out == ""
    assert f"unknown keys in [{section}]: {key}" in err


@pytest.mark.parametrize("key", ["grid_step", "refine_tol"])
def test_lumped_section_is_rejected(tmp_path, capsys, key):
    # lumped-optimize takes no config at all; any other command names the section
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"[lumped]\n{key} = 0.05\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["lumped-optimize", "--config", str(cfg)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --config {cfg}" in captured.err
    code, out, err = run(capsys, ["sweep-delta", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "unknown section [lumped]" in err


def test_grid_step_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lumped-optimize", "--grid-step", "0.05"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --grid-step 0.05" in captured.err


def test_analyze_takes_no_config_flag(capsys):
    # analyze reads no config file; it used to accept even a missing one
    traces = str(_GOLDEN / "analyze_traces.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", traces, "--probe-frac", "0.5", "--conj-frac", "0.5", "--config", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --config x" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["lumped-optimize", "--seed", "0"],
        ["sweep-delta", "--seed", "0"],
        ["beam-splitter", "--seed", "0"],
        ["analyze", "traces.csv", "--probe-frac", "0.5", "--conj-frac", "0.5", "--seed", "0"],
        ["lumped-optimize", "--config", "x"],
    ],
    ids=["lumped-optimize-seed", "sweep-delta-seed", "beam-splitter-seed", "analyze-seed", "lumped-optimize-config"],
)
def test_flags_that_would_change_nothing_are_rejected(capsys, argv):
    # only beat-limit draws random numbers, and lumped-optimize reads no setting
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize("command", ["sweep-delta", "beam-splitter"])
def test_a_medium_sets_no_two_photon_detuning(tmp_path, capsys, command):
    # the scan sets the two-photon detuning; a config value used to be
    # accepted and ignored
    cfg = tmp_path / "medium.cfg"
    cfg.write_text("[atomic]\ndelta_MHz = -50\n")
    assert run(capsys, [command, "--config", str(cfg)]) == (
        2, "", "error: unknown keys in [atomic]: delta_MHz\n"
    )


# a valid non-default value of every config key a command reads, and the
# small config each is set on: a coarse scan, or a one-start search
_MEDIUM_VALUES = {
    "Delta_MHz": "810",
    "Omega_MHz": "430",
    "Gamma_MHz": "6",
    "gamma_g_kHz": "20",
    "depth": "400",
    "hyperfine_MHz": "3000",
}
_READ_KEYS = {
    "sweep-delta": (
        {"sweep": {"points": "5"}},
        {"atomic": _MEDIUM_VALUES, "sweep": {"delta_min_MHz": "-100", "delta_max_MHz": "0", "points": "6"}},
    ),
    # the scan only brackets the root, so a window changes the output where it
    # changes the crossing found: above the Raman dip, below it, or on a grid
    # too coarse to see the one next to the dip
    "beam-splitter": (
        {"window": {"points": "21"}},
        {"atomic": _MEDIUM_VALUES, "window": {"min_MHz": "-45", "max_MHz": "-100", "points": "3"}},
    ),
    # a tolerance of 1e-9 leaves the one-start profile infeasible: found flips
    "beat-limit": (
        {"search": {"segments": "1", "restarts": "1"}},
        {"search": {"segments": "2", "restarts": "2", "rate_bound": "10", "feasibility_tol": "1e-9"}},
    ),
}


def _config_text(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def test_the_medium_keys_are_the_atomic_keys():
    assert set(_MEDIUM_VALUES) == set(atomic._PARAM_KEYS)


@pytest.mark.parametrize(
    "command, section, key",
    [
        (command, section, key)
        for command, (_, reads) in _READ_KEYS.items()
        for section, values in reads.items()
        for key in values
    ],
)
def test_every_config_key_changes_the_output(tmp_path, capsys, command, section, key):
    base, reads = _READ_KEYS[command]
    seed = ["--seed", "0"] if command == "beat-limit" else []
    outputs = []
    for sections in (base, base | {section: base.get(section, {}) | {key: reads[section][key]}}):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_config_text(sections))
        code, out, err = run(capsys, [command, "--config", str(cfg), *seed])
        assert (code, err) == (0, ""), sections
        outputs.append(out)
    assert outputs[0] != outputs[1]


def _write_trace_file(path):
    freq = np.linspace(2e5, 6e6, 30)
    diff = np.full(30, -80.5)
    diff[np.argmin(np.abs(freq - 2e6))] = -81.0  # 1 dB below SQL at the dip
    lines = ["freq_hz,psd_db,label,rbw_hz"]
    for label, psd in (
        ("difference", diff),
        ("probe", np.full(30, -77.0)),
        ("conjugate", np.full(30, -78.0)),
        ("sql", np.full(30, -80.0)),
    ):
        lines.extend(
            f"{float(f)!r},{float(p)!r},{label},100000.0" for f, p in zip(freq, psd)
        )
    path.write_text("\n".join(lines) + "\n")


def test_analyze_reports_the_reference_inference(tmp_path, capsys):
    trace_path = tmp_path / "traces.csv"
    _write_trace_file(trace_path)
    code, out, _ = run(
        capsys,
        [
            "analyze",
            str(trace_path),
            "--probe-frac",
            "0.65",
            "--conj-frac",
            "0.35",
            "--format",
            "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["config_sha256"] is not None
    assert doc["summary"]["analysis_freq_Hz"] == pytest.approx(2e6)
    assert doc["summary"]["diff_dB"] == pytest.approx(-1.0, abs=1e-9)
    assert doc["summary"]["gemellity_dB"] == pytest.approx(
        -1.785594057178107, abs=1e-9
    )
    assert len(doc["rows"]) == 30
    assert sorted(doc["rows"][0]) == [
        "conjugate_dB",
        "difference_dB",
        "freq_Hz",
        "probe_dB",
    ]


def test_analyze_honors_an_explicit_frequency(tmp_path, capsys):
    trace_path = tmp_path / "traces.csv"
    _write_trace_file(trace_path)
    code, out, _ = run(
        capsys,
        [
            "analyze",
            str(trace_path),
            "--probe-frac",
            "0.65",
            "--conj-frac",
            "0.35",
            "--freq",
            "3.05e6",
            "--format",
            "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["analysis_freq_Hz"] == pytest.approx(3.0e6)
    assert doc["summary"]["diff_dB"] == pytest.approx(-0.5, abs=1e-9)


def test_validation_failures_exit_with_2(tmp_path, capsys):
    code, _, err = run(capsys, ["sweep-delta", "--config", "/nonexistent.cfg"])
    assert code == 2
    assert err == "error: configuration file not found: /nonexistent.cfg\n"

    cfg = tmp_path / "bad_section.cfg"
    cfg.write_text("[mystery]\nkey = 1\n")
    assert run(capsys, ["sweep-delta", "--config", str(cfg)])[0] == 2

    cfg = tmp_path / "bad_sweep.cfg"
    cfg.write_text("[sweep]\npoints = 1\n")
    assert run(capsys, ["sweep-delta", "--config", str(cfg)])[0] == 2

    cfg = tmp_path / "bad_window.cfg"
    cfg.write_text("[window]\npoints = 1\n")
    code, _, err = run(capsys, ["beam-splitter", "--config", str(cfg)])
    assert code == 2
    assert "at least 2 points" in err

    for segments in (1, 2):
        cfg = tmp_path / f"no_restarts_{segments}.cfg"
        cfg.write_text(f"[search]\nsegments = {segments}\nrestarts = 0\n")
        code, out, err = run(capsys, ["beat-limit", "--config", str(cfg), "--seed", "0"])
        assert code == 2
        assert out == ""
        assert "restarts" in err

    # numpy's own message for a negative seed names no setting
    code, out, err = run(capsys, ["beat-limit", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert "seed" in err

    trace_path = tmp_path / "traces.csv"
    _write_trace_file(trace_path)
    code, _, _ = run(
        capsys,
        ["analyze", str(trace_path), "--probe-frac", "-1", "--conj-frac", "0.3"],
    )
    assert code == 2
    assert run(
        capsys,
        [
            "analyze",
            str(tmp_path / "missing.csv"),
            "--probe-frac",
            "0.5",
            "--conj-frac",
            "0.5",
        ],
    )[0] == 2


@pytest.mark.parametrize(
    "command, config, err",
    [
        ("sweep-delta", "[ ]\n", "line 1: empty section name"),
        ("sweep-delta", "foo\n", "line 1: expected 'key = value', got 'foo'"),
        ("sweep-delta", "[sweep]\n= 5\n", "line 2: empty key"),
        ("beam-splitter", "[atomic]\ndepth = inf\n", "section [atomic], key 'depth': value must be finite"),
        ("sweep-delta", "[sweep]\npoints = 2.5\n", "section [sweep], key 'points': cannot parse '2.5' as an integer"),
        (
            "sweep-delta",
            "[sweep]\ndelta_min_MHz = 50\ndelta_max_MHz = -150\n",
            "[sweep] detuning window must be increasing, got [50.0, -150.0] MHz",
        ),
        (
            "beam-splitter",
            "[window]\nmin_MHz = 50\nmax_MHz = -150\n",
            "[window] detuning window must be increasing, got [50.0, -150.0] MHz",
        ),
    ],
    ids=["empty-section", "no-assignment", "empty-key", "infinite-value", "fractional-points", "sweep-reversed", "window-reversed"],
)
def test_a_malformed_config_exits_with_2_and_names_the_fault(tmp_path, capsys, command, config, err):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    assert run(capsys, [command, "--config", str(cfg)]) == (2, "", f"error: {err}\n")


def test_computation_failures_exit_with_3(tmp_path, capsys):
    cfg = tmp_path / "no_crossing.cfg"
    cfg.write_text(
        "[atomic]\ndepth = 0\n\n[window]\nmin_MHz = -10\nmax_MHz = -5\n"
        "points = 11\n"
    )
    code, _, err = run(capsys, ["beam-splitter", "--config", str(cfg)])
    assert code == 3
    # every scan point is finite, so the message names no overflow
    assert err == "error: no flux-neutral crossing in the window [-6.283185e+07, -3.141593e+07] rad/s\n"
    # a valid depth whose output noise leaves the float range at -10.8 MHz
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[atomic]\ndepth = 1e6\n")
    code, out, err = run(capsys, ["sweep-delta", "--config", str(cfg)])
    assert code == 3
    assert out == ""
    # the message names the quantity, the noise figures whose squares the
    # gemellity takes, not the C library's errno text
    assert err == (
        "error: output overflows the float range (the squares of the noise figures "
        "3.479106e+189 and 3.493606e+189) at two-photon detuning -10.8 MHz\n"
    )
    # deeper, the transfer itself leaves the float range first
    cfg.write_text("[atomic]\ndepth = 1e300\n")
    code, out, err = run(capsys, ["sweep-delta", "--config", str(cfg)])
    assert (code, out) == (3, "")
    assert err == "error: output overflows the float range (the transfer e^(BL)) at two-photon detuning -34.8 MHz\n"
    # near the float maximum the noise rate's power-of-2 scale overflows first;
    # the message names that quantity, not the C library's errno text
    cfg.write_text("[atomic]\ndepth = 1.7e308\n")
    code, out, err = run(capsys, ["sweep-delta", "--config", str(cfg)])
    assert (code, out) == (3, "")
    assert err.startswith("error: output overflows the float range (pair generator's noise rate")
    assert err.endswith("is out of range) at two-photon detuning -40.4 MHz\n")
    # 80 scan points' gains leave the float range, so they have no sign, and
    # every other point has G_a + G_b = 0; the message counts the overflows.
    # From depth 1e160 on the blocks' squares would overflow too, before any
    # exponent, and at 1.7e308 so would 4 k in the exponential's range test
    for depth in ("1e12", "1e160", "1e200", "1e300", "1.7e308"):
        cfg.write_text(f"[atomic]\ndepth = {depth}\n")
        code, out, err = run(capsys, ["beam-splitter", "--config", str(cfg)])
        assert (code, out) == (3, "")
        assert err == (
            "error: no flux-neutral crossing in the window [-9.424778e+08, 3.141593e+08] rad/s"
            " (80 of 251 scan points overflow the float range)\n"
        )


def test_a_gemellity_lost_to_rounding_exits_with_3(tmp_path, capsys):
    # at depth 1e5 the noise figures reach 1e31 while the gemellity stays near
    # -30 dB; from -11.6 MHz on (F_a = 3.0e15, -25.46 dB at 60 digits) the
    # gemellity's cancellation leaves no correct digit, where the sweep
    # printed -inf there and +153.5 dB at -1.2 MHz (-31.60 dB at 60 digits)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[atomic]\ndepth = 1e5\n")
    for fmt in ("csv", "json"):
        assert run(capsys, ["sweep-delta", "--config", str(cfg), "--format", fmt]) == (
            3,
            "",
            "error: gemellity 0.000000e+00 is within the rounding bound 5.326146e+00 of the "
            "noise figures 2.989989e+15 and 3.006718e+15, with no correct digit "
            "at two-photon detuning -11.6 MHz\n",
        )


_UNABLE = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"


@pytest.mark.parametrize("command, section", [("sweep-delta", "sweep"), ("beam-splitter", "window")])
def test_a_grid_too_large_to_allocate_exits_with_3(tmp_path, capsys, monkeypatch, command, section):
    # both exited 1 with numpy's traceback.  The grid builder refuses the
    # 1e11 points with numpy's text, so nothing that large is allocated here
    def linspace(start, stop, num, _original=np.linspace):
        if num == 10**11:
            raise MemoryError(_UNABLE)
        return _original(start, stop, num)

    monkeypatch.setattr(np, "linspace", linspace)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"[{section}]\npoints = 100000000000\n")
    assert run(capsys, [command, "--config", str(cfg)]) == (3, "", f"error: {_UNABLE}\n")


def _overflowing(section, key, value):
    return f"section [{section}], key {key!r}: {value} MHz overflows the float range in rad/s"


@pytest.mark.parametrize(
    "line, code, err",
    [
        # past the float range already in rad/s: a config error, in the form
        # every section's frequencies share
        ("Omega_MHz = 1e308", 2, _overflowing("atomic", "Omega_MHz", "1e+308")),
        ("hyperfine_MHz = 1e305", 2, _overflowing("atomic", "hyperfine_MHz", "1e+305")),
        # finite rates whose generator's norm is not
        (
            "Delta_MHz = 1e300",
            3,
            "the dressed-atom sideband sector's norm overflows the float range "
            "(one_photon_detuning / excited_decay_rate = 1.739130e+299)",
        ),
        (
            "Gamma_MHz = 1e-300",
            3,
            "the dressed-atom sideband sector's norm overflows the float range "
            "(hyperfine_splitting / excited_decay_rate = 3.036000e+303)",
        ),
    ],
    ids=["Omega", "hyperfine", "Delta", "Gamma"],
)
def test_an_overflowing_medium_exits_with_3_and_names_the_cause(tmp_path, capsys, line, code, err):
    # these used to print a RuntimeWarning, and two of them to exit 2 with
    # "SVD did not converge"; pytest makes any warning an error.  Only the
    # generator's overflow is a computation error (3); a rate with no float
    # in rad/s is rejected as the config value it is (2)
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(f"[atomic]\n{line}\n")
    assert run(capsys, ["beam-splitter", "--config", str(cfg)]) == (code, "", f"error: {err}\n")


_DEEP_1E6_ROW = "-16.7484200006,0.223714179705,0.776285820295,1,0.440879338387,-3.55680253714"


@pytest.mark.parametrize(
    "config, row",
    [
        ("[atomic]\ndepth = 1e6\n", _DEEP_1E6_ROW),
        (
            "[atomic]\ndepth = 1e7\n",
            "-20.7633412384,0.150149227171,0.849850772829,1,0.655857827684,-1.83190293771",
        ),
        (
            "[atomic]\ndepth = 1e9\n",
            "28.6591669715,0.601515763115,0.398484236884,1,0.2467693067,-6.07708859062",
        ),
        # a scan whose flux balances would sum finite gains past the float range
        (
            "[atomic]\ndepth = 1e6\n[window]\nmin_MHz = -300\nmax_MHz = 100\npoints = 401\n",
            _DEEP_1E6_ROW,
        ),
        # a bracket whose uncapped flux balance reaches 1.9e196 at its far end
        (
            "[atomic]\nOmega_MHz = 73.84019364530539\nDelta_MHz = 2.150146200022963\n"
            "gamma_g_kHz = 0\ndepth = 1470802.8610587858\n",
            "-0.601200780538,0.220844252443,0.779155747557,1,0.411577518792,-3.85548355316",
        ),
    ],
    ids=["1e6", "1e7", "1e9", "1e6-wide", "dense-gamma_g_0"],
)
def test_deep_medium_beam_splitter_runs_without_warnings(tmp_path, capsys, config, row):
    # scan points far from the crossing have gains, or exponentials, beyond
    # the float range; they take no part in the crossing or dip search
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(config)
    code, out, err = run(capsys, ["beam-splitter", "--config", str(cfg)])
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == row


def _reference_csv(columns, summary):
    # the renderer's contract: every cell as _fmt renders it
    lines = [f"# {key} = {cli._fmt(value)}" for key, value in summary.items()]
    rows = list(zip(*columns.values()))
    if rows:
        lines.append(",".join(columns))
        lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_render_csv_matches_the_per_cell_format():
    columns = {
        "float": [0.1, -0.0, 1.0 / 3.0, 1e-300, float("inf"), float("nan")],
        "np_float64": [np.float64(x) for x in (2.5, -1e17, 7.0, 1e22, 0.3, 5e-324)],
        "int": [0, -3, 10**12, 10**12 + 7, 2**63, -(10**15)],
        "bool": [True, False, True, True, False, np.bool_(True)],
        "str": ["a", "", "b,c", "%s", "100%", "x y"],
        "mixed": [1.5, 2, np.float32(0.1), None, True, "7"],
    }
    summary = {"flag": True, "count": 10**13, "value": 1.0 / 7.0, "name": "probe"}
    assert cli._render_csv(columns, summary) == _reference_csv(columns, summary)
    single = {key: values[:1] for key, values in columns.items()}
    assert cli._render_csv(single, {}) == _reference_csv(single, {})
    assert cli._render_csv({"a": [], "b": []}, summary) == _reference_csv({}, summary)


_GOLDEN = Path(__file__).parent / "golden"
# a child interpreter imports the package under test, wherever pytest found it
_CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def test_analyze_csv_matches_the_golden_file(capsys):
    # 5 labels in shuffled rows, the conjugate on a shifted grid, an
    # electronic floor; the expected output is committed byte for byte
    code, out, err = run(
        capsys,
        [
            "analyze",
            str(_GOLDEN / "analyze_traces.csv"),
            "--probe-frac",
            "1.62",
            "--conj-frac",
            "0.68",
        ],
    )
    assert (code, err) == (0, "")
    assert out == (_GOLDEN / "analyze.csv").read_text()


@pytest.mark.parametrize(
    "flags, err",
    [
        (["--probe-frac", "nan", "--conj-frac", "0.68"], "probe_frac must be finite, got nan"),
        (["--probe-frac", "1.62", "--conj-frac", "inf"], "conj_frac must be finite, got inf"),
        (["--probe-frac=-inf", "--conj-frac", "0.68"], "probe_frac must be finite, got -inf"),
    ],
)
def test_analyze_rejects_non_finite_power_fractions(capsys, flags, err):
    # these printed C_ab = nan and gemellity_dB = nan and exited 0
    argv = ["analyze", str(_GOLDEN / "analyze_traces.csv"), *flags]
    assert run(capsys, argv) == (2, "", f"error: {err}\n")


def test_analyze_takes_fractions_up_to_the_float_maximum(capsys):
    # 1e308 used to overflow the inference to nan, after a RuntimeWarning
    argv = ["analyze", str(_GOLDEN / "analyze_traces.csv"), "--probe-frac", "1.62e308"]
    code, out, err = run(capsys, argv + ["--conj-frac", "0.68e308"])
    assert (code, err) == (0, "")
    assert out == (_GOLDEN / "analyze.csv").read_text()


@pytest.mark.parametrize(
    "row, value, err",
    [
        # 4000 dB overflowed 10 ** (psd / 10) with a RuntimeWarning, and the
        # run then failed as "difference: trace values must be finite"
        ("sql", "4000", "trace 'sql' at 1.85e+06 Hz: 4000 dB has no positive finite linear power"),
        # -4000 dB underflows to 0 W, which was blamed on the electronic floor
        ("difference", "-4000", "trace 'difference' at 6.05e+06 Hz: -4000 dB has no positive finite linear power"),
    ],
    ids=["sql_overflows", "difference_underflows"],
)
def test_analyze_names_a_db_value_outside_the_float_range(tmp_path, capsys, row, value, err):
    lines = (_GOLDEN / "analyze_traces.csv").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.split(",")[2] == row)
    freq, _, label, rbw = lines[first].split(",")
    lines[first] = ",".join([freq, value, label, rbw])
    if row == "difference":
        lines = [line for line in lines if ",electronic," not in line]
    trace_path = tmp_path / "traces.csv"
    trace_path.write_text("\n".join(lines) + "\n")
    argv = ["analyze", str(trace_path), "--probe-frac", "1.62", "--conj-frac", "0.68"]
    assert run(capsys, argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("freqs", [("nan",), ("inf", "inf"), ("-inf", "-inf")], ids=["nan", "inf", "minus_inf"])
def test_analyze_names_a_non_finite_trace_frequency(tmp_path, capsys, freqs):
    # these were blamed on duplicate frequency points, two infinite ones after
    # numpy's warning of an invalid subtraction
    lines = (_GOLDEN / "analyze_traces.csv").read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.split(",")[2] == "difference"]
    for i, freq in zip(rows, freqs):
        lines[i] = ",".join([freq, *lines[i].split(",")[1:]])
    trace_path = tmp_path / "traces.csv"
    trace_path.write_text("\n".join(lines) + "\n")
    argv = ["analyze", str(trace_path), "--probe-frac", "1.62", "--conj-frac", "0.68"]
    assert run(capsys, argv) == (2, "", "error: difference: trace values must be finite\n")


def test_analyze_names_an_out_of_range_correlation_in_six_digits(capsys):
    # the correlation was printed with %.6f, all 154 digits of it
    argv = ["analyze", str(_GOLDEN / "analyze_traces.csv"), "--probe-frac", "0.65"]
    err = (
        "error: inferred correlation 4.82102e+153 lies outside [-1, 1]; "
        "measurement inputs are inconsistent\n"
    )
    assert run(capsys, argv + ["--conj-frac", "1e308"]) == (2, "", err)


def _figure_traces(path, diff_db, f_a_db, f_b_db):
    """Traces whose figures relative to an SQL at 0 dB are the given dB values."""
    rows = [
        f"{freq!r},{psd!r},{label},30000.0"
        for label, psd in (("difference", diff_db), ("probe", f_a_db), ("conjugate", f_b_db), ("sql", 0.0))
        for freq in (1e6, 2e6)
    ]
    path.write_text("\n".join(["freq_hz,psd_db,label,rbw_hz", *rows]) + "\n")


@pytest.mark.parametrize(
    "figures, code, err",
    [
        # -2.99999094847 and exit 0; exit 2 naming a ratio 0 at 160 and 1540 dB;
        # C_ab = 0 and an infinite gemellity at 3082.5 dB
        *(((-3.0, f, f), 0, "") for f in (100.0, 160.0, 1540.0, 3082.5)),
        # a RuntimeWarning, then exit 2 naming a correlation of -5.01187e+299
        ((-3.0, -3000.0, -3000.0), 2, "inferred correlation -5.01187e+299 lies outside [-1, 1]; measurement inputs are inconsistent"),
        ((-3.010299956639812, 6.020599913279624, 0.0), 3, "the inferred gemellity at C_ab = 1 is 0, with no dB value (difference -3.0103 dB, F_a 6.0206 dB, F_b 0 dB)"),
        ((0.0, 3000.0, -3000.0), 3, "the beams' noise powers lie too far apart for a correlation (difference 0 dB, F_a 3000 dB, F_b -3000 dB)"),
    ],
    ids=["100dB", "160dB", "1540dB", "3082.5dB", "inconsistent", "C_ab_1", "far_apart"],
)
def test_analyze_infers_large_figures_and_names_what_it_cannot_represent(tmp_path, capsys, figures, code, err):
    trace_path = tmp_path / "traces.csv"
    _figure_traces(trace_path, *figures)
    argv = ["analyze", str(trace_path), "--probe-frac", "0.5", "--conj-frac", "0.5"]
    got, out, stderr = run(capsys, argv)
    assert (got, stderr) == (code, f"error: {err}\n" if err else "")
    if code == 0:
        assert parse_csv(out)[0]["gemellity_dB"] == "-3"


_NO_GROUND_DECOHERENCE = "[atomic]\ngamma_g_kHz = 0\n"


@pytest.mark.parametrize(
    "command, config",
    [
        pytest.param("sweep-delta", "", id="sweep-delta"),
        pytest.param("beam-splitter", "", id="beam-splitter"),
        pytest.param("sweep-delta", _NO_GROUND_DECOHERENCE, id="sweep-delta-gamma_g_0"),
        pytest.param("beam-splitter", _NO_GROUND_DECOHERENCE, id="beam-splitter-gamma_g_0"),
    ],
)
def test_atomic_csv_matches_the_golden_file(tmp_path, capsys, command, config):
    # the output of the default config, and of a medium without ground
    # decoherence, all of whose degeneracy checks take the SVD; committed
    # byte for byte
    name = command.replace("-", "_")
    argv = [command]
    if config:
        cfg = tmp_path / "atomic.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
        name += "_gamma_g_0"
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (_GOLDEN / f"{name}.csv").read_text()


def test_the_command_path_builds_no_quadrature_object(monkeypatch, capsys):
    # every reported output is read in the pair basis: no command, nor the
    # library's one-point outputs, makes a 4x4 state, channel or lifted block
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature object was built")

    for name in ("CovarianceState", "GaussianChannel", "transfer_from_mode_matrix"):
        monkeypatch.setattr(gaussian, name, refuse)
    analyze = ["analyze", str(_GOLDEN / "analyze_traces.csv"), "--probe-frac", "1.62", "--conj-frac", "0.68"]
    for argv in (["lumped-optimize"], ["sweep-delta"], ["beam-splitter"], ["beat-limit", "--seed", "0"], analyze):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out
    atomic.pair_output(atomic.AtomicParams())
    propagation.propagate_exact(SlabProfile((Slab(0.5, 0.0, 1.5, 0.0), Slab(0.5, 1.7, 0.0, 0.0))))


@pytest.mark.parametrize(
    "command, config, err",
    [
        ("beam-splitter", "[window]\nmin_MHz = -1e303\n", _overflowing("window", "min_MHz", "-1e+303")),
        ("beam-splitter", "[window]\nmin_MHz = 0\nmax_MHz = 1e303\n", _overflowing("window", "max_MHz", "1e+303")),
        ("sweep-delta", "[sweep]\ndelta_min_MHz = -1e303\n", _overflowing("sweep", "delta_min_MHz", "-1e+303")),
        ("sweep-delta", "[sweep]\ndelta_max_MHz = 1.7e308\n", _overflowing("sweep", "delta_max_MHz", "1.7e+308")),
        # each end is finite in rad/s, but the distance between them is not
        (
            "beam-splitter",
            "[window]\nmin_MHz = -1.5e301\nmax_MHz = 1.5e301\n",
            "window span must be finite, got (-9.424777960769378e+307, 9.424777960769378e+307)",
        ),
    ],
    ids=["window-min", "window-max", "sweep-min", "sweep-max", "window-span"],
)
def test_a_window_that_overflows_in_rad_per_s_is_rejected(tmp_path, capsys, command, config, err):
    # these leaked numpy RuntimeWarnings and then blamed the detuning grid
    cfg = tmp_path / "window.cfg"
    cfg.write_text(config)
    assert run(capsys, [command, "--config", str(cfg)]) == (2, "", f"error: {err}\n")


def test_a_window_without_its_section_takes_the_finders_defaults(monkeypatch, capsys):
    # atomic owns the default window and scan size; the CLI reads them when it runs
    monkeypatch.setattr(atomic, "_WINDOW_MHZ", (-40.0, 10.0))
    monkeypatch.setattr(atomic, "_SCAN_POINTS", 11)
    code, out, err = run(capsys, ["sweep-delta"])
    assert (code, err) == (0, "")
    _, _, rows = parse_csv(out)
    assert [float(rows[i]["delta_MHz"]) for i in (0, -1)] == [-40.0, 10.0]
    assert len(rows) == 11


def test_repeated_in_process_beam_splitter_runs_print_the_golden_bytes(capsys):
    # the second run takes the medium's response and its scan from the cache
    want = (_GOLDEN / "beam_splitter.csv").read_text()
    for _ in range(2):
        assert run(capsys, ["beam-splitter"]) == (0, want, "")


def test_analyze_hashes_the_bytes_it_parses(tmp_path, capsys):
    trace_path = tmp_path / "traces.csv"
    _write_trace_file(trace_path)
    argv = ["analyze", str(trace_path), "--probe-frac", "0.65", "--conj-frac", "0.35"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert json.loads(out)["metadata"]["config_sha256"] == digest
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, ["analyze", missing] + argv[2:])
    assert (code, out) == (2, "")
    assert missing in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twinbeam.cli", "lumped-optimize"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "gemellity_dB" in proc.stdout


@pytest.mark.parametrize(
    "argv, code",
    [(["lumped-optimize"], 0), (["sweep-delta", "--config", "no-such-config.ini"], 2)],
    ids=["success", "invalid_input"],
)
def test_the_main_guard_exits_with_the_code_of_main(monkeypatch, capsys, argv, code):
    # the script path in this process; runpy warns if the module is already loaded
    expected = run(capsys, argv)
    assert expected[0] == code
    monkeypatch.setattr(sys, "argv", ["twinbeam", *argv])
    monkeypatch.delitem(sys.modules, "twinbeam.cli", raising=False)
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("twinbeam.cli", run_name="__main__")
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out, captured.err) == expected


def _run_module(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120, env=_CHILD_ENV
    )


def test_importing_the_cli_leaves_scipy_unloaded():
    proc = _run_module("import sys, twinbeam.cli; assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


# a None entry in sys.modules makes every import of scipy fail
_WITHOUT_SCIPY = (
    "import sys; sys.modules['scipy'] = None; "
    "from twinbeam.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["lumped-optimize"], None),
        (["sweep-delta"], "[sweep]\npoints = 11\n"),
        (["beam-splitter"], "[window]\npoints = 41\n"),
        (["beat-limit", "--seed", "0"], "[search]\nsegments = 1\nrestarts = 1\n"),
        (["analyze", "--probe-frac", "0.65", "--conj-frac", "0.35"], None),
    ],
    ids=["lumped-optimize", "sweep-delta", "beam-splitter", "beat-limit", "analyze"],
)
def test_every_command_runs_without_scipy(tmp_path, argv, config):
    argv = list(argv)
    if argv[0] == "analyze":
        trace_path = tmp_path / "traces.csv"
        _write_trace_file(trace_path)
        argv.insert(1, str(trace_path))
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    proc = _run_module(_WITHOUT_SCIPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_the_scipy_stub_blocks_scipy():
    code = _WITHOUT_SCIPY.replace("from twinbeam", "import scipy.linalg; from twinbeam")
    proc = _run_module(code)
    assert proc.returncode == 1
    assert "ModuleNotFoundError" in proc.stderr
