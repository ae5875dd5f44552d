"""End-to-end command-line checks: output formats, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twinbeam import cli, lumped

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
    ],
)
def test_discretization_keys_are_rejected(tmp_path, capsys, command, section, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"[{section}]\n{key} = 64\n")
    code, out, err = run(capsys, [command, "--config", str(cfg), "--seed", "0"])
    assert code == 2
    assert out == ""
    assert f"unknown keys in [{section}]: {key}" in err


@pytest.mark.parametrize("key", ["grid_step", "refine_tol"])
def test_lumped_section_is_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"[lumped]\n{key} = 0.05\n")
    code, out, err = run(capsys, ["lumped-optimize", "--config", str(cfg)])
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
    code, _, err = run(capsys, ["lumped-optimize", "--config", "/nonexistent.cfg"])
    assert code == 2
    assert err == "error: configuration file not found: /nonexistent.cfg\n"

    cfg = tmp_path / "bad_section.cfg"
    cfg.write_text("[mystery]\nkey = 1\n")
    assert run(capsys, ["lumped-optimize", "--config", str(cfg)])[0] == 2

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


def test_computation_failures_exit_with_3(tmp_path, capsys):
    cfg = tmp_path / "no_crossing.cfg"
    cfg.write_text(
        "[atomic]\ndepth = 0\n\n[window]\nmin_MHz = -10\nmax_MHz = -5\n"
        "points = 11\n"
    )
    code, _, err = run(capsys, ["beam-splitter", "--config", str(cfg)])
    assert code == 3
    assert "error:" in err
    # a valid depth whose output noise leaves the float range at -10.8 MHz
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[atomic]\ndepth = 1e6\n")
    code, out, err = run(capsys, ["sweep-delta", "--config", str(cfg)])
    assert code == 3
    assert out == ""
    assert "overflow" in err and "two-photon detuning -10.8 MHz" in err
    # every scan point's gains leave the float range, so none has a sign; from
    # depth 1e160 on the blocks' squares would too, before any exponent, and
    # at 1.7e308 so would 4 k in the exponential's range test
    for depth in ("1e12", "1e160", "1e300", "1.7e308"):
        cfg.write_text(f"[atomic]\ndepth = {depth}\n")
        code, out, err = run(capsys, ["beam-splitter", "--config", str(cfg)])
        assert (code, out) == (3, "")
        assert err == (
            "error: no flux-neutral crossing in the window [-9.424778e+08, 3.141593e+08] rad/s\n"
        )


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
    ],
    ids=["1e6", "1e7", "1e9", "1e6-wide"],
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


@pytest.mark.parametrize("command", ["sweep-delta", "beam-splitter"])
def test_atomic_csv_matches_the_golden_file(capsys, command):
    # the default config's output, committed byte for byte
    code, out, err = run(capsys, [command])
    assert (code, err) == (0, "")
    assert out == (_GOLDEN / f"{command.replace('-', '_')}.csv").read_text()


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
    )
    assert proc.returncode == 0
    assert "gemellity_dB" in proc.stdout


def _run_module(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120
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
