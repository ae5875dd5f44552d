"""Trace parsing, SQL normalization, and measured twin-beam inference."""

import csv
import io
import re
import warnings

import numpy as np
import pytest

from twinbeam import lumped, metrics, traces
from twinbeam.traces import PowerRecord, SpectrumTrace, TraceFormatError

HEADER = "freq_hz,psd_db,label,rbw_hz"


def rows_for(label, freq, psd, rbw=100e3):
    return [
        f"{float(f)!r},{float(p)!r},{label},{float(rbw)!r}" for f, p in zip(freq, psd)
    ]


def make_text(*blocks):
    lines = [HEADER]
    for block in blocks:
        lines.extend(block)
    return "\n".join(lines) + "\n"


def test_trace_validation():
    f = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SpectrumTrace(f[::-1].copy(), np.zeros(3), 1.0, "probe")
    with pytest.raises(ValueError):
        SpectrumTrace(f, np.zeros(2), 1.0, "probe")
    with pytest.raises(ValueError):
        SpectrumTrace(np.array([]), np.array([]), 1.0, "probe")
    with pytest.raises(ValueError):
        SpectrumTrace(f, np.array([0.0, np.nan, 0.0]), 1.0, "probe")
    for rbw in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"probe: .* must be finite and positive, got {rbw}"):
            SpectrumTrace(f, np.zeros(3), rbw, "probe")
    with pytest.raises(ValueError):
        SpectrumTrace(f, np.zeros(3), 1.0, "pump")


def test_power_record_validation():
    PowerRecord(0.0, 0.0)
    with pytest.raises(ValueError):
        PowerRecord(-0.1, 0.5)
    with pytest.raises(ValueError):
        PowerRecord(0.5, -0.1)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"probe_frac must be finite, got {value}"):
            PowerRecord(value, 0.5)
        with pytest.raises(ValueError, match=f"conj_frac must be finite, got {value}"):
            PowerRecord(0.5, value)


def test_parse_five_labels_on_one_grid():
    freq = np.linspace(1e5, 1e6, 10)
    blocks = [
        rows_for(label, freq, np.full(10, i * 1.5))
        for i, label in enumerate(traces.TRACE_LABELS)
    ]
    parsed = traces.parse_traces(make_text(*blocks))
    assert set(parsed) == set(traces.TRACE_LABELS)
    for i, label in enumerate(traces.TRACE_LABELS):
        np.testing.assert_array_equal(parsed[label].freq, freq)
        np.testing.assert_array_equal(parsed[label].psd, np.full(10, i * 1.5))
        assert parsed[label].rbw == 100e3


def test_parse_sorts_shuffled_rows():
    freq = np.linspace(1e5, 1e6, 10)
    psd = np.arange(10.0)
    rows = rows_for("probe", freq, psd)
    rng = np.random.default_rng(3)
    rng.shuffle(rows)
    parsed = traces.parse_traces(make_text(rows))
    np.testing.assert_array_equal(parsed["probe"].freq, freq)
    np.testing.assert_array_equal(parsed["probe"].psd, psd)


def test_parse_rejects_malformed_input():
    freq = np.array([1e5, 2e5, 3e5])
    good = rows_for("probe", freq, np.zeros(3))
    with pytest.raises(TraceFormatError):
        traces.parse_traces("")
    with pytest.raises(TraceFormatError):
        traces.parse_traces("frequency,noise\n1,2\n")
    with pytest.raises(TraceFormatError):
        traces.parse_traces(make_text())  # header only
    with pytest.raises(TraceFormatError):
        traces.parse_traces(make_text(good + ["1e5,0.0,probe"]))
    with pytest.raises(TraceFormatError):
        traces.parse_traces(make_text(good + ["2e5,loud,probe,100000.0"]))
    with pytest.raises(TraceFormatError):
        # unknown label is rejected, not silently carried along
        traces.parse_traces(make_text(rows_for("pump", freq, np.zeros(3))))
    with pytest.raises(TraceFormatError):
        # duplicate frequency point within one trace
        traces.parse_traces(make_text(good + ["100000.0,1.0,probe,100000.0"]))


def test_parse_rejects_mixed_resolution_bandwidths():
    freq = np.array([1e5, 2e5, 3e5])
    within = rows_for("probe", freq, np.zeros(3))[:2] + [
        "300000.0,0.0,probe,50000.0"
    ]
    with pytest.raises(TraceFormatError):
        traces.parse_traces(make_text(within))
    across = make_text(
        rows_for("probe", freq, np.zeros(3), rbw=100e3),
        rows_for("sql", freq, np.zeros(3), rbw=50e3),
    )
    with pytest.raises(TraceFormatError):
        traces.parse_traces(across)
    # a non-finite RBW is named as such, not as a mix
    for rbw in ("nan", "inf"):
        column = rows_for("probe", freq, np.zeros(3), rbw=float(rbw))
        one_row = rows_for("probe", freq, np.zeros(3))[:2] + [f"300000.0,0.0,probe,{rbw}"]
        for rows in (column, one_row):
            with pytest.raises(
                TraceFormatError,
                match=f"^probe: resolution bandwidth must be finite and positive, got {rbw}$",
            ):
                traces.parse_traces(make_text(rows))


def test_parse_resamples_shifted_grids_onto_the_first_trace():
    base = np.linspace(1e5, 1e6, 10)
    shifted = base + 0.5e5
    slope, offset = 2e-6, -40.0

    def ramp(f):
        return slope * f + offset

    text = make_text(
        rows_for("probe", base, np.zeros(10)),
        rows_for("sql", shifted, ramp(shifted)),
    )
    parsed = traces.parse_traces(text)
    expected = base[base >= shifted[0]]
    np.testing.assert_array_equal(parsed["probe"].freq, expected)
    np.testing.assert_array_equal(parsed["sql"].freq, expected)
    # linear interpolation is exact on a linear ramp
    np.testing.assert_allclose(parsed["sql"].psd, ramp(expected), atol=1e-10)


def test_parse_rejects_disjoint_grids():
    text = make_text(
        rows_for("probe", np.array([1e5, 2e5]), np.zeros(2)),
        rows_for("sql", np.array([9e5, 1e6]), np.zeros(2)),
    )
    with pytest.raises(TraceFormatError):
        traces.parse_traces(text)


def _flat(label, level, freq=None, rbw=100e3):
    if freq is None:
        freq = np.linspace(1e5, 1e6, 10)
    return SpectrumTrace(freq, np.full(freq.size, float(level)), rbw, label)


def test_normalization_against_the_sql():
    sql = _flat("sql", -80.0)
    same = traces.normalize_to_sql(_flat("difference", -80.0), sql)
    np.testing.assert_allclose(same.psd, 0.0, atol=1e-12)
    above = traces.normalize_to_sql(_flat("probe", -77.0), sql)
    np.testing.assert_allclose(above.psd, 3.0, atol=1e-12)


def test_normalization_subtracts_the_electronic_floor_linearly():
    freq = np.linspace(1e5, 1e6, 10)
    sql = SpectrumTrace(freq, 10.0 * np.log10(np.full(10, 2.0)), 1e5, "sql")
    sig = SpectrumTrace(freq, 10.0 * np.log10(np.full(10, 1.5)), 1e5, "probe")
    floor = SpectrumTrace(freq, 10.0 * np.log10(np.full(10, 0.5)), 1e5, "electronic")
    out = traces.normalize_to_sql(sig, sql, floor)
    np.testing.assert_allclose(out.psd, 10.0 * np.log10(1.0 / 1.5), atol=1e-12)


def test_normalization_is_invariant_under_reference_offsets():
    # instrument gain shifts every trace equally and must cancel
    freq = np.linspace(1e5, 1e6, 10)
    rng = np.random.default_rng(5)
    sig_db = rng.normal(-72.0, 2.0, size=10)
    sql_db = np.full(10, -78.0)
    floor_db = np.full(10, -92.0)

    def build(shift):
        return traces.normalize_to_sql(
            SpectrumTrace(freq, sig_db + shift, 1e5, "difference"),
            SpectrumTrace(freq, sql_db + shift, 1e5, "sql"),
            SpectrumTrace(freq, floor_db + shift, 1e5, "electronic"),
        )

    np.testing.assert_allclose(build(0.0).psd, build(7.3).psd, atol=1e-12)


def test_normalization_reports_floor_violations_with_the_frequency():
    freq = np.linspace(1e5, 1e6, 10)
    sig = _flat("probe", -75.0, freq)
    sql = _flat("sql", -80.0, freq)
    floor_db = np.full(10, -95.0)
    floor_db[4] = -74.0  # above the signal at this one point
    floor = SpectrumTrace(freq, floor_db, 100e3, "electronic")
    with pytest.raises(ValueError, match=f"{freq[4]:g}"):
        traces.normalize_to_sql(sig, sql, floor)


@pytest.mark.parametrize(
    "levels, electronic, err",
    [
        ((-75.0, 4000.0), None, "trace 'sql' at 200000 Hz: 4000 dB has no positive finite linear power"),
        ((-4000.0, -80.0), None, "trace 'probe' at 200000 Hz: -4000 dB has no positive finite linear power"),
        ((-75.0, -80.0), 3100.0, "trace 'electronic' at 200000 Hz: 3100 dB has no positive finite linear power"),
        (
            (3000.0, -100.0),
            None,
            r"trace 'probe' at 200000 Hz: its linear ratio to the SQL \(3000 dB over -100 dB\) "
            "leaves the float range",
        ),
        (
            (-3000.0, 300.0),
            None,
            r"trace 'probe' at 200000 Hz: its linear ratio to the SQL \(-3000 dB over 300 dB\) "
            "leaves the float range",
        ),
    ],
    ids=["sql_overflows", "trace_underflows", "floor_overflows", "ratio_overflows", "ratio_underflows"],
)
def test_normalization_names_a_db_value_outside_the_float_range(levels, electronic, err):
    freq = np.linspace(1e5, 1e6, 10)
    sig_db, sql_db = np.full(10, -75.0), np.full(10, -80.0)
    sig_db[1], sql_db[1] = levels
    floor = None
    if electronic is not None:
        floor_db = np.full(10, -95.0)
        floor_db[1] = electronic
        floor = SpectrumTrace(freq, floor_db, 100e3, "electronic")
    sig, sql = SpectrumTrace(freq, sig_db, 100e3, "probe"), SpectrumTrace(freq, sql_db, 100e3, "sql")
    with pytest.raises(ValueError, match=f"^{err}$"):
        traces.normalize_to_sql(sig, sql, floor)


def test_normalization_requires_common_grids_and_rbw():
    sql = _flat("sql", -80.0)
    other_grid = _flat("probe", -75.0, freq=np.linspace(2e5, 2e6, 10))
    with pytest.raises(ValueError):
        traces.normalize_to_sql(other_grid, sql)
    other_rbw = _flat("probe", -75.0, rbw=50e3)
    with pytest.raises(ValueError):
        traces.normalize_to_sql(other_rbw, sql)


def test_band_statistics():
    freq = np.linspace(1e5, 1e6, 10)
    psd = np.array([5.0, 4.0, 3.0, -2.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    trace = SpectrumTrace(freq, psd, 1e5, "difference")
    f_min, v_min = traces.band_minimum(trace, 2e5, 8e5)
    assert v_min == -2.0
    assert f_min == freq[3]
    with pytest.raises(ValueError):
        traces.band_minimum(trace, 2e6, 3e6)


def _synthetic_set(with_floor: bool):
    freq = np.linspace(2e5, 6e6, 30)
    sql_lin = np.full(30, 10.0 ** (-80.0 / 10.0))
    floor_lin = np.full(30, 10.0 ** (-95.0 / 10.0))
    diff_target = -9.2 + 2.0 * ((freq - 2e6) / 1e6) ** 2
    targets = {
        "difference": diff_target,
        "probe": np.full(30, 12.0),
        "conjugate": np.full(30, 12.0),
    }
    out = {}
    for label, rel_db in targets.items():
        lin = sql_lin * 10.0 ** (rel_db / 10.0)
        if with_floor:
            lin = lin + floor_lin
        out[label] = SpectrumTrace(freq, 10.0 * np.log10(lin), 1e5, label)
    sql = sql_lin + floor_lin if with_floor else sql_lin
    out["sql"] = SpectrumTrace(freq, 10.0 * np.log10(sql), 1e5, "sql")
    if with_floor:
        out["electronic"] = SpectrumTrace(
            freq, 10.0 * np.log10(floor_lin), 1e5, "electronic"
        )
    return out


@pytest.mark.parametrize("with_floor", [False, True])
def test_analysis_finds_the_band_minimum(with_floor):
    powers = PowerRecord(20.0 / 39.0, 19.0 / 39.0)
    analysis = traces.analyze_traces(_synthetic_set(with_floor), powers)
    assert analysis.analysis_freq == pytest.approx(2e6, abs=1e-6)
    assert analysis.diff_db == pytest.approx(-9.2, abs=1e-9)
    assert analysis.probe_db == pytest.approx(12.0, abs=1e-9)
    assert analysis.inference.gemellity_db == pytest.approx(
        -9.391006262576193, abs=1e-8
    )
    summary = analysis.summary()
    assert summary["analysis_freq_Hz"] == analysis.analysis_freq
    assert summary["gemellity_dB"] == analysis.inference.gemellity_db


def test_analysis_snaps_explicit_frequencies_to_the_grid():
    powers = PowerRecord(20.0 / 39.0, 19.0 / 39.0)
    data = _synthetic_set(False)
    analysis = traces.analyze_traces(data, powers, analysis_freq=3.05e6)
    assert analysis.analysis_freq == pytest.approx(3.0e6, abs=1e-6)
    assert analysis.diff_db == pytest.approx(-9.2 + 2.0, abs=1e-9)
    with pytest.raises(ValueError):
        traces.analyze_traces(data, powers, analysis_freq=9e6)


def test_analysis_requires_the_sql_trace():
    data = _synthetic_set(False)
    del data["sql"]
    with pytest.raises(ValueError, match="sql"):
        traces.analyze_traces(data, PowerRecord(0.5, 0.5))


def test_inference_recovers_a_simulated_cascade():
    config = lumped.LumpedConfig(1.8, 0.9, 0.85)
    res = lumped.cascade(config)
    diff_db = metrics.db_from_linear(
        metrics.weighted_difference_noise(res.figures, res.probe_flux, res.conj_flux)
    )
    inferred = metrics.infer_from_measurement(
        diff_db,
        metrics.db_from_linear(res.figures.f_a),
        metrics.db_from_linear(res.figures.f_b),
        res.probe_flux,
        res.conj_flux,
    )
    assert inferred.figures.c_ab == pytest.approx(res.figures.c_ab, abs=1e-9)
    assert inferred.gemellity == pytest.approx(res.gemellity, abs=1e-9)


# Parity of the columnar reader with a row-by-row csv.reader and float()
# parse: the oracle below is the reader the package used before.


def _reference_parse(text):
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    rows = {}
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        entry = (float(row[0]), float(row[1]), float(row[3]))
        rows.setdefault(row[2].strip(), []).append(entry)
    built = {}
    for label, entries in rows.items():
        entries.sort()
        freq, psd, rbw = zip(*entries)
        built[label] = SpectrumTrace(np.array(freq), np.array(psd), rbw[0], label)
    return traces._common_grid(built)


def _assert_parses_like_the_reference(text):
    parsed = traces.parse_traces(text)
    reference = _reference_parse(text)
    assert list(parsed) == list(reference)
    for label, want in reference.items():
        got = parsed[label]
        assert got.freq.tobytes() == want.freq.tobytes()
        assert got.psd.tobytes() == want.psd.tobytes()
        assert got.rbw == want.rbw
    return parsed


_THREE = [
    "100000.0,-1.5,probe,30000.0",
    "200000.0,-2.5,probe,30000.0",
    "300000.0,-3.5,probe,30000.0",
]


def test_parse_skips_blank_and_whitespace_only_lines():
    lines = [HEADER, "", _THREE[0], "   ", "\t", _THREE[1], " \t \f", "", _THREE[2], "  "]
    parsed = _assert_parses_like_the_reference("\n".join(lines) + "\n")
    assert parsed["probe"].psd.tolist() == [-1.5, -2.5, -3.5]


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_parse_accepts_crlf_and_cr_line_endings(ending):
    text = ending.join([HEADER, *_THREE]) + ending
    parsed = traces.parse_traces(text)
    assert parsed["probe"].freq.tolist() == [1e5, 2e5, 3e5]
    if ending == "\r\n":
        _assert_parses_like_the_reference(text)


def test_parse_accepts_a_missing_final_newline():
    _assert_parses_like_the_reference("\n".join([HEADER, *_THREE]))


def test_parse_accepts_padded_fields_and_a_quoted_label():
    lines = [
        " freq_hz , psd_db ,label, rbw_hz",
        " 100000.0 , -1.5 ,  probe , 30000.0 ",
        '200000.0,-2.5,"probe",30000.0',
        '"300000.0","-3.5"," probe ","30000.0"',
    ]
    parsed = _assert_parses_like_the_reference("\n".join(lines) + "\n")
    assert parsed["probe"].psd.tolist() == [-1.5, -2.5, -3.5]


def test_parse_rejects_a_hash_inside_a_field():
    text = make_text([_THREE[0], "200000.0,-2.5 # dip,probe,30000.0", _THREE[2]])
    with pytest.raises(TraceFormatError, match="line 3: non-numeric value"):
        traces.parse_traces(text)
    with pytest.raises(TraceFormatError, match="unknown trace label 'probe#1'"):
        traces.parse_traces(make_text(["100000.0,-1.5,probe#1,30000.0"]))


@pytest.mark.parametrize("body", ["", "\n", "\n  \n\t\n"], ids=["bare", "newline", "blank"])
def test_header_only_file_raises_without_a_warning(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceFormatError, match="contains no data rows"):
            traces.parse_traces(HEADER + "\n" + body)
    with pytest.raises(TraceFormatError, match="trace file is empty"):
        traces.parse_traces("")


@pytest.mark.parametrize("blanks", [0, 3])
def test_row_errors_name_the_file_line(blanks):
    # csv.reader's messages, with the header as line 1 and blank lines counted
    lines = [HEADER, _THREE[0]] + ["  "] * blanks + [_THREE[1]]
    bad = len(lines) + 1
    cases = {
        "2e5,-2.5,probe": f"line {bad}: expected 4 columns, got 3",
        "2e5,-2.5,probe,1,2": f"line {bad}: expected 4 columns, got 5",
        "2e5,loud,probe,30000.0": (
            f"line {bad}: non-numeric value in ['2e5', 'loud', 'probe', '30000.0']"
        ),
        "2e5, ,probe,30000.0": (
            f"line {bad}: non-numeric value in ['2e5', ' ', 'probe', '30000.0']"
        ),
        "2_000,-2.5,probe,30000.0": (
            f"line {bad}: non-numeric value in ['2_000', '-2.5', 'probe', '30000.0']"
        ),
    }
    for row, message in cases.items():
        text = "\n".join(lines + [row, _THREE[2]]) + "\n"
        with pytest.raises(TraceFormatError) as info:
            traces.parse_traces(text)
        assert str(info.value) == message
    with pytest.raises(TraceFormatError, match=r"^line 2: expected 4 columns, got 1$"):
        traces.parse_traces(make_text(["# a comment line"]))
    with pytest.raises(TraceFormatError, match=r"^line 2: non-numeric value"):
        traces.parse_traces(make_text(["1e5,-1,probe,nope"]))


@pytest.mark.parametrize(
    "label, shown",
    [
        ("difference" * 4, "differencediffer"),
        ("probe" + " " * 20 + "x", "probe"),
        ("sql" + " " * 13, "sql"),
    ],
    ids=["long", "padded", "wide"],
)
def test_over_long_labels_are_rejected(label, shown):
    # a label field of 16 bytes or more may have been cut; however it is
    # padded, it never reads as a valid label
    text = make_text(_THREE, [f"400000.0,-4.5,{label},30000.0"])
    with pytest.raises(TraceFormatError, match=re.escape(f"unknown trace label '{shown}...'")):
        traces.parse_traces(text)


def test_parse_matches_the_reference_on_a_shuffled_two_grid_file():
    rng = np.random.default_rng(11)
    base = np.sort(rng.uniform(1e5, 1e7, 2500))
    shifted = base + rng.uniform(0.0, 2e3)
    formats = ("{!r}", "{:.3f}", "{:.10e}", "{:g}", "{:.7f}")
    lines = []
    grids = {"difference": base, "probe": base, "conjugate": shifted, "sql": base}
    for label, grid in grids.items():
        psd = rng.normal(-70.0, 8.0, grid.size)
        for f, p in zip(grid.tolist(), psd.tolist()):
            fmt = formats[int(rng.integers(len(formats)))]
            lines.append(f"{f!r},{fmt.format(p)},{label},30000.0")
    rng.shuffle(lines)
    parsed = _assert_parses_like_the_reference("\n".join([HEADER, *lines]) + "\n")
    assert len(parsed) == 4
    assert parsed["conjugate"].freq.size < base.size  # resampled onto the overlap
