"""Measured spectrum-analyzer traces: calibration and twin-beam inference.

Input files are plain CSV with header `freq_hz,psd_db,label,rbw_hz`;
one file may carry several labeled traces (difference, probe,
conjugate, sql, electronic).  Traces are put on a common frequency
grid, normalized to the standard quantum limit after subtracting the
electronic floor in linear power units, and the scalar twin-beam
numbers are inferred at a chosen analysis frequency.

Parsing is columnar: numpy's C text reader reads every data row in one
call, and labels are grouped and sorted with array operations.  Blank
lines are skipped, fields may be space-padded or double-quoted, `#`
starts no comment, and a label field of 16 bytes or more is rejected.

Resolution-bandwidth differences between traces are rejected rather
than corrected; silently rescaling RBW is a classic way to get wrong
squeezing numbers.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .metrics import InferenceResult, infer_from_measurement

__all__ = [
    "TRACE_LABELS",
    "TraceFormatError",
    "SpectrumTrace",
    "PowerRecord",
    "TraceAnalysis",
    "parse_traces",
    "normalize_to_sql",
    "band_minimum",
    "analyze_traces",
]

TRACE_LABELS = ("difference", "probe", "conjugate", "sql", "electronic")

_CSV_HEADER = ["freq_hz", "psd_db", "label", "rbw_hz"]

_ROW = np.dtype([("freq", "f8"), ("psd", "f8"), ("label", "S16"), ("rbw", "f8")])
_BLANK_LINE = re.compile(rb"\n[ \t\v\f]+(?=\n|\Z)")
_CONTENT = re.compile(rb"[^\n]")


class TraceFormatError(ValueError):
    """Malformed or inconsistent trace data."""


@dataclass(frozen=True)
class SpectrumTrace:
    """One labeled noise-power trace.

    freq in Hz, strictly increasing; psd in dB (instrument-referenced
    before normalization, dB relative to the standard quantum limit
    after); rbw is the resolution bandwidth in Hz.
    """

    freq: np.ndarray
    psd: np.ndarray
    rbw: float
    label: str

    def __post_init__(self):
        freq = np.array(self.freq, dtype=float)
        psd = np.array(self.psd, dtype=float)
        if freq.ndim != 1 or freq.shape != psd.shape or freq.size == 0:
            raise ValueError("trace arrays must be nonempty 1-d and congruent")
        if freq.size > 1 and not np.all(np.diff(freq) > 0.0):
            raise ValueError(f"{self.label}: frequencies must be strictly increasing")
        if not (np.all(np.isfinite(freq)) and np.all(np.isfinite(psd))):
            raise ValueError(f"{self.label}: trace values must be finite")
        if not (math.isfinite(self.rbw) and self.rbw > 0.0):
            raise ValueError(
                f"{self.label}: resolution bandwidth must be finite and positive, got {self.rbw}"
            )
        if self.label not in TRACE_LABELS:
            raise ValueError(
                f"unknown trace label {self.label!r}; expected one of {TRACE_LABELS}"
            )
        freq.setflags(write=False)
        psd.setflags(write=False)
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "psd", psd)


@dataclass(frozen=True)
class PowerRecord:
    """Detected DC power fractions, normalized to the input probe power."""

    probe_frac: float
    conj_frac: float

    def __post_init__(self):
        for name, value in (("probe_frac", self.probe_frac), ("conj_frac", self.conj_frac)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.probe_frac < 0.0 or self.conj_frac < 0.0:
            raise ValueError(
                f"power fractions must be nonnegative, got "
                f"({self.probe_frac}, {self.conj_frac})"
            )


@dataclass(frozen=True)
class TraceAnalysis:
    """Normalized traces plus the scalar summary at the analysis frequency."""

    normalized: dict[str, SpectrumTrace]
    analysis_freq: float
    diff_db: float
    probe_db: float
    conj_db: float
    inference: InferenceResult

    def summary(self) -> dict:
        return {
            "analysis_freq_Hz": self.analysis_freq,
            "diff_dB": self.diff_db,
            "F_a_dB": self.probe_db,
            "F_b_dB": self.conj_db,
            "C_ab": self.inference.figures.c_ab,
            "gemellity_dB": self.inference.gemellity_db,
        }


def parse_traces(text: str) -> dict[str, SpectrumTrace]:
    """Parse CSV trace data and resample everything to a common grid.

    Rows are grouped by label; each label's rows are sorted by
    frequency and must have one uniform RBW, and all labels must share
    that RBW.  When grids differ, every trace is linearly interpolated
    onto the first label's grid clipped to the common overlap, so
    non-overlapping endpoints are trimmed.
    """
    if not text:
        raise TraceFormatError("trace file is empty")
    data = text.encode().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # numpy's reader skips empty lines but rejects whitespace-only ones
    data = _BLANK_LINE.sub(b"\n", data)
    stream = io.BytesIO(data)
    header = next(csv.reader([stream.readline().decode()]))
    if [h.strip() for h in header] != _CSV_HEADER:
        raise TraceFormatError(
            f"expected header {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    if _CONTENT.search(data, stream.tell()) is None:
        raise TraceFormatError("trace file contains no data rows")
    try:
        rows = np.loadtxt(
            stream, _ROW, comments=None, delimiter=",", quotechar='"', ndmin=1, encoding="latin1"
        )
    except ValueError as exc:
        raise _row_error(data, exc) from None

    fields, first, inverse = np.unique(rows["label"], return_index=True, return_inverse=True)
    # a field that fills its 16 bytes may have been cut short: marked, it
    # fails the label check rather than read as a shorter label
    names = [f.decode().strip() + "..." * (len(f) == fields.itemsize) for f in fields.tolist()]
    labels = list(dict.fromkeys(names[i] for i in np.argsort(first)))  # by first appearance
    group = np.array([labels.index(name) for name in names])[inverse]
    # rows of one label ordered by frequency; equal frequencies fail the
    # duplicate check, so every accepted trace comes out in the order
    # sorted() gives its (freq, psd, rbw) tuples
    order = np.lexsort((rows["freq"], group))
    ends = np.cumsum(np.bincount(group))[:-1]
    columns = (np.split(rows[key][order], ends) for key in ("freq", "psd", "rbw"))

    traces: dict[str, SpectrumTrace] = {}
    for label, freqs, psds, rbws in zip(labels, *columns):
        finite = np.isfinite(rbws)
        if finite.all() and not np.all(rbws == rbws[0]):
            raise TraceFormatError(
                f"trace {label!r} mixes resolution bandwidths {sorted(set(rbws.tolist()))}"
            )
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0.0):
            raise TraceFormatError(f"trace {label!r} has duplicate frequency points")
        # the first non-finite RBW, if any, for SpectrumTrace to reject by name
        rbw = float(rbws[np.argmin(finite)])
        try:
            traces[label] = SpectrumTrace(freqs, psds, rbw, label)
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from exc

    rbw_values = {t.rbw for t in traces.values()}
    if len(rbw_values) != 1:
        raise TraceFormatError(
            f"traces use different resolution bandwidths {sorted(rbw_values)}; "
            "re-measure rather than rescale"
        )
    return _common_grid(traces)


def _row_error(data: bytes, exc: ValueError) -> TraceFormatError:
    """csv.reader's error, with its file line, for the row numpy's reader failed on."""
    match = re.search(r"at row (\d+)", str(exc))
    if match is None:
        return TraceFormatError(f"unreadable trace data: {exc}")
    # numpy counts the rows after the header, skipping empty lines: from 0
    # when a value does not convert, from 1 when the column count is wrong
    row = int(match[1]) - (not str(exc).startswith("could not convert"))
    lines = data.split(b"\n")
    lineno = [i for i, line in enumerate(lines, start=1) if line][row + 1]
    fields = next(csv.reader([lines[lineno - 1].decode()]))
    if len(fields) != len(_CSV_HEADER):
        return TraceFormatError(f"line {lineno}: expected 4 columns, got {len(fields)}")
    return TraceFormatError(f"line {lineno}: non-numeric value in {fields!r}")


def _common_grid(traces: dict[str, SpectrumTrace]) -> dict[str, SpectrumTrace]:
    grids = [t.freq for t in traces.values()]
    first = grids[0]
    if all(a.shape == first.shape and np.array_equal(a, first) for a in grids[1:]):
        return traces
    lo = max(g[0] for g in grids)
    hi = min(g[-1] for g in grids)
    target = first[(first >= lo) & (first <= hi)]
    if target.size < 2:
        raise TraceFormatError(
            f"trace grids share less than two points (overlap [{lo:g}, {hi:g}] Hz)"
        )
    return {
        label: SpectrumTrace(target, np.interp(target, t.freq, t.psd), t.rbw, label)
        for label, t in traces.items()
    }


def _require_common_grid(*traces: SpectrumTrace) -> None:
    first = traces[0]
    for t in traces[1:]:
        if t.freq.shape != first.freq.shape or not np.array_equal(t.freq, first.freq):
            raise ValueError(
                f"traces {first.label!r} and {t.label!r} are not on a common grid"
            )
        if t.rbw != first.rbw:
            raise ValueError(
                f"traces {first.label!r} and {t.label!r} have different RBWs"
            )


def normalize_to_sql(
    trace: SpectrumTrace,
    sql: SpectrumTrace,
    electronic: SpectrumTrace | None = None,
) -> SpectrumTrace:
    """Express a trace in dB relative to the standard quantum limit.

    Electronic noise, when provided, is subtracted from both the trace
    and the SQL in linear power units before taking the ratio.  Every dB
    value and every ratio must be a positive finite float in linear
    units, and the subtraction must leave positive power at every
    frequency; violations are reported with the offending frequency.
    """
    involved = (trace, sql) if electronic is None else (trace, sql, electronic)
    _require_common_grid(*involved)
    with np.errstate(over="ignore"):
        powers = [10.0 ** (t.psd / 10.0) for t in involved]
    for t, power in zip(involved, powers):
        i = _first_not_positive_finite(power)
        if i is not None:
            raise ValueError(
                f"trace {t.label!r} at {t.freq[i]:g} Hz: {t.psd[i]:g} dB "
                "has no positive finite linear power"
            )
    signal, reference = powers[:2]
    if electronic is not None:
        signal = signal - powers[2]
        reference = reference - powers[2]
    for name, values in ((trace.label, signal), ("sql", reference)):
        bad = np.nonzero(values <= 0.0)[0]
        if bad.size:
            raise ValueError(
                f"electronic floor exceeds trace {name!r} at "
                f"{trace.freq[bad[0]]:g} Hz"
            )
    with np.errstate(over="ignore"):
        ratio = signal / reference
    i = _first_not_positive_finite(ratio)
    if i is not None:
        raise ValueError(
            f"trace {trace.label!r} at {trace.freq[i]:g} Hz: its linear ratio to the SQL "
            f"({trace.psd[i]:g} dB over {sql.psd[i]:g} dB) leaves the float range"
        )
    return SpectrumTrace(trace.freq, 10.0 * np.log10(ratio), trace.rbw, trace.label)


def _first_not_positive_finite(values: np.ndarray) -> int | None:
    """Index of the first entry that is not a positive finite float, if any."""
    bad = np.flatnonzero(~((values > 0.0) & (values < np.inf)))
    return int(bad[0]) if bad.size else None


def band_minimum(trace: SpectrumTrace, f_lo: float, f_hi: float) -> tuple[float, float]:
    """(frequency, value) of the trace minimum over [f_lo, f_hi]."""
    mask = (trace.freq >= f_lo) & (trace.freq <= f_hi)
    if not np.any(mask):
        raise ValueError(
            f"band [{f_lo:g}, {f_hi:g}] Hz contains no points of trace {trace.label!r}"
        )
    sub = np.nonzero(mask)[0]
    i = sub[np.argmin(trace.psd[sub])]
    return float(trace.freq[i]), float(trace.psd[i])


def analyze_traces(
    traces: dict[str, SpectrumTrace], powers: PowerRecord, analysis_freq: float | None = None
) -> TraceAnalysis:
    """Normalize a trace set and infer the twin-beam numbers.

    Requires difference, probe, conjugate and sql traces; an
    electronic trace is used for floor correction when present.  The
    analysis frequency defaults to the minimum of the normalized
    difference trace between 0.5 and 5 MHz and is snapped to the nearest
    grid point when given explicitly.
    """
    for label in ("difference", "probe", "conjugate", "sql"):
        if label not in traces:
            raise ValueError(f"missing required trace {label!r}")
    sql = traces["sql"]
    electronic = traces.get("electronic")
    normalized = {
        label: normalize_to_sql(traces[label], sql, electronic)
        for label in ("difference", "probe", "conjugate")
    }
    diff = normalized["difference"]
    if analysis_freq is None:
        analysis_freq, _ = band_minimum(diff, 0.5e6, 5e6)
    if not diff.freq[0] <= analysis_freq <= diff.freq[-1]:
        raise ValueError(
            f"analysis frequency {analysis_freq:g} Hz outside trace support "
            f"[{diff.freq[0]:g}, {diff.freq[-1]:g}] Hz"
        )
    index = int(np.argmin(np.abs(diff.freq - analysis_freq)))
    diff_db = float(diff.psd[index])
    probe_db = float(normalized["probe"].psd[index])
    conj_db = float(normalized["conjugate"].psd[index])
    return TraceAnalysis(
        normalized=normalized,
        analysis_freq=float(diff.freq[index]),
        diff_db=diff_db,
        probe_db=probe_db,
        conj_db=conj_db,
        inference=infer_from_measurement(
            diff_db, probe_db, conj_db, powers.probe_frac, powers.conj_frac
        ),
    )
