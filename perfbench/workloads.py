"""The three workloads: operations, their output checks and the run loop.

An operation is one unit of user-visible work: a `twinbeam` process
(cli_mix), the analysis of one medium (atomic_scan) or one profile
search (profile_search).  Each workload is a closed loop with one
client: the next operation starts when the previous one has finished.
Operations come in rounds (the command cycle, one medium, the search
panel); a new round starts only while the previous round's duration
still fits before the deadline, so every run measures whole rounds.

In a traced run every operation runs traced, and every other one also
runs untraced; the pair gives the tracing overhead and must give
identical output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import speed
from startup import source_env

CLI_TIMEOUT_S = 60


class OpFailed(Exception):
    """An operation ended without a usable result; `kind` classifies it."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    work: Path
    tracer: object | None = None  # tracer.Tracer for in-process traced runs
    references: dict = field(default_factory=dict)
    probe: speed.SpeedProbe = field(default_factory=speed.SpeedProbe)

    @property
    def spans(self) -> Path:
        return self.work / "spans"


@dataclass
class OpRecord:
    """Times are nominal seconds (see speed.py); raw_s is the untraced wall time."""

    kind: str
    index: int
    wall_s: float | None = None
    traced_s: float | None = None
    raw_s: float | None = None
    failure: str | None = None
    problems: list[str] = field(default_factory=list)
    gemellity: float | None = None
    evaluations: int = 0


class Op:
    """One operation: `call` runs it, `check` lists what is wrong with
    its result, `fingerprint` is what must repeat exactly."""

    kind = "op"
    key: object = None
    in_process = True

    def call(self, ctx: Context, traced: bool, op_id: int):
        raise NotImplementedError

    def check(self, value) -> list[str]:
        return []

    def fingerprint(self, value):
        return value

    def gemellity(self, value) -> float | None:
        return None

    def evaluations(self, value) -> int:
        return 0


def _close(name: str, got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want):
        return []
    return [f"{name} = {got!r}, expected {want!r} (rtol {rtol}, atol {atol})"]


# --------------------------------------------------------------- cli_mix


def parse_cli_csv(stdout: bytes) -> tuple[dict[str, str], list[dict[str, str]]]:
    summary, table = {}, []
    for line in stdout.decode().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            summary[key] = value
        elif line:
            table.append(line)
    return summary, list(csv.DictReader(io.StringIO("\n".join(table))))


def exit_class(code: int) -> str:
    if code == 2:
        return "exit2_validation"
    if code == 3:
        return "exit3_computation"
    return f"exit{code}" if code > 0 else f"signal{-code}"


class CliOp(Op):
    in_process = False

    def __init__(self, kind: str, args: list[str], check=None, gemellity=None):
        self.kind = kind
        self.args = args
        self.key = tuple(args)
        self._check = check
        self._gemellity = gemellity

    def call(self, ctx, traced, op_id):
        """(stdout, speed samples, seconds the sampler took)."""
        samples = ctx.work / "speed.json"
        samples.unlink(missing_ok=True)
        cmd = [sys.executable, str(ctx.root / "perfbench" / "launch.py"), str(samples)]
        if traced:
            cmd += [str(ctx.spans), str(op_id)]
        cmd += ["--", *self.args]
        # output goes to files, not pipes: a pipe write interrupted by the
        # sampler's timer signal lost output (3 of 30 analyze runs), a file
        # write is not interrupted
        out_path, err_path = ctx.work / "stdout", ctx.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            done = subprocess.run(
                cmd, cwd=ctx.root, env=source_env(ctx.root), stdout=out, stderr=err,
                timeout=CLI_TIMEOUT_S,
            )
        if done.returncode != 0:
            raise OpFailed(exit_class(done.returncode), err_path.read_text()[-300:])
        speed = json.loads(samples.read_text())
        return out_path.read_bytes(), speed["samples"], speed["spent_s"]

    def check(self, value):
        return self._check(*parse_cli_csv(value)) if self._check else []

    def gemellity(self, value):
        return self._gemellity(*parse_cli_csv(value)) if self._gemellity else None


def _check_lumped(summary, rows):
    row = rows[0]
    return _close("gain", float(row["gain"]), inputs.LUMPED_GAIN, atol=1e-3) + _close(
        "gemellity_dB", float(row["gemellity_dB"]), inputs.LUMPED_GEMELLITY_DB, atol=1e-4
    )


def _check_beam_splitter(summary, rows):
    row = rows[0]
    problems = _close("G_a + G_b", float(row["G_a"]) + float(row["G_b"]), 1.0, atol=1e-3)
    if not 0.0 < float(row["gemellity"]) < 1.0:
        problems.append(f"gemellity {row['gemellity']} not below the shot-noise level 1")
    return problems


def classical_gains(params, delta: float) -> tuple[float, float]:
    """|expm(block)|^2 of the generator `sideband_response` gives at delta."""
    from scipy.linalg import expm
    from twinbeam import atomic

    block = atomic.sideband_response(
        dataclasses.replace(params, two_photon_detuning=delta)
    ).pair_block
    e = expm(block)
    return float(abs(e[0, 0]) ** 2), float(abs(e[1, 0]) ** 2)


def _check_sweep(summary, rows):
    from twinbeam import atomic, configio

    if len(rows) != 251:
        return [f"sweep has {len(rows)} rows, expected 251"]
    g_a = np.array([float(r["G_a"]) for r in rows])
    picks = sorted({0, 62, 125, 188, 250, int(np.argmin(g_a))})
    problems = []
    for i in picks:
        delta = configio.angular_from_mhz(float(rows[i]["delta_MHz"]))
        want_a, want_b = classical_gains(atomic.AtomicParams(), delta)
        problems += _close(f"G_a[{i}]", float(rows[i]["G_a"]), want_a, rtol=1e-6, atol=1e-12)
        problems += _close(f"G_b[{i}]", float(rows[i]["G_b"]), want_b, rtol=1e-6, atol=1e-12)
    return problems


def _row_gemellity(summary, rows):
    return float(rows[0]["gemellity"])


TRACE_FILES = 2


def cli_mix_prepare(ctx: Context) -> None:
    """Trace files for analyze; rounds alternate between them."""
    (ctx.work / "inputs").mkdir(parents=True, exist_ok=True)
    for index in range(TRACE_FILES):
        path = ctx.work / "inputs" / f"traces-{index}.csv"
        ctx.references[path] = inputs.write_trace_file(path, ctx.seed, index)


def cli_mix_round(ctx: Context, index: int) -> list[Op]:
    """lumped-optimize, analyze, beam-splitter on the default and on a
    seeded medium, sweep-delta at the default --workers."""
    trace_path = ctx.work / "inputs" / f"traces-{index % TRACE_FILES}.csv"
    ref = ctx.references[trace_path]
    keys, _ = inputs.draw_medium(ctx.seed, index)
    medium_path = ctx.work / "inputs" / f"medium-{index}.cfg"
    medium_path.write_text(inputs.medium_config(keys))
    want_db = 10.0 * math.log10(ref["gemellity"])

    def check_analyze(summary, rows):
        return _close("gemellity_dB", float(summary["gemellity_dB"]), want_db, atol=1e-3)

    def analyze_gemellity(summary, rows):
        return 10.0 ** (float(summary["gemellity_dB"]) / 10.0)

    rel = lambda p: str(p.relative_to(ctx.root))  # noqa: E731
    return [
        CliOp("lumped_optimize", ["lumped-optimize"], _check_lumped, _row_gemellity),
        CliOp(
            "analyze",
            ["analyze", rel(trace_path), "--probe-frac", repr(ref["probe_frac"]),
             "--conj-frac", repr(ref["conj_frac"])],
            check_analyze, analyze_gemellity,
        ),
        CliOp("beam_splitter", ["beam-splitter"], _check_beam_splitter, _row_gemellity),
        CliOp(
            "beam_splitter",
            ["beam-splitter", "--config", rel(medium_path)],
            _check_beam_splitter, _row_gemellity,
        ),
        CliOp("sweep_delta", ["sweep-delta"], _check_sweep),
    ]


# ----------------------------------------------------------- atomic_scan


class MediumOp(Op):
    kind = "medium"

    def __init__(self, params, points: int):
        self.params = params
        self.points = points

    def call(self, ctx, traced, op_id):
        from twinbeam import atomic, configio

        p = self.params
        grid = np.linspace(
            configio.angular_from_mhz(-150.0), configio.angular_from_mhz(50.0), self.points
        )
        curve = atomic.gain_curves(p, grid)
        dip = atomic.find_raman_dip(p, n_scan=self.points)
        point = atomic.find_beam_splitter_point(p, n_scan=self.points)
        out = atomic.pair_output(dataclasses.replace(p, two_photon_detuning=point.delta))
        return grid, curve, dip, point, out

    def check(self, value):
        grid, curve, dip, point, out = value
        lowest = int(np.argmin(curve.probe_gain))
        problems = []
        for i in sorted({0, self.points // 2, self.points - 1, lowest}):
            want_a, want_b = classical_gains(self.params, float(grid[i]))
            problems += _close(f"probe_gain[{i}]", float(curve.probe_gain[i]), want_a, rtol=1e-6, atol=1e-12)
            problems += _close(f"conj_gain[{i}]", float(curve.conj_gain[i]), want_b, rtol=1e-6, atol=1e-12)
        step = float(grid[1] - grid[0])
        problems += _close("dip detuning", dip[0], float(grid[lowest]), atol=1.01 * step)
        problems += _close("dip gain", dip[1], float(curve.probe_gain[lowest]), rtol=1e-3)
        problems += _close("G_a + G_b", point.probe_gain + point.conj_gain, 1.0, atol=1e-3)
        if not 0.0 < point.gemellity < 1.0:
            problems.append(f"gemellity {point.gemellity} not below the shot-noise level 1")
        problems += _close("pair_output G_a", out.g_a, point.probe_gain, rtol=1e-6)
        problems += _close("pair_output gemellity", out.gemellity, point.gemellity, rtol=1e-6)
        return problems

    def fingerprint(self, value):
        _, _, dip, point, _ = value
        return dip, point.delta, point.gemellity

    def gemellity(self, value):
        return value[3].gemellity


def atomic_scan_round(ctx: Context, index: int) -> list[Op]:
    from twinbeam import atomic

    keys, points = inputs.draw_medium(ctx.seed, index)
    params = atomic.params_from_mapping({k: repr(v) for k, v in keys.items()})
    return [MediumOp(params, points)]


def atomic_scan_prepare(ctx: Context) -> None:
    from twinbeam import atomic

    atomic.gain_curves(atomic.AtomicParams(), np.linspace(-1e9, 3e8, 5))
    atomic.pair_output(atomic.AtomicParams())


# -------------------------------------------------------- profile_search


class SearchOp(Op):
    kind = "search"
    feasibility_tol = 0.01  # the search default

    def __init__(self, segments: int, search_seed: int):
        self.segments = segments
        self.search_seed = search_seed
        self.key = (segments, search_seed)

    def call(self, ctx, traced, op_id):
        from twinbeam import propagation

        return propagation.search_beyond_lumped_limit(
            n_segments=self.segments, seed=self.search_seed
        )

    def check(self, value):
        problems = []
        if not value.found:
            problems.append(f"search {self.key} found no profile below the target")
        problems += _close(
            "G_a + G_b", value.result.sum_transmission, 1.0, atol=self.feasibility_tol
        )
        if len(value.profile.slabs) != self.segments:
            problems.append(f"profile has {len(value.profile.slabs)} segments")
        return problems

    def fingerprint(self, value):
        return value.found, value.evaluations, value.result.gemellity

    def gemellity(self, value):
        return value.result.gemellity

    def evaluations(self, value):
        return value.evaluations


def profile_search_round(ctx: Context, index: int) -> list[Op]:
    return [SearchOp(segments, seed) for segments, seed in inputs.search_order(ctx.seed)]


def profile_search_prepare(ctx: Context) -> None:
    from twinbeam import propagation

    slab = propagation.Slab(1.0, 1.0, 0.5, 0.5)
    propagation.propagate(propagation.SlabProfile((slab,)), subdivisions=8)


# name: (round of operations, preparation before timing, fewest rounds);
# cli_mix runs two rounds at least so that its commands always repeat
WORKLOADS = {
    "cli_mix": (cli_mix_round, cli_mix_prepare, 2),
    "atomic_scan": (atomic_scan_round, atomic_scan_prepare, 1),
    "profile_search": (profile_search_round, profile_search_prepare, 1),
}


# -------------------------------------------------------------- the loop


def _timed(ctx: Context, op: Op, traced: bool, op_id: int):
    tracer = ctx.tracer
    if traced and tracer is not None:
        tracer.op = op_id
        tracer.enabled = True
    try:
        mode = "inside" if op.in_process else "child"
        return ctx.probe.measure(lambda: op.call(ctx, traced, op_id), mode)
    finally:
        if tracer is not None:
            tracer.enabled = False


def run_op(ctx: Context, op: Op, op_id: int, seen: dict) -> OpRecord:
    record = OpRecord(op.kind, op_id)
    modes = [False]
    if ctx.trace:
        # every operation runs traced; every other one also untraced, in
        # alternating order, for the overhead and the output comparison
        modes = [[False, True], [True], [True, False], [True]][op_id % 4]
    try:
        values = []
        for traced in modes:
            value, raw, seconds = _timed(ctx, op, traced, op_id)
            if traced:
                record.traced_s = seconds
            else:
                record.wall_s, record.raw_s = seconds, raw
            values.append(value)
        record.problems = op.check(values[0])
        record.gemellity = op.gemellity(values[0])
        record.evaluations = op.evaluations(values[0])
        for value in values:
            fp = op.fingerprint(value)
            key = (op.kind, op.key if op.key is not None else op_id)
            if seen.setdefault(key, fp) != fp:
                record.problems.append(f"output of {key} differs between identical runs")
                record.failure = "nondeterministic"
    except OpFailed as exc:
        record.failure = exc.kind
        record.problems.append(str(exc))
    except Exception as exc:  # an in-process operation that raised
        record.failure = f"exception:{type(exc).__name__}"
        record.problems.append(f"{type(exc).__name__}: {exc}")
    if record.problems and record.failure is None:
        record.failure = "check"
    return record


def run_workload(ctx: Context, name: str) -> tuple[list[OpRecord], float]:
    make_round, prepare, min_rounds = WORKLOADS[name]
    prepare(ctx)
    records: list[OpRecord] = []
    seen: dict = {}
    start = perf_counter()
    last_round = 0.0
    index = 0
    while index < min_rounds or perf_counter() - start + last_round <= ctx.seconds:
        ops = make_round(ctx, index)
        began = perf_counter()
        for op in ops:
            records.append(run_op(ctx, op, len(records), seen))
        last_round = perf_counter() - began
        index += 1
    return records, perf_counter() - start


def median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0
