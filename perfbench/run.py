"""twinbeam benchmark: end-to-end and per-layer cost of the three workloads.

    python3 perfbench/run.py --workload cli_mix|atomic_scan|profile_search|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing needs installing.  The metric names and units come from
`BENCHMARK.json`.  With `--trace 0` the run reports the end-to-end
metrics, with `--trace 1` the per-layer metrics from spans around every
public function of the traced modules.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries the run metadata.  A report with
every operation, failure class and flag is written to
`perfbench/.work/<workload>/report-trace<0|1>.json`.

`--workload all` runs the three workloads one after the other, each in
its own process, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The model multiplies 2x2 to 16x16 matrices, where extra BLAS threads
# only spin: with the default two OpenBLAS threads a 251-point gain
# curve takes 0.43 s and burns both cores, with one 0.36 s.  Pinning
# keeps runs comparable on a shared machine; the metadata records it.
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _key in BLAS_ENV:
    os.environ.setdefault(_key, "1")

import startup  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)

# Layers each workload must reach; a zero call count here is flagged in
# the report and on stderr instead of passing for a free layer.
EXPECTED_CALLS = {
    "cli_mix": (
        "cli.main", "configio.parse_sections", "lumped.optimize_unit_transmission",
        "lumped.cascade", "traces.parse_traces", "traces.normalize_to_sql",
        "traces.analyze_traces", "metrics.infer_from_measurement",
        "atomic.sideband_response", "atomic.find_beam_splitter_point",
        "atomic.pair_output", "propagation.propagate_coupling",
        "gaussian.compose", "gaussian.cp_defect", "metrics.gemellity",
    ),
    "atomic_scan": (
        "atomic.liouvillian", "atomic.steady_state", "atomic.sideband_response",
        "atomic.gain_curves", "atomic.find_raman_dip",
        "atomic.find_beam_splitter_point", "atomic.pair_output",
        "propagation.propagate_coupling", "gaussian.compose", "gaussian.cp_defect",
        "metrics.noise_figures", "metrics.gemellity",
    ),
    "profile_search": (
        "propagation.search_beyond_lumped_limit", "propagation.propagate",
        "propagation.slab_channel", "gaussian.compose", "gaussian.cp_defect",
        "gaussian.apply", "metrics.noise_figures", "metrics.gemellity",
    ),
}

SETUP_RUNS = 5
STARTUP_RUNS = 3


def run_metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "machine": platform.machine(),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(records, workload: str, setup: list[float]) -> dict[str, float]:
    ok = [r for r in records if r.failure is None]
    busy = sum(r.wall_s for r in records if r.wall_s is not None)
    return {
        "setup_s": statistics.median(setup),
        "op_s": workloads.median_or_zero(r.wall_s for r in ok),
        "ops_per_s": len(ok) / busy if busy > 0 else 0.0,
        "gemellity": workloads.median_or_zero(r.gemellity for r in ok),
        "peak_rss_mb": peak_rss_mb(workload),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(records, totals, rows, imports, names, factor: float) -> dict[str, float]:
    """Per traced operation; self times in nominal seconds via `factor`."""
    traced = [r for r in records if r.traced_s is not None]
    per_op = max(len(traced), 1)
    paired = [r for r in traced if r.wall_s is not None and r.failure is None]
    values = {
        "tracing.overhead_pct": 100.0 * (
            _ratio(sum(r.traced_s for r in paired), sum(r.wall_s for r in paired)) - 1.0
        ) if paired else 0.0,
        "traces.parse_traces.rows": rows / per_op,
        "atomic.liouvillian_per_response": _ratio(
            totals.get("atomic.liouvillian", {}).get("calls", 0),
            totals.get("atomic.sideband_response", {}).get("calls", 0),
        ),
        "gaussian.cp_checks_per_compose": _ratio(
            totals.get("gaussian.cp_defect", {}).get("calls", 0),
            totals.get("gaussian.compose", {}).get("calls", 0),
        ),
        "propagation.search.evaluations": sum(r.evaluations for r in traced) / per_op,
        "propagation.search.evals_per_s": _ratio(
            sum(r.evaluations for r in paired if r.kind == "search"),
            sum(r.wall_s for r in paired if r.kind == "search"),
        ),
    }
    for key, seconds in imports.items():
        values[f"startup.{key}_s"] = seconds
    for kind in ("lumped_optimize", "analyze", "beam_splitter", "sweep_delta"):
        values[f"command.{kind}.wall_s"] = workloads.median_or_zero(
            r.wall_s for r in records if r.kind == kind and r.failure is None
        )
    for name in names:
        entry = totals.get(name, {})
        values[f"{name}.calls"] = entry.get("calls", 0) / per_op
        values[f"{name}.self_s"] = entry.get("self_s", 0.0) * factor / per_op
    return values


def zero_call_flags(workload: str, totals: dict, names: list[str]) -> list[str]:
    flags = []
    for name in EXPECTED_CALLS[workload]:
        if name not in names:
            flags.append(f"{name}: no such public function, layer not measured")
        elif totals.get(name, {}).get("calls", 0) == 0:
            flags.append(f"{name}: zero calls where calls are expected")
    return flags


def failure_counts(records) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in records:
        if r.failure is not None:
            counts[r.failure] = counts.get(r.failure, 0) + 1
    return counts


def run_one(args, manifest) -> int:
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meta = run_metadata(args)
    ctx = workloads.Context(ROOT, args.seed, float(args.seconds), bool(args.trace), work)

    setup: list[float] = []
    imports: dict[str, float] = {}
    names: list[str] = []
    if args.trace:
        imports = startup.import_breakdown(ROOT, STARTUP_RUNS, ctx.probe)
        if args.workload != "cli_mix":
            from tracer import Tracer

            ctx.tracer = Tracer(ctx.spans, clock=ctx.probe.clock)
            names = ctx.tracer.install()
    else:
        setup = startup.setup_times(ROOT, SETUP_RUNS, ctx.probe, work / "speed.json")

    records, elapsed = workloads.run_workload(ctx, args.workload)

    flags: list[str] = []
    if args.trace:
        from tracer import layer_totals, public_functions

        if ctx.tracer is not None:
            ctx.tracer.flush()
        else:
            names = [name for name, _ in public_functions()]
        totals, rows = layer_totals(ctx.spans)
        values = per_layer(records, totals, rows, imports, names, ctx.probe.factor())
        flags = zero_call_flags(args.workload, totals, names)
        wanted = manifest["per_layer"]
    else:
        values = end_to_end(records, args.workload, setup)
        wanted = manifest["end_to_end"]
    shutil.rmtree(work / "inputs", ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = failure_counts(records)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    report = {
        "metadata": meta,
        "elapsed_s": elapsed,
        "speed_factor": ctx.probe.factor(),
        "speed_between_s": ctx.probe.samples,
        "speed_inside_s": ctx.probe.inside,
        "setup_s_samples": setup,
        "failures": failures,
        "flags": flags,
        "operations": [vars(r) for r in records],
        "values": values,
        "result": result,
    }
    (work / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    for flag in flags:
        print(f"flag: {flag}", file=sys.stderr)
    for r in records:
        for problem in r.problems:
            print(f"{r.kind}[{r.index}] {r.failure}: {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{args.workload:15s} {name:45s} {entry['value']:.6g} {entry['unit']}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; every metric with its unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    if not (ROOT / "src" / "twinbeam" / "cli.py").is_file():
        print(f"error: no twinbeam source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_one(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
