"""Command-line front end.

Subcommands: lumped-optimize, sweep-delta, beam-splitter, beat-limit,
analyze.  Every command reads an optional sectioned config file, emits
CSV (default) or JSON to --out or stdout, and is deterministic for a
fixed config and seed: identical invocations produce byte-identical
output.  JSON output carries run metadata (package version, config
hash, seed) but deliberately no timestamps.

Exit codes: 0 success, 2 validation error (bad flags, malformed
config or trace data), 3 computation error (no flux-neutral crossing,
degenerate steady state, non-convergence).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__, atomic, lumped, propagation, traces
from .configio import (
    ConfigError,
    angular_from_mhz,
    load_sections,
    mhz_from_angular,
    section_float,
    section_int,
)

__all__ = ["main"]


# one config file may serve several commands; each command reads its
# own sections and ignores the rest, but section names must be known
_KNOWN_SECTIONS = {"atomic", "sweep", "window", "search"}


def _load_config(path: str | None) -> tuple[dict[str, dict[str, str]], str | None]:
    if path is None:
        return {}, None
    sections: dict[str, dict[str, str]] = {}
    for name, mapping in load_sections(path):
        if name not in _KNOWN_SECTIONS:
            raise ConfigError(
                f"unknown section [{name}] in {path}; "
                f"expected one of {', '.join(sorted(_KNOWN_SECTIONS))}"
            )
        if name in sections:
            raise ConfigError(f"duplicate section [{name}] in {path}")
        sections[name] = mapping
    return sections, hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_keys(mapping: dict[str, str], section: str, allowed: set[str]) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _render_csv(columns: dict[str, list], summary: dict) -> str:
    # one % over a row template: %.12g for float columns, %s of _fmt for others
    lines = [f"# {key} = {_fmt(value)}" for key, value in summary.items()]
    rows = len(next(iter(columns.values()), ()))
    if rows:
        floats = [all(map(isinstance, column, repeat(float))) for column in columns.values()]
        cells = [c if f else map(_fmt, c) for c, f in zip(columns.values(), floats)]
        template = ",".join("%.12g" if f else "%s" for f in floats)
        lines.append(",".join(columns))
        lines.append("\n".join([template] * rows) % tuple(chain.from_iterable(zip(*cells))))
    return "\n".join(lines) + "\n"


def _emit(args, command: str, columns: dict[str, list], summary: dict, config_sha256) -> None:
    metadata = {
        "version": __version__,
        "command": command,
        "config_sha256": config_sha256,
        "seed": getattr(args, "seed", None),
    }
    if args.format == "json":
        rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
        document = {"metadata": metadata, "summary": summary, "rows": rows}
        text = json.dumps(document, indent=2) + "\n"
    else:
        text = _render_csv(columns, summary)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def cmd_lumped_optimize(args) -> int:
    _, digest = _load_config(args.config)
    opt = lumped.optimize_unit_transmission()
    columns = {
        "gain": [opt.config.gain],
        "probe_transmission": [opt.config.probe_transmission],
        "conj_transmission": [opt.config.conj_transmission],
        "gemellity": [opt.gemellity],
        "gemellity_dB": [opt.gemellity_db],
    }
    summary = {
        "interior_in_gain": opt.interior_in_gain,
        "conj_at_boundary": opt.conj_at_boundary,
    }
    _emit(args, "lumped-optimize", columns, summary, digest)
    return 0


def cmd_sweep_delta(args) -> int:
    sections, digest = _load_config(args.config)
    params = atomic.params_from_mapping(sections.get("atomic", {}))
    sweep = sections.get("sweep", {})
    _check_keys(sweep, "sweep", {"delta_min_MHz", "delta_max_MHz", "points"})
    lo = section_float(sweep, "sweep", "delta_min_MHz", default=-150.0)
    hi = section_float(sweep, "sweep", "delta_max_MHz", default=50.0)
    points = section_int(sweep, "sweep", "points", default=251)
    if not lo < hi:
        raise ConfigError(f"sweep window must be increasing, got [{lo}, {hi}] MHz")
    if points < 2:
        raise ConfigError(f"sweep needs at least 2 points, got {points}")
    deltas_mhz = np.linspace(lo, hi, points)
    blocks = atomic.sideband_blocks(params, [angular_from_mhz(d) for d in deltas_mhz])
    results = []
    for delta_mhz, block in zip(deltas_mhz, blocks):
        try:
            results.append(propagation.propagate_coupling(block))
        except propagation.OutputOverflowError as exc:
            raise propagation.OutputOverflowError(
                f"{exc} at two-photon detuning {delta_mhz:.6g} MHz"
            ) from exc
    columns = {
        "delta_MHz": deltas_mhz.tolist(),
        "G_a": [r.g_a for r in results],
        "G_b": [r.g_b for r in results],
        "sum": [r.sum_transmission for r in results],
        "gemellity_dB": [r.gemellity_db for r in results],
    }
    _emit(args, "sweep-delta", columns, {}, digest)
    return 0


def cmd_beam_splitter(args) -> int:
    sections, digest = _load_config(args.config)
    params = atomic.params_from_mapping(sections.get("atomic", {}))
    window = sections.get("window", {})
    _check_keys(window, "window", {"min_MHz", "max_MHz", "points"})
    lo = section_float(window, "window", "min_MHz", default=-150.0)
    hi = section_float(window, "window", "max_MHz", default=50.0)
    points = section_int(window, "window", "points", default=251)
    if not lo < hi:
        raise ConfigError(f"window must be increasing, got [{lo}, {hi}] MHz")
    point = atomic.find_beam_splitter_point(
        params,
        window=(angular_from_mhz(lo), angular_from_mhz(hi)),
        n_scan=points,
    )
    columns = {
        "delta_MHz": [mhz_from_angular(point.delta)],
        "G_a": [point.probe_gain],
        "G_b": [point.conj_gain],
        "sum": [point.probe_gain + point.conj_gain],
        "gemellity": [point.gemellity],
        "gemellity_dB": [point.gemellity_db],
    }
    _emit(args, "beam-splitter", columns, {}, digest)
    return 0


def cmd_beat_limit(args) -> int:
    sections, digest = _load_config(args.config)
    search = sections.get("search", {})
    _check_keys(
        search, "search", {"segments", "restarts", "rate_bound", "feasibility_tol", "target_dB"}
    )
    if args.seed is None:
        print(
            "warning: no --seed given; beat-limit run is nondeterministic",
            file=sys.stderr,
        )
    found = propagation.search_beyond_lumped_limit(
        n_segments=section_int(search, "search", "segments", default=2),
        seed=args.seed,
        rate_bound=section_float(search, "search", "rate_bound", default=20.0),
        feasibility_tol=section_float(search, "search", "feasibility_tol", default=0.01),
        target_db=section_float(search, "search", "target_dB", default=-2.8),
        restarts=section_int(search, "search", "restarts", default=16),
    )
    slabs = found.profile.slabs
    columns = {
        "segment": list(range(len(slabs))),
        "dz": [slab.dz for slab in slabs],
        "g": [slab.g for slab in slabs],
        "alpha_a": [slab.alpha_a for slab in slabs],
        "alpha_b": [slab.alpha_b for slab in slabs],
    }
    summary = {
        "found": found.found,
        "gemellity_dB": found.result.gemellity_db,
        "G_a": found.result.g_a,
        "G_b": found.result.g_b,
        "sum": found.result.sum_transmission,
        "diff_noise_dB": 10.0 * np.log10(found.result.diff_noise),
        "evaluations": found.evaluations,
    }
    _emit(args, "beat-limit", columns, summary, digest)
    return 0


def cmd_analyze(args) -> int:
    raw = Path(args.traces).read_bytes()  # one read, hashed and parsed
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode()
    del raw  # each copy of the file goes as soon as it is used: peak memory
    trace_set = traces.parse_traces(text)
    del text
    powers = traces.PowerRecord(args.probe_frac, args.conj_frac)
    analysis = traces.analyze_traces(trace_set, powers, analysis_freq=args.freq)
    normalized = analysis.normalized
    columns = {"freq_Hz": normalized["difference"].freq.tolist()} | {
        f"{label}_dB": normalized[label].psd.tolist()
        for label in ("difference", "probe", "conjugate")
    }
    _emit(args, "analyze", columns, analysis.summary(), digest)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="sectioned key-value config file")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=int, help="random seed for stochastic commands")

    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Twin-beam four-wave-mixing models and measurement analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, summary in (
        ("lumped-optimize", cmd_lumped_optimize,
         "optimum of the amplifier-plus-loss model at unit total transmission"),
        ("sweep-delta", cmd_sweep_delta,
         "gain curves and gemellity over a two-photon detuning grid"),
        ("beam-splitter", cmd_beam_splitter,
         "locate the flux-neutral operating point of the atomic medium"),
        ("beat-limit", cmd_beat_limit,
         "search distributed profiles for gemellity below the lumped limit"),
        ("analyze", cmd_analyze,
         "normalize measured traces to the SQL and infer the gemellity"),
    ):
        sub.add_parser(name, parents=[common], help=summary).set_defaults(func=func)
    analyze = sub.choices["analyze"]
    analyze.add_argument("traces", help="trace CSV (freq_hz,psd_db,label,rbw_hz)")
    analyze.add_argument("--probe-frac", type=float, required=True)
    analyze.add_argument("--conj-frac", type=float, required=True)
    analyze.add_argument("--freq", type=float, help="analysis frequency in Hz")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
