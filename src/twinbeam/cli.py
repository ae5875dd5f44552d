"""Command-line front end.

Subcommands: lumped-optimize, sweep-delta, beam-splitter, beat-limit,
analyze.  Every command but lumped-optimize and analyze reads an optional
sectioned config file (--config); beat-limit alone takes a --seed.  Every
command emits CSV (default) or JSON to --out or stdout, and is
deterministic for a fixed config and seed: identical invocations produce
byte-identical output.  JSON output carries run metadata (package
version, config hash, seed) but deliberately no timestamps.

Exit codes: 0 success, 2 validation error (bad flags, malformed config
or trace data, a config frequency with no float in rad/s), 3 computation
error (no flux-neutral crossing, degenerate steady state,
non-convergence, a finite medium whose generator overflows, an inferred
correlation or gemellity with no float value, an output gemellity that
cancels to within its rounding bound of 0, a grid too large to allocate).
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain, repeat
from pathlib import Path

from . import __version__
from .configio import (
    ConfigError,
    angular_from_mhz,
    check_keys,
    mhz_from_angular,
    parse_sections,
    section_float,
    section_frequency,
    section_int,
)

__all__ = ["main"]

# each command imports numpy and the model modules it runs in its handler, and
# hashlib and json load only where a digest or a JSON document is made: a command
# pays only for its own modules at start-up, and --help loads no numpy


# one config file may serve several commands; each command reads its
# own sections and ignores the rest, but section names must be known
_KNOWN_SECTIONS = {"atomic", "sweep", "window", "search"}


def _load_config(path: str | None) -> tuple[dict[str, dict[str, str]], str | None]:
    if path is None:
        return {}, None
    config = Path(path)
    if not config.is_file():
        raise ConfigError(f"configuration file not found: {config}")
    raw = config.read_bytes()  # one read, hashed and parsed
    sections = parse_sections(raw.decode())
    for name in sections:
        if name not in _KNOWN_SECTIONS:
            raise ConfigError(
                f"unknown section [{name}] in {path}; "
                f"expected one of {', '.join(sorted(_KNOWN_SECTIONS))}"
            )
    import hashlib
    return sections, hashlib.sha256(raw).hexdigest()


def _window(sections: dict, section: str, low: str, high: str) -> tuple[float, float, int]:
    """The (lo, hi) ends in MHz and the point count of a detuning window,
    a section with keys low, high and points; absent keys take the finders'
    defaults."""
    from . import atomic  # loaded already by both callers
    mapping = sections.get(section, {})
    check_keys(mapping, section, {low, high, "points"})
    lo = section_frequency(mapping, section, low) if low in mapping else atomic._WINDOW_MHZ[0]
    hi = section_frequency(mapping, section, high) if high in mapping else atomic._WINDOW_MHZ[1]
    points = section_int(mapping, section, "points") if "points" in mapping else atomic._SCAN_POINTS
    if not lo < hi:
        raise ConfigError(f"[{section}] detuning window must be increasing, got [{lo}, {hi}] MHz")
    if points < 2:
        raise ConfigError(f"[{section}] detuning window needs at least 2 points, got {points}")
    return lo, hi, points


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
        import json
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
    from . import lumped
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
    _emit(args, "lumped-optimize", columns, summary, None)
    return 0


def cmd_sweep_delta(args) -> int:
    import numpy as np

    from . import atomic, propagation
    sections, digest = _load_config(args.config)
    params = atomic.params_from_mapping(sections.get("atomic", {}))
    lo, hi, points = _window(sections, "sweep", "delta_min_MHz", "delta_max_MHz")
    deltas_mhz = np.linspace(lo, hi, points)
    blocks = atomic.sideband_blocks(params, angular_from_mhz(deltas_mhz))
    out = propagation._pair_outputs(
        *propagation._pair_maps(blocks),
        place=lambda i: f" at two-photon detuning {deltas_mhz[i]:.6g} MHz",
    )
    columns = {
        "delta_MHz": deltas_mhz.tolist(),
        "G_a": out.g_a.tolist(),
        "G_b": out.g_b.tolist(),
        "sum": (out.g_a + out.g_b).tolist(),
        "gemellity_dB": out.gemellity_db.tolist(),
    }
    _emit(args, "sweep-delta", columns, {}, digest)
    return 0


def cmd_beam_splitter(args) -> int:
    from . import atomic
    sections, digest = _load_config(args.config)
    params = atomic.params_from_mapping(sections.get("atomic", {}))
    lo, hi, points = _window(sections, "window", "min_MHz", "max_MHz")
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


# each [search] key's argument of the search and its reader; absent keys keep the search's defaults
_SEARCH_KEYS = {
    "segments": ("n_segments", section_int),
    "rate_bound": ("rate_bound", section_float),
    "feasibility_tol": ("feasibility_tol", section_float),
    "restarts": ("restarts", section_int),
}


def cmd_beat_limit(args) -> int:
    from . import metrics, propagation
    sections, digest = _load_config(args.config)
    search = sections.get("search", {})
    check_keys(search, "search", _SEARCH_KEYS)
    if args.seed is None:
        print(
            "warning: no --seed given; beat-limit run is nondeterministic",
            file=sys.stderr,
        )
    settings = {
        arg: read(search, "search", key) for key, (arg, read) in _SEARCH_KEYS.items() if key in search
    }
    found = propagation.search_beyond_lumped_limit(seed=args.seed, **settings)
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
        "diff_noise_dB": metrics.db_from_linear(found.result.diff_noise),
        "evaluations": found.evaluations,
    }
    _emit(args, "beat-limit", columns, summary, digest)
    return 0


def cmd_analyze(args) -> int:
    import hashlib

    from . import traces
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
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

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
    for name in ("sweep-delta", "beam-splitter", "beat-limit"):
        sub.choices[name].add_argument("--config", help="sectioned key-value config file")
    sub.choices["beat-limit"].add_argument("--seed", type=int, help="random seed of the search")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
