#!/usr/bin/env python3
"""Sweep the two-photon detuning of the dressed four-level medium.

Prints the probe/conjugate gain curve as CSV and reports the Raman
absorption dip and the flux-neutral beam-splitter point as comment
lines.  Frequencies on the command line are plain MHz.
"""

import argparse
import sys

import numpy as np

from twinbeam import AtomicParams, find_beam_splitter_point, find_raman_dip, gain_curves
from twinbeam.atomic import NoCrossingError

TWO_PI = 2.0 * np.pi


def mhz(v: float) -> float:
    return TWO_PI * v * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--one-photon-mhz", type=float, default=800.0)
    ap.add_argument("--rabi-mhz", type=float, default=420.0)
    ap.add_argument("--depth", type=float, default=500.0)
    ap.add_argument("--delta-min-mhz", type=float, default=-150.0)
    ap.add_argument("--delta-max-mhz", type=float, default=50.0)
    ap.add_argument("--points", type=int, default=251)
    ap.add_argument(
        "--n-slabs", type=int, default=1024, help="slabs for the beam-splitter noise output"
    )
    ap.add_argument("--out", help="output CSV path (default stdout)")
    args = ap.parse_args(argv)

    params = AtomicParams(
        one_photon_detuning=mhz(args.one_photon_mhz),
        rabi_frequency=mhz(args.rabi_mhz),
        depth=args.depth,
    )
    window = (mhz(args.delta_min_mhz), mhz(args.delta_max_mhz))

    dip_delta, dip_gain = find_raman_dip(params, window=window, n_scan=args.points)
    lines = [
        f"# dip delta_MHz = {dip_delta / mhz(1.0):.3f}",
        f"# dip G_a = {dip_gain:.6f}",
    ]
    try:
        point = find_beam_splitter_point(
            params, window=window, n_scan=args.points, n_slabs=args.n_slabs
        )
        lines += [
            f"# beam splitter delta_MHz = {point.delta / mhz(1.0):.4f}",
            f"# beam splitter G_a = {point.probe_gain:.6f}",
            f"# beam splitter G_b = {point.conj_gain:.6f}",
            f"# beam splitter gemellity_dB = {point.gemellity_db:.4f}",
        ]
    except NoCrossingError as exc:
        lines.append(f"# beam splitter: {exc}")

    grid = np.linspace(window[0], window[1], args.points)
    curve = gain_curves(params, grid)
    lines.append("delta_MHz,G_a,G_b,sum")
    for d, ga, gb, s in zip(
        curve.delta, curve.probe_gain, curve.conj_gain, curve.sum_transmission
    ):
        lines.append(f"{d / mhz(1.0):.4f},{ga:.8f},{gb:.8f},{s:.8f}")

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
