"""Run one `twinbeam` command for the benchmark.

    python perfbench/launch.py SAMPLES [SPAN_DIR OP_ID] -- COMMAND [ARGS...]

Imports the CLI from the source tree and calls `twinbeam.cli.main` on
the arguments after `--`, exiting with its code; with no arguments it
only imports the CLI, the start-up every command pays.  The command runs
under the speed sampler of `speed.py`, whose samples and the time they
took go to the JSON file SAMPLES.  With SPAN_DIR and OP_ID, the public
functions of every traced module are wrapped; this process writes its
spans into SPAN_DIR, and `Pool` workers forked by the command write
their own span files there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def run(samples_out: Path, tracing: tuple[Path, int] | None, command: list[str]) -> int:
    import speed

    sampler = speed.Sampler()
    tracer = None
    if tracing is not None:
        from tracer import Tracer

        tracer = Tracer(tracing[0], clock=lambda: perf_counter() - sampler.spent)
        tracer.op = tracing[1]
        tracer.install()
    sampler.start()
    try:
        from twinbeam import cli

        if not command:
            return 0
        if tracer is not None:
            tracer.enabled = True
        return cli.main(command)
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.enabled = False
            tracer.flush()
        samples_out.write_text(json.dumps({"samples": sampler.samples, "spent_s": sampler.spent}))


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        options, command = argv[:split], argv[split + 1:]
        if len(options) == 1:
            return run(Path(options[0]), None, command)
        if len(options) == 3:
            return run(Path(options[0]), (Path(options[1]), int(options[2])), command)
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
