"""Start-up cost: fresh interpreters importing `twinbeam.cli`.

`setup_times` times the import as a user pays it, from process start to
exit.  `import_breakdown` splits that time with `python -X importtime`:
each imported module's self time goes to numpy, scipy or twinbeam when
the module or its nearest categorized importer belongs to that package,
and the bare interpreter is timed with `python -c pass`.  Both take a
`speed.SpeedProbe` and report nominal seconds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

IMPORT_CLI = "import twinbeam.cli"
CATEGORIES = ("numpy", "scipy", "twinbeam")


def source_env(root: Path) -> dict[str, str]:
    """Environment that runs the package from the source tree."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wall(args: list[str], root: Path) -> float:
    start = perf_counter()
    subprocess.run(
        args, cwd=root, env=source_env(root), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return perf_counter() - start


def setup_times(root: Path, runs: int, probe, samples: Path) -> list[float]:
    """Nominal seconds of fresh processes that import `twinbeam.cli`, after
    one discarded run that leaves the bytecode cache warm.

    The processes run `launch.py` without a command, so the speed sampler
    runs inside them; its samples pass through the file `samples`.
    """
    cmd = [sys.executable, str(root / "perfbench" / "launch.py"), str(samples), "--"]

    def sampled_import():
        subprocess.run(
            cmd, cwd=root, env=source_env(root), check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        taken = json.loads(samples.read_text())
        return None, taken["samples"], taken["spent_s"]

    sampled_import()
    return [probe.measure(sampled_import, "child")[2] for _ in range(runs)]


def _category(module: str) -> str | None:
    top = module.split(".", 1)[0]
    return top if top in CATEGORIES else None


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds of import self time per category from -X importtime output."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        indent = len(name) - len(name.lstrip(" "))
        entries.append((indent, name.strip(), int(self_us)))
    totals = dict.fromkeys(CATEGORIES, 0.0)
    # importtime prints a module after the modules it imported, so walk
    # backwards to meet every importer before its imports
    stack: list[tuple[int, str | None]] = []
    for indent, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        category = _category(name) or (stack[-1][1] if stack else None)
        stack.append((indent, category))
        if category is not None:
            totals[category] += self_us * 1e-6
    return totals


def import_breakdown(root: Path, runs: int, probe) -> dict[str, float]:
    """Median start-up split in nominal seconds: interpreter, numpy, scipy
    and twinbeam."""
    env = source_env(root)
    samples: dict[str, list[float]] = {"interpreter": []}
    for category in CATEGORIES:
        samples[category] = []
    cmd = [sys.executable, "-X", "importtime", "-c", IMPORT_CLI]
    for _ in range(runs):
        samples["interpreter"].append(
            probe.measure(lambda: _wall([sys.executable, "-c", "pass"], root))[2]
        )
        done, raw, nominal = probe.measure(
            lambda: subprocess.run(cmd, cwd=root, env=env, check=True, capture_output=True, text=True)
        )
        for category, seconds in parse_importtime(done.stderr).items():
            samples[category].append(seconds * nominal / raw)
    return {key: statistics.median(values) for key, values in samples.items()}
