"""The public API: every exported name resolves, every function the
benchmark traces by name is still exported where its tracer looks, and
the README's library quick start runs and prints what it promises."""

import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import twinbeam

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _modules():
    return [
        importlib.import_module(f"twinbeam.{info.name}")
        for info in pkgutil.iter_modules(twinbeam.__path__)
    ]


def test_benchmark_layers_name_exported_functions():
    # the tracer wraps only the functions a module lists in __all__ and
    # defines itself; a traced layer missing there fails the benchmark run
    layers = json.loads(BENCHMARK.read_text())["per_layer"]
    names = {
        match.groups()
        for layer in layers
        if (match := re.fullmatch(r"(\w+)\.(\w+)\.(?:calls|self_s)", layer["name"]))
    }
    assert names
    for module_name, attr in sorted(names):
        module = importlib.import_module(f"twinbeam.{module_name}")
        assert attr in module.__all__, f"{module_name}.{attr}"
        fn = getattr(module, attr)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{module_name}.{attr}"


def test_every_exported_name_resolves():
    for module in [twinbeam, *_modules()]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}: {missing}"


README = BENCHMARK.parent / "README.md"


def test_readme_quick_start_runs():
    # the library quick start, run as a reader would paste it
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(Path(twinbeam.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code.group(1)], env=env, capture_output=True, text=True, check=True
    )
    assert out.stderr == ""
    lumped, _, atomic = out.stdout.splitlines()
    gain, gem = map(float, lumped.split())
    assert abs(gain - (math.sqrt(5.0) - 1.0)) <= 1e-12
    assert abs(gem - (5.0 - 2.0 * math.sqrt(5.0))) <= 1e-12
    _, g_a, g_b = map(float, atomic.split())
    assert abs(g_a + g_b - 1.0) <= 1e-12
