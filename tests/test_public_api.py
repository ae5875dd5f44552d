"""The public API: every exported name resolves, and every function the
benchmark traces by name is still exported where its tracer looks."""

import importlib
import inspect
import json
import pkgutil
import re
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
