"""The public API: every exported name resolves, every function the
benchmark traces by name is still exported where its tracer looks, and
the README's library quick start runs and prints what it promises, its
example config is read by every command that takes one, and the public value
types name a NaN or infinite argument."""

import argparse
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

import pytest

import twinbeam
from twinbeam import cli, gaussian, metrics

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter on the source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(twinbeam.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)


def test_the_package_declares_no_name_of_its_own():
    # each public name is declared once, in its module's __all__; the package
    # re-exports every model module's names and nothing of the CLI
    models = [module for module in _modules() if module.__name__ != "twinbeam.cli"]
    names = ["__version__", *(name for module in models for name in module.__all__)]
    assert len(set(names)) == len(names)
    assert sorted(twinbeam.__all__) == sorted(names)
    # importing the package loads none of its modules, and no numpy
    code = "import sys, twinbeam; print(*sorted(m for m in sys.modules if m.startswith(('twinbeam', 'numpy'))))"
    out = _fresh(code)
    assert (out.returncode, out.stderr, out.stdout.split()) == (0, "", ["twinbeam"])


# The launcher's own line: a fresh process imports the CLI and runs one command
_LAUNCH = """
import sys
from twinbeam import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, 'hashlib' in sys.modules, 'numpy' in sys.modules, *sorted(m[9:] for m in sys.modules if m.startswith('twinbeam.')))
"""
_BASE = ("cli", "configio")
_ATOMIC = (*_BASE, "atomic", "propagation", "metrics", "gaussian")


@pytest.mark.parametrize(
    "argv, modules, digest",
    [
        (["lumped-optimize"], (*_BASE, "lumped", "metrics"), False),
        (["analyze", "TRACES", "--probe-frac", "0.5", "--conj-frac", "0.5"],
         (*_BASE, "traces", "metrics"), True),
        (["beam-splitter"], _ATOMIC, False),
        (["beam-splitter", "--config", "CONFIG"], _ATOMIC, True),
        (["sweep-delta"], _ATOMIC, False),
        (["sweep-delta", "--config", "CONFIG"], _ATOMIC, True),
        # numpy's seeding loads hashlib, config or not
        (["beat-limit", "--seed", "0"],
         (*_BASE, "propagation", "metrics", "gaussian", "lumped"), True),
        (["--help"], _BASE, False),
        (["sweep-delta", "--no-such-flag"], _BASE, False),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_each_command_loads_only_its_modules(tmp_path, argv, modules, digest):
    config = tmp_path / "medium.cfg"
    config.write_text("[atomic]\ndepth = 500\n")
    paths = {"CONFIG": str(config), "TRACES": str(GOLDEN / "analyze_traces.csv")}
    out = _fresh(_LAUNCH, *(paths.get(arg, arg) for arg in argv))
    code, hashed, numpy, *loaded = out.stdout.splitlines()[-1].split()
    assert int(code) == (2 if "--no-such-flag" in argv else 0), out.stderr
    assert sorted(loaded) == sorted(modules)
    assert hashed == str(digest)
    # each model command loads numpy; --help and a usage error load none
    assert numpy == str(modules != _BASE)


def test_the_public_surface_survives_laziness():
    # in one fresh process, the package's names resolve lazily to the
    # objects of their modules
    code = """
import importlib, twinbeam
assert twinbeam.atomic is importlib.import_module("twinbeam.atomic")
for short in ("atomic", "configio", "gaussian", "lumped", "metrics", "propagation", "traces"):
    module = importlib.import_module("twinbeam." + short)
    for name in module.__all__:
        assert getattr(twinbeam, name) is getattr(module, name), name
names = {}
exec("from twinbeam import *", names)
assert sorted(set(names) - {"__builtins__"}) == sorted(twinbeam.__all__)
assert set(twinbeam.__all__) <= set(dir(twinbeam))
try:
    twinbeam.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("twinbeam.no_such_name resolved")
"""
    out = _fresh(code)
    assert (out.returncode, out.stderr) == (0, "")


def test_every_exported_name_resolves():
    for module in [twinbeam, *_modules()]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}: {missing}"
    assert set(twinbeam.__all__) <= set(dir(twinbeam))


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


def test_readme_example_config_is_read_by_every_command(tmp_path, capsys):
    config = re.search(r"```ini\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "medium.cfg"
    path.write_text(config.group(1))
    for argv in (["sweep-delta"], ["beam-splitter"], ["beat-limit", "--seed", "0"]):
        assert cli.main([*argv, "--config", str(path)]) == 0, argv
    assert capsys.readouterr().err == ""


# Every value a caller can set: the optional parameters of the public
# functions and methods, and the flags of each subcommand.  A value the code
# can work out, or a knob with one value in use, is no option; a new one
# appears here as a reviewed edit.
_SETTABLE = {
    "twinbeam.atomic.find_beam_splitter_point": ("window", "n_scan"),
    "twinbeam.atomic.find_raman_dip": ("n_scan",),
    "twinbeam.gaussian.coherent_input": ("beta",),
    "twinbeam.propagation.propagate": ("subdivisions",),
    "twinbeam.propagation.search_beyond_lumped_limit": (
        "n_segments", "seed", "rate_bound", "feasibility_tol", "restarts",
    ),
    "twinbeam.traces.analyze_traces": ("analysis_freq",),
    "twinbeam.traces.normalize_to_sql": ("electronic",),
    "twinbeam lumped-optimize": ("--format", "--out"),
    "twinbeam sweep-delta": ("--config", "--format", "--out"),
    "twinbeam beam-splitter": ("--config", "--format", "--out"),
    "twinbeam beat-limit": ("--config", "--format", "--out", "--seed"),
    "twinbeam analyze": ("--conj-frac", "--format", "--freq", "--out", "--probe-frac"),
}


def _optional_parameters(routine) -> tuple:
    parameters = inspect.signature(routine).parameters.values()
    return tuple(p.name for p in parameters if p.default is not inspect.Parameter.empty)


def test_every_settable_value_is_listed():
    found = {}
    for name in twinbeam.__all__:
        obj = getattr(twinbeam, name)
        if inspect.isfunction(obj):
            routines = [(name, obj)]
        elif inspect.isclass(obj):
            routines = [
                (f"{name}.{attr}", member)
                for attr, member in inspect.getmembers(obj, inspect.isroutine)
                if not attr.startswith("_") and getattr(member, "__module__", None) == obj.__module__
            ]
        else:
            continue
        for qualname, routine in routines:
            if optional := _optional_parameters(routine):
                found[f"{obj.__module__}.{qualname}"] = optional
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in commands.choices.items():
        flags = [max(a.option_strings, key=len) for a in parser._actions if a.option_strings and a.dest != "help"]
        found[f"twinbeam {command}"] = tuple(sorted(flags))
    assert found == _SETTABLE


@pytest.mark.parametrize(
    "build, message",
    [
        # the state kept the NaN or infinite mean
        (lambda: gaussian.coherent_input(math.nan), "mean entry [0] must be finite, got (nan+0j)"),
        (lambda: gaussian.coherent_input(1.0, complex(0.0, math.inf)), "mean entry [1] must be finite, got infj"),
        # these constructed, and the gemellity read nan
        (lambda: metrics.NoiseFigures(math.nan, 1.0, 0.0), "f_a must be finite, got nan"),
        (lambda: metrics.NoiseFigures(math.inf, 1.0, 0.0), "f_a must be finite, got inf"),
        (lambda: metrics.NoiseFigures(1.0, math.inf, 0.0), "f_b must be finite, got inf"),
        (lambda: metrics.NoiseFigures(1.0, 1.0, math.nan), "c_ab must be finite, got nan"),
        # returned nan
        (lambda: metrics.db_from_linear(math.nan), "cannot express ratio nan in dB"),
        # blamed "transfer entry [0, 0]"
        (lambda: gaussian.amplifier_channel(math.nan), "amplifier gain must be finite, got nan"),
        (lambda: gaussian.amplifier_channel(math.inf), "amplifier gain must be finite, got inf"),
        # numpy warned of an invalid cos, or the transfer entry was blamed
        (lambda: gaussian.rotation_channel(math.inf, 0.0), "theta_a must be finite, got inf"),
        (lambda: gaussian.rotation_channel(0.0, math.nan), "theta_b must be finite, got nan"),
    ],
    ids=[
        "coherent_nan", "coherent_inf", "figures_f_a_nan", "figures_f_a_inf", "figures_f_b_inf",
        "figures_c_ab_nan", "db_nan", "amplifier_nan", "amplifier_inf", "rotation_inf", "rotation_nan",
    ],
)
def test_value_types_name_a_non_finite_argument(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
