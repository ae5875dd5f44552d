"""Twin-beam generation by four-wave mixing and a quantum beam splitter.

Gaussian two-mode states and channels carry the quantum noise; the
gemellity metric certifies twin correlations of possibly unbalanced
beams.  A lumped amplifier-plus-loss model sets the benchmark at unit
total transmission, exact segment maps handle distributed gain and
loss, a dressed four-level atom supplies the microscopic gain curves,
and the traces module turns measured spectra into the same metrics.

Importing the package loads none of its modules: a module loads on its
first import or access, and a re-exported name on its first access
(PEP 562), so each CLI command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODELS = ("atomic", "configio", "gaussian", "lumped", "metrics", "propagation", "traces")
_exports: dict = {}


def __getattr__(name: str):
    # a submodule first: `from twinbeam import cli` asks for the attribute
    # `cli`, and reading the export table would load every model module
    if name in _MODELS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if not _exports:
        # each public name is declared once, in its module's __all__
        for short in _MODELS:
            module = importlib.import_module(f"{__name__}.{short}")
            _exports.update(dict.fromkeys(module.__all__, module))
    if name == "__all__":
        value = ["__version__", *_exports]
    elif name in _exports:
        value = getattr(_exports[name], name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODELS, *__getattr__("__all__")})
