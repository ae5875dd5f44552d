"""Twin-beam generation by four-wave mixing and a quantum beam splitter.

Gaussian two-mode states and channels carry the quantum noise; the
gemellity metric certifies twin correlations of possibly unbalanced
beams.  A lumped amplifier-plus-loss model sets the benchmark at unit
total transmission, exact segment maps handle distributed gain and
loss, a dressed four-level atom supplies the microscopic gain curves,
and the traces module turns measured spectra into the same metrics.
"""

from . import atomic, configio, gaussian, lumped, metrics, propagation, traces
from .atomic import *  # noqa: F403
from .configio import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .lumped import *  # noqa: F403
from .metrics import *  # noqa: F403
from .propagation import *  # noqa: F403
from .traces import *  # noqa: F403

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = ["__version__"] + [
    name
    for module in (atomic, configio, gaussian, lumped, metrics, propagation, traces)
    for name in module.__all__
]
