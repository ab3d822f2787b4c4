"""Recover the Euler characteristic of a metric graph from its eigenfrequencies.

The pipeline: describe a compact metric graph (`graph`), compute finitely
many eigenfrequencies of its standard Laplacian (`spectrum`), pick a test
function (`testfn`) and certified truncation parameters (`planner`), then sum
and round (`estimator`). `orbits` verifies the underlying trace identity
independently, and `cli` wires everything into reproducible experiments.

The package exports every name in the `__all__` of those six modules; each
public name is declared there, once.
"""

from . import estimator, graph, orbits, planner, spectrum, testfn
from .estimator import *  # noqa: F403
from .graph import *  # noqa: F403
from .orbits import *  # noqa: F403
from .planner import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .testfn import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *estimator.__all__,
    *graph.__all__,
    *orbits.__all__,
    *planner.__all__,
    *spectrum.__all__,
    *testfn.__all__,
]
