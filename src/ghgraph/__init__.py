"""Exact Hausdorff distances and certified Gromov-Hausdorff bounds on
compact metric graphs.

The package splits into five layers: ``graph`` (metric graphs, points,
regions, loops, thickenings), ``hausdorff`` (exact Hausdorff distances,
including continuum-vs-subset), ``oracle`` (exhaustive Gromov-Hausdorff
search on small finite spaces), ``bounds`` (certified lower bounds and
exact values with recorded hypotheses), and ``constructions`` (extremal
instances and dense nets). The ``ghgraph`` console script exposes the same
operations on JSON fixtures. Every public name of those modules, and of
``errors``, is re-exported here from the module's ``__all__``.
"""

from . import bounds, constructions, errors, graph, hausdorff, oracle
from .errors import *
from .graph import *
from .hausdorff import *
from .oracle import *
from .bounds import *
from .constructions import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *graph.__all__,
    *hausdorff.__all__,
    *oracle.__all__,
    *bounds.__all__,
    *constructions.__all__,
]
