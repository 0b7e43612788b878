"""Toggle group of path-graph independent sets.

The library provides exact permutation arithmetic, a deterministic
stabilizer-chain engine for orders and membership, independent sets of
the path with the toggle involution, the Fibonacci rank bijection for
them, the recursively defined generator families that mirror the
toggles under that bijection, and a verification harness that machine
checks the whole picture at desk scale.

The package exports exactly the names its modules export: each module's
``__all__`` is the one list of its public names.
"""

from . import engine, families, fibindex, graphs, perms, verify
from .engine import *
from .families import *
from .fibindex import *
from .graphs import *
from .perms import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *engine.__all__,
    *families.__all__,
    *fibindex.__all__,
    *graphs.__all__,
    *perms.__all__,
    *verify.__all__,
]
