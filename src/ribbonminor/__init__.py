"""Ribbon graphs as arrow presentations: duality, minor moves, and
excluded-minor checks, exhaustively verifiable at small edge counts.

All values are immutable and all operations are pure functions, so anything
here can be shared freely between threads or workers.

The package exports each module's ``__all__``, which is the one list of
that module's public names.
"""

from .arrow_core import *
from .duality import *
from .minor_ops import *
from .minor_search import *
from .predicates import *
from .verify import *

__version__ = "0.1.0"
