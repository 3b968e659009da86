"""Exact combinatorics of lattice path interval families.

Subsets of {1..n} ordered by suffix counts form a graded lattice; an
interval [S, T] in that order is the feasible family of a delta
matroid whose polytope is cut out by suffix-sum inequalities.  The
package provides the order, the path and diagram encodings, matroid
operations, polytope geometry, unimodular triangulations, and
independent counting oracles, all in integer and rational arithmetic.
"""

from . import matroid, oracle, paths, perms, polytope, subsets, triangulate
from .errors import ArgumentError, DomainError, LpdmError, OrderError, UsageError
from .matroid import *  # noqa: F403
from .oracle import *  # noqa: F403
from .paths import *  # noqa: F403
from .perms import *  # noqa: F403
from .polytope import *  # noqa: F403
from .subsets import *  # noqa: F403
from .triangulate import *  # noqa: F403

# the oracle's suffix-box count stays behind its module, beside the
# dynamic program it is checked against
del count_suffix_box  # noqa: F821

__version__ = "0.1.0"

__all__ = sorted(
    {"ArgumentError", "DomainError", "LpdmError", "OrderError", "UsageError"}.union(
        *(mod.__all__ for mod in (matroid, oracle, paths, perms, polytope, subsets, triangulate))
    )
    - {"count_suffix_box"}
)
