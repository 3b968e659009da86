"""Exact combinatorics of lattice path interval families.

Subsets of {1..n} ordered by suffix counts form a graded lattice; an
interval [S, T] in that order is the feasible family of a delta
matroid whose polytope is cut out by suffix-sum inequalities.  The
package provides the order, the path and diagram encodings, matroid
operations, polytope geometry, unimodular triangulations, and
independent counting oracles, all in integer and rational arithmetic.
"""

from importlib import import_module as _import

__version__ = "0.1.0"

_ERRORS = ("ArgumentError", "DomainError", "LpdmError", "OrderError", "UsageError")
_MODULES = ("matroid", "oracle", "paths", "perms", "polytope", "subsets", "triangulate")
_SUBMODULES = (*_MODULES, "cli", "errors", "jsonio", "selftest")


def _public() -> list[str]:
    """Bind the public names of the library here on first use, and list
    them: the root is lazy (PEP 562), so ``import lpdm`` loads no module."""
    root = globals()
    if "__all__" not in root:
        public = {name: getattr(_import(".errors", __name__), name) for name in _ERRORS}
        for mod in (_import(f".{short}", __name__) for short in _MODULES):
            public.update((name, getattr(mod, name)) for name in mod.__all__)
        # the oracle's suffix-box count stays behind its module, beside the
        # dynamic program it is checked against
        del public["count_suffix_box"]
        root.update(public, __all__=sorted(public))
    return root["__all__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import(f".{name}", __name__)
    if name == "__all__" or not name.startswith("__"):
        _public()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return _public()
