"""Span tracer that times lpdm from outside the package.

``Tracer.install`` wraps the public functions of each lpdm module (the
names in its ``__all__`` that the module defines itself) and the
``lower_mask``/``upper_mask`` methods of ``LpdmSpec``, then rebinds every
name in every loaded lpdm module that refers to one of them.  Calls between modules and inside a
module therefore pass through the wrappers; no source file is edited, and
``uninstall`` restores the original bindings.

Each wrapped call records a span (id, name, parent, start, end) in a flat
array kept in memory; ``write`` saves them when the run ends.  A span's
self time is its duration minus the durations of its child spans.  Each
thread keeps its own span stack, so a span started on a worker thread has
no parent; the traced passes run lpdm on one thread at a time, so their
self times add up to no more than their wall time.  Counters are recorded by
hooks at the same wrappers.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import types
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("subsets", "matroid", "perms", "triangulate", "oracle", "polytope", "paths", "jsonio")
METHODS = (("matroid", "LpdmSpec", "lower_mask"), ("matroid", "LpdmSpec", "upper_mask"))
PERM_YIELDS = "perms.all_permutations.yielded"


def _contains_hook(tr, args, out, dt, before):
    kind = "int" if all(type(c) is int for c in args[1]) else "frac"
    tr.counters[f"polytope.contains.{kind}_calls"] += 1
    tr.counters[f"polytope.contains.{kind}_s"] += dt


def _toric_hook(tr, args, out, dt, before):
    tr.counters["triangulate.toric.kept"] += len(out)
    tr.counters["triangulate.toric.scanned"] += tr.counters[PERM_YIELDS] - before


def _pairs_hook(tr, args, out, dt, before):
    tr.counters["matroid.exchange_witness.pairs"] += len(args[0].members) ** 2


def _add_len(key, of=lambda out: out):
    def hook(tr, args, out, dt, before):
        tr.counters[key] += len(of(out))

    return hook


# counters recorded at the wrappers: span name -> hook(tracer, args, result, seconds, before)
HOOKS = {
    "subsets.interval": _add_len("subsets.interval.members"),
    "matroid.feasible_sets": _add_len("matroid.feasible_sets.members"),
    "matroid.exchange_witness": _pairs_hook,
    "triangulate.subdivide": _add_len("triangulate.cells", lambda out: out.cells),
    "triangulate.triangulate_toric": _toric_hook,
    "polytope.contains": _contains_hook,
}
# hooks that need a value taken before the call
BEFORE = {"triangulate.triangulate_toric": lambda tr: tr.counters[PERM_YIELDS]}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        # five numbers per finished span: id, name index, parent id, start, end
        self.records = array("d")
        self._ids = itertools.count()
        self._tls = threading.local()
        self._rebound: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span_wrapper(self, name: str, fn):
        idx = self._index(name)
        hook, before_fn = HOOKS.get(name), BEFORE.get(name)
        tls, ids, records, clock = self._tls, self._ids, self.records, perf_counter

        def wrapper(*args, **kwargs):
            stack = tls.__dict__.setdefault("stack", [])
            before = before_fn(self) if before_fn is not None else None
            sid = next(ids)
            parent = stack[-1] if stack else -1
            t0 = clock()
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                # one extend per span, so spans finishing on other threads never interleave
                records.extend((sid, idx, parent, t0, t1))
            if hook is not None:
                hook(self, args, out, t1 - t0, before)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, name: str, fn):
        # the work of a generator happens while its consumer iterates, so
        # it is left to the consumer's span; only the items are counted
        key = f"{name}.yielded"
        counters = self.counters

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module(f"lpdm.{short}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    make = self._generator_wrapper if inspect.isgeneratorfunction(fn) else self._span_wrapper
                    wrappers[id(fn)] = (fn, make(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "lpdm" and not modname.startswith("lpdm."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, val))
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"lpdm.{short}"), cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._span_wrapper(f"{short}.{cls_name}.{meth}", fn))
            self._rebound.append((cls, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._rebound):
            setattr(owner, attr, val)
        self._rebound.clear()

    # ------------------------------------------------------------ analysis

    def _spans(self):
        """(id, name index, parent id, start, end) for every span."""
        r = self.records
        return [(int(r[i]), int(r[i + 1]), int(r[i + 2]), r[i + 3], r[i + 4]) for i in range(0, len(r), 5)]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        spans = self._spans()
        child = defaultdict(float)
        for _, _, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, tuple[int, float, float]] = {}
        for sid, idx, _, t0, t1 in spans:
            n, incl, own = out.get(self.names[idx], (0, 0.0, 0.0))
            out[self.names[idx]] = (n + 1, incl + t1 - t0, own + t1 - t0 - child[sid])
        return out

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-module self times and the counters the benchmark reports."""
        totals = self.totals()
        out = {f"{mod}.self_s": 0.0 for mod in MODULES}
        for name, (_, _, own) in totals.items():
            out[f"{name.split('.', 1)[0]}.self_s"] += own
        c = self.counters

        def calls(name: str) -> int:
            return totals.get(name, (0, 0.0, 0.0))[0]

        def incl(name: str) -> float:
            return totals.get(name, (0, 0.0, 0.0))[1]

        members = c["subsets.interval.members"]
        hull = calls("oracle.hull_membership")
        kept, scanned = c["triangulate.toric.kept"], c["triangulate.toric.scanned"]
        int_n, frac_n = c["polytope.contains.int_calls"], c["polytope.contains.frac_calls"]
        out.update({
            "subsets.interval.calls": calls("subsets.interval"),
            "subsets.interval.members": members,
            "subsets.interval.us_per_member": 1e6 * incl("subsets.interval") / members if members else 0.0,
            "subsets.gale_leq.calls": calls("subsets.gale_leq"),
            "matroid.feasible_sets.members": c["matroid.feasible_sets.members"],
            "matroid.exchange_witness.calls": calls("matroid.exchange_witness"),
            "matroid.exchange_witness.pairs": c["matroid.exchange_witness.pairs"],
            "matroid.mask_rebuilds": calls("matroid.LpdmSpec.lower_mask") + calls("matroid.LpdmSpec.upper_mask"),
            "perms.count_perms_with_descent_set.calls": calls("perms.count_perms_with_descent_set"),
            "perms.all_permutations.yielded": c[PERM_YIELDS],
            "triangulate.volume.calls": calls("triangulate.volume"),
            "triangulate.cells": c["triangulate.cells"],
            "triangulate.toric.kept_ratio": kept / scanned if scanned else 0.0,
            "oracle.hull_membership.calls": hull,
            "oracle.hull_membership.ms_per_call": 1e3 * incl("oracle.hull_membership") / hull if hull else 0.0,
            "oracle.count_suffix_box.calls": calls("oracle.count_suffix_box"),
            "polytope.contains.calls": calls("polytope.contains"),
            "polytope.contains.int_us": 1e6 * c["polytope.contains.int_s"] / int_n if int_n else 0.0,
            "polytope.contains.frac_us": 1e6 * c["polytope.contains.frac_s"] / frac_n if frac_n else 0.0,
            "polytope.face.calls": calls("polytope.face"),
            "paths.calls": sum(n for name, (n, _, _) in totals.items() if name.startswith("paths.")),
            "trace.self_s": sum(own for _, _, own in totals.values()),
            "trace.wall_s": wall_s,
        })
        return out

    def write(self, path) -> None:
        """Save every span as rows [id, name, parent, start, end], seconds from the first start."""
        spans = self._spans()
        t0 = min((t for _, _, _, t, _ in spans), default=0.0)
        doc = {
            "names": self.names,
            "spans": [[sid, idx, parent, round(a - t0, 7), round(b - t0, 7)] for sid, idx, parent, a, b in spans],
            "counters": dict(self.counters),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
