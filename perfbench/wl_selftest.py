"""Workload ``selftest``: the whole check registry, in process.

One client calls ``run_selftest(max_n)`` with ``LPDM_THREADS`` removed from
the environment, so the program's default thread pool applies.  Every
registry check is an op that must pass; the checks of one call run
concurrently, so the latency reported is that of the whole call (the
pass), of which a run holds only a few.

The registry seeds its own sampling, so ``--seed`` changes nothing here.
"""

from __future__ import annotations

import os
from time import perf_counter

from common import Tally, repeat

MAX_N = 4
SMOKE_MAX_N = 2
# the registry at the time the benchmark was defined; one metric per name
CHECK_NAMES = (
    "order-axioms", "cover-enumeration", "interval-enumeration", "chain-counts",
    "descent-statistics", "path-isomorphism", "skew-diagrams", "exchange-axiom",
    "operation-coherence", "homogeneous-components", "envelope-projection",
    "projection-nonclosure", "vertex-theorem", "dimension-formulas",
    "intersection-consistency", "face-consistency", "volume-identity",
    "toric-triangulation", "cube-partition", "subdivision-cells", "edge-directions",
    "catalan-counts", "chain-bijection", "hypersimplex-slabs", "ehrhart-degree",
    "errata-regression",
)


def setup(seed: int, smoke: bool) -> dict:
    import lpdm.selftest

    os.environ.pop("LPDM_THREADS", None)
    return {"max_n": SMOKE_MAX_N if smoke else MAX_N, "checks": [name for name, _ in lpdm.selftest.CHECKS]}


def describe(inputs: dict):
    return inputs


def _fresh_caches() -> None:
    # the registry memoises its small-n tables; every pass starts cold
    import lpdm.selftest

    for val in vars(lpdm.selftest).values():
        clear = getattr(val, "cache_clear", None)
        if callable(clear):
            clear()


def _pass(inputs: dict, tally: Tally, names=None, cold: bool = True) -> float:
    """One ``run_selftest`` call; returns its wall seconds."""
    from lpdm.selftest import run_selftest

    if cold:
        _fresh_caches()
    t0 = perf_counter()
    rows = run_selftest(inputs["max_n"], names)
    wall = perf_counter() - t0
    got = {r.name: r for r in rows}
    for name in names or inputs["checks"]:
        r = got.get(name)
        if r is None:
            tally.record(None, "failed", f"{name}: no result")
        else:
            tally.record(None, "ok" if r.passed else "failed", f"{name}: {r.detail}")
    tally.op_ms.append(1e3 * wall)
    return wall


def run(inputs: dict, seconds: float) -> Tally:
    # a pass takes about half a run, and one pass alone gives no median
    return repeat(lambda tally: _pass(inputs, tally), seconds, at_least=2)


def _serial(inputs: dict, tally: Tally) -> dict[str, float]:
    # each check alone; the memo tables are shared between checks, as in the pool
    _fresh_caches()
    return {name: _pass(inputs, tally, [name], cold=False) for name in inputs["checks"]}


def run_traced(inputs: dict, seconds: float, tracer) -> tuple[Tally, dict]:
    """Serial per-check seconds, the pooled wall, then a traced serial pass."""
    tally = Tally()
    check_s = _serial(inputs, tally)
    serial = sum(check_s.values())
    pooled = _pass(inputs, tally)
    tracer.install()
    try:
        traced = sum(_serial(inputs, tally).values())
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced)
    for name in CHECK_NAMES:
        metrics[f"selftest.check_s.{name}"] = check_s.get(name, 0.0)
    metrics["selftest.thread_overhead"] = pooled / serial
    metrics["trace.overhead_ratio"] = traced / serial
    return tally, metrics
