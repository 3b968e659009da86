"""Workload ``ladder``: a seeded, shuffled stream of library queries on an n-ladder.

One client in one process sends each query after the previous one
returns.  A batch holds, for every rung (kind, n), ``PER_RUNG`` queries:

* ``volume`` of a linked spec;
* ``feasible_sets`` of a spec;
* ``face`` of a spec on a random facet, the four facet kinds in turn;
* ``exchange``: ``exchange_witness(feasible_sets(m))``;
* ``contains_int`` / ``contains_frac``: ``contains`` on a batch of 0/1
  points or of rational points, half of them drawn from inside the polytope.

Random specs vary a lot in size, so a spec is accepted only when a count
lies within ``BAND`` of its rung's target: the feasible count from
``oracle.count_suffix_box``, or for ``volume`` the sum of 2^|R| over the
cells [R, R u {n}] of its subdivision, the number of inclusion-exclusion
terms it counts descent sets with (``_cell_weight``).  Within one cell
count that sum varies some twentyfold.  The bands keep batches from
different seeds comparable.  Every answer is checked after its timer
stops against routes written here that share no code with lpdm:
enumeration of the Gale interval, the Ehrhart volume, and the suffix-sum
inequalities.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

from common import Tally, median, repeat

PER_RUNG = 10
BAND = 0.05
POINTS = 50
# kind -> {n: target count}
RUNGS = {
    "volume": {8: 264, 9: 580, 10: 1400, 11: 3600, 12: 8800, 13: 25000},
    "feasible_sets": {12: 300, 14: 900, 16: 2700, 18: 8100},
    "face": {10: 100, 12: 300, 14: 900, 16: 2700},
    "exchange": {6: 10, 7: 18, 8: 30, 9: 54},
    "contains_int": {8: None, 12: None, 16: None, 20: None, 24: None},
    "contains_frac": {8: None, 12: None, 16: None, 20: None, 24: None},
}
SMOKE_RUNGS = {
    "volume": {4: None, 5: None},
    "feasible_sets": {6: None},
    "face": {6: None},
    "exchange": {5: None},
    "contains_int": {6: None},
    "contains_frac": {6: None},
}
# per-rung medians reported by the traced run, to show slopes
SLOPES = ("volume", "feasible_sets", "contains_int", "contains_frac")
FACETS = (("coordinate", 0), ("coordinate", 1), ("suffix", "lower"), ("suffix", "upper"))


# ---------------------------------------------------------------- independent routes


def _profile(n: int, members) -> tuple[int, ...]:
    out = [0] * (n + 1)
    for i in range(n, 0, -1):
        out[i - 1] = out[i] + (i in members)
    return tuple(out[:n])


def _interval(a, b) -> set[frozenset[int]]:
    """All position sets whose suffix counts lie between profiles a and b."""
    n = len(a)
    out = set()
    stack = [(n, 0, ())]
    while stack:
        i, count, chosen = stack.pop()
        if i == 0:
            out.add(frozenset(chosen))
            continue
        for take in (0, 1):
            c = count + take
            if a[i - 1] <= c <= b[i - 1]:
                stack.append((i - 1, c, chosen + (i,) if take else chosen))
    return out


def _lattice_count(a, b, t: int) -> int:
    """Points of {0..t}^n with t*a_i <= x_i + ... + x_n <= t*b_i."""
    cur = [1]  # cur[s] = number of ways to reach suffix sum s
    for i in range(len(a), 0, -1):
        prefix = list(accumulate(cur, initial=0))
        top = len(cur) - 1 + t
        nxt = [0] * (top + 1)
        for s in range(t * a[i - 1], min(t * b[i - 1], top) + 1):
            lo, hi = max(0, s - t), min(s, len(cur) - 1)
            if lo <= hi:
                nxt[s] = prefix[hi + 1] - prefix[lo]
        cur = nxt
    return sum(cur)


def _cell_weight(a, top) -> int:
    """Sum of 2^|R| over the position sets R with suffix counts between a and top."""
    cur = {0: 1}  # cur[c] = weight of the choices made so far with suffix count c
    for i in range(len(a), 0, -1):
        nxt: dict[int, int] = {}
        for c, w in cur.items():
            for take in (0, 1):
                if a[i - 1] <= c + take <= top[i - 1]:
                    nxt[c + take] = nxt.get(c + take, 0) + (2 * w if take else w)
        cur = nxt
    return sum(cur.values())


def _ehrhart_volume(a, b) -> Fraction:
    n = len(a)
    diffs = [_lattice_count(a, b, t) for t in range(n + 1)]
    for _ in range(n):
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    return Fraction(diffs[0], math.factorial(n))


def _inside(a, b, point) -> bool:
    scale = math.lcm(*(Fraction(c).denominator for c in point))
    xs = [int(Fraction(c) * scale) for c in point]
    if any(x < 0 or x > scale for x in xs):
        return False
    run = 0
    for i in range(len(xs), 0, -1):
        run += xs[i - 1]
        if not a[i - 1] * scale <= run <= b[i - 1] * scale:
            return False
    return True


def _spec_sets(spec) -> set[frozenset[int]]:
    """Feasible label sets of an lpdm spec, from its ground and bounds alone."""
    pos = {g: i for i, g in enumerate(spec.ground, start=1)}
    n = len(spec.ground)
    a = _profile(n, {pos[x] for x in spec.lower})
    b = _profile(n, {pos[x] for x in spec.upper})
    return {frozenset(spec.ground[p - 1] for p in s) for s in _interval(a, b)}


# ---------------------------------------------------------------- inputs


def _random_pair(rng: random.Random, n: int, linked: bool):
    while True:
        s = frozenset(x for x in range(1, n + 1) if rng.random() < 0.5)
        t = frozenset(x for x in range(1, n + 1) if rng.random() < 0.5)
        a, b = _profile(n, s), _profile(n, t)
        if all(x < y if linked else x <= y for x, y in zip(a, b)):
            return s, t, a, b


def _banded_pair(rng: random.Random, kind: str, n: int, target):
    from lpdm.oracle import count_suffix_box

    while True:
        s, t, a, b = _random_pair(rng, n, linked=kind == "volume")
        if target is None:
            return s, t, a, b
        # volume works cell by cell, over the cells R in [S, T - {n}]
        size = _cell_weight(a, _profile(n, t - {n})) if kind == "volume" else count_suffix_box(a, b, 1)
        if abs(size - target) <= BAND * target:
            return s, t, a, b


def _feasible_set(rng: random.Random, a, b) -> set[int]:
    """A random member of the interval, chosen from position n down."""
    chosen, count = set(), 0
    for i in range(len(a), 0, -1):
        takes = [x for x in (0, 1) if a[i - 1] <= count + x <= b[i - 1]]
        if rng.choice(takes):
            chosen.add(i)
            count += 1
    return chosen


def _points(rng: random.Random, a, b, frac: bool) -> list[tuple]:
    n = len(a)
    out = []
    for k in range(POINTS):
        if frac:
            d = rng.choice((2, 3, 4, 6, 12))
            if k % 2:
                # a convex combination w*u + (1-w)*v of two vertices lies inside
                u, v = _feasible_set(rng, a, b), _feasible_set(rng, a, b)
                w = Fraction(rng.randint(0, d), d)
                value = {(0, 0): Fraction(0), (1, 0): w, (0, 1): 1 - w, (1, 1): Fraction(1)}
                out.append(tuple(value[i in u, i in v] for i in range(1, n + 1)))
            else:
                out.append(tuple(Fraction(rng.randint(0, d), d) for _ in range(n)))
        else:
            src = _feasible_set(rng, a, b) if k % 2 else {i for i in range(1, n + 1) if rng.random() < 0.5}
            out.append(tuple(int(i in src) for i in range(1, n + 1)))
    return out


def setup(seed: int, smoke: bool) -> dict:
    """The batch: one description per query, in a seeded shuffled order."""
    from lpdm import Facet, LpdmSpec, hrep

    rng = random.Random(f"ladder:{seed}")
    per_rung = 1 if smoke else PER_RUNG
    ops = []
    for kind, rungs in (SMOKE_RUNGS if smoke else RUNGS).items():
        for n, target in rungs.items():
            for j in range(per_rung):
                s, t, a, b = _banded_pair(rng, kind, n, target)
                desc = {"kind": kind, "n": n, "S": sorted(s), "T": sorted(t), "a": a, "b": b}
                spec = LpdmSpec.of(n, s, t)
                if kind == "face":
                    fkind, level = FACETS[j % len(FACETS)]
                    desc["facet"] = (fkind, rng.randint(1, n), level)
                    args = (spec, Facet(*desc["facet"]))
                elif kind.startswith("contains"):
                    desc["points"] = _points(rng, a, b, kind == "contains_frac")
                    args = (hrep(spec), desc["points"])
                else:
                    args = (spec,)
                ops.append((desc, args))
    rng.shuffle(ops)
    descs = [d for d, _ in ops]
    return {"descs": descs, "args": [x for _, x in ops], "checker": _Checker(descs)}


def describe(inputs: dict):
    return inputs["descs"]


# ---------------------------------------------------------------- queries


def _call(kind: str, args):
    import lpdm

    if kind == "volume":
        return lpdm.volume(*args)
    if kind == "feasible_sets":
        return lpdm.feasible_sets(*args)
    if kind == "face":
        return lpdm.face(*args)
    if kind == "exchange":
        return lpdm.exchange_witness(lpdm.feasible_sets(*args))
    h, points = args
    return [lpdm.contains(h, p) for p in points]


def _expected(desc: dict):
    kind, a, b = desc["kind"], desc["a"], desc["b"]
    if kind == "volume":
        return _ehrhart_volume(a, b)
    if kind == "feasible_sets":
        return _interval(a, b)
    if kind == "exchange":
        return None  # every Gale interval satisfies the symmetric exchange axiom
    if kind == "face":
        fkind, i, level = desc["facet"]
        if fkind == "coordinate":
            return {s for s in _interval(a, b) if (i in s) == bool(level)}
        bound = (a if level == "lower" else b)[i - 1]
        return {s for s in _interval(a, b) if sum(1 for x in s if x >= i) == bound}
    return [_inside(a, b, p) for p in desc["points"]]


def _agrees(desc: dict, out, expected) -> bool:
    kind = desc["kind"]
    if kind == "feasible_sets":
        return len(out.members) == len(expected) and set(out.members) == expected
    if kind == "face":
        if set(out.family.members) != expected or len(out.family.members) != len(expected):
            return False
        if not expected:
            return out.factors is None
        first, second = (_spec_sets(f) for f in out.factors)
        return {x | y for x in first for y in second} == expected
    return out == expected


def _fingerprint(kind: str, out):
    """A small stand-in for an answer already checked, for its repeats."""
    if kind == "feasible_sets":
        return len(out.members), hash(frozenset(out.members))
    if kind == "face":
        factors = None if out.factors is None else [(f.ground, f.lower, f.upper) for f in out.factors]
        return len(out.family.members), hash(frozenset(out.family.members)), factors
    return out


class _Checker:
    """Checks each query's first answer against the independent route, and
    every repeat against a fingerprint of that checked answer; the harness
    keeps little alive, so the program's garbage collections stay cheap."""

    def __init__(self, descs) -> None:
        self.descs = descs
        self.checked: dict[int, object] = {}

    def verdict(self, i: int, out) -> str:
        desc = self.descs[i]
        if i in self.checked:
            return "ok" if _fingerprint(desc["kind"], out) == self.checked[i] else "failed"
        if not _agrees(desc, out, _expected(desc)):
            return "failed"
        self.checked[i] = _fingerprint(desc["kind"], out)
        return "ok"


def _batch(inputs: dict, tally: Tally, per_op=None) -> float:
    busy, checker = 0.0, inputs["checker"]
    for i, (desc, args) in enumerate(zip(inputs["descs"], inputs["args"])):
        t0 = perf_counter()
        try:
            out = _call(desc["kind"], args)
        except Exception as exc:  # a raising query is a failed op, not an abort
            dt = perf_counter() - t0
            tally.record(1e3 * dt, "failed", f"{desc['kind']} n={desc['n']}: {exc!r}", i)
        else:
            dt = perf_counter() - t0
            tally.record(1e3 * dt, checker.verdict(i, out), f"{desc['kind']} n={desc['n']} wrong", i)
        busy += dt
        if per_op is not None:
            per_op.setdefault((desc["kind"], desc["n"]), []).append(1e3 * dt)
    return busy


def run(inputs: dict, seconds: float, per_op=None) -> Tally:
    return repeat(lambda tally: _batch(inputs, tally, per_op), seconds)


def run_traced(inputs: dict, seconds: float, tracer) -> tuple[Tally, dict]:
    """Untraced batches for half the time (rung medians), then one traced batch."""
    per_op: dict[tuple[str, int], list[float]] = {}
    tally = run(inputs, seconds / 2, per_op)
    untraced = median(tally.batch_s)
    tracer.install()
    try:
        traced = _batch(inputs, tally)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced)
    metrics["trace.overhead_ratio"] = traced / untraced
    for kind in SLOPES:
        for n in RUNGS[kind]:
            times = per_op.get((kind, n))
            metrics[f"ladder.{kind}.n{n}_ms"] = median(times) if times else 0.0
    vol = sorted(RUNGS["volume"])
    lo, hi = metrics[f"ladder.volume.n{vol[0]}_ms"], metrics[f"ladder.volume.n{vol[-1]}_ms"]
    metrics["triangulate.volume.growth"] = (hi / lo) ** (1 / (vol[-1] - vol[0])) if lo and hi else 0.0
    return tally, metrics
