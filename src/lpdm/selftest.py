"""Cross-checking suites for every structural claim in the package.

Each check is a function ``fn(cap) -> detail`` where ``cap`` bounds the
ground size; a failed invariant raises :class:`CheckFailure`.  Checks
clamp expensive sweeps (hull facets, rational draws, affine-rank scans)
to smaller sizes on their own, so passing a large cap is always safe.

``CHECKS`` lists every check in a fixed order; ``ACCEPTANCE`` names the
twelve that gate a release, with the cap each one is expected to run at.
``run_selftest`` runs any subset of the registry, one check after
another in the order requested; the checks are pure Python and
CPU-bound, so they would gain nothing from threads.  All sampling is
seeded, so two runs of the same suite see the same instances.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from time import perf_counter

from .errors import ArgumentError, DomainError, Frozen, OrderError
from .matroid import (
    LpdmSpec,
    SetFamily,
    catalan_spec,
    classify_elements,
    contract,
    delete,
    direct_sum,
    dual,
    envelope_bases,
    envelope_project,
    exchange_witness,
    family_interval_bounds,
    feasible_sets,
    homogeneous_component,
    intersect,
    project_element,
    relabel,
    signed_label_set,
)
from .oracle import (
    affine_rank,
    count_lattice_points,
    ehrhart_eval,
    ehrhart_table,
    ehrhart_volume,
    _hull_edges,
    _hull_facets,
    _in_hull,
    simplex_volume,
)
from .paths import (
    PathWord,
    bounding_path_meets,
    is_snake,
    path_from_subset,
    path_leq,
    skew_boxes,
    skew_svg,
    subset_from_path,
)
from .perms import (
    Permutation,
    all_permutations,
    chain_to_permutation,
    count_perms_with_descent_set,
    eulerian_number,
    permutation_to_chain,
)
from .polytope import Facet, HRep, contains, dimension, face, hrep, is_linked, vertex_set
from .subsets import (
    SubsetMask,
    all_subsets,
    cover_successors,
    count_maximal_chains,
    gale_leq,
    gale_rank,
    interval,
    is_valid_profile,
    mask_from_profile,
    sort_key,
)
from .triangulate import (
    eulerian_simplex,
    is_toric,
    simplex_cell,
    subdivide,
    triangulate_toric,
    volume,
)

__all__ = ["ACCEPTANCE", "CHECKS", "CheckFailure", "CheckResult", "run_selftest"]

SEED = 732941


class CheckFailure(AssertionError):
    """An invariant did not hold; the message names the witness."""


def _ok(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _raises(exc: type[Exception], msg: str, fn, *args) -> None:
    """Fail with ``msg`` unless ``fn(*args)`` raises ``exc``."""
    try:
        fn(*args)
    except exc:
        return
    raise CheckFailure(msg)


def _rng(tag: str) -> random.Random:
    # string seeding is stable across platforms and runs
    return random.Random(f"lpdm:{SEED}:{tag}")


@lru_cache(maxsize=None)
def _masks(n: int) -> tuple[SubsetMask, ...]:
    return tuple(all_subsets(n))


@lru_cache(maxsize=None)
def _mask_pairs(n: int) -> tuple[tuple[SubsetMask, SubsetMask], ...]:
    return tuple((s, t) for s in _masks(n) for t in _masks(n) if gale_leq(s, t))


def _specs_upto(cap: int):
    for n in range(1, cap + 1):
        for s, t in _mask_pairs(n):
            yield LpdmSpec.of(n, s.members, t.members)


def _small_subsets(n: int) -> list[SubsetMask]:
    # subsets of [n-1] reinterpreted over the ground [n]
    return [SubsetMask(n, s.members) for s in _masks(max(n - 1, 0))]


def _rational_draws(rng: random.Random, n: int, count: int) -> list[tuple[tuple[int, ...], int]]:
    """Random points in or near the unit cube, each as (integer numerators,
    one denominator)."""
    draws = []
    for _ in range(count):
        denom = rng.choice((2, 3, 4, 6, 12))
        lo, hi = (0, denom) if rng.random() < 0.5 else (-((denom + 1) // 2), denom + (denom + 1) // 2)
        draws.append((tuple(rng.randint(lo, hi) for _ in range(n)), denom))
    return draws


# the draws repeat a few hundred numerator-denominator pairs: build each Fraction once
_fraction = lru_cache(maxsize=None)(Fraction)


def _random_linked_pairs(n: int, count: int, tag: str) -> list[tuple[SubsetMask, SubsetMask]]:
    rng = _rng(tag)
    out: list[tuple[SubsetMask, SubsetMask]] = []
    for _ in range(500000):
        if len(out) == count:
            return out
        s = SubsetMask(n, frozenset(x for x in range(1, n + 1) if rng.random() < 0.5))
        t = SubsetMask(n, frozenset(x for x in range(1, n + 1) if rng.random() < 0.5))
        if all(a < b for a, b in zip(s.profile, t.profile)):
            out.append((s, t))
    raise CheckFailure(f"could not sample {count} linked pairs at n={n}")


def _max_chains(lower: SubsetMask, upper: SubsetMask) -> list[list[SubsetMask]]:
    if lower == upper:
        return [[upper]]
    out = []
    for nxt in cover_successors(lower):
        if gale_leq(nxt, upper):
            for rest in _max_chains(nxt, upper):
                out.append([lower] + rest)
    return out


# ---------------------------------------------------------------- order


def gale_leq_definitional(s: SubsetMask, t: SubsetMask) -> bool:
    """Pairwise form of the order: |S| <= |T| and, with both sets written
    in increasing order, the i-th largest element of S is at most the
    i-th largest element of T.  The reference that ``gale_leq`` is
    checked against."""
    if s.n != t.n:
        raise ArgumentError(f"mismatched ground sizes {s.n} and {t.n}")
    a, b = s.as_tuple(), t.as_tuple()
    j, k = len(a), len(b)
    if j > k:
        return False
    return all(a[j - i] <= b[k - i] for i in range(1, j + 1))


def order_axioms(cap: int) -> str:
    """The suffix-count comparison is a graded partial order and the
    profile encoding of subsets is a bijection."""
    hi = min(cap, 6)
    pairs = 0
    for n in range(0, hi + 1):
        masks = _masks(n)
        _ok(len({s.profile for s in masks}) == len(masks), f"profiles collide at n={n}")
        for s in masks:
            _ok(is_valid_profile(s.profile), f"invalid profile for {s!r}")
            _ok(mask_from_profile(s.profile) == s, f"profile round trip fails for {s!r}")
            _ok(gale_leq(s, s), f"not reflexive at {s!r}")
            for t in cover_successors(s):
                _ok(
                    gale_leq(s, t) and gale_rank(t) == gale_rank(s) + 1,
                    f"cover {s!r} -> {t!r} not a rank step",
                )
        for s in masks:
            for t in masks:
                left = gale_leq(s, t)
                _ok(
                    left == gale_leq_definitional(s, t),
                    f"profile and pairwise forms disagree on {s!r}, {t!r}",
                )
                if left and gale_leq(t, s):
                    _ok(s == t, f"antisymmetry fails on {s!r}, {t!r}")
                pairs += 1
    for n in range(0, min(cap, 5) + 1):
        ups = {s: {t for t in _masks(n) if gale_leq(s, t)} for s in _masks(n)}
        for s, up in ups.items():
            for t in up:
                _ok(up >= ups[t], f"transitivity fails through {s!r} <= {t!r}")
    for bad in ((-1,), (0, 2), (1, 0, 1), (2,)):
        _ok(not is_valid_profile(bad), f"{bad!r} accepted as a profile")
    return f"orders to n={hi}: {pairs} ordered pairs, both comparison forms agree"


def cover_enumeration(cap: int) -> str:
    """Cover steps are exactly the rank+1 comparabilities, with no
    subset strictly between."""
    hi = min(cap, 6)
    covers = 0
    for n in range(0, hi + 1):
        for s in _masks(n):
            got = set(cover_successors(s))
            want = {t for t in _masks(n) if gale_leq(s, t) and gale_rank(t) == gale_rank(s) + 1}
            _ok(got == want, f"covers of {s!r} disagree with the rank form")
            covers += len(got)
            if n <= min(cap, 5):
                for t in got:
                    middle = [u for u in _masks(n) if u not in (s, t) and gale_leq(s, u) and gale_leq(u, t)]
                    _ok(not middle, f"subsets sit inside the cover {s!r} -> {t!r}: {middle}")
        if n <= min(cap, 5):
            for s, t in _mask_pairs(n):
                if gale_rank(t) - gale_rank(s) >= 2:
                    _ok(
                        any(u not in (s, t) and gale_leq(s, u) and gale_leq(u, t) for u in _masks(n)),
                        f"no subset strictly between {s!r} and {t!r}",
                    )
    return f"{covers} cover steps to n={hi} match the brute-force definition"


def interval_enumeration(cap: int) -> str:
    """interval() equals the brute-force filter, in canonical order."""
    hi = min(cap, 6)
    total = 0
    for n in range(1, hi + 1):
        for s, t in _mask_pairs(n):
            got = interval(s, t)
            want = sorted((u for u in _masks(n) if gale_leq(s, u) and gale_leq(u, t)), key=sort_key)
            _ok(got == want, f"interval({s!r}, {t!r}) wrong")
            total += len(got)
        incomparable = [
            (s, t) for s in _masks(n) for t in _masks(n)
            if not gale_leq(s, t)
        ]
        if incomparable:
            s, t = incomparable[0]
            _raises(OrderError, f"interval accepted the incomparable pair {s!r}, {t!r}", interval, s, t)
    return f"{total} interval members to n={hi} match the filter"


def chain_counts(cap: int) -> str:
    """The chain-counting recursion equals brute-force DFS, and on the
    intervals [S, S u n] it equals the descent-class size."""
    for n in range(1, min(cap, 6) + 1):
        for s in _small_subsets(n):
            top = SubsetMask(n, s.members | {n})
            _ok(
                count_maximal_chains(s, top) == count_perms_with_descent_set(n, s.members),
                f"chain count != descent count at n={n}, S={sorted(s.members)}",
            )
    checked = 0
    for n in range(1, min(cap, 4) + 1):
        for s, t in _mask_pairs(n):
            _ok(
                count_maximal_chains(s, t) == len(_max_chains(s, t)),
                f"chain recursion wrong on [{s!r}, {t!r}]",
            )
            checked += 1
    return f"toric counts to n={min(cap, 6)}; {checked} generic intervals cross-checked"


def descent_statistics(cap: int) -> str:
    """Transfer-matrix descent counts match enumeration; ascent
    classes have the same sizes (reversal swaps ascents and descents),
    and Eulerian numbers line up."""
    hi = min(cap, 6)
    for n in range(0, hi + 1):
        by_desc: dict[frozenset[int], int] = {}
        by_asc: dict[frozenset[int], int] = {}
        by_size: dict[int, int] = {}
        for w in all_permutations(n):
            d, a = w.descent_set(), w.ascent_set()
            _ok(d.members | a.members == frozenset(range(1, n)), f"{w!r} statistics do not partition")
            _ok(not (d.members & a.members), f"{w!r} statistics overlap")
            by_desc[d.members] = by_desc.get(d.members, 0) + 1
            by_asc[a.members] = by_asc.get(a.members, 0) + 1
            by_size[len(d.members)] = by_size.get(len(d.members), 0) + 1
        total = 0
        for s in _masks(max(n - 1, 0)):
            beta = count_perms_with_descent_set(n, s.members)
            _ok(beta == by_desc.get(s.members, 0), f"descent count wrong at n={n}, S={sorted(s.members)}")
            _ok(
                beta == by_asc.get(s.members, 0),
                f"ascent count wrong at n={n}, S={sorted(s.members)}",
            )
            total += beta
        _ok(total == math.factorial(n), f"descent classes do not exhaust S_{n}")
        for k in range(max(n, 1)):
            _ok(eulerian_number(n, k) == by_size.get(k, 0), f"Eulerian number A({n},{k}) wrong")
    return f"all descent/ascent set counts verified to n={hi}"


# ---------------------------------------------------------------- paths


def path_isomorphism(cap: int) -> str:
    """Subsets and symmetric paths are in order-preserving bijection."""
    hi = min(cap, 6)
    for n in range(0, hi + 1):
        words = {}
        for s in _masks(n):
            p = path_from_subset(s)
            _ok(len(p.steps) == 2 * n, f"word length wrong for {s!r}")
            _ok(subset_from_path(p) == s, f"path round trip fails for {s!r}")
            words[s] = p
        for s in _masks(n):
            for t in _masks(n):
                _ok(
                    path_leq(words[s], words[t]) == gale_leq(s, t),
                    f"path order disagrees with the Gale order on {s!r}, {t!r}",
                )
    fixed = path_from_subset(SubsetMask(5, frozenset({2, 3, 4})))
    _ok(fixed.steps == "ENNNENEEEN", f"worked word wrong: {fixed.steps}")
    _ok(subset_from_path(PathWord("ENNNENEEEN")).members == frozenset({2, 3, 4}), "worked word decodes wrong")
    _raises(DomainError, "an asymmetric word was decoded", subset_from_path, PathWord("ENNE"))
    return f"order isomorphism verified to n={hi}"


def skew_diagrams(cap: int) -> str:
    """Skew diagrams are antidiagonally symmetric with box counts
    determined by rank and size differences."""
    hi = min(cap, 5)
    boxes_seen = 0
    for n in range(1, hi + 1):
        svg_budget = 10
        for s, t in _mask_pairs(n):
            sk = skew_boxes(s, t)
            # (c, r) -> (n-1-r, n-1-c) reflects a cell in the antidiagonal
            _ok(all((n - 1 - r, n - 1 - c) in sk for (c, r) in sk), f"asymmetric diagram for [{s!r}, {t!r}]")
            rank_gap = gale_rank(t) - gale_rank(s)
            size_gap = len(t.members) - len(s.members)
            _ok(
                len(sk) == 2 * rank_gap - size_gap,
                f"box count wrong for [{s!r}, {t!r}]",
            )
            diag = sum(1 for (c, r) in sk if c + r == n - 1)
            _ok(diag == size_gap, f"antidiagonal box count wrong for [{s!r}, {t!r}]")
            blocky = any(
                (c + 1, r) in sk and (c, r + 1) in sk and (c + 1, r + 1) in sk
                for (c, r) in sk
            )
            _ok(is_snake(s, t) == (not blocky), f"snake test wrong for [{s!r}, {t!r}]")
            boxes_seen += len(sk)
            if svg_budget:
                svg_budget -= 1
                pic = skew_svg(s, t)
                _ok(pic == skew_svg(s, t), "svg output is not deterministic")
                _ok(pic.startswith("<svg") and pic.endswith("\n"), "svg framing wrong")
                _ok("polyline" in pic and "stroke-dasharray" in pic, "svg is missing path layers")
    _ok(not is_snake(SubsetMask(2, frozenset()), SubsetMask(2, frozenset({1, 2}))), "full square called a snake")
    _ok(is_snake(SubsetMask(3, frozenset({1})), SubsetMask(3, frozenset({1, 3}))), "known snake rejected")
    return f"{boxes_seen} boxes across all diagrams to n={hi}"


# ---------------------------------------------------------------- matroid axioms


def exchange_axiom(cap: int) -> str:
    """Every Gale interval satisfies the symmetric exchange axiom."""
    families = 0
    for m in _specs_upto(min(cap, 5)):
        _ok(exchange_witness(feasible_sets(m)) is None, f"exchange fails for {m!r}")
        families += 1
    # the checker is not vacuous: this family has no exchange for e=2
    bad = SetFamily((1, 2, 3), (frozenset(), frozenset({1}), frozenset({1, 2, 3})))
    _ok(exchange_witness(bad) is not None, "checker accepted a non-example")
    return f"{families} interval families satisfy the axiom; non-example rejected"


def operation_coherence(cap: int) -> str:
    """Positional formulas for duals, minors and sums match the
    definition-level set filters."""
    hi = min(cap, 5)
    ops = 0
    for m in _specs_upto(hi):
        members = set(feasible_sets(m).members)
        ground = frozenset(m.ground)
        loops, coloops = classify_elements(m)
        _ok(loops == {g for g in ground if all(g not in a for a in members)}, f"loops wrong on {m!r}")
        _ok(coloops == {g for g in ground if all(g in a for a in members)}, f"coloops wrong on {m!r}")
        d = dual(m)
        _ok(set(feasible_sets(d).members) == {ground - a for a in members}, f"dual wrong on {m!r}")
        for label in m.ground:
            if label in coloops:
                _raises(DomainError, f"deleting the coloop {label} of {m!r} did not fail", delete, m, label)
            else:
                got = feasible_sets(delete(m, label))
                _ok(
                    set(got.members) == {a for a in members if label not in a},
                    f"deletion of {label} wrong on {m!r}",
                )
                _ok(dual(delete(m, label)) == contract(d, label), f"minor duality fails at {label} on {m!r}")
            if label in loops:
                _raises(DomainError, f"contracting the loop {label} of {m!r} did not fail", contract, m, label)
            else:
                got = feasible_sets(contract(m, label))
                _ok(
                    set(got.members) == {a - {label} for a in members if label in a},
                    f"contraction of {label} wrong on {m!r}",
                )
            ops += 1
    # a sum concatenates grounds and joins the bounds; its family always
    # contains the member unions, with equality when the upper summand
    # puts all its feasible sets in one size
    rng = _rng("direct-sum")
    small = list(_specs_upto(min(cap, 3)))
    equal_cases = 0
    for _ in range(60):
        m1 = rng.choice(small)
        m2 = rng.choice(small)
        shifted = relabel(m2, range(m1.n + 1, m1.n + m2.n + 1))
        s = direct_sum(m1, shifted)
        _ok(s.ground == m1.ground + shifted.ground, f"sum ground wrong on {m1!r} + {shifted!r}")
        _ok(
            s.lower == m1.lower | shifted.lower and s.upper == m1.upper | shifted.upper,
            f"sum bounds wrong on {m1!r} + {shifted!r}",
        )
        unions = {
            a | b
            for a in feasible_sets(m1).members
            for b in feasible_sets(shifted).members
        }
        fam = set(feasible_sets(s).members)
        _ok(unions <= fam, f"sum family of {m1!r} + {shifted!r} misses some unions")
        if len({len(a) for a in feasible_sets(shifted).members}) == 1:
            equal_cases += 1
            _ok(fam == unions, f"equicardinal sum {m1!r} + {shifted!r} grew extra sets")
        scattered = relabel(m1, tuple(10 * g + 7 for g in m1.ground))
        _ok(
            set(feasible_sets(scattered).members)
            == {frozenset(10 * x + 7 for x in a) for a in feasible_sets(m1).members},
            f"relabel wrong on {m1!r}",
        )
    _ok(equal_cases >= 5, "sampler found too few equicardinal sums")
    # the slack case: a coloop below a free element picks up the free
    # element alone as an extra feasible set
    slack = direct_sum(
        LpdmSpec.of(1, frozenset({1}), frozenset({1})),
        relabel(LpdmSpec.of(1, frozenset(), frozenset({1})), (2,)),
    )
    _ok(slack == LpdmSpec.of(2, frozenset({1}), frozenset({1, 2})), "worked sum spec wrong")
    _ok(
        set(feasible_sets(slack).members)
        == {frozenset({1}), frozenset({2}), frozenset({1, 2})},
        "worked sum family wrong",
    )
    _raises(ArgumentError, "direct sum accepted overlapping grounds", direct_sum, small[0], small[0])
    return f"{ops} single-element operations to n={hi} match the filters"


def homogeneous_components(cap: int) -> str:
    """Every nonempty size layer is exactly the elementwise interval
    between its smallest and largest members."""
    hi = min(cap, 5)
    layers = 0
    for m in _specs_upto(hi):
        members = set(feasible_sets(m).members)
        for k in range(m.n + 1):
            comp = homogeneous_component(m, k)
            want = {a for a in members if len(a) == k}
            if comp is None:
                _ok(not want, f"layer {k} of {m!r} reported empty")
                continue
            _ok(len(comp.lower) == len(comp.upper) == k, f"layer {k} of {m!r} has bounds of another size")
            _ok(set(feasible_sets(comp).members) == want, f"layer {k} of {m!r} wrong")
            layers += 1
    fixed = LpdmSpec.of(6, frozenset({1, 3, 5}), frozenset({2, 4, 5, 6}))
    c3 = homogeneous_component(fixed, 3)
    c4 = homogeneous_component(fixed, 4)
    _ok(c3 == LpdmSpec.of(6, {1, 3, 5}, {4, 5, 6}), "size-3 layer bounds wrong")
    _ok(c4 == LpdmSpec.of(6, {1, 2, 3, 5}, {2, 4, 5, 6}), "size-4 layer bounds wrong")
    return f"{layers} nonempty layers to n={hi} are elementwise intervals"


def envelope_projection(cap: int) -> str:
    """Bases of the enveloping matroid project into the polytope, and
    the one-per-sign-pair bases land exactly on the feasible vertices."""
    hi = min(cap, 4)
    bases_seen = 0
    for m in _specs_upto(hi):
        n = m.n
        h = hrep(m)
        members = set(feasible_sets(m).members)
        bases = set(envelope_bases(m).members)
        images = set()
        admissible = 0
        for b in bases:
            x = envelope_project(b, n)
            _ok(contains(h, x), f"basis {sorted(b)} projects outside the polytope of {m!r}")
            if all(len(b & {i, -i}) == 1 for i in range(1, n + 1)):
                admissible += 1
                _ok(all(c in (0, 1) for c in x), f"admissible basis {sorted(b)} not a vertex image")
                fs = frozenset(i for i in range(1, n + 1) if i in b)
                _ok(fs in members, f"admissible basis {sorted(b)} maps outside the family")
                images.add(fs)
            else:
                _ok(any(c == Fraction(1, 2) for c in x), f"basis {sorted(b)} should hit a half coordinate")
            bases_seen += 1
        _ok(images == members and admissible == len(members), f"admissible bases of {m!r} miss some vertices")
        for a in members:
            _ok(signed_label_set(SubsetMask(n, a)) in bases, f"encoding of {sorted(a)} is not a basis")
    return f"{bases_seen} envelope bases to n={hi} project correctly"


# ---------------------------------------------------------------- polytope


def _inequalities(h: HRep) -> set[tuple[int, ...]]:
    """The 4n inequalities of h in (scale, x) form: 0 <= x_i <= 1 and
    lower_i <= x_i + ... + x_n <= upper_i."""
    n, rows = h.n, set()
    for i in range(n):
        unit = tuple(int(k == i) for k in range(n))
        suffix = tuple(int(k >= i) for k in range(n))
        rows |= {(0, *unit), (1, *(-c for c in unit)), (-h.lower[i], *suffix), (h.upper[i], *(-c for c in suffix))}
    return rows


def vertex_theorem(cap: int) -> str:
    """The inequality description has exactly the feasible indicator
    vectors V as its 0/1 points and agrees with the convex hull on rational
    points.  Every ``hrep`` row has consecutive ones, so its matrix is an
    interval matrix, totally unimodular, and P is integral (Hoffman and
    Kruskal 1956): P = conv(V) follows from P ∩ {0,1}^n = V, checked here
    to n = min(cap, 6).  A second, computational route to n = 4: on a
    full-dimensional spec every facet of the hull (by double description)
    is one of the inequalities, so they cut out exactly the hull."""
    specs = 0
    for m in _specs_upto(min(cap, 6)):
        n = m.n
        h = hrep(m)
        verts = set(vertex_set(m))
        for bits in product((0, 1), repeat=n):
            if contains(h, bits) != (bits in verts):
                raise CheckFailure(f"0/1 point {bits} misclassified for {m!r}")
        if count_lattice_points(h, 1) != len(verts):
            raise CheckFailure(f"t=1 lattice count wrong for {m!r}")
        specs += 1
    points = 0
    for m in _specs_upto(min(cap, 4)):
        h = hrep(m)
        verts = vertex_set(m)
        equations, facets, _ = _hull_facets(1, verts)
        if is_linked(m):
            # V lies in P, so conv(V) = P once every facet of conv(V) is an inequality of P
            rows = _inequalities(h)
            _ok(all(tuple(f) in rows for f in facets), f"a facet of the hull of {m!r} is no inequality of it")
        rng = _rng(f"vertex:{m.n}:{sorted(m.lower)}:{sorted(m.upper)}")
        draws = _rational_draws(rng, m.n, 200)
        draws.append((tuple(map(sum, zip(*verts))), len(verts)))  # the barycenter
        u, v = rng.choice(verts), rng.choice(verts)
        draws.append((tuple(a + b for a, b in zip(u, v)), 2))
        for nums, den in draws:
            x = tuple(_fraction(c, den) for c in nums)
            if contains(h, x) != _in_hull(equations, facets, (den, *nums)):
                raise CheckFailure(f"membership disagreement at {x} for {m!r}")
            points += 1
    return f"{specs} specs 0/1-exact; {points} rational points agree with the hull"


def dimension_formulas(cap: int) -> str:
    """Polytope dimension via pinched suffix bounds, via path meeting
    points, and via affine rank all coincide."""
    hi = min(cap, 6)
    for m in _specs_upto(hi):
        d = dimension(m)
        s, t = m.lower_mask(), m.upper_mask()
        _ok(d == m.n + 1 - bounding_path_meets(s, t), f"path dimension formula fails on {m!r}")
        _ok(is_linked(m) == (d == m.n), f"linkedness disagrees with dimension on {m!r}")
        if m.n <= min(cap, 4):
            _ok(affine_rank(vertex_set(m)) == d, f"affine rank disagrees on {m!r}")
    point = LpdmSpec.of(3, frozenset({2}), frozenset({2}))
    _ok(dimension(point) == 0, "a single feasible set should give a point")
    cube = LpdmSpec.of(4, frozenset(), frozenset(range(1, 5)))
    _ok(dimension(cube) == 4 and is_linked(cube), "the full interval should give the cube")
    return f"three dimension computations agree to n={hi}"


def intersection_consistency(cap: int) -> str:
    """Intersecting two interval polytopes is again an interval
    polytope, computed by crossing the profile bounds."""
    hi = min(cap, 4)
    checked = 0
    for n in range(1, hi + 1):
        specs = [LpdmSpec.of(n, s.members, t.members) for s, t in _mask_pairs(n)]
        rng = _rng(f"intersect:{n}")
        for _ in range(120):
            m1 = rng.choice(specs)
            m2 = rng.choice(specs)
            h1, h2 = hrep(m1), hrep(m2)
            r = intersect(m1, m2)
            both01 = {
                bits
                for bits in product((0, 1), repeat=n)
                if contains(h1, bits) and contains(h2, bits)
            }
            if r is None:
                _ok(not both01, f"empty intersection of {m1!r}, {m2!r} has a 0/1 point")
            else:
                hx = hrep(r)
                _ok(
                    hx.lower == tuple(map(max, h1.lower, h2.lower))
                    and hx.upper == tuple(map(min, h1.upper, h2.upper)),
                    f"intersection bounds wrong for {m1!r}, {m2!r}",
                )
                got01 = {bits for bits in product((0, 1), repeat=n) if contains(hx, bits)}
                _ok(got01 == both01, f"0/1 points wrong for the intersection of {m1!r}, {m2!r}")
            for nums, den in _rational_draws(rng, n, 20):
                x = tuple(_fraction(c, den) for c in nums)
                inside = r is not None and contains(hx, x)
                if inside != (contains(h1, x) and contains(h2, x)):
                    raise CheckFailure(f"intersection of {m1!r}, {m2!r} wrong at {x}")
            checked += 1
        sample = rng.choice(specs)
        _ok(intersect(sample, sample) == sample, f"self-intersection changed {sample!r}")
    return f"{checked} random intersections to n={hi} verified"


def _family_product(factors) -> set[frozenset[int]]:
    out = {frozenset()}
    for f in factors:
        fam = feasible_sets(f)
        out = {a | b for a in out for b in fam.members}
    return out


def face_consistency(cap: int) -> str:
    """Coordinate and suffix faces carve out exactly the expected
    feasible sets and split as direct sums."""
    hi = min(cap, 4)
    faces = 0
    for m in _specs_upto(hi):
        members = set(feasible_sets(m).members)
        h = hrep(m)
        n = m.n
        for i in range(1, n + 1):
            for level in (0, 1):
                res = face(m, Facet("coordinate", i, level))
                label = m.ground[i - 1]
                want = {a for a in members if (label in a) == bool(level)}
                if set(res.family.members) != want:
                    raise CheckFailure(f"coordinate face x_{i}={level} wrong on {m!r}")
                if want:
                    if res.factors is None:
                        raise CheckFailure(f"nonempty face of {m!r} lacks factors")
                    grounds = [g for f in res.factors for g in f.ground]
                    if sorted(grounds) != sorted(m.ground):
                        raise CheckFailure(f"face factors of {m!r} do not split the ground")
                    if _family_product(res.factors) != want:
                        raise CheckFailure(f"face factors of {m!r} multiply wrong")
                elif res.factors is not None:
                    raise CheckFailure(f"empty face of {m!r} has factors")
                faces += 1
            for side in ("lower", "upper"):
                res = face(m, Facet("suffix", i, side))
                bound = h.lower[i - 1] if side == "lower" else h.upper[i - 1]
                want = {
                    a for a in members
                    if sum(1 for x in a if m.position(x) >= i) == bound
                }
                if set(res.family.members) != want:
                    raise CheckFailure(f"suffix face i={i} {side} wrong on {m!r}")
                if not (want and res.factors is not None):
                    raise CheckFailure(f"suffix face i={i} {side} of {m!r} empty")
                if _family_product(res.factors) != want:
                    raise CheckFailure(f"suffix face factors wrong on {m!r}")
                faces += 1
    worked = LpdmSpec.of(5, frozenset({1, 3}), frozenset({2, 3, 5}))
    res = face(worked, Facet("coordinate", 3, 1))
    want = {
        frozenset(s)
        for s in ((1, 3), (2, 3), (3, 4), (3, 5), (1, 2, 3), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5))
    }
    _ok(set(res.family.members) == want, "worked coordinate face lists the wrong sets")
    _ok(res.factors is not None and len(res.factors) == 2, "worked face should split in two")
    single, rest = res.factors
    _ok(single.ground == (3,) and single.lower == single.upper == frozenset({3}), "coloop factor wrong")
    _ok(
        rest.ground == (1, 2, 4, 5) and rest.lower == frozenset({1}) and rest.upper == frozenset({2, 5}),
        "contraction factor wrong",
    )
    return f"{faces} faces to n={hi} split as direct sums"


# ---------------------------------------------------------------- volume


def volume_identity(cap: int) -> str:
    """Triangulation volume equals the lattice-point-counting volume on
    every pair, including degenerate ones."""
    pairs = 0
    for m in _specs_upto(min(cap, 5)):
        _ok(volume(m) == ehrhart_volume(hrep(m)), f"volumes disagree on {m!r}")
        pairs += 1
    extra = 0
    if cap >= 6:
        for s, t in _random_linked_pairs(6, 100, "volume-linked"):
            m = LpdmSpec.of(6, s.members, t.members)
            _ok(volume(m) == ehrhart_volume(hrep(m)), f"volumes disagree on {m!r}")
            extra += 1
    return f"{pairs} exhaustive pairs and {extra} random linked pairs agree exactly"


def toric_triangulation(cap: int) -> str:
    """Each interval [S, S u n] splits into unimodular simplices, one
    per permutation in the matching descent class."""
    hi = min(cap, 6)
    simplices = 0
    for n in range(1, hi + 1):
        unit = Fraction(1, math.factorial(n))
        by_cell: dict[frozenset[int], list[Permutation]] = {}
        for w in all_permutations(n):
            _ok(simplex_volume(eulerian_simplex(w)) == unit, f"simplex of {w!r} is not unimodular")
            by_cell.setdefault(simplex_cell(w).members, []).append(w)
            simplices += 1
        rng = _rng(f"toric:{n}")
        cells = _small_subsets(n)
        full = cells if n <= 4 else rng.sample(cells, 8)
        for s in cells:
            m = LpdmSpec.of(n, s.members, s.members | {n})
            beta = count_perms_with_descent_set(n, s.members)
            _ok(is_toric(m), f"{m!r} should be toric")
            _ok(len(by_cell.get(s.members, ())) == beta, f"cell size wrong at n={n}, S={sorted(s.members)}")
            _ok(
                count_maximal_chains(s, SubsetMask(n, s.members | {n})) == beta,
                f"chain count disagrees at n={n}, S={sorted(s.members)}",
            )
            _ok(ehrhart_volume(hrep(m)) == beta * unit, f"oracle volume wrong on {m!r}")
            _ok(volume(m) == beta * unit, f"triangulation volume wrong on {m!r}")
        for s in full:
            m = LpdmSpec.of(n, s.members, s.members | {n})
            h = hrep(m)
            perms = triangulate_toric(m)
            _ok(
                sorted(w.images for w in perms) == sorted(w.images for w in by_cell.get(s.members, [])),
                f"triangulation of {m!r} picks the wrong permutations",
            )
            simps = [eulerian_simplex(w) for w in perms]
            _ok(sum(map(simplex_volume, simps)) == volume(m), f"simplex volumes of {m!r} do not add up")
            for x in simps:
                for vtx in x:
                    _ok(contains(h, vtx), f"simplex vertex {vtx} escapes {m!r}")
    third = LpdmSpec.of(3, frozenset({1}), frozenset({1, 3}))
    _ok(volume(third) == Fraction(1, 3) == ehrhart_volume(hrep(third)), "checked instance 1/3 wrong")
    half = LpdmSpec.of(2, frozenset({1}), frozenset({1, 2}))
    _ok(volume(half) == Fraction(1, 2) == ehrhart_volume(hrep(half)), "checked instance 1/2 wrong")
    return f"{simplices} unimodular simplices to n={hi} sort into descent classes"


def cube_partition(cap: int) -> str:
    """Descent classes tile the cube: class sizes sum to n! and each
    simplex barycenter lies strictly inside exactly one slab cell."""
    hi = min(cap, 6)
    for n in range(1, hi + 1):
        total = sum(count_perms_with_descent_set(n, s.members) for s in _small_subsets(n))
        _ok(total == math.factorial(n), f"descent classes miss part of S_{n}")
        cube = LpdmSpec.of(n, frozenset(), frozenset(range(1, n + 1)))
        cells = subdivide(cube).cells
        _ok(len(cells) == 2 ** (n - 1), f"cube at n={n} has the wrong number of cells")
        _ok(sum(volume(c) for c in cells) == 1, f"cell volumes at n={n} do not fill the cube")
        slabs = [hrep(c) for c in cells]
        for w in all_permutations(n):
            b = tuple(Fraction(sum(c), n + 1) for c in zip(*eulerian_simplex(w)))  # the barycenter
            hits = 0
            for h in slabs:
                run = Fraction(0)
                inside = all(0 < c < 1 for c in b)
                for i in range(n, 0, -1):
                    run += b[i - 1]
                    if not (h.lower[i - 1] < run < h.upper[i - 1]):
                        inside = False
                        break
                hits += inside
            _ok(hits == 1, f"barycenter of {w!r} lies in {hits} open cells")
    return f"descent classes tile the cube exactly to n={hi}"


def subdivision_cells(cap: int) -> str:
    """Linked intervals subdivide into toric cells whose families cover
    the interval and whose oracle volumes add up."""
    hi = min(cap, 5)
    linked = 0
    for m in _specs_upto(hi):
        if not is_linked(m):
            try:
                subdivide(m)
            except DomainError:
                continue
            raise CheckFailure(f"subdivision accepted the non-linked {m!r}")
        n = m.n
        cells = subdivide(m).cells
        want_count = len(interval(m.lower_mask(), SubsetMask(n, m.upper_mask().members - {n})))
        _ok(len(cells) == len(set(cells)) == want_count, f"cell list wrong for {m!r}")
        union: set[frozenset[int]] = set()
        for c in cells:
            _ok(is_toric(c), f"cell {c!r} of {m!r} is not toric")
            union |= set(feasible_sets(c).members)
        _ok(union == set(feasible_sets(m).members), f"cells of {m!r} do not cover the family")
        _ok(
            sum(ehrhart_volume(hrep(c)) for c in cells) == ehrhart_volume(hrep(m)),
            f"cell volumes of {m!r} do not add up",
        )
        linked += 1
    return f"{linked} linked intervals to n={hi} subdivide consistently"


def edge_directions(cap: int) -> str:
    """Every edge of an interval polytope, certified by its facets, steps
    by a single coordinate or swaps one coordinate for another; the same
    certificate finds the unit square's four sides and a segment's one edge."""
    hi = min(cap, 4)
    edges = 0
    for m in _specs_upto(hi):
        verts = vertex_set(m)
        for i, j in _hull_edges(verts):
            u, v = verts[i], verts[j]
            moved = sorted(b - a for a, b in zip(u, v) if a != b)
            if moved not in ([-1], [1], [-1, 1]):
                raise CheckFailure(f"edge {u} -> {v} of {m!r} uses a forbidden direction")
            edges += 1
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    _ok(_hull_edges(square) == [(0, 1), (0, 2), (1, 3), (2, 3)], "square edges are not its four sides")
    _ok(_hull_edges([(0, 0), (1, 1)]) == [(0, 1)], "two-point segment rejected")
    return f"{edges} certified edges to n={hi} all use allowed directions"


# ---------------------------------------------------------------- statistics and worked values


def catalan_counts(cap: int) -> str:
    """The staircase interval on [2n] has central-binomial many feasible
    sets."""
    known = {1: 2, 2: 6, 3: 20, 4: 70, 5: 252}
    hi = min(cap, 5)
    for n in range(1, hi + 1):
        m = catalan_spec(n)
        _ok(m.ground == tuple(range(1, 2 * n + 1)), f"staircase ground wrong at n={n}")
        _ok(m.lower == frozenset() and m.upper == frozenset(range(1, 2 * n, 2)), f"staircase bounds wrong at n={n}")
        count = len(feasible_sets(m))
        _ok(count == math.comb(2 * n, n) == known[n], f"staircase count wrong at n={n}: {count}")
    return f"counts {', '.join(str(known[i]) for i in range(1, hi + 1))} confirmed"


def chain_bijection(cap: int) -> str:
    """Maximal chains of [S, S u n] and permutations with descent set S
    decode into one another."""
    hi = min(cap, 6)
    chains_seen = 0
    for n in range(1, hi + 1):
        for s in _small_subsets(n):
            top = SubsetMask(n, s.members | {n})
            chains = [tuple(c) for c in _max_chains(s, top)]
            perms = [chain_to_permutation(c) for c in chains]
            _ok(len(set(perms)) == len(chains), f"chain decoding collides at n={n}, S={sorted(s.members)}")
            for c, w in zip(chains, perms):
                _ok(w.descent_set().members == s.members, f"{w!r} has the wrong descent set")
                _ok(permutation_to_chain(w, s) == c, f"round trip fails for {w!r}")
            chains_seen += len(chains)
        for w in all_permutations(n):
            start = SubsetMask(n, w.descent_set().members)
            c = permutation_to_chain(w, start)
            _ok(chain_to_permutation(c) == w, f"encoding round trip fails for {w!r}")
    steps1 = tuple(
        SubsetMask(6, frozenset(x))
        for x in ({1, 3, 5}, {1, 3, 6}, {2, 3, 6}, {1, 2, 3, 6}, {1, 2, 4, 6}, {1, 3, 4, 6}, {1, 3, 5, 6})
    )
    _ok(
        chain_to_permutation(steps1).images == (3, 2, 5, 4, 6, 1),
        "worked chain decodes to the wrong permutation",
    )
    worked = Permutation((3, 2, 5, 4, 6, 1))
    _ok(
        (worked.descent_set(), worked.ascent_set())
        == (SubsetMask(5, frozenset({1, 3, 5})), SubsetMask(5, frozenset({2, 4}))),
        "worked permutation statistics wrong",
    )
    want2 = tuple(
        SubsetMask(6, frozenset(x))
        for x in ({1, 3, 5}, {1, 4, 5}, {1, 4, 6}, {2, 4, 6}, {2, 5, 6}, {1, 2, 5, 6}, {1, 3, 5, 6})
    )
    got2 = permutation_to_chain(Permutation((5, 3, 6, 1, 4, 2)), SubsetMask(6, frozenset({1, 3, 5})))
    _ok(got2 == want2, "worked permutation encodes to the wrong chain")
    return f"{chains_seen} chains to n={hi} round-trip; worked examples reproduce"


def hypersimplex_slabs(cap: int) -> str:
    """The slab k-1 <= sum x <= k is an interval polytope with volume
    an Eulerian number over n factorial."""
    hi = min(cap, 6)
    slabs = 0
    for n in range(1, hi + 1):
        for k in range(1, n + 1):
            m = LpdmSpec.of(n, frozenset(range(1, k)), frozenset(range(n - k + 1, n + 1)))
            h = hrep(m)
            _ok(h.lower == tuple(max(0, k - i) for i in range(1, n + 1)), f"slab lower bounds wrong at n={n}, k={k}")
            _ok(h.upper == tuple(min(k, n - i + 1) for i in range(1, n + 1)), f"slab upper bounds wrong at n={n}, k={k}")
            want = Fraction(eulerian_number(n, k - 1), math.factorial(n))
            _ok(volume(m) == want == ehrhart_volume(h), f"slab volume wrong at n={n}, k={k}")
            _ok(
                len(feasible_sets(m)) == math.comb(n, k - 1) + math.comb(n, k),
                f"slab feasible count wrong at n={n}, k={k}",
            )
            center = (Fraction(k, n),) * n
            _ok(contains(h, center), f"slab center rejected at n={n}, k={k}")
            if n <= min(cap, 4):
                equations, facets, _ = _hull_facets(1, vertex_set(m))
                _ok(_in_hull(equations, facets, (n, *(k,) * n)), f"slab center outside the hull at n={n}, k={k}")
            slabs += 1
    return f"{slabs} slabs to n={hi} have Eulerian volumes"


def ehrhart_degree(cap: int) -> str:
    """Dilation counts extend polynomially past the interpolation window
    and the top coefficient is the volume."""
    hi = min(cap, 5)
    rng = _rng("ehrhart")
    tested = 0
    for n in range(1, hi + 1):
        specs = [LpdmSpec.of(n, s.members, t.members) for s, t in _mask_pairs(n)]
        chosen = specs if n <= 3 else rng.sample(specs, 40)
        for m in chosen:
            h = hrep(m)
            counts = ehrhart_table(h)
            for t in (n + 1, n + 2):
                _ok(
                    ehrhart_eval(counts, t) == count_lattice_points(h, t),
                    f"dilation count at t={t} breaks the degree bound for {m!r}",
                )
            if not is_linked(m):
                _ok(ehrhart_volume(h) == 0, f"degenerate {m!r} has nonzero leading term")
            tested += 1
    return f"{tested} Ehrhart tables extrapolate to t=n+2 exactly"


def projection_nonclosure(cap: int) -> str:
    """Dropping a ground element can leave the interval family class:
    the worked projection has a Gale gap."""
    m = LpdmSpec.of(5, frozenset({3, 4}), frozenset({2, 3, 5}))
    proj = project_element(feasible_sets(m), 4)
    want = {frozenset(x) for x in ((3,), (1, 3), (2, 3), (3, 5), (1, 3, 5), (2, 3, 5))}
    _ok(proj.ground == (1, 2, 3, 5), "projection ground wrong")
    _ok(set(proj.members) == want, "projected family wrong")
    lo, hi_, is_int = family_interval_bounds(proj)
    _ok(lo == frozenset({3}) and hi_ == frozenset({2, 3, 5}), "projection bounds wrong")
    _ok(not is_int, "the projected family should not be an interval")
    index = {g: i for i, g in enumerate(proj.ground, start=1)}
    full = interval(
        SubsetMask(4, frozenset(index[x] for x in lo)),
        SubsetMask(4, frozenset(index[x] for x in hi_)),
    )
    gap = {frozenset(proj.ground[p - 1] for p in u.members) for u in full} - set(proj.members)
    _ok(frozenset({1, 2, 5}) in gap, "expected {1,2,5} in the Gale gap")
    # intervals themselves always report closure
    for m2 in _specs_upto(min(cap, 4)):
        _, _, flag = family_interval_bounds(feasible_sets(m2))
        _ok(flag, f"interval family of {m2!r} not recognized")
    return "worked projection breaks closure exactly at {1,2,5}"


def errata_regression(cap: int) -> str:
    """Worked values that are easy to get wrong: two feasible-set
    lists whose naive enumerations pick up extra or missing sets, and the
    simplex labeling statistic, which is neither the ascent set nor the
    descent set."""
    first = LpdmSpec.of(5, frozenset({3, 4}), frozenset({2, 3, 5}))
    want_first = {
        frozenset(x) for x in ((3, 4), (3, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5))
    }
    _ok(set(feasible_sets(first).members) == want_first, "corrected list for [34, 235] wrong")
    for extra in ({4, 5}, {1, 4, 5}, {2, 4, 5}):
        _ok(
            not gale_leq(SubsetMask(5, frozenset(extra)), first.upper_mask()),
            f"{sorted(extra)} should not be below 235",
        )
    second = LpdmSpec.of(5, frozenset({1, 3}), frozenset({2, 3, 5}))
    want_second = {
        frozenset(x)
        for x in (
            (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5),
            (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5),
        )
    }
    got_second = set(feasible_sets(second).members)
    _ok(got_second == want_second and len(got_second) == 15, "corrected list for [13, 235] wrong")
    _ok(frozenset({2, 3, 5}) in got_second, "the top set must be feasible")
    # the simplex label is neither the ascent nor the descent set of w;
    # it is the reversed descent set of the inverse
    for n in range(1, min(cap, 6) + 1):
        for w in all_permutations(n):
            want = frozenset(n - d for d in w.inverse().descent_set().members)
            _ok(simplex_cell(w).members == want, f"simplex label wrong for {w!r}")
    id2 = Permutation((1, 2))
    _ok(simplex_cell(id2).members == frozenset() == id2.descent_set().members, "identity label wrong")
    _ok(id2.ascent_set().members == frozenset({1}), "identity ascents wrong")
    swapped = Permutation((1, 3, 2))
    _ok(
        simplex_cell(swapped).members == frozenset({1}) != swapped.descent_set().members,
        "label of (1,3,2) should differ from its descent set",
    )
    cycled = Permutation((2, 3, 1))
    _ok(
        simplex_cell(cycled).members == frozenset({2}) != cycled.ascent_set().members,
        "label of (2,3,1) should differ from its ascent set",
    )
    return "both corrected lists and the corrected labeling hold"


CHECKS: tuple[tuple[str, object], ...] = (
    ("order-axioms", order_axioms),
    ("cover-enumeration", cover_enumeration),
    ("interval-enumeration", interval_enumeration),
    ("chain-counts", chain_counts),
    ("descent-statistics", descent_statistics),
    ("path-isomorphism", path_isomorphism),
    ("skew-diagrams", skew_diagrams),
    ("exchange-axiom", exchange_axiom),
    ("operation-coherence", operation_coherence),
    ("homogeneous-components", homogeneous_components),
    ("envelope-projection", envelope_projection),
    ("projection-nonclosure", projection_nonclosure),
    ("vertex-theorem", vertex_theorem),
    ("dimension-formulas", dimension_formulas),
    ("intersection-consistency", intersection_consistency),
    ("face-consistency", face_consistency),
    ("volume-identity", volume_identity),
    ("toric-triangulation", toric_triangulation),
    ("cube-partition", cube_partition),
    ("subdivision-cells", subdivision_cells),
    ("edge-directions", edge_directions),
    ("catalan-counts", catalan_counts),
    ("chain-bijection", chain_bijection),
    ("hypersimplex-slabs", hypersimplex_slabs),
    ("ehrhart-degree", ehrhart_degree),
    ("errata-regression", errata_regression),
)

_BY_NAME = dict(CHECKS)

# release gate: criterion number, check name, the cap it must run at
ACCEPTANCE: tuple[tuple[int, str, int, str], ...] = (
    (1, "exchange-axiom", 5, "symmetric exchange on every interval"),
    (2, "vertex-theorem", 6, "inequalities carve out exactly the feasible vertices"),
    (3, "volume-identity", 6, "triangulation volume equals lattice-count volume"),
    (4, "toric-triangulation", 6, "unimodular simplices count descent classes"),
    (5, "cube-partition", 6, "descent classes tile the cube"),
    (6, "catalan-counts", 5, "central binomial feasible counts"),
    (7, "operation-coherence", 5, "minors, duals and sums match the filters"),
    (8, "homogeneous-components", 5, "size layers are elementwise intervals"),
    (9, "envelope-projection", 4, "signed bases project onto the polytope"),
    (10, "chain-bijection", 5, "maximal chains encode permutations"),
    (11, "edge-directions", 4, "edges step by e_i or e_i - e_j"),
    (12, "errata-regression", 6, "corrected worked values stay locked in"),
)


class CheckResult(Frozen):
    _fields = ("name", "passed", "detail", "seconds")


def run_selftest(max_n: int = 5, names=None) -> list[CheckResult]:
    """Run the named checks (default: all, in registry order) with
    ground sizes up to ``max_n``, one after another; results come back
    in the order run."""
    if type(max_n) is not int or max_n < 1:
        raise ArgumentError(f"max_n must be an integer of at least 1, got {max_n!r}")
    if names is None:
        chosen = list(CHECKS)
    else:
        missing = [x for x in names if x not in _BY_NAME]
        if missing:
            raise ArgumentError(f"unknown checks: {', '.join(missing)}")
        chosen = [(x, _BY_NAME[x]) for x in names]

    rows = []
    for name, fn in chosen:
        start = perf_counter()
        try:
            detail = fn(max_n)
            passed = True
        except CheckFailure as exc:
            detail, passed = str(exc), False
        except Exception as exc:  # a crash is a failure, not an abort
            detail, passed = f"{type(exc).__name__}: {exc}", False
        rows.append(CheckResult(name, passed, detail, perf_counter() - start))
    return rows
