"""Command line front end.

Every subcommand takes one JSON document (plus the odd flag), computes
with exact arithmetic, and prints a single JSON envelope on stdout:
``{"status": "ok", "payload": ...}`` or ``{"status": "error", "error":
{"code": ..., "message": ...}}``.  Stdout is byte-identical for
identical inputs; timing and the selftest progress table go to stderr.

Exit codes: 0 success, 1 domain error (or a failed selftest, or an
output file that cannot be written: code "io"), 2 usage error
(malformed JSON, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from time import perf_counter
from typing import Callable, Sequence

# each handler imports what it uses, so a call loads only what its command needs
from .errors import Frozen, LpdmError, UsageError

__all__ = ["CommandResult", "main", "run"]


class CommandResult(Frozen):
    _fields = ("status", "payload", "milliseconds", "exit_code", "log")

    def __init__(self, status: str, payload: object, milliseconds: float, exit_code: int, log: str = "") -> None:
        self.__dict__.update(status=status, payload=payload, milliseconds=milliseconds, exit_code=exit_code, log=log)


def _load(ns: argparse.Namespace) -> dict:
    try:
        obj = json.loads(ns.json)
    except json.JSONDecodeError as exc:
        raise UsageError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError("input must be a JSON object")
    return obj


def _sub(obj: dict, key: str) -> dict:
    val = obj.get(key)
    if not isinstance(val, dict):
        raise UsageError(f"'{key}' must be a JSON object")
    return val


def _word(obj: dict, key: str):
    from .paths import PathWord
    val = obj.get(key)
    if not isinstance(val, str):
        raise UsageError(f"'{key}' must be a step word string")
    return PathWord(val)


def _members(masks) -> list[list[int]]:
    return [sorted(s.members) for s in masks]


# ---------------------------------------------------------------- handlers


def _order_leq(ns):
    from .jsonio import parse_subset
    from .subsets import gale_leq
    obj = _load(ns)
    return {"leq": gale_leq(parse_subset(obj, "S"), parse_subset(obj, "T"))}


def _order_rank(ns):
    from .jsonio import parse_subset
    from .subsets import gale_rank
    obj = _load(ns)
    return {"rank": gale_rank(parse_subset(obj, "S"))}


def _order_interval(ns):
    from .jsonio import parse_subset
    from .subsets import interval
    obj = _load(ns)
    members = interval(parse_subset(obj, "S"), parse_subset(obj, "T"))
    return {"count": len(members), "members": _members(members)}


def _order_chains(ns):
    from .jsonio import parse_subset
    from .subsets import count_maximal_chains
    obj = _load(ns)
    return {"count": count_maximal_chains(parse_subset(obj, "S"), parse_subset(obj, "T"))}


def _order_covers(ns):
    from .jsonio import parse_subset
    from .subsets import cover_successors
    obj = _load(ns)
    succ = cover_successors(parse_subset(obj, "S"))
    return {"count": len(succ), "successors": _members(succ)}


def _path_encode(ns):
    from .jsonio import parse_subset
    from .paths import path_from_subset
    obj = _load(ns)
    return {"word": path_from_subset(parse_subset(obj, "S")).steps}


def _path_decode(ns):
    from .paths import subset_from_path
    obj = _load(ns)
    s = subset_from_path(_word(obj, "word"))
    return {"S": sorted(s.members), "n": s.n}


def _path_leq(ns):
    from .paths import path_leq
    obj = _load(ns)
    return {"leq": path_leq(_word(obj, "P"), _word(obj, "Q"))}


def _matroid_feasible(ns):
    from .jsonio import family_json, parse_spec, spec_json
    from .matroid import feasible_sets
    m = parse_spec(_load(ns))
    fam = feasible_sets(m)
    out = family_json(fam)
    out["count"] = len(fam)
    out["spec"] = spec_json(m)
    return out


def _matroid_axiom(ns):
    from .jsonio import parse_spec
    from .matroid import exchange_witness, feasible_sets
    m = parse_spec(_load(ns))
    witness = exchange_witness(feasible_sets(m))
    if witness is None:
        return {"holds": True, "witness": None}
    a1, a2, e = witness
    return {"holds": False, "witness": {"first": sorted(a1), "second": sorted(a2), "element": e}}


def _matroid_loops(ns):
    from .jsonio import parse_spec
    from .matroid import classify_elements
    loops, coloops = classify_elements(parse_spec(_load(ns)))
    return {"loops": sorted(loops), "coloops": sorted(coloops)}


def _matroid_dual(ns):
    from .jsonio import parse_spec, spec_json
    from .matroid import dual
    return {"spec": spec_json(dual(parse_spec(_load(ns))))}


def _matroid_delete(ns):
    from .jsonio import parse_int, parse_spec, spec_json
    from .matroid import delete
    obj = _load(ns)
    return {"spec": spec_json(delete(parse_spec(obj), parse_int(obj, "element")))}


def _matroid_contract(ns):
    from .jsonio import parse_int, parse_spec, spec_json
    from .matroid import contract
    obj = _load(ns)
    return {"spec": spec_json(contract(parse_spec(obj), parse_int(obj, "element")))}


def _matroid_sum(ns):
    from .jsonio import parse_spec, spec_json
    from .matroid import direct_sum
    obj = _load(ns)
    m = direct_sum(parse_spec(_sub(obj, "first")), parse_spec(_sub(obj, "second")))
    return {"spec": spec_json(m)}


def _matroid_component(ns):
    from .jsonio import layer_json, parse_int, parse_spec
    from .matroid import homogeneous_component
    obj = _load(ns)
    comp = homogeneous_component(parse_spec(obj), parse_int(obj, "k"))
    return {"k": obj["k"], "component": None if comp is None else layer_json(comp)}


def _matroid_envelope(ns):
    from .jsonio import family_json, parse_spec
    from .matroid import envelope_bases
    fam = envelope_bases(parse_spec(_load(ns)))
    out = family_json(fam)
    out["count"] = len(fam)
    return out


def _matroid_project(ns):
    from .jsonio import family_json, parse_int, parse_spec
    from .matroid import family_interval_bounds, feasible_sets, project_element
    obj = _load(ns)
    fam = project_element(feasible_sets(parse_spec(obj)), parse_int(obj, "element"))
    lower, upper, is_int = family_interval_bounds(fam)
    out = family_json(fam)
    out["count"] = len(fam)
    out["bounds"] = {"lower": sorted(lower), "upper": sorted(upper), "is_interval": is_int}
    return out


def _polytope_hrep(ns):
    from .jsonio import hrep_json, parse_spec
    from .polytope import hrep
    return hrep_json(hrep(parse_spec(_load(ns))))


def _polytope_dim(ns):
    from .jsonio import parse_spec
    from .polytope import dimension, is_linked
    m = parse_spec(_load(ns))
    return {"dimension": dimension(m), "linked": is_linked(m)}


def _polytope_contains(ns):
    from .jsonio import parse_point, parse_spec
    from .polytope import contains, hrep
    obj = _load(ns)
    return {"contains": contains(hrep(parse_spec(obj)), parse_point(obj.get("x")))}


def _polytope_intersect(ns):
    from .jsonio import parse_spec, spec_json
    from .matroid import intersect
    obj = _load(ns)
    m = intersect(parse_spec(_sub(obj, "first")), parse_spec(_sub(obj, "second")))
    return {"spec": None if m is None else spec_json(m)}


def _polytope_face(ns):
    from .jsonio import facet_from_json, family_json, parse_spec, spec_json
    from .polytope import face
    obj = _load(ns)
    res = face(parse_spec(obj), facet_from_json(_sub(obj, "facet")))
    out = {"kind": res.kind, "family": family_json(res.family)}
    out["factors"] = None if res.factors is None else [spec_json(f) for f in res.factors]
    return out


def _polytope_vertices(ns):
    from .jsonio import parse_spec
    from .polytope import vertex_set
    verts = vertex_set(parse_spec(_load(ns)))
    return {"count": len(verts), "vertices": [list(v) for v in verts]}


def _tri_simplices(ns):
    from .jsonio import parse_spec, simplex_json
    from .triangulate import triangulate_toric
    simps = triangulate_toric(parse_spec(_load(ns)))
    return {"count": len(simps), "simplices": [simplex_json(x) for x in simps]}


def _tri_label(ns):
    from .perms import Permutation
    from .triangulate import simplex_cell
    obj = _load(ns)
    images = obj.get("perm")
    if not isinstance(images, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in images):
        raise UsageError("'perm' must be a list of integers")
    cell = simplex_cell(Permutation(tuple(images)))
    return {"S": sorted(cell.members), "n": cell.n}


def _tri_subdivide(ns):
    from .jsonio import parse_spec, spec_json
    from .triangulate import subdivide
    cells = subdivide(parse_spec(_load(ns))).cells
    return {"count": len(cells), "cells": [spec_json(c) for c in cells]}


def _tri_volume(ns):
    from .jsonio import frac_str, parse_spec
    from .triangulate import volume
    return frac_str(volume(parse_spec(_load(ns))))


def _oracle_volume(ns):
    from .jsonio import frac_str, parse_spec
    from .oracle import ehrhart_volume
    from .polytope import hrep
    return frac_str(ehrhart_volume(hrep(parse_spec(_load(ns)))))


def _oracle_count(ns):
    from .jsonio import parse_spec
    from .oracle import count_lattice_points
    from .polytope import hrep
    m = parse_spec(_load(ns))
    return {"t": ns.t, "count": count_lattice_points(hrep(m), ns.t)}


def _oracle_member(ns):
    from .jsonio import parse_point, parse_spec
    from .oracle import hull_membership
    from .polytope import vertex_set
    obj = _load(ns)
    m = parse_spec(obj)
    x = parse_point(obj.get("x"))
    return {"member": hull_membership(vertex_set(m), x)}


def _catalan(ns):
    from .jsonio import spec_json
    from .matroid import catalan_spec
    from .subsets import interval_size
    m = catalan_spec(ns.n)
    return {"n": ns.n, "spec": spec_json(m), "count": interval_size(m.lower_mask(), m.upper_mask())}


def _render(ns):
    from .jsonio import parse_spec
    from .paths import skew_svg
    m = parse_spec(_load(ns))
    svg = skew_svg(m.lower_mask(), m.upper_mask())
    with open(ns.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return {"written": ns.svg, "bytes": len(svg.encode("utf-8"))}


_HANDLERS: dict[tuple[str, str], Callable] = {
    ("order", "leq"): _order_leq,
    ("order", "rank"): _order_rank,
    ("order", "interval"): _order_interval,
    ("order", "chains"): _order_chains,
    ("order", "covers"): _order_covers,
    ("path", "encode"): _path_encode,
    ("path", "decode"): _path_decode,
    ("path", "leq"): _path_leq,
    ("matroid", "feasible"): _matroid_feasible,
    ("matroid", "axiom"): _matroid_axiom,
    ("matroid", "loops"): _matroid_loops,
    ("matroid", "dual"): _matroid_dual,
    ("matroid", "delete"): _matroid_delete,
    ("matroid", "contract"): _matroid_contract,
    ("matroid", "sum"): _matroid_sum,
    ("matroid", "component"): _matroid_component,
    ("matroid", "envelope"): _matroid_envelope,
    ("matroid", "project"): _matroid_project,
    ("polytope", "hrep"): _polytope_hrep,
    ("polytope", "dim"): _polytope_dim,
    ("polytope", "contains"): _polytope_contains,
    ("polytope", "intersect"): _polytope_intersect,
    ("polytope", "face"): _polytope_face,
    ("polytope", "vertices"): _polytope_vertices,
    ("tri", "simplices"): _tri_simplices,
    ("tri", "label"): _tri_label,
    ("tri", "subdivide"): _tri_subdivide,
    ("tri", "volume"): _tri_volume,
    ("oracle", "volume"): _oracle_volume,
    ("oracle", "count"): _oracle_count,
    ("oracle", "member"): _oracle_member,
}


@functools.cache  # built on first use, once per process; not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpdm",
        description="Exact computations with lattice path interval families and their polytopes.",
    )
    tops = parser.add_subparsers(dest="group", required=True)
    groups = {}  # group name -> the subparsers of its actions
    for group, action in _HANDLERS:
        if group not in groups:
            gp = tops.add_parser(group, help=f"{group} subcommands")
            groups[group] = gp.add_subparsers(dest="action", required=True)
        ap = groups[group].add_parser(action)
        ap.add_argument("json", help="JSON input document")
        if (group, action) == ("oracle", "count"):
            ap.add_argument("--t", type=int, default=1, help="dilation factor (default 1)")
    cat = tops.add_parser("catalan", help="staircase interval on 2n elements")
    cat.add_argument("n", type=int)
    ren = tops.add_parser("render", help="draw the skew diagram of a spec as SVG")
    ren.add_argument("json", help="JSON spec document")
    ren.add_argument("--svg", required=True, help="output file path")
    st = tops.add_parser("selftest", help="run the invariant suite")
    st.add_argument("--max-n", type=int, default=5, dest="max_n", help="largest ground size (default 5)")
    return parser


def _run_selftest(ns) -> tuple[object, int, str]:
    from .selftest import run_selftest  # only this command needs the registry
    rows = run_selftest(ns.max_n)
    width = max(len(r.name) for r in rows)
    lines = [
        f"{r.name:<{width}}  {'pass' if r.passed else 'FAIL'}  {r.seconds:8.2f}s  {r.detail}"
        for r in rows
    ]
    good = sum(1 for r in rows if r.passed)
    lines.append(f"{good}/{len(rows)} checks passed (max_n={ns.max_n})")
    payload = {
        "max_n": ns.max_n,
        "passed": good == len(rows),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in rows],
    }
    return payload, 0 if good == len(rows) else 1, "\n".join(lines)


def run(argv: Sequence[str] | None = None) -> CommandResult:
    """Parse ``argv`` and execute; never prints to stdout."""
    ns = build_parser().parse_args(argv)
    start = perf_counter()
    log = ""
    try:
        if ns.group == "selftest":
            payload, code, log = _run_selftest(ns)
            status = "ok"
        elif ns.group == "catalan":
            payload, status, code = _catalan(ns), "ok", 0
        elif ns.group == "render":
            payload, status, code = _render(ns), "ok", 0
        else:
            payload, status, code = _HANDLERS[(ns.group, ns.action)](ns), "ok", 0
    except LpdmError as exc:
        payload, status, code = {"code": exc.code, "message": str(exc)}, "error", 1
    except OSError as exc:
        payload, status, code = {"code": "io", "message": str(exc)}, "error", 1
    except UsageError as exc:
        payload, status, code = {"code": "usage", "message": str(exc)}, "error", 2
    return CommandResult(status, payload, (perf_counter() - start) * 1000.0, code, log)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        result = run(argv)
    except SystemExit as exc:  # argparse has already written its message
        code = exc.code
        return code if isinstance(code, int) else 2
    if result.status == "ok":
        envelope: dict[str, object] = {"status": "ok", "payload": result.payload}
    else:
        envelope = {"status": "error", "error": result.payload}
    print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    if result.log:
        print(result.log, file=sys.stderr)
    print(f"lpdm: {result.milliseconds:.1f} ms", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
