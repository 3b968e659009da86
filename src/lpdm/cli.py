"""Command line front end.

Every subcommand takes one JSON document (plus the odd flag), computes
with exact arithmetic, and prints a single JSON envelope on stdout:
``{"status": "ok", "payload": ...}`` or ``{"status": "error", "error":
{"code": ..., "message": ...}}``.  Stdout is byte-identical for
identical inputs; timing and the selftest progress table go to stderr.

Exit codes: 0 success, 1 domain error (or a failed selftest, or an
output file that cannot be written: code "io"), 2 usage error
(malformed JSON, bad flags).

Each action is one row of ``_TABLE`` (its columns are described there):
``build_parser`` builds every subcommand from the rows, and ``run`` sends
every row through ``_call``.  Only ``selftest`` has a path of its own: it
alone prints a table on stderr and exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from time import perf_counter
from typing import Sequence

# a call imports the modules of its table row when it runs, so it loads only what it needs
from .errors import Frozen, LpdmError, UsageError

__all__ = ["CommandResult", "main", "run"]


class CommandResult(Frozen):
    _fields = ("status", "payload", "milliseconds", "exit_code", "log")

    def __init__(self, status: str, payload: object, milliseconds: float, exit_code: int, log: str = "") -> None:
        super().__init__(status, payload, milliseconds, exit_code, log)


def _load(ns: argparse.Namespace) -> dict:
    try:
        obj = json.loads(ns.json)
    # malformed JSON, an integer past Python's digit limit (both ValueErrors),
    # or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError("input must be a JSON object")
    return obj


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_DOC = _arg("json", help="JSON input document")

# One row per action: group, action (None for a top-level command), reader,
# target, writer, then the row's argparse arguments (default: the document).
#   reader  the target's arguments, one word each: a word that names a
#           command-line argument reads it from argv, any other is read
#           from the JSON document by ``_read``
#   target  "module:function" in lpdm, imported and looked up when the call
#           runs: a call loads only its own modules, and a function rebound
#           on its module from outside is the one called
#   writer  the payload shape, a name in ``_writers()``, where a shape
#           that only one writer uses is spelled out (a name not there
#           wraps the result under that key); None for render, whose
#           payload reports the file that ``--svg`` names
_TABLE = (
    ("order", "leq", "S T", "subsets:gale_leq", "leq"),
    ("order", "rank", "S", "subsets:gale_rank", "rank"),
    ("order", "interval", "S T", "subsets:interval", "members"),
    ("order", "chains", "S T", "subsets:count_maximal_chains", "count"),
    ("order", "covers", "S", "subsets:cover_successors", "successors"),
    ("path", "encode", "S", "paths:path_from_subset", "word"),
    ("path", "decode", "word", "paths:subset_from_path", "subset"),
    ("path", "leq", "P Q", "paths:path_leq", "leq"),
    ("matroid", "feasible", "spec", "matroid:feasible_sets", "feasible"),
    ("matroid", "axiom", "family", "matroid:exchange_witness", "witness"),
    ("matroid", "loops", "spec", "matroid:classify_elements", "loops"),
    ("matroid", "dual", "spec", "matroid:dual", "spec"),
    ("matroid", "delete", "spec element", "matroid:delete", "spec"),
    ("matroid", "contract", "spec element", "matroid:contract", "spec"),
    ("matroid", "sum", "first second", "matroid:direct_sum", "spec"),
    ("matroid", "component", "spec k", "matroid:homogeneous_component", "component"),
    ("matroid", "envelope", "spec", "matroid:envelope_bases", "family"),
    ("matroid", "project", "family element", "matroid:project_element", "projection"),
    ("polytope", "hrep", "spec", "polytope:hrep", "hrep"),
    ("polytope", "dim", "spec", "polytope:dimension", "dim"),
    ("polytope", "contains", "hrep x", "polytope:contains", "contains"),
    ("polytope", "intersect", "first second", "matroid:intersect", "spec"),
    ("polytope", "face", "spec facet", "polytope:face", "face"),
    ("polytope", "vertices", "spec", "polytope:vertex_set", "vertices"),
    ("tri", "simplices", "spec", "triangulate:triangulate_toric", "simplices"),
    ("tri", "label", "perm", "triangulate:simplex_cell", "subset"),
    ("tri", "subdivide", "spec", "triangulate:subdivide", "cells"),
    ("tri", "volume", "spec", "triangulate:volume", "rational"),
    ("oracle", "volume", "hrep", "oracle:ehrhart_volume", "rational"),
    ("oracle", "count", "hrep t", "oracle:count_lattice_points", "dilated",
     _DOC, _arg("--t", type=int, default=1, help="dilation factor (default 1)")),
    ("oracle", "member", "vertices x", "oracle:hull_membership", "member"),
    ("catalan", None, "n", "matroid:catalan_spec", "catalan", _arg("n", type=int)),
    ("render", None, "lower upper", "paths:skew_svg", None,
     _arg("json", help="JSON spec document"), _arg("--svg", required=True, help="output file path")),
)
_HELP = {  # of the top-level commands; a group's reads "<group> subcommands"
    "catalan": "staircase interval on 2n elements",
    "render": "draw the skew diagram of a spec as SVG",
}


@functools.cache  # built on first use, once per process; not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpdm",
        description="Exact computations with lattice path interval families and their polytopes.",
    )
    tops = parser.add_subparsers(dest="group", required=True)
    groups = {}  # group name -> the subparsers of its actions
    for group, action, reader, target, writer, *arguments in _TABLE:
        if action is None:
            sub = tops.add_parser(group, help=_HELP[group])
        else:
            if group not in groups:
                gp = tops.add_parser(group, help=f"{group} subcommands")
                groups[group] = gp.add_subparsers(dest="action", required=True)
            sub = groups[group].add_parser(action)
        for flags, options in arguments or [_DOC]:
            sub.add_argument(*flags, **options)
        sub.set_defaults(call=(reader, target, writer))
    st = tops.add_parser("selftest", help="run the invariant suite")
    st.add_argument("--max-n", type=int, default=5, dest="max_n", help="largest ground size (default 5)")
    return parser


def _lib(target: str):
    """The callable that ``"module:function"`` names in lpdm, imported and looked up now."""
    module, name = target.split(":")
    # ``__import__``, unlike ``importlib.import_module``, shows in ``python -X importtime``
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


# reader words for a value built from the document's spec, at a cost up to exponential in n
_BUILT = {"hrep": "polytope:hrep", "vertices": "polytope:vertex_set", "family": "matroid:feasible_sets"}


def _read(word: str, obj: dict, spec):
    """The argument that ``word`` names in the document ``obj``: the field
    of that name, or the document's spec (``spec()``) or a value built from it."""
    from .jsonio import facet_from_json, parse_int, parse_int_list, parse_object, parse_point
    from .jsonio import parse_spec, parse_subset, parse_word
    if word in ("S", "T"):
        return parse_subset(obj, word)
    if word in ("element", "k"):
        return parse_int(obj, word)
    if word == "x":
        return parse_point(obj.get(word))
    if word == "perm":
        return _lib("perms:Permutation")(tuple(parse_int_list(obj.get(word), word)))
    if word in ("P", "Q", "word"):
        return parse_word(obj, word)
    if word == "facet":
        return facet_from_json(parse_object(obj, word))
    if word in ("first", "second"):
        return parse_spec(parse_object(obj, word))
    m = spec()
    if word in _BUILT:
        return _lib(_BUILT[word])(m)
    return {"spec": lambda: m, "lower": m.lower_mask, "upper": m.upper_mask}[word]()


def _writers() -> dict:
    """Writer name -> payload(result, *the target's arguments).  Built on
    each call, so a jsonio function rebound from outside is the one called."""
    from .jsonio import family_json, member_lists, spec_json

    def family(fam, **more) -> dict:
        return {**family_json(fam), "count": len(fam), **more}

    def projection(fam, *_) -> dict:
        lower, upper, is_int = _lib("matroid:family_interval_bounds")(fam)
        return family(fam, bounds={"lower": sorted(lower), "upper": sorted(upper), "is_interval": is_int})

    def spelled(out, s) -> list:
        return member_lists([x.bits for x in out], tuple(range(1, s.n + 1)))

    def layer(m, k) -> dict:  # a lattice path matroid: its ground, k, and S and T in ground order
        shape = spec_json(m)
        return {"ground": list(m.ground), "k": k, "S": shape["S"], "T": shape["T"]}

    def catalan(m, n) -> dict:
        count = _lib("subsets:interval_size")(m.lower_mask(), m.upper_mask())
        return {"n": n, "spec": spec_json(m), "count": count}

    return {
        "members": lambda out, s, _: {"count": len(out), "members": spelled(out, s)},
        "successors": lambda out, s: {"count": len(out), "successors": spelled(out, s)},
        "word": lambda out, *_: {"word": out.steps},
        "subset": lambda out, *_: {"S": list(out.as_tuple()), "n": out.n},
        "feasible": lambda fam, m: family(fam, spec=spec_json(m)),
        "witness": lambda w, *_: {
            "holds": w is None,
            "witness": None if w is None else {"first": sorted(w[0]), "second": sorted(w[1]), "element": w[2]},
        },
        "loops": lambda out, *_: {"loops": sorted(out[0]), "coloops": sorted(out[1])},
        "spec": lambda out, *_: {"spec": None if out is None else spec_json(out)},
        "component": lambda out, m, k: {"k": k, "component": None if out is None else layer(out, k)},
        "family": lambda fam, *_: family(fam),
        "projection": projection,
        "hrep": lambda h, *_: {"n": h.n, "a": list(h.lower), "b": list(h.upper)},
        "dim": lambda d, m: {"dimension": d, "linked": _lib("polytope:is_linked")(m)},
        "face": lambda res, *_: {
            "kind": res.kind,
            "family": family_json(res.family),
            "factors": None if res.factors is None else [spec_json(f) for f in res.factors],
        },
        "vertices": lambda out, *_: {"count": len(out), "vertices": [list(v) for v in out]},
        "simplices": lambda out, *_: {
            "count": len(out),
            "simplices": [{"vertices": [list(v) for v in x.vertices], "perm": list(x.perm.images)} for x in out],
        },
        "cells": lambda sub, *_: {"count": len(sub.cells), "cells": [spec_json(c) for c in sub.cells]},
        "rational": lambda q, *_: f"{q.numerator}/{q.denominator}",
        "dilated": lambda count, h, t: {"t": t, "count": count},
        "catalan": catalan,
    }


def _call(ns: argparse.Namespace, reader: str, target: str, writer: str | None):
    """One table row: read the arguments, call the target, shape the payload."""
    obj = _load(ns) if "json" in ns else None
    spec = functools.cache(lambda: _lib("jsonio:parse_spec")(obj))  # parsed once, when first read
    words = reader.split()
    # the document's own fields first, so a bad one is reported before any value is built
    order = sorted(words, key=_BUILT.__contains__)
    read = {word: getattr(ns, word) if word in ns else _read(word, obj, spec) for word in order}
    args = [read[word] for word in words]
    out = _lib(target)(*args)
    if writer is None:  # render: the drawing goes to the file that --svg names
        with open(ns.svg, "w", encoding="utf-8") as fh:
            fh.write(out)
        return {"written": ns.svg, "bytes": len(out.encode("utf-8"))}
    writers = _writers()
    return writers[writer](out, *args) if writer in writers else {writer: out}


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
        else:
            payload, code = _call(ns, *ns.call), 0
        status = "ok"
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
    try:
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")), flush=True)
    except BrokenPipeError:  # the reader closed stdout early: the rest of it goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if result.log:
        print(result.log, file=sys.stderr)
    print(f"lpdm: {result.milliseconds:.1f} ms", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
