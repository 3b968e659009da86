"""Command line front end.

Every subcommand takes one JSON document (plus the odd flag), computes
with exact arithmetic, and prints one JSON envelope on stdout for any
argv: ``{"status": "ok", "payload": ...}`` or ``{"status": "error",
"error": {"code": ..., "message": ...}}``.  Stdout is byte-identical for
identical inputs; timing and the selftest progress table go to stderr.

Exit codes: 0 success, 1 domain error (or a failed selftest, an output
file that cannot be written: code "io", or an answer holding an integer
too long for JSON to write: code "too-large"), 2 usage error (an argv
that no action takes, malformed JSON, a bad field).

Each action is one row of ``_TABLE`` (its columns are described there):
``_parse`` reads argv straight from the rows, and ``run`` sends every row
through ``_call``.  Only ``selftest`` has a path of its own: it alone
prints a table on stderr and exits 1 when a check fails.
"""

from __future__ import annotations

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


def _load(text: str) -> dict:
    try:
        obj = json.loads(text)
    # malformed JSON or an integer past Python's digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError("input must be a JSON object")
    return obj


# One row per action: group, action (None for a top-level command), reader,
# target, writer, and the argv form after the command words (default "json").
#   reader  the target's arguments, one word each: a word of the form is read
#           from argv, any other from the JSON document by ``_read``
#   target  "module:function" in lpdm, imported and looked up when the call runs, so
#           it loads only its own modules and calls a function rebound on its module
#   writer  the payload shape, a name in ``_writers()``, where a shape
#           that only one writer uses is spelled out (a name not there
#           wraps the result under that key); None for render, whose payload
#           reports the file that ``--svg`` names, and for selftest
#   form    the argv words: a bare word is positional ("json" is the document),
#           "--name" is a required flag and "--name=default" an optional one
_TABLE = tuple((*row, "json")[:6] for row in (
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
    ("oracle", "count", "hrep --t", "oracle:count_lattice_points", "dilated", "json --t=1"),
    ("oracle", "member", "vertices x", "oracle:hull_membership", "member"),
    ("catalan", None, "n", "matroid:catalan_spec", "catalan", "n"),
    ("render", None, "lower upper", "paths:skew_svg", None, "json --svg"),
    ("selftest", None, "--max-n", "selftest:run_selftest", None, "--max-n=5"),
))
_INTS = {"n", "--t", "--max-n"}  # the argv words read as integers


def _parse(argv: Sequence[str]) -> tuple[tuple, dict]:
    """The row of ``_TABLE`` that ``argv`` takes, and its argv words by name.
    A flag may stand anywhere after the command words, as "--name value" or
    "--name=value".  Any other argv raises a ``UsageError`` that lists the
    forms of the rows its command words allow."""
    def fail(reason: str) -> UsageError:
        forms = (" ".join(["lpdm", *filter(None, row[:2]), row[5]]) for row in rows)
        return UsageError(f"{reason}; usage: {' | '.join(forms)}")

    rows, rest = _TABLE, list(argv)
    for column in (0, 1):  # the command words: a group and an action, or a top-level command
        if rows[0][column] is None:
            break
        word = rest.pop(0) if rest else None
        if not (taken := [row for row in rows if row[column] == word]):
            raise fail("no command" if word is None else f"unknown command {word!r}")
        rows = taken
    (row,) = rows
    form = row[5].split()
    places = [w for w in form if w[:2] != "--"]
    flags = dict(w.partition("=")[::2] for w in form if w[:2] == "--")  # "--name" -> default, "" if required
    got = {}
    while rest:
        word = rest.pop(0)
        if word[:1] == "-" and not word[1:].isdigit():  # a flag; a negative integer is a positional word
            name, eq, value = word.partition("=")
            if name not in flags or name in got or not (eq or rest):
                raise fail(f"unknown, repeated or valueless flag {word!r}")
            got[name] = value if eq else rest.pop(0)
        elif places:
            got[places.pop(0)] = word
        else:
            raise fail(f"unexpected word {word!r}")
    if missing := places + [name for name, default in flags.items() if not (name in got or default)]:
        raise fail(f"missing {' '.join(missing)}")
    try:  # each flag left out takes its default
        return row, {name: int(value) if name in _INTS else value for name, value in {**flags, **got}.items()}
    except ValueError as exc:  # an integer word that int() does not read
        raise fail(f"not an integer: {exc}") from None


def _lib(target: str):
    """The callable that ``"module:function"`` names in lpdm, imported and looked up now."""
    module, name = target.split(":")
    # ``__import__``, unlike ``importlib.import_module``, shows in ``python -X importtime``
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


# reader words for a value built from the document's spec, at a cost up to exponential in n
_BUILT = {"hrep": "polytope:hrep", "vertices": "polytope:vertex_set", "family": "matroid:feasible_sets"}


def _read(word: str, obj: dict, spec):
    """The argument that ``word`` names in the document ``obj``: the
    document's spec (``spec()``) or a value built from it, or else the
    field of that name, as ``jsonio.read`` reads it."""
    if word not in ("spec", "lower", "upper", *_BUILT):
        return _lib("jsonio:read")(obj, word)
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

    def simplices(perms, *_) -> dict:
        simplex = _lib("triangulate:eulerian_simplex")
        listed = [{"vertices": [list(v) for v in simplex(w)], "perm": list(w.images)} for w in perms]
        return {"count": len(perms), "simplices": listed}

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
        "face": lambda res, m, facet: {
            "kind": f"{facet.kind}-{facet.level}",
            "family": family_json(res.family),
            "factors": None if res.factors is None else [spec_json(f) for f in res.factors],
        },
        "vertices": lambda out, *_: {"count": len(out), "vertices": [list(v) for v in out]},
        "simplices": simplices,
        "cells": lambda sub, *_: {"count": len(sub.cells), "cells": [spec_json(c) for c in sub.cells]},
        "rational": lambda q, *_: q,  # a Fraction, which ``_envelope`` writes p/q
        "dilated": lambda count, h, t: {"t": t, "count": count},
        "catalan": catalan,
    }


def _call(given: dict, reader: str, target: str, writer: str | None):
    """One table row, with its argv words by name in ``given``: read the
    arguments, call the target, shape the payload."""
    obj = _load(given["json"]) if "json" in given else None
    spec = functools.cache(lambda: _lib("jsonio:parse_spec")(obj))  # parsed once, when first read
    words = reader.split()
    # the document's own fields first, so a bad one is reported before any value is built
    order = sorted(words, key=_BUILT.__contains__)
    read = {word: given[word] if word in given else _read(word, obj, spec) for word in order}
    args = [read[word] for word in words]
    out = _lib(target)(*args)
    if writer is None:  # render: the drawing goes to the file that --svg names
        with open(given["--svg"], "w", encoding="utf-8") as fh:
            fh.write(out)
        return {"written": given["--svg"], "bytes": len(out.encode("utf-8"))}
    writers = _writers()
    return writers[writer](out, *args) if writer in writers else {writer: out}


def _run_selftest(target: str, max_n: int) -> tuple[object, int, str]:
    rows = _lib(target)(max_n)  # only this command loads the registry
    width = max(len(r.name) for r in rows)
    lines = [f"{r.name:<{width}}  {'pass' if r.passed else 'FAIL'}  {r.seconds:8.2f}s  {r.detail}" for r in rows]
    good = sum(1 for r in rows if r.passed)
    lines.append(f"{good}/{len(rows)} checks passed (max_n={max_n})")
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in rows]
    return {"max_n": max_n, "passed": good == len(rows), "checks": checks}, int(good < len(rows)), "\n".join(lines)


def run(argv: Sequence[str] | None = None) -> CommandResult:
    """Parse ``argv`` (default ``sys.argv[1:]``) and execute; never prints to stdout."""
    start = perf_counter()
    log = ""
    try:
        (group, _, reader, target, writer, _), given = _parse(sys.argv[1:] if argv is None else argv)
        if group == "selftest":
            payload, code, log = _run_selftest(target, given["--max-n"])
        else:
            payload, code = _call(given, reader, target, writer), 0
        status = "ok"
    except LpdmError as exc:
        payload, status, code = {"code": exc.code, "message": str(exc)}, "error", 1
    except OSError as exc:
        payload, status, code = {"code": "io", "message": str(exc)}, "error", 1
    except UsageError as exc:
        payload, status, code = {"code": "usage", "message": str(exc)}, "error", 2
    return CommandResult(status, payload, (perf_counter() - start) * 1000.0, code, log)


def _envelope(status: str, body: object) -> str:
    """The envelope's text, the one place an answer becomes text: a Fraction is written "p/q"."""
    envelope = {"status": status, "payload" if status == "ok" else "error": body}
    return json.dumps(
        envelope, sort_keys=True, separators=(",", ":"), default=lambda q: f"{q.numerator}/{q.denominator}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    result = run(argv)
    code = result.exit_code
    try:
        text = _envelope(result.status, result.payload)
    except ValueError as exc:  # an integer past Python's int-to-str digit limit (sys.get_int_max_str_digits)
        text, code = _envelope("error", {"code": "too-large", "message": f"the answer cannot be written: {exc}"}), 1
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout early: the rest of it goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if result.log:
        print(result.log, file=sys.stderr)
    print(f"lpdm: {result.milliseconds:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
