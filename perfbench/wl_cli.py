"""Workload ``cli``: a fixed corpus of command lines, one process each.

One client (``cli_client.py``, a small process of its own) runs each
argv as ``python -m lpdm.cli ...`` with ``PYTHONPATH=src`` (the package
is not installed) and waits for it to exit before starting the next;
``--seed`` shuffles the order.  An op is one process, timed from spawn to
exit; ``peak_rss_mb`` is that of the largest one.  The corpus covers
every group and action at small n, usage errors (exit 2) and domain
errors (exit 1).

Every call whose stdout was recorded in ``golden.json`` must reproduce it
byte for byte with the same exit code.  The ``DEFECTS`` end without an
envelope today (exit 1 and a traceback); they count against ``ok_ratio``
but not as failed ops, and a fix that prints a well-formed envelope turns
them into ok ops.  Two inputs are left out because they run until killed:
``matroid feasible`` on the n=40 cube and ``tri simplices`` at n=11.

The traced pass replays the corpus in process through ``lpdm.cli.main``
and adds two probes: the bare interpreter, and
``python -X importtime -c "import lpdm.cli"``.
"""

from __future__ import annotations

import base64
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from common import OUT, ROOT, Tally, median, repeat

GOLDEN = Path(__file__).with_name("golden.json")
CLIENT = Path(__file__).with_name("cli_client.py")
SVG = "perfbench/out/corpus.svg"
TIMEOUT_S = 20
PROBES = 5
PROBE_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.import.selftest_ms", "cli.run_ms.p50")

_SPEC = '{"n":5,"S":[1],"T":[3,5]}'
CORPUS = (
    ["order", "leq", '{"n":5,"S":[1,3],"T":[2,5]}'],
    ["order", "rank", '{"n":5,"S":[2,4]}'],
    ["order", "interval", _SPEC],
    ["order", "chains", _SPEC],
    ["order", "covers", '{"n":5,"S":[2,4]}'],
    ["path", "encode", '{"n":6,"S":[1,4,6]}'],
    ["path", "decode", '{"word":"NENEENENNENE"}'],
    ["path", "leq", '{"P":"ENENNE","Q":"EENNNE"}'],
    ["matroid", "feasible", _SPEC],
    ["matroid", "axiom", _SPEC],
    ["matroid", "loops", '{"n":5,"S":[2],"T":[2,5]}'],
    ["matroid", "dual", _SPEC],
    ["matroid", "delete", '{"n":5,"S":[1],"T":[3,5],"element":3}'],
    ["matroid", "contract", '{"n":5,"S":[1],"T":[3,5],"element":5}'],
    ["matroid", "sum", '{"first":{"n":2,"S":[1],"T":[2]},"second":{"ground":[3,4],"S":[],"T":[4]}}'],
    ["matroid", "component", '{"n":5,"S":[1],"T":[3,5],"k":2}'],
    ["matroid", "envelope", '{"n":3,"S":[1],"T":[2,3]}'],
    ["matroid", "project", '{"n":5,"S":[1],"T":[3,5],"element":3}'],
    ["polytope", "hrep", _SPEC],
    ["polytope", "dim", _SPEC],
    ["polytope", "contains", '{"n":5,"S":[1],"T":[3,5],"x":["1/2","0","1/3","0","1"]}'],
    ["polytope", "intersect", '{"first":{"n":4,"S":[1],"T":[3,4]},"second":{"n":4,"S":[2],"T":[2,4]}}'],
    ["polytope", "face", '{"n":4,"S":[1],"T":[2,4],"facet":{"kind":"suffix","i":2,"side":"upper"}}'],
    ["polytope", "vertices", '{"n":4,"S":[1],"T":[2,4]}'],
    ["tri", "simplices", '{"n":4,"S":[1,3],"T":[1,3,4]}'],
    ["tri", "label", '{"perm":[3,1,4,2]}'],
    ["tri", "subdivide", _SPEC],
    ["tri", "volume", '{"n":6,"S":[],"T":[5,6]}'],
    ["oracle", "volume", '{"n":6,"S":[],"T":[5,6]}'],
    ["oracle", "count", _SPEC, "--t", "3"],
    ["oracle", "member", '{"n":3,"S":[],"T":[3],"x":["1/2","1/2","0"]}'],
    ["catalan", "3"],
    ["render", '{"n":3,"S":[1],"T":[2,3]}', "--svg", SVG],
    ["selftest", "--max-n", "1"],
    # usage errors: exit 2 with an envelope
    ["order", "leq", "not json"],
    ["matroid", "feasible", "[1,2]"],
    ["polytope", "contains", '{"n":3,"S":[],"T":[3]}'],
    # domain errors: exit 1 with an envelope
    ["order", "interval", '{"n":4,"S":[4],"T":[1]}'],
    ["matroid", "delete", '{"n":3,"S":[3],"T":[3],"element":3}'],
    ["tri", "simplices", _SPEC],
    ["order", "rank", '{"n":3,"S":[5]}'],
)
# known defects: no envelope today
DEFECTS = (
    ["render", '{"n":3,"S":[1],"T":[2,3]}', "--svg", "perfbench/out/missing/x.svg"],
    ["order", "interval", '{"n":1200,"S":[],"T":[1200]}'],
)


def _key(argv) -> str:
    return json.dumps(argv)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.pop("LPDM_THREADS", None)
    return env


def _spawn(args, env) -> tuple[float, subprocess.CompletedProcess | None]:
    t0 = perf_counter()
    try:
        proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, None
    return perf_counter() - t0, proc


def _envelope(stdout: bytes):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(doc, dict) or doc.get("status") not in ("ok", "error"):
        return None
    return doc


def _judge(argv, golden: dict, code, stdout: bytes, raised: bool) -> tuple[str, str]:
    """(verdict, note) for one call; ``raised`` means it ended in a traceback."""
    key = _key(argv)
    if key in golden:
        want = golden[key]
        if code == want["exit"] and stdout == want["stdout"].encode("utf-8"):
            if argv[0] == "render" and not _svg_ok(stdout):
                return "failed", f"{key}: svg file does not match the reply"
            return "ok", ""
        return "failed", f"{key}: exit {code} or stdout differs from golden.json"
    # a known defect: today's traceback, or a fix that replies with an envelope
    if raised and not stdout.strip():
        return "defect", ""
    doc = _envelope(stdout)
    if doc is not None and code == (0 if doc["status"] == "ok" else 1):
        if argv[:2] == ["order", "interval"] and doc["status"] == "ok":
            if doc["payload"].get("count") != 1201 or len(doc["payload"].get("members", ())) != 1201:
                return "failed", f"{key}: wrong interval size"
        return "ok", ""
    return "failed", f"{key}: exit {code} without a well-formed envelope"


def _svg_ok(stdout: bytes) -> bool:
    payload = json.loads(stdout)["payload"]
    data = (ROOT / payload["written"]).read_bytes()
    return data.startswith(b"<svg") and len(data) == payload["bytes"]


def setup(seed: int, smoke: bool) -> dict:
    import lpdm.cli  # noqa: F401  (set-up imports the program, as every call does)

    calls = [list(a) for a in CORPUS + DEFECTS]
    random.Random(f"cli:{seed}").shuffle(calls)
    OUT.mkdir(exist_ok=True)
    return {"calls": calls, "golden": json.loads(GOLDEN.read_text(encoding="utf-8"))}


def describe(inputs: dict):
    return inputs["calls"]


def _batch(inputs: dict, tally: Tally) -> float:
    calls = inputs["calls"]
    proc = subprocess.run(
        [sys.executable, str(CLIENT), str(TIMEOUT_S)],
        input=json.dumps(calls).encode(), cwd=ROOT, env=_env(), capture_output=True,
        timeout=len(calls) * (TIMEOUT_S + 5), check=True,
    )
    got = json.loads(proc.stdout)
    tally.peak_rss_mb = max(tally.peak_rss_mb or 0.0, got["peak_rss_mb"])
    busy = 0.0
    for i, (argv, (dt, code, stdout, raised)) in enumerate(zip(calls, got["calls"], strict=True)):
        busy += dt
        if code is None:
            tally.record(1e3 * dt, "failed", f"{_key(argv)}: timed out", i)
            continue
        verdict, note = _judge(argv, inputs["golden"], code, base64.b64decode(stdout), raised)
        tally.record(1e3 * dt, verdict, note, i)
    return busy


def run(inputs: dict, seconds: float) -> Tally:
    return repeat(lambda tally: _batch(inputs, tally), seconds)


def _replay(inputs: dict, tally: Tally) -> list[float]:
    """The corpus through ``lpdm.cli.main`` in this process; per-call seconds."""
    import lpdm.cli

    times = []
    for argv in inputs["calls"]:
        out, err = io.StringIO(), io.StringIO()
        raised = False
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = lpdm.cli.main(list(argv))
        except Exception:  # the in-process form of a traceback
            code, raised = 1, True
        dt = perf_counter() - t0
        times.append(dt)
        verdict, note = _judge(argv, inputs["golden"], code, out.getvalue().encode(), raised)
        tally.record(1e3 * dt, verdict, note)
    return times


def _import_times(stderr: str) -> tuple[float, float]:
    """(ms for every top-level lpdm import, ms for lpdm.selftest) from -X importtime."""
    total = selftest = 0.0
    for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", stderr):
        cum, indent, name = int(m.group(1)) / 1e3, len(m.group(2)), m.group(3)
        if (name == "lpdm" or name.startswith("lpdm.")) and indent == 1:
            total += cum
        if name == "lpdm.selftest":
            selftest = cum
    return total, selftest


def run_traced(inputs: dict, seconds: float, tracer) -> tuple[Tally, dict]:
    tally = Tally()
    untraced = _replay(inputs, tally)
    tracer.install()
    try:
        traced = sum(_replay(inputs, tally))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced)
    metrics["trace.overhead_ratio"] = traced / sum(untraced)
    metrics["cli.run_ms.p50"] = 1e3 * median(untraced)
    env = _env()
    bare = [_spawn([sys.executable, "-c", "pass"], env)[0] for _ in range(PROBES)]
    imports = []
    for _ in range(PROBES):
        _, proc = _spawn([sys.executable, "-X", "importtime", "-c", "import lpdm.cli"], env)
        imports.append(_import_times(proc.stderr.decode()))
    metrics["cli.interpreter_ms"] = 1e3 * median(bare)
    metrics["cli.import_ms"] = median(t for t, _ in imports)
    metrics["cli.import.selftest_ms"] = median(s for _, s in imports)
    return tally, metrics
