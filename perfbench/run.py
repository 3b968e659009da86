"""Benchmark of lpdm: three closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload {cli,selftest,ladder} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke           # every workload once at tiny size, all checks on

Run from the root of a checkout; lpdm is imported from ``src/``.  The
first stdout line is a header (git sha, Python, nproc, seed, traced flag);
the last is the result: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones in ``END_TO_END``;
with ``--trace 1`` they are the per-layer ones in ``PER_LAYER``, measured
by wrapping lpdm's public functions from outside (see ``tracer.py``).  A
per-layer metric that a workload does not reach reads 0.

Each workload repeats its fixed batch, generated from ``--seed``, for
about ``--seconds`` (``common.repeat``).  Where a batch is a list of ops
(``cli``, ``ladder``), each op is taken at its median over the run's
batches: ``wall_s`` is the sum of those medians, and
``op_ms.p50``/``op_ms.p90`` are percentiles across them.  A burst of
load on the host then slows only the repeats it hits, which the
medians leave out.  Where a batch is one call (``selftest``),
``wall_s`` is the median batch time and the percentiles pool the
batches.  ``ok_ratio`` is ops that returned a checked answer over ops
attempted (the complement of the failure ratio, which counts the known
defects of the CLI corpus); ``setup_s`` is the median over fresh
processes that each import lpdm and generate the inputs, half of them
started before the run and half after it; ``peak_rss_mb`` is the peak
resident set of the process doing the work (for ``cli``, of its largest
lpdm.cli process, see ``wl_cli``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import common
import wl_cli
import wl_ladder
import wl_selftest
from common import OUT, ROOT, median, p90, peak_rss_mb
from tracer import MODULES, Tracer

WORKLOADS = {"cli": wl_cli, "selftest": wl_selftest, "ladder": wl_ladder}
# set-up is timed before the run and again after it, so that one burst of
# load on the host does not decide ``setup_s``; this many times each side
SETUP_REPS = 3
SETUP_BUDGET_S = 1.5

END_TO_END = {
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    units = {f"{mod}.self_s": "s" for mod in MODULES}
    units.update({
        "subsets.interval.calls": "count",
        "subsets.interval.members": "count",
        "subsets.interval.us_per_member": "us",
        "subsets.gale_leq.calls": "count",
        "matroid.feasible_sets.members": "count",
        "matroid.exchange_witness.calls": "count",
        "matroid.exchange_witness.pairs": "count",
        "matroid.mask_rebuilds": "count",
        "perms.count_perms_with_descent_set.calls": "count",
        "perms.all_permutations.yielded": "count",
        "triangulate.volume.calls": "count",
        "triangulate.cells": "count",
        "triangulate.volume.growth": "ratio",
        "triangulate.toric.kept_ratio": "ratio",
        "oracle.hull_membership.calls": "count",
        "oracle.hull_membership.ms_per_call": "ms",
        "oracle.count_suffix_box.calls": "count",
        "polytope.contains.calls": "count",
        "polytope.contains.int_us": "us",
        "polytope.contains.frac_us": "us",
        "polytope.face.calls": "count",
        "paths.calls": "count",
    })
    units.update({name: "ms" for name in wl_cli.PROBE_METRICS})
    units.update({f"selftest.check_s.{name}": "s" for name in wl_selftest.CHECK_NAMES})
    units["selftest.thread_overhead"] = "ratio"
    for kind in wl_ladder.SLOPES:
        units.update({f"ladder.{kind}.n{n}_ms": "ms" for n in wl_ladder.RUNGS[kind]})
    units.update({"trace.overhead_ratio": "ratio", "trace.self_s": "s", "trace.wall_s": "s"})
    return units


PER_LAYER = _per_layer()


def git_sha() -> str:
    """HEAD of the checkout; 'unknown' when it is not a git repository of its own."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def header(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
    }


def setup_times(workload: str, seed: int, smoke: bool, want: str) -> list[float]:
    """Set up in fresh processes; each must generate the inputs this one did."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)]
    times = []
    start = perf_counter()
    while len(times) < SETUP_REPS or (perf_counter() - start < SETUP_BUDGET_S and len(times) < 5 * SETUP_REPS):
        proc = subprocess.run(
            cmd + (["--smoke"] if smoke else []),
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        got = json.loads(proc.stdout)
        if got["digest"] != want:
            raise SystemExit(f"setup is not deterministic: digest {got['digest']} != {want}")
        times.append(got["setup_s"])
    return times


def measure(args) -> dict:
    mod = WORKLOADS[args.workload]
    inputs = mod.setup(args.seed, args.smoke)
    # the inputs live all run: keep them out of the program's garbage collections
    gc.collect()
    gc.freeze()
    if args.trace:
        tracer = Tracer()
        tally, metrics = mod.run_traced(inputs, args.seconds, tracer)
        tracer.write(OUT / f"trace-{args.workload}.json")
        result = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        want = common.digest(mod.describe(inputs))
        setup = setup_times(args.workload, args.seed, args.smoke, want)
        tally = mod.run(inputs, args.seconds)
        setup += setup_times(args.workload, args.seed, args.smoke, want)
        if tally.by_op:  # ops that every batch repeats: each at its median over the run
            op_ms = [median(times) for times in tally.by_op.values()]
            wall = sum(op_ms) / 1e3
        else:
            op_ms, wall = tally.op_ms, median(tally.batch_s)
        values = {
            "wall_s": wall,
            "op_ms.p50": median(op_ms),
            "op_ms.p90": p90(op_ms),
            "ok_ratio": tally.ok / tally.attempted,
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb() if tally.peak_rss_mb is None else tally.peak_rss_mb,
        }
        result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": result}


def smoke() -> int:
    """Every workload, untraced and traced, at tiny size; returns the exit code."""
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace, smoke=True)
            print(json.dumps({"header": header(args)}), flush=True)
            res = measure(args)
            print(json.dumps(res), flush=True)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            want = PER_LAYER if trace else END_TO_END
            if set(m) != set(want):
                problems.append(f"{name}/{trace}: metrics differ from the declared set")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name}/{trace}: {res['failed']} of {res['attempted']} ops failed")
            if trace and m["trace.self_s"] > m["trace.wall_s"]:
                problems.append(f"{name}: layer self times exceed the traced wall")
            if not trace and any(v <= 0 for v in m.values()):
                problems.append(f"{name}: an end-to-end metric is not positive")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [x["name"] for x in declared["end_to_end"]] != list(END_TO_END) or [
        x["name"] for x in declared["per_layer"]
    ] != list(PER_LAYER):
        problems.append("BENCHMARK.json does not list the metrics run.py reports")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (common.SRC / "lpdm" / "__init__.py").is_file():
        print(f"run.py: no lpdm package under {common.SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    common.use_source_tree()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps({"header": header(args)}), flush=True)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
