"""Time one set-up of a workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]

Prints ``{"setup_s": ..., "digest": ...}``: the seconds from just before
``import lpdm`` to the end of input generation, and a fingerprint of the
inputs, which the caller compares with its own.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import common
from run import WORKLOADS


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    mod = WORKLOADS[name]
    common.use_source_tree()
    t0 = perf_counter()
    import lpdm  # noqa: F401  (the import is part of set-up)

    inputs = mod.setup(seed, "--smoke" in sys.argv[3:])
    elapsed = perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "digest": common.digest(mod.describe(inputs))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
