"""Run command lines of the ``cli`` workload one after another, from a small process.

    python3 perfbench/cli_client.py <timeout seconds>   < argv lists as JSON

Each argv runs as ``python -m lpdm.cli ...`` and is timed from spawn to
exit.  Prints ``{"calls": [[seconds, exit code or null on timeout,
stdout base64, traceback seen], ...], "peak_rss_mb": ...}``; the peak is
that of the largest call.  It lives in its own process because a child's
peak resident set counts its parent's at the fork, and this one imports
nothing but the standard modules it needs: smaller than any lpdm process.
"""

import base64
import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> int:
    timeout = float(sys.argv[1])
    calls = []
    for argv in json.load(sys.stdin):
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "lpdm.cli", *argv], capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            calls.append([perf_counter() - t0, None, "", False])
            continue
        dt = perf_counter() - t0
        raised = b"Traceback (most recent call last)" in proc.stderr
        calls.append([dt, proc.returncode, base64.b64encode(proc.stdout).decode("ascii"), raised])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # Linux reports KiB
    json.dump({"calls": calls, "peak_rss_mb": peak}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
