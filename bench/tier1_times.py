"""Times the tier-1 test suite, for information only (nothing is gated on it).

    python3 bench/tier1_times.py

Run from the root of the source tree.  Prints one JSON object: the wall
time of the whole suite, its pass/fail counts, and the durations of
acceptance criteria 11 and 13, which dominate it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time


def main() -> int:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0", "tests"],
        capture_output=True, text=True, env=env, timeout=1800,
    )
    wall = time.perf_counter() - t0
    durations = {}
    for m in re.finditer(r"^([\d.]+)s call\s+\S+::test_criterion_(\d+)_\w+", proc.stdout, re.M):
        durations[f"criterion_{m.group(2)}_s"] = float(m.group(1))
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(json.dumps({
        "wall_s": round(wall, 2),
        "summary": summary,
        "criterion_11_s": durations.get("criterion_11_s"),
        "criterion_13_s": durations.get("criterion_13_s"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
