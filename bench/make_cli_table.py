"""Records the expected exit code and stdout of every command of the cli workload.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/make_cli_table.py

Run from the root of the source tree after a deliberate change to CLI
output; it rewrites bench/data/cli_expected.json.  The known defect inputs
are not recorded: they are scored against the README contract.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import DATA  # noqa: E402
from workloads.cli import command, pool  # noqa: E402


def main() -> int:
    table = []
    for argv in pool():
        proc = command(argv)
        if "Traceback" in proc.stderr:
            print(f"traceback from {argv}; not recording", file=sys.stderr)
            return 1
        table.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
    with open(os.path.join(DATA, "cli_expected.json"), "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(table)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
