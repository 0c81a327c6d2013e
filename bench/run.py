"""segcalc benchmark.

    python3 bench/run.py --workload {sweep,order,expand,cli} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a segcalc source tree.  It times the set-up of fresh
interpreters, then runs the workload in a fresh child process (one client,
closed loop) with ``PYTHONHASHSEED`` fixed, pinned with its children to
one core, and prints two JSON lines: an
``info`` object (sample count, output digest, Python version, commit,
nproc, ...) and, last, the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` its per-layer ones, and the spans go to
``.bench_out/``.  ``--tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import harness as H

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "order", "expand", "cli")
STANDARD_REGISTRY = {"cli"}  # the others use bench/data/lines.json
HASHSEED = "0"
DEADLINE_S = 170.0

SETUP_CODE = """
import json, sys, time
spec = None if sys.argv[1] == "-" else json.load(open(sys.argv[1]))
t0 = time.perf_counter()
import segcalc
reg = segcalc.LineRegistry.standard() if spec is None else segcalc.LineRegistry.from_json(spec)
print(time.perf_counter() - t0)
"""
IMPORT_CLI_CODE = """
import time
t0 = time.perf_counter()
import segcalc.cli
print(time.perf_counter() - t0)
"""


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = HASHSEED
    return env


def python(args: list[str], timeout: float = 60.0) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return proc.stdout


def inner_seconds(speed: H.Speedometer, code: str, *args: str) -> float:
    """Seconds a fresh interpreter measures around ``code``'s own work, corrected."""
    return H.corrected(speed, lambda: float(python(["-c", code, *args]).split()[-1]))


def wall_seconds(speed: H.Speedometer, args: list[str]) -> float:
    def measure() -> float:
        t0 = time.perf_counter()
        python(args)
        return time.perf_counter() - t0

    return H.corrected(speed, measure)


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args()
    started = time.perf_counter()
    # one core for this process and every child: the speed probes then time
    # the same core as the work they correct
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass  # unpinned runs are noisier but still valid

    if not os.path.isfile(os.path.join(ROOT, "src", "segcalc", "__init__.py")):
        fail("no segcalc source tree (src/segcalc) in the current directory")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    registry = "standard" if args.workload in STANDARD_REGISTRY else "lines"
    spec_arg = "-" if registry == "standard" else os.path.join(BENCH, "data", "lines.json")
    repeats = 2 if args.tiny else 7

    # untimed: compiles the bytecode cache of the whole package
    python(["-c", "import segcalc, segcalc.cli"])
    measured: dict[str, float] = {}
    speed = H.Speedometer()
    if args.trace:
        measured["cli.interp_ms"] = 1e3 * statistics.median(
            wall_seconds(speed, ["-c", "pass"]) for _ in range(repeats)
        )
        measured["cli.import_ms"] = 1e3 * statistics.median(
            inner_seconds(speed, IMPORT_CLI_CODE) for _ in range(repeats)
        )
    else:
        measured["setup_s"] = statistics.median(
            inner_seconds(speed, SETUP_CODE, spec_arg) for _ in range(repeats)
        )

    cmd = [
        os.path.join(BENCH, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--registry", registry,
    ]
    if args.tiny:
        cmd.append("--tiny")
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        out = python(cmd, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {budget:.0f} s")
    worker = json.loads(out.strip().splitlines()[-1])
    measured.update(worker["metrics"])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    # the known CLI defects are scored in pass_ratio; any other failure is unexpected
    unexpected = sum(n for kind, n in worker["failed"].items() if kind != "defect")
    info = dict(worker["info"])
    info.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "commit": commit(),
            "nproc": os.cpu_count(),
            "hashseed": HASHSEED,
            "wall_s": round(time.perf_counter() - started, 3),
        }
    )
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": unexpected == 0,
                "attempted": worker["attempted"],
                "failed": unexpected,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
