"""cli: a seeded session of ``python -m segcalc.cli`` commands.

Interpreter start, import, argparse and the dsl parser and renderer
dominate; the compute behind each command is negligible.  A pass covers
every subcommand in text and in ``--json`` form, five malformed or refused
inputs, and the six inputs of the known CLI defects.  The seed picks one
variant per slot, which refused inputs run, and the order of the pass.

Every command except the defects must reproduce the exit code and stdout
recorded in ``data/cli_expected.json`` (regenerate it with
``make_cli_table.py``) and print no traceback.  The defects are scored
against the README contract instead: a refused input exits 1 (domain
error) or 2 (parse error) and never prints a traceback.  They fail today.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

from harness import DATA, Case, perf

RSS = "children"

ALG = "bench/data/algebra.json"
CUSP = "bench/data/cuspidal.json"
LINES_FILE = "bench/data/lines.json"

# slot -> variants (argv after the subcommand name)
SLOTS = {
    "dual": [["{rho:[0,2]}"], ["{rho:[0,1], rho:[1,2]}"], ["--lines", LINES_FILE, "{chi:[0,1], chiv:[1,1]}"]],
    "order": [
        ["{rho:[0,1]}", "{rho:[0,0], rho:[1,1]}"],
        ["{rho:[0,2]}", "{rho:[0,0], rho:[1,1], rho:[2,2]}"],
        ["{rho:[0,0], rho:[1,1]}", "{rho:[0,1]}"],
    ],
    "expand-u": [["l=2", "k=2"], ["l=1", "k=3"], ["l=2", "k=3"]],
    "expand-ubar": [["--d", "2", "l=1", "k=2"], ["--d", "2", "l=1", "k=3"], ["--d", "3", "l=1", "k=2"]],
    "lj": [
        ["--d", "2", "{rho:[-1/2,1/2]}"],
        ["--d", "2", "--expand-u", "l=1", "k=2"],
        ["--d", "2", "--u", "l=2", "k=3"],
        ["--d", "3", "--u", "l=3", "k=2"],
    ],
    "recognize": [["{rho:[-1,0], rho:[0,1]}"], ["{rho:[0,0]}"], ["{rho:[0,1]}"]],
    "lfun": [["{rho:[-1/2,1/2]}"], ["{rho:[0,0], rho:[1,2]}"], ["--d", "2", "{rho':[0,0]}"]],
    "eps": [["{rho:[0,0]}"], ["{rho:[0,1]}"], ["--d", "2", "{rho':[-1,1]}"]],
    "enumerate": [["{rho:[0,1], rho:[1,1]}"], ["{rho:[0,2]}"], ["{rho:[0,1], rho:[0,1]}"]],
    "global-check": [["--algebra", ALG, "--cuspidal", CUSP, "--k", k] for k in ("1", "2", "6")],
    "count-levi": [["4", "2"], ["6", "3"], ["6", "2"]],
    "selfcheck": [[]],
}
TEXT_ONLY = {"selfcheck"}  # its report has no --json form

REFUSED = [
    ["dual", "{rho:[2,1]}"],
    ["dual", "{xi:[0,0]}"],
    ["dual", "{rho:[0,1]"],
    ["lj", "{rho:[0,1]}"],
    ["expand-ubar", "l=1", "k=2"],
    ["expand-u", "l2"],
    ["count-levi", "5", "2"],
    ["enumerate", "--limit", "3", "{rho:[0,3]}"],
    ["frobnicate"],
]
N_REFUSED = 5

# known defect inputs -> exit codes the README contract allows
DEFECTS = [
    (["expand-u", "l=2"], (1, 2)),
    (["lj", "--d", "2", "--u", "l=2"], (1, 2)),
    (["dual", "{rho:[0,1/0]}"], (2,)),
    (["dual", "--lines", "bench/data/missing.json", "{rho:[0,0]}"], (1, 2)),
    (["expand-u", "l=x", "k=2"], (2,)),
    (["expand-u", "l=-1", "k=2"], (1,)),
]


def pool() -> list[list[str]]:
    """Every recorded command (the table covers all seeds)."""
    out = []
    for name, variants in SLOTS.items():
        for v in variants:
            out.append([name, *v])
            if name not in TEXT_ONLY:
                out.append([name, "--json", *v])
    return out + [list(r) for r in REFUSED]


def _key(argv) -> str:
    return json.dumps(argv)


def _expected() -> dict:
    with open(os.path.join(DATA, "cli_expected.json")) as fh:
        return {_key(e["argv"]): e for e in json.load(fh)}


def generate(rng, tiny: bool) -> list[Case]:
    expected = _expected()
    cases = []
    for name, variants in SLOTS.items():
        if tiny and name == "selfcheck":
            continue
        v = rng.choice(variants)
        forms = [[name, *v]] + ([] if name in TEXT_ONLY else [[name, "--json", *v]])
        for argv in forms:
            cases.append(Case("command", None, (argv, expected[_key(argv)])))
    for argv in rng.sample(REFUSED, N_REFUSED):
        cases.append(Case("refused", None, (argv, expected[_key(argv)])))
    for argv, codes in DEFECTS:
        cases.append(Case("defect", None, (argv, {"exit": codes})))
    return cases


def command(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "segcalc.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


def warmup() -> None:
    """One untimed call, so the bytecode cache is filled before timing."""
    command(["count-levi", "4", "2"])


def run(t, reg, case: Case):
    argv, _ = case.data
    with t.span("cli.command"):
        proc = command(argv)
    return (proc.returncode, proc.stdout, "Traceback" in proc.stderr)


def check(case: Case, out) -> str | None:
    code, stdout, traceback = out
    _, want = case.data
    if traceback:
        return "printed a traceback"
    if case.kind == "defect":
        if code not in want["exit"]:
            return f"exit {code}, the contract allows {want['exit']}"
        return None
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if stdout != want["stdout"]:
        return "stdout differs from the recorded table"
    return None


def canon(out) -> str:
    code, stdout, traceback = out
    return f"{code}|{traceback}|{stdout}"


def probe(t, reg, cases: list[Case]) -> dict:
    """In-process view of the same commands: cli.main with stdout captured, and
    the dsl parser and renderer on every expression argument."""
    from segcalc import cli, dsl

    run_ms = []
    for case in cases:
        argv, _ = case.data
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with t.span("cli.run"):
                t0 = perf()
                try:
                    cli.main(argv)
                except (SystemExit, Exception):  # the defects raise; argparse exits
                    pass
                run_ms.append((perf() - t0) * 1e3)
        d = int(argv[argv.index("--d") + 1]) if "--d" in argv else 1
        for arg in argv:
            if not arg.startswith("{"):
                continue
            try:
                with t.span("dsl.parse"):
                    v = dsl.parse_virtual(arg, reg, d)
            except (ValueError, ZeroDivisionError):
                continue
            with t.span("dsl.render"):
                dsl.render_virtual(v)
    return {"cli.run_ms": run_ms}
