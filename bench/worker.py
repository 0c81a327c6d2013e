"""Runs one workload in a fresh process and prints its measurements as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the source tree and a
fixed ``PYTHONHASHSEED``; not meant to be run by hand.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics

from segcalc import LineRegistry

import harness as H

# spans whose self time is reported as <stem>.s and <stem>.share
STEMS = [
    "multiseg.build",
    "multiseg.enumerate",
    "multiseg.successors",
    "multiseg.is_lower",
    "multiseg.descendants",
    "multiseg.hermitian_dual",
    "duality.dual_irr",
    "duality.raw_dual_std",
    "gkring.expand_u",
    "gkring.expand_unit_product",
    "gkring.product",
    "gkring.recognize",
    "transfer.lj_std",
    "transfer.lj_u",
    "transfer.in_image_lju",
    "transfer.ll_less",
    "lfactors.l_eps",
    "globalrep.interval",
    "dsl.parse",
    "dsl.render",
]
# work counts reported per traced pass
COUNTS = [
    "multiseg.enumerate.labels",
    "multiseg.successors.labels",
    "multiseg.descendants.labels",
    "multiseg.is_lower.calls",
    "duality.raw_dual_std.terms",
    "gkring.expand_u.terms",
    "gkring.product.terms",
]
# (span, op kinds it is taken from, rungs in ladder order)
LADDERS = [
    ("multiseg.is_lower", ("is_lower",), [f"n{n}" for n in range(6, 12)]),
    ("gkring.expand_u", ("unit",), [f"r{i}" for i in range(1, 6)]),
]
CAP_S = 120.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(ph: H.Phase, rss_kb: int) -> dict:
    ms = [x * 1e3 for x in ph.corrected]
    n = len(ms)
    failed = sum(ph.failed.values())
    return {
        "ops_per_s": ph.ops_per_s,
        "op_p50_ms": H.percentile(ms, 50),
        "op_p90_ms": H.percentile(ms, H.tail_pct(n)),
        "pass_ratio": 1.0 - failed / n,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(tr: H.Tracer, traced: H.Phase, plain: H.Phase, probe: dict) -> dict:
    passes = traced.passes
    self_t = tr.self_times(traced.scale)
    op_s = sum(d for _, d in tr.durations("op", traced.scale))
    out = {}
    for stem in STEMS:
        s = self_t.get(stem, 0.0)
        out[f"{stem}.s"] = s / passes
        out[f"{stem}.share"] = _ratio(s, op_s)
    c = tr.counts
    for name in COUNTS:
        out[name] = c.get(name, 0) / passes
    out["multiseg.is_lower.true_ratio"] = _ratio(
        c.get("multiseg.is_lower.true", 0), c.get("multiseg.is_lower.calls", 0)
    )
    out["transfer.lj_std.kept_ratio"] = _ratio(
        c.get("transfer.lj_std.terms_out", 0), c.get("transfer.lj_std.terms_in", 0)
    )
    out["transfer.in_image_lju.found_ratio"] = _ratio(
        c.get("transfer.in_image_lju.found", 0), c.get("transfer.in_image_lju.calls", 0)
    )
    for span, kinds, rungs in LADDERS:
        by_rung: dict[str, list[float]] = {}
        for op, d in tr.durations(span, traced.scale):
            case = traced.cases[op]
            if case.kind in kinds:
                by_rung.setdefault(case.rung, []).append(d * 1e3)
        medians = [statistics.median(by_rung[r]) if r in by_rung else 0.0 for r in rungs]
        for r, v in zip(rungs, medians):
            out[f"{span}.{r}.ms"] = v
        out[f"{span}.growth"] = H.growth([v for v in medians if v > 0])
    run_ms = probe.get("cli.run_ms")
    out["cli.run_ms"] = statistics.median(run_ms) * traced.scale(-1) if run_ms else 0.0
    out["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--registry", choices=("standard", "lines"), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    mod = importlib.import_module(f"workloads.{args.workload}")
    if args.registry == "standard":
        reg = LineRegistry.standard()
    else:
        reg = LineRegistry.from_json(H.LINES)
    rng = random.Random(args.seed)
    cases = mod.generate(rng, args.tiny)
    rng.shuffle(cases)

    def run(t, case):
        return mod.run(t, reg, case)

    canon = getattr(mod, "canon", H.canon)
    if hasattr(mod, "warmup"):
        mod.warmup()
    min_ops = 1 if args.tiny else 100

    if not args.trace:
        ph = H.run_phase(cases, run, mod.check, canon, H.NullTracer(), args.seconds, min_ops, CAP_S)
        who = resource.RUSAGE_CHILDREN if getattr(mod, "RSS", "self") == "children" else resource.RUSAGE_SELF
        metrics = end_to_end(ph, resource.getrusage(who).ru_maxrss)
        phases = [ph]
        raw_ms = [x * 1e3 for x in ph.latencies]
        info = {
            "percentile": H.tail_pct(len(raw_ms)),
            "raw": {
                "ops_per_s": ph.raw_ops_per_s,
                "op_p50_ms": H.percentile(raw_ms, 50),
                "op_p90_ms": H.percentile(raw_ms, H.tail_pct(len(raw_ms))),
            },
        }
    else:
        half = args.seconds / 2
        plain = H.run_phase(cases, run, mod.check, canon, H.NullTracer(), half, 1, CAP_S / 2)
        tr = H.Tracer()
        traced = H.run_phase(cases, run, mod.check, canon, tr, half, 1, CAP_S / 2)
        probe = mod.probe(tr, reg, cases) if hasattr(mod, "probe") else {}
        metrics = per_layer(tr, traced, plain, probe)
        phases = [plain, traced]
        info = {"spans": len(tr.spans)}
        os.makedirs(".bench_out", exist_ok=True)
        with open(os.path.join(".bench_out", f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "ops": [[c.kind, c.rung] for c in traced.cases],
                    "spans": tr.spans,
                },
                fh,
            )

    failed: dict[str, int] = {}
    for ph in phases:
        for kind, n in ph.failed.items():
            failed[kind] = failed.get(kind, 0) + n
    attempted = sum(len(ph.latencies) for ph in phases)
    info.update(
        {
            "samples": len(phases[0].latencies),
            "passes": [ph.passes for ph in phases],
            "elapsed_s": [round(ph.elapsed, 3) for ph in phases],
            "cases_per_pass": len(cases),
            "speed_factor": statistics.median(phases[0].factors),
            "digest": phases[0].digest,
            "failed_by_kind": failed,
            "fail_ratio": sum(failed.values()) / attempted,
            "errors": phases[0].errors[:5],
        }
    )
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
