"""Timing loop, host-speed correction, span tracer and summary statistics.

A workload is a list of cases plus three functions: ``run(tracer, reg,
case)`` makes the calls into segcalc and returns their outputs,
``check(case, out)`` verifies those outputs with the oracles and returns an
error message or None, and ``canon(out)`` renders them for the output
digest.  Only ``run`` is timed; checking and digesting happen between ops,
outside the clock.

Host-speed correction: on a shared 2-core VM (Python 3.11), the same
pure-Python loop ran between 9.4 and 16.5 ms per call over two minutes,
with slow stretches lasting tens of seconds.  A fixed stdlib kernel (Fraction
arithmetic, tuple hashing, dict updates, a sort: the operations segcalc
spends its time in) is timed between ops, and every op time is scaled by
REF_KERNEL_S / (mean kernel time of the probes just before and after it).  A
corrected time reads as the time on a host where the kernel takes
REF_KERNEL_S.  Raw times are kept and reported next to corrected ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

perf = time.perf_counter

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

with open(os.path.join(DATA, "lines.json")) as _fh:
    LINES = json.load(_fh)  # the line registry of every workload but cli


@dataclass
class Case:
    """One op: ``kind`` names what it does, ``rung`` its place in a size ladder."""

    kind: str
    rung: Optional[str]
    data: Any


# -- host speed ---------------------------------------------------------------

REF_KERNEL_S = 0.002  # the kernel's time on the reference host speed
PROBE_EVERY_S = 0.02


def kernel():
    d: dict = {}
    for i in range(300):
        f = Fraction(i, 7) + Fraction(1, 3)
        key = ("rho", i % 17, f)
        d[key] = d.get(key, 0) + 1
    return sorted(d)


class Speedometer:
    """Times the reference kernel at most every PROBE_EVERY_S between ops."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = -math.inf

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the ops' garbage must not land in the probe
        try:
            t0 = perf()
            kernel()
            self.times.append(perf() - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = perf()

    def tick(self) -> int:
        """Probe if due; the index of the latest probe."""
        if perf() - self.last >= PROBE_EVERY_S:
            self.probe()
        return len(self.times) - 1

    def factor(self, i: int) -> float:
        """Speed correction for a time measured just after probe ``i``."""
        return REF_KERNEL_S / statistics.fmean(self.times[i : i + 2])


def corrected(speed: Speedometer, measure: Callable[[], float]) -> float:
    """``measure()`` seconds, corrected by probes taken before and after it."""
    speed.probe()
    i = len(speed.times) - 1
    raw = measure()
    speed.probe()
    return raw * speed.factor(i)


# -- tracing ------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing switched off: spans and counts cost one method call each."""

    op_id = -1

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    """Keeps every span as [name, start, end, parent index, op id] in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.op_id = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self, scale: Callable[[int], float]) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover,
        scaled by ``scale(op id)``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + ((end - start) - child[i]) * scale(op)
        return out

    def durations(self, name: str, scale: Callable[[int], float]) -> list[tuple[int, float]]:
        """(op id, scaled seconds) of every span called ``name``."""
        return [(op, (end - start) * scale(op)) for n, start, end, _, op in self.spans if n == name]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, perf(), 0.0, parent, tr.op_id])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf()
        tr.stack.pop()
        return False


# -- the closed loop ------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: list[float] = field(default_factory=list)  # raw seconds
    factors: list[float] = field(default_factory=list)  # host-speed correction per op
    cases: list[Case] = field(default_factory=list)
    failed: dict[str, int] = field(default_factory=dict)  # by case kind
    errors: list[str] = field(default_factory=list)
    passes: int = 0
    elapsed: float = 0.0
    digest: str = ""

    @property
    def corrected(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.factors)]

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.corrected)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def scale(self, op: int) -> float:
        """Correction of op ``op``; the phase median for work outside any op."""
        return self.factors[op] if op >= 0 else statistics.median(self.factors)


def run_phase(
    cases: list[Case],
    run: Callable[[Any, Case], Any],
    check: Callable[[Case, Any], Optional[str]],
    canon: Callable[[Any], str],
    tracer,
    budget_s: float,
    min_ops: int,
    cap_s: float,
) -> Phase:
    """One client, one op at a time, over whole passes of ``cases``.

    Stops after the first pass that ends with ``budget_s`` elapsed and at
    least ``min_ops`` ops done, or once ``cap_s`` has elapsed.  A pass always
    completes, so every run sees the same mix of cases.  The oracles check
    every output of the first pass, and the digest covers them; a later pass
    that reproduces an op's canonical output gets that op's first verdict,
    and any other output fails.
    """
    ph = Phase()
    speed = Speedometer()
    probes: list[int] = []
    first: list[tuple[bytes, Optional[str]]] = []  # (hash of canonical output, verdict)
    digest = hashlib.sha256()
    t_start = perf()
    while True:
        for i, case in enumerate(cases):
            probes.append(speed.tick())
            tracer.op_id = len(ph.latencies)
            err = None
            with tracer.span("op"):
                t0 = perf()
                try:
                    out = run(tracer, case)
                except Exception as e:  # a raising op is a failed op, not a crash
                    out, err = None, f"{type(e).__name__}: {e}"
                t1 = perf()
            ph.latencies.append(t1 - t0)
            ph.cases.append(case)
            text = f"{case.kind}|{case.rung}|{canon(out)}\n".encode()
            if ph.passes == 0:
                digest.update(text)
                if err is None:
                    err = check(case, out)
                first.append((hashlib.sha256(text).digest(), err))
            elif err is None:
                same = hashlib.sha256(text).digest() == first[i][0]
                err = first[i][1] if same else "output differs from the first pass"
            if err is not None:
                ph.failed[case.kind] = ph.failed.get(case.kind, 0) + 1
                if len(ph.errors) < 20:
                    ph.errors.append(f"{case.kind}/{case.rung}: {err}")
        ph.passes += 1
        ph.elapsed = perf() - t_start
        if ph.elapsed >= cap_s:
            break
        if ph.elapsed >= budget_s and len(ph.latencies) >= min_ops:
            break
    speed.probe()  # the last op gets a probe after it too
    ph.factors = [speed.factor(i) for i in probes]
    tracer.op_id = -1
    ph.digest = digest.hexdigest()
    return ph


# -- statistics ------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """Linear interpolation between closest ranks, as ``statistics`` (inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_pct(n: int) -> int:
    """90, or the highest whole percentile with at least ten samples beyond it."""
    if n >= 100:
        return 90
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def growth(rung_ms: list[float]) -> float:
    """Geometric mean of the ratios between adjacent rungs' medians."""
    ratios = [b / a for a, b in zip(rung_ms, rung_ms[1:]) if a > 0]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


# -- canonical output text for the digest ------------------------------------------


def canon(obj) -> str:
    """Deterministic text of a segcalc output, independent of its renderers."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if hasattr(obj, "segments"):  # Multisegment
        return "{" + ",".join(f"{s.line}/{s.step}:{s.start}+{s.length}" for s in obj.segments) + "}"
    if hasattr(obj, "terms") and hasattr(obj, "d"):  # VirtualRep
        items = sorted((canon(m), c) for m, c in obj.terms.items())
        return f"V{obj.d}[" + ",".join(f"{c}*{m}" for m, c in items) + "]"
    if hasattr(obj, "units"):  # UnitaryProduct
        return "U[" + ",".join(
            f"{canon(u.base)}^{u.count}@{u.twist}~{u.alpha}" for u in obj.units
        ) + "]"
    if hasattr(obj, "sign") and hasattr(obj, "product"):  # SignedUnitaryProduct
        return f"{obj.sign}:{canon(obj.product)}"
    if hasattr(obj, "shifts"):  # FormalLFactor / EpsilonFactor
        return "S" + repr(tuple(obj.shifts))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}={canon(v)}" for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (set, frozenset)):
        return "<" + ",".join(sorted(canon(x) for x in obj)) + ">"
    if isinstance(obj, (list, tuple)):
        return "(" + ",".join(canon(x) for x in obj) + ")"
    return str(obj)
