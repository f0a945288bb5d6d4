"""Traced in-process run: spans and counts at the boundaries between modules.

The run calls ``satfeas.cli.main(argv)`` once per invocation of the
workload, in one process, capturing stdout. To make spans nest at layer
boundaries without editing the package, it wraps the names one module
imports from another (``satfeas.cli.run_cascade``,
``satfeas.cascade.compute_bounds``, ...). Hot per-item functions in
``layers`` get count-only wrappers. Spans live in memory and are reduced to
metrics once a pass ends. A wrapped name that no longer exists is reported
on stderr and the metrics that need it are left out.

Untraced and traced passes alternate; the difference of their median wall
times is the tracing overhead. Import costs come from fresh interpreters
run with ``-X importtime``.
"""

from __future__ import annotations

import importlib
import io
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

IMPORT_SAMPLES = 7

SPAN, COUNT = "span", "count"


def _rows_of_events(args, result) -> int:
    return sum(len(event.proposal.trades) for event in result)


def _filter_sizes(args, result) -> dict[str, int]:
    return {"trades": len(args[0].trades), "executed": len(result[0])}


#: (module, attribute path, span or counter name, kind, sizes of the call).
HOOKS = [
    ("satfeas.cli", "load_config", "config.load_config", SPAN, None),
    ("satfeas.cli", "load_candidates", "io.load_candidates", SPAN,
     lambda args, result: {"rows": len(result)}),
    ("satfeas.cli", "load_core_weights", "io.load_core_weights", SPAN, None),
    ("satfeas.cli", "load_proposal_trades", "io.load_proposal_trades", SPAN, None),
    ("satfeas.cli", "load_events", "io.load_events", SPAN,
     lambda args, result: {"rows": _rows_of_events(args, result)}),
    ("satfeas.cli", "emit_report", "io.emit_report", SPAN,
     lambda args, result: {"bytes": len(result)}),
    ("satfeas.model", "SatelliteDesign.from_dict", "model.SatelliteDesign.from_dict", SPAN,
     None),
    ("satfeas.cli", "compute_bounds", "cascade.compute_bounds", SPAN, None),
    ("satfeas.cli", "run_cascade", "cascade.run_cascade", SPAN,
     lambda args, result: {"candidates": len(args[0].candidates)}),
    ("satfeas.cli", "filter_rebalance", "cascade.filter_rebalance", SPAN, _filter_sizes),
    ("satfeas.cli", "replay", "replay.replay", SPAN,
     lambda args, result: {"events": len(args[0])}),
    ("satfeas.cascade", "compute_bounds", "cascade.compute_bounds", SPAN, None),
    ("satfeas.cascade", "eligibility_filter", "tiering.eligibility_filter", SPAN, None),
    ("satfeas.cascade", "assign_tier_weights", "tiering.assign_tier_weights", SPAN, None),
    ("satfeas.cascade", "entropy_increment_exact", "layers.entropy_increment_exact", SPAN,
     None),
    ("satfeas.replay", "filter_rebalance", "cascade.filter_rebalance", SPAN, _filter_sizes),
    ("satfeas.cascade", "max_weight_impact", "layers.max_weight_impact", COUNT, None),
    ("satfeas.cascade", "max_weight_participation", "layers.max_weight_participation",
     COUNT, None),
    ("satfeas.cascade", "impact_cost", "layers.impact_cost", COUNT, None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "invocation", "sizes", "counts",
                 "child_ns")

    def __init__(self, name, start, parent, invocation):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.invocation = invocation
        self.sizes: dict[str, int] = {}
        self.counts: dict[str, int] = {}  # counted calls inside the span
        self.child_ns = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """Installs the hooks, records spans and counts, and restores the names."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: Counter = Counter()
        self.invocation = 0
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, path, name, kind, sizes in HOOKS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                if name not in self.missing:
                    print(f"bench: cannot hook {module}.{path}; metrics of {name} are "
                          f"left out", file=sys.stderr)
                    self.missing.add(name)
                continue
            self._restore.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__, sizes))
            elif kind == SPAN:
                wrapped = self.span(name, raw, sizes)
            else:
                wrapped = self._count(name, raw)
            setattr(owner, attr, wrapped)
        return self

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans.clear()
        self.counts.clear()

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def span(self, name, fn, sizes=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        clock = time.perf_counter_ns

        counts = self.counts

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            counted = dict(counts)
            span = Span(name, clock(), parent, self.invocation)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self.stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.child_ns += span.ns
                span.counts = {k: n - counted.get(k, 0) for k, n in counts.items()}
            if sizes is not None:
                span.sizes = sizes(args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def call_main(main, argv: list[str]) -> tuple[int, bytes, float]:
    """Run ``main(argv)`` with stdout and stderr captured: (code, stdout, seconds)."""
    out, err = io.BytesIO(), io.BytesIO()
    out_w = io.TextIOWrapper(out, encoding="utf-8")
    err_w = io.TextIOWrapper(err, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out_w, err_w
    try:
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
        out_w.flush()
        err_w.flush()
    data = out.getvalue()
    out_w.detach()
    err_w.detach()
    return code, data, wall


def _pass(main, invocations, tracer: Tracer | None) -> tuple[float, list]:
    """Run every invocation once: (summed wall seconds, [(invocation, code, stdout)])."""
    outputs, total = [], 0.0
    for inv in invocations:
        if tracer is not None:
            tracer.invocation += 1
        code, out, wall = call_main(main, inv.argv)
        total += wall
        outputs.append((inv, code, out))
    return total, outputs


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Reduce one traced pass to per-layer metrics, summed over its invocations.

    Each metric names the spans or counters it is computed from; when a hook
    for any of them is missing, the metric is left out.
    """
    ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    sizes: dict[str, Counter] = defaultdict(Counter)
    for span in tracer.spans:
        ms[span.name] += span.ns / 1e6
        self_ms[span.name] += span.self_ns / 1e6
        sizes[span.name].update(span.sizes)
    cap_evals = sum(span.counts.get("layers.max_weight_impact", 0) for span in tracer.spans
                    if span.name == "cascade.run_cascade")
    calls = tracer.counts
    trades = sizes["cascade.filter_rebalance"]
    cli_callees = sorted({name for module, _p, name, _k, _s in HOOKS if module == "satfeas.cli"})
    cascade_callees = ["cascade.compute_bounds", "tiering.eligibility_filter",
                       "tiering.assign_tier_weights", "layers.entropy_increment_exact"]

    table = [
        # (metric, value, unit, spans or counters it needs)
        ("cli.main.self_ms", self_ms["cli.main"], "ms", cli_callees),
        ("config.load_config.ms", ms["config.load_config"], "ms", ["config.load_config"]),
        ("io.load_candidates.ms", ms["io.load_candidates"], "ms", ["io.load_candidates"]),
        ("io.load_candidates.us_per_row",
         _ratio(ms["io.load_candidates"] * 1e3, sizes["io.load_candidates"]["rows"]), "us",
         ["io.load_candidates"]),
        ("io.load_core_weights.ms", ms["io.load_core_weights"], "ms",
         ["io.load_core_weights"]),
        ("io.load_proposal_trades.ms", ms["io.load_proposal_trades"], "ms",
         ["io.load_proposal_trades"]),
        ("io.load_events.ms", ms["io.load_events"], "ms", ["io.load_events"]),
        ("io.load_events.us_per_row",
         _ratio(ms["io.load_events"] * 1e3, sizes["io.load_events"]["rows"]), "us",
         ["io.load_events"]),
        ("io.emit_report.ms", ms["io.emit_report"], "ms", ["io.emit_report"]),
        ("io.emit_report.bytes", sizes["io.emit_report"]["bytes"], "bytes",
         ["io.emit_report"]),
        ("model.SatelliteDesign.from_dict.ms", ms["model.SatelliteDesign.from_dict"], "ms",
         ["model.SatelliteDesign.from_dict"]),
        ("tiering.eligibility_filter.ms", ms["tiering.eligibility_filter"], "ms",
         ["tiering.eligibility_filter"]),
        ("tiering.assign_tier_weights.ms", ms["tiering.assign_tier_weights"], "ms",
         ["tiering.assign_tier_weights"]),
        ("layers.max_weight_impact.calls", calls["layers.max_weight_impact"], "count",
         ["layers.max_weight_impact"]),
        ("layers.max_weight_participation.calls", calls["layers.max_weight_participation"],
         "count", ["layers.max_weight_participation"]),
        ("layers.impact_cost.calls", calls["layers.impact_cost"], "count",
         ["layers.impact_cost"]),
        ("layers.entropy_increment_exact.ms", ms["layers.entropy_increment_exact"], "ms",
         ["layers.entropy_increment_exact"]),
        ("cascade.compute_bounds.ms", ms["cascade.compute_bounds"], "ms",
         ["cascade.compute_bounds"]),
        ("cascade.run_cascade.ms", ms["cascade.run_cascade"], "ms", ["cascade.run_cascade"]),
        ("cascade.run_cascade.self_ms", self_ms["cascade.run_cascade"], "ms",
         ["cascade.run_cascade", *cascade_callees]),
        ("cascade.cap_evals_per_candidate",
         _ratio(cap_evals, sizes["cascade.run_cascade"]["candidates"]), "ratio",
         ["cascade.run_cascade", "layers.max_weight_impact"]),
        ("cascade.filter_rebalance.ms", ms["cascade.filter_rebalance"], "ms",
         ["cascade.filter_rebalance"]),
        ("cascade.filter_rebalance.us_per_trade",
         _ratio(ms["cascade.filter_rebalance"] * 1e3, trades["trades"]), "us",
         ["cascade.filter_rebalance"]),
        ("cascade.filter_rebalance.executed_ratio",
         _ratio(trades["executed"], trades["trades"]), "ratio", ["cascade.filter_rebalance"]),
        ("replay.replay.ms", ms["replay.replay"], "ms", ["replay.replay"]),
        ("replay.replay.self_ms", self_ms["replay.replay"], "ms",
         ["replay.replay", "cascade.filter_rebalance"]),
        ("replay.events", sizes["replay.replay"]["events"], "count", ["replay.replay"]),
    ]
    return {name: (value, unit) for name, value, unit, needs in table
            if value is not None and not tracer.missing.intersection(needs)}


#: Import-time metrics: (metric, module, cumulative). A cumulative metric
#: sums the top-level imports of ``module`` and its submodules.
IMPORT_METRICS = [
    ("import.satfeas.model.ms", "satfeas.model", False),
    ("import.satfeas.cascade.ms", "satfeas.cascade", False),
    ("import.satfeas.cli.total_ms", "satfeas", True),
]


def import_times(env) -> dict[str, list[float]]:
    """Import costs in ms from ``python -X importtime``; a module that is no
    longer imported is reported on stderr and left out."""
    found: dict[str, list[float]] = defaultdict(list)
    for sample in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import satfeas.cli"],
                              capture_output=True, text=True, env=env, check=True, timeout=60)
        own_us: dict[str, int] = {}
        top_us: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue  # the header, or a line that is not importtime's
            own, cumulative, raw = fields
            name = raw.strip()
            own_us[name] = int(own)
            if len(raw) - len(raw.lstrip()) == 1:  # imported at top level
                top_us[name] = int(cumulative)
        if not sample:
            continue  # the first interpreter may compile bytecode
        for metric, module, cumulative in IMPORT_METRICS:
            if cumulative:
                found[metric].append(sum(us for name, us in top_us.items()
                                         if name == module or name.startswith(module + "."))
                                     / 1e3)
            elif module in own_us:
                found[metric].append(own_us[module] / 1e3)
    for metric, module, _cumulative in IMPORT_METRICS:
        if metric not in found:
            print(f"bench: {module} is not imported; {metric} is left out", file=sys.stderr)
    return found


def per_layer(plan, seconds: float, verifier, env) -> dict[str, tuple[float, str, int]]:
    from satfeas.cli import main

    metrics: dict[str, tuple[float, str, int]] = {}
    for name, values in import_times(env).items():
        metrics[name] = (statistics.median(values), "ms", len(values))

    for inv in plan.prepare:
        code, out, _wall = call_main(main, inv.argv)
        if verifier.verify(inv, code, out) and inv.after is not None:
            inv.after(out)

    plain: list[float] = []
    traced: list[float] = []
    per_pass: dict[str, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, outputs = _pass(main, plan.round, None)
        plain.append(wall)
        tracer.reset()
        with tracer:
            wall, traced_outputs = _pass(tracer.span("cli.main", main), plan.round, tracer)
        traced.append(wall)
        for inv, code, out in outputs + traced_outputs:
            verifier.verify(inv, code, out)
        for name, (value, unit) in _layer_metrics(tracer).items():
            per_pass[name].append(value)
            units[name] = unit
    for name, values in per_pass.items():
        metrics[name] = (statistics.median(values), units[name], len(values))
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced) - statistics.median(plain)) * 1e3, "ms", len(traced))
    return metrics

