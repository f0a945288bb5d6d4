"""Self-test of the benchmark at a tiny input size.

    python3 bench/selftest.py

Run from the root of a source checkout. It checks that every workload runs
to completion in both modes, that the metric names match BENCHMARK.json,
that every output check fires on a deliberately corrupted output, and that
a hook whose name has gone leaves only its own metrics out. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

import checks
import run
import tracing
import workloads

TINY = {
    "fixtures": {"core": 5},
    "universe": {"candidates": 400, "design": 40, "core": 300, "proposal": 30,
                 "dates": 10, "per_date": 3},
    "trades": {"candidates": 300, "design": 5, "core": 100, "proposal": 300,
               "dates": 60, "per_date": 10},
}


def _json_edit(edit):
    def corrupt(out: bytes) -> bytes:
        doc = json.loads(out)
        edit(doc)
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    return corrupt


def _drop_line(prefix: str):
    def corrupt(out: bytes) -> bytes:
        lines = out.decode().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        return "".join(lines[:i] + lines[i + 1:]).encode()
    return corrupt


def _flip_admissible(doc) -> None:
    doc["report"]["admissible"] = not doc["report"]["admissible"]


def _drop_cap(doc) -> None:
    caps = doc["weight_caps_impact"]
    caps.pop(next(iter(caps)))


def _drop_trade(doc) -> None:
    (doc["executed"] or doc["suppressed"]).pop()


def _more_proposed(doc) -> None:
    doc["trades_proposed"] += 1


def _bump_executed(out: bytes) -> bytes:
    return re.sub(rb"(trades_executed +)(\d+)",
                  lambda m: m.group(1) + str(int(m.group(2)) + 1).encode(), out)


def _flip_text_admissible(out: bytes) -> bytes:
    yes, no = b"admissible:     yes", b"admissible:     no"
    return out.replace(yes, no, 1) if yes in out else out.replace(no, yes, 1)


#: A corruption each check must catch, keyed by the check's factory name.
CORRUPTIONS = {
    "golden": lambda out: out[:-2] + bytes([out[-2] ^ 1]) + out[-1:],
    "report_json": _json_edit(_flip_admissible),
    "report_round_trip": lambda out: json.dumps(json.loads(out)).encode(),
    "report_text": _flip_text_admissible,
    "bounds_json": _json_edit(_drop_cap),
    "bounds_text": _drop_line("k_max_econ"),
    "filter_json": _json_edit(_drop_trade),
    "filter_text": _drop_line("  "),
    "replay_json": _json_edit(_more_proposed),
    "replay_text": _bump_executed,
}


def _nan(out: bytes) -> bytes:
    return re.sub(rb": -?\d+\.\d+(e-?\d+)?", b": NaN", out, count=1)


def _outputs(plan):
    from satfeas.cli import main

    for inv in plan.prepare:
        code, out, _wall = tracing.call_main(main, inv.argv)
        inv.after(out)
    for inv in plan.round:
        code, out, _wall = tracing.call_main(main, inv.argv)
        yield inv, code, out


def check_corruptions(name: str) -> int:
    """Every check passes the real output and fails its corrupted copy."""
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    fired = 0
    try:
        plan = workloads.build(name, 1, work, TINY[name])
        for inv, code, out in _outputs(plan):
            with contextlib.redirect_stderr(io.StringIO()):
                fired += _fire(inv, code, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return fired


def _fire(inv, code: int, out: bytes) -> int:
    verifier = checks.Verifier()
    assert verifier.verify(inv, code, out), inv.key
    assert not verifier.verify(inv, code, out + b" "), f"{inv.key}: repetition passed"
    assert not checks.Verifier().verify(inv, code + 1, out), f"{inv.key}: exit code passed"
    for fn in inv.checks:
        kind = fn.__qualname__.split(".")[0]
        bad = CORRUPTIONS[kind](out)
        assert bad != out, f"{inv.key}: {kind} corruption changed nothing"
        assert checks.first_problem([fn], bad), f"{inv.key}: {kind} did not fire"
        if kind.endswith("_json") and _nan(out) != out:
            assert checks.first_problem([fn], _nan(out)), f"{inv.key}: NaN passed"
    return len(inv.checks) + 2


def check_missing_hook() -> None:
    """A hook on a vanished name drops only the metrics that need it."""
    hooks = list(tracing.HOOKS)
    tracing.HOOKS[:] = [("satfeas.cli", "no_such_loader", "io.load_candidates",
                         tracing.SPAN, None)] + [h for h in hooks
                                                 if h[2] != "io.load_candidates"]
    try:
        metrics, verifier = run.run("fixtures", 1, 0, True, TINY["fixtures"])
    finally:
        tracing.HOOKS[:] = hooks
    assert verifier.failed == 0
    assert "io.load_candidates.ms" not in metrics
    assert "cli.main.self_ms" not in metrics
    assert "io.load_events.ms" in metrics


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in workloads.SIZES:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            metrics, verifier = run.run(name, 1, 0, trace, TINY[name])
            assert verifier.failed == 0, f"{name} trace={trace}: {verifier.failed} failed"
            got = {metric: unit for metric, (_v, unit, _n) in metrics.items()}
            assert got == expected, f"{name} trace={trace}: metrics {got} != {expected}"
            print(f"ok  {name:<9} trace={int(trace)}  {verifier.attempted} invocations, "
                  f"{len(metrics)} metrics")
        print(f"ok  {name:<9} {check_corruptions(name)} checks fire on corrupted output")
    check_missing_hook()
    print("ok  a missing hook leaves out only its own metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
